import numpy as np
import pytest
from philox_reference import philox_words, stream_bits, stream_words

import conjlab.mobius
import conjlab.parity
import conjlab.stochastic
from conjlab.mobius import random_walk_compare
from conjlab.parity import random_fraction
from conjlab.rng import substream
from conjlab.stochastic import WalkConfig, heuristic_walk

_KEYS = [(0, 0), (1, 0), (401, 3), (401, 19), (2**63, 7), (5, 2**40), (2**64 - 1, 2**64 - 1)]


@pytest.mark.parametrize("seed,index", _KEYS)
def test_random_raw_matches_the_philox_oracle(seed, index):
    # 1003 words cross 251 counter blocks and end inside one
    words = substream(seed, index).bit_generator.random_raw(1003)
    assert words.tolist() == stream_words(seed, index, 1003)


def test_the_oracle_carries_the_counter_past_64_bits():
    key = [3, 9]
    for counter in (2**64 - 2, 2**128 - 1, 2**256 - 1):
        gen = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=counter)
        assert gen.random_raw(12).tolist() == philox_words(key, counter, 12)


def test_stream_bits_read_bit_i_of_word_j_as_draw_64j_plus_i():
    words = stream_words(2, 5, 3)
    bits = stream_bits(2, 5, 130)
    assert bits[64 + 7] == (words[1] >> 7) & 1
    assert bits[128:] == [words[2] & 1, (words[2] >> 1) & 1]


@pytest.mark.parametrize(
    "call",
    [
        lambda seed: random_fraction(16, 4, seed),
        lambda seed: heuristic_walk(WalkConfig(trials=4, steps=10, seed=seed)),
        lambda seed: heuristic_walk(WalkConfig(trials=4, steps=0, seed=seed)),
        lambda seed: random_walk_compare(100, 4, seed),
    ],
    ids=["random_fraction", "heuristic_walk", "heuristic_walk-no-steps", "random_walk_compare"],
)
@pytest.mark.parametrize("seed", [-1, -(2**70), 2**64, 2**70])
def test_negative_seed_rejected_with_its_value(call, seed, monkeypatch):
    # seeds of 2**64 or more would alias into the index key word
    def never(*args, **kwargs):
        raise AssertionError("sieved or drew")

    for mod in (conjlab.parity, conjlab.stochastic, conjlab.mobius):
        monkeypatch.setattr(mod, "substream", never)
    monkeypatch.setattr(conjlab.mobius, "mertens", never)
    monkeypatch.setattr(conjlab.mobius, "mobius_segments", never)
    bound = "non-negative" if seed < 0 else r"below 2\*\*64"
    with pytest.raises(ValueError, match=f"^seed must be {bound}, got {seed}$"):
        call(seed)


def test_random_walk_compare_checks_the_seed_before_sieving(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr(conjlab.mobius, "mertens", never)
    monkeypatch.setattr(conjlab.mobius, "mobius_segments", never)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        random_walk_compare(10**8, 20, -1)
    for seed in (2**64, 2**70):
        with pytest.raises(ValueError, match=rf"^seed must be below 2\*\*64, got {seed}$"):
            random_walk_compare(10**8, 20, seed)


def test_the_largest_seed_is_accepted():
    seed = 2**64 - 1
    assert 0.0 <= random_fraction(16, 4, seed) <= 1.0
    assert heuristic_walk(WalkConfig(trials=4, steps=10, seed=seed)).trials == 4
    assert random_walk_compare(100, 4, seed).trials == 4


@pytest.mark.parametrize("seed,index", [(2**64, 0), (0, 2**64), (0, -1), (-1, 0)])
def test_substream_rejects_key_words_outside_64_bits(seed, index):
    message = rf"^seed and index must lie in \[0, 2\*\*64\), got \({seed}, {index}\)$"
    with pytest.raises(ValueError, match=message):
        substream(seed, index)
