import numpy as np
import pytest
from philox_reference import philox_words, stream_bits, stream_words

import conjlab.mobius
from conjlab.mobius import random_walk_compare
from conjlab.parity import random_fraction
from conjlab.rng import substream
from conjlab.stochastic import WalkConfig, heuristic_walk

_KEYS = [(0, 0), (1, 0), (401, 3), (401, 19), (2**63, 7), (5, 2**40)]


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
@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_rejected_with_its_value(call, seed):
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        call(seed)


def test_random_walk_compare_checks_the_seed_before_sieving(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr(conjlab.mobius, "mertens", never)
    monkeypatch.setattr(conjlab.mobius, "mobius_segments", never)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        random_walk_compare(10**8, 20, -1)
