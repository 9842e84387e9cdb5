import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from bijection_reference import codes_reference
from lz_codec import decode, encode
from lz_reference import lz_cost_reference
from philox_reference import stream_bits

from conjlab import parity
from conjlab.parity import (
    CONCAT_SLACK_BITS,
    CompressibilityScore,
    ParityVector,
    Realization,
    bijection_check,
    description_length_estimate,
    estimator_overhead,
    parity_vector,
    random_fraction,
    realize,
)
from conjlab.rng import substream


def _extract_reference(n, k):
    bits = []
    v = n
    for _ in range(k):
        bits.append(v % 2)
        v = (3 * v + 1) // 2 if v % 2 else v // 2
    return tuple(bits)


@pytest.mark.parametrize(
    "n,k,bits",
    [(1, 2, (1, 0)), (4, 2, (0, 0)), (7, 3, (1, 1, 1)), (27, 0, ())],
)
def test_parity_vector_examples(n, k, bits):
    assert parity_vector(n, k).bits == bits


def test_parity_vector_matches_reference():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 2**48))
        k = int(rng.integers(0, 40))
        assert parity_vector(n, k).bits == _extract_reference(n, k)


def test_parity_vector_validation():
    with pytest.raises(ValueError):
        parity_vector(0, 3)
    with pytest.raises(ValueError):
        ParityVector((0, 2, 1))


def test_realize_examples():
    assert realize("1").witness == 1
    assert realize("0").witness == 2
    r = realize("111")
    assert (r.k, r.residue, r.witness) == (3, 7, 7)
    r = realize("")
    assert (r.k, r.residue, r.witness) == (0, 1, 1)


def test_realize_brute_force_small_k():
    # witness is the smallest positive integer with the requested parities
    for k in range(1, 7):
        for code in range(2**k):
            x = tuple((code >> i) & 1 for i in range(k))
            smallest = next(
                n for n in range(1, 2**k + 1) if _extract_reference(n, k) == x
            )
            r = realize(x)
            assert r.witness == smallest
            assert r.residue == smallest
            assert r.witness % (2**k) == r.residue % (2**k)
    # every residue in {1, ..., 2^k} comes back from its own vector
    for k in range(13):
        for n in range(1, 2**k + 1):
            assert realize(parity_vector(n, k)).residue == n


def test_realize_round_trip_random():
    rng = np.random.default_rng(22)
    for k in (8, 16, 32, 64):
        for _ in range(200):
            x = tuple(int(b) for b in rng.integers(0, 2, size=k))
            r = realize(x)
            assert parity_vector(r.witness, k).bits == x
            assert 1 <= r.residue <= 2**k
    for n, k in ((27, 4096), (12345678901234567890123, 200)):
        assert realize(parity_vector(n, k)) == Realization(k=k, residue=n, witness=n)


def test_two_adic_stability():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 33))
        n = int(rng.integers(1, 2**50))
        assert parity_vector(n, k).bits == parity_vector(n + 2**k, k).bits


def test_bijection_check():
    assert bijection_check(0) is True
    assert bijection_check(1) is True
    assert bijection_check(12) is True
    with pytest.raises(ValueError):
        bijection_check(25)
    with pytest.raises(ValueError):
        bijection_check(-1)


@pytest.mark.parametrize("k", range(1, 25))
def test_bijection_check_across_residue_blocks(k):
    # residues go in blocks of 2^14: k <= 13 fills part of one, k >= 15 several;
    # odd k splits into unequal halves (h = m + 1)
    assert bijection_check(k) is True


def _codes(k):
    # index n holds the code of residue n, 0 standing for 2^k
    return np.concatenate([c.ravel() for c in parity._code_blocks(k)])


@pytest.mark.parametrize("k", range(11))
def test_bijection_codes_match_extraction(k):
    want = [sum(b << i for i, b in enumerate(parity_vector(n or 2**k, k))) for n in range(2**k)]
    assert _codes(k).tolist() == want


@pytest.mark.parametrize("k", [15, 16, 17, 20])
def test_bijection_codes_match_full_orbit_reference(k):
    # the reference lists 1, ..., 2^k; _codes lists 2^k, 1, ..., 2^k - 1
    assert np.array_equal(np.roll(_codes(k), -1), codes_reference(k))


@pytest.mark.parametrize("k", [1, 8, 15])
def test_bijection_check_says_no_when_every_parity_bit_is_zero(k, monkeypatch):
    monkeypatch.setattr(parity, "_t_vec", lambda v: (np.zeros_like(v), v))
    assert bijection_check(k) is False


@pytest.mark.parametrize("k", [1, 8, 15])
def test_bijection_check_says_no_on_one_collision(k, monkeypatch):
    # flip only residue 1's first bit: its code becomes an even residue's
    code_blocks = parity._code_blocks

    def flipped(k):
        blocks = code_blocks(k)
        first = next(blocks)
        first.flat[1] ^= 1
        yield first
        yield from blocks

    monkeypatch.setattr(parity, "_code_blocks", flipped)
    assert bijection_check(k) is False


def test_estimator_alternating_megabit():
    score = description_length_estimate("01" * 500_000)
    assert score.length == 10**6
    # two literals, one self-overlapping phrase, plus the length header
    assert score.estimate == 87
    assert score.estimate < 10**4
    assert score.deficiency == 10**6 - 87


def test_estimator_all_zeros():
    score = description_length_estimate("0" * 1024)
    assert score.estimate == 45
    assert score.estimate < 128


def test_estimator_random_vectors_incompressible():
    estimates = []
    for i in range(20):
        bits = substream(97, i).integers(0, 2, size=4096, dtype=np.uint8)
        estimates.append(description_length_estimate(bits.tolist()).estimate)
    assert np.mean(estimates) > 3900
    assert min(estimates) > 3900


def test_estimator_empty_vector():
    s = description_length_estimate("")
    assert (s.length, s.estimate, s.deficiency) == (0, 2, -2)


def test_estimator_overhead_accounting():
    # header gamma(k+1) plus one model-selection bit
    assert estimator_overhead(0) == 2
    assert estimator_overhead(1) == 4
    assert estimator_overhead(1023) == 22
    assert estimator_overhead(4096) == 26
    s = description_length_estimate("1" * 64)
    assert isinstance(s, CompressibilityScore)
    assert s.overhead_bits == estimator_overhead(64)
    assert s.deficiency == s.length - s.estimate


def test_estimator_verbatim_ceiling():
    # estimate never exceeds length + overhead
    rng = np.random.default_rng(24)
    for k in (1, 2, 16, 64, 256):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
        s = description_length_estimate(bits)
        assert s.estimate <= k + estimator_overhead(k)


def test_concatenation_slack():
    # also on every vector checked against lz_reference below; the largest
    # double - 2 * single among them all is -2, at k = 0
    rng = np.random.default_rng(25)
    cases = [
        "01" * 256,
        "0" * 500,
        "".join(str(int(b)) for b in rng.integers(0, 2, size=700)),
        parity_vector(27, 300).to_bitstring(),
        *_STRUCTURED.values(),
        *_random_4096(),
        *(x for k in _SHORT_K for x in _short(k)),
    ]
    for x in cases:
        x = ParityVector.coerce(x).bits
        single = description_length_estimate(x).estimate
        double = description_length_estimate(x + x).estimate
        assert double <= 2 * single + CONCAT_SLACK_BITS


def test_random_fraction_reproducible():
    a = random_fraction(256, 50, seed=5)
    b = random_fraction(256, 50, seed=5)
    c = random_fraction(256, 50, seed=5, workers=4)
    assert a == b == c
    assert 0.0 <= a <= 1.0


def test_random_fraction_degenerate_threshold():
    # every 8-bit vector is literal-coded, deficiency is always negative
    assert random_fraction(8, 256, seed=3, threshold=0) == 1.0


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 4096])
def test_random_fraction_samples_raw_philox_bits(k, monkeypatch):
    # sample i is the first k draws of stream (seed, i), bit i of word j as draw 64j + i
    seen = []
    estimate = parity._estimate_bits

    def spy(bits):
        seen.append(bits.tolist())
        return estimate(bits)

    monkeypatch.setattr(parity, "_estimate_bits", spy)
    random_fraction(k, 3, seed=501)
    assert seen == [stream_bits(501, i, k) for i in range(3)]


def test_random_fraction_validation():
    with pytest.raises(ValueError):
        random_fraction(64, 0, seed=1)


def test_random_fraction_rejects_negative_k_before_drawing(monkeypatch):
    monkeypatch.setattr(parity, "substream", None)  # any draw would raise TypeError
    with pytest.raises(ValueError, match="k must be non-negative"):
        random_fraction(-3, 4, 0, threshold=5)


def test_parity_vector_matches_reference_exhaustive_and_wide():
    starts = list(range(1, 301)) + [2**64 - 1, 2**64 + 1, 2**70 + 5, 3**50]
    for n in starts:
        for k in (0, 1, 16, 17, 64, 300):
            assert parity_vector(n, k).bits == _extract_reference(n, k), (n, k)


def _lz_cost(bits) -> int:
    b = np.asarray(bits, dtype=np.uint8)
    return parity._lz_cost(b.tobytes(), parity._chains(b))


def _rand(seed: int, k: int) -> np.ndarray:
    return substream(seed, 0).integers(0, 2, size=k, dtype=np.uint8)


def _noisy_periodic() -> np.ndarray:
    g = substream(8, 0)
    x = np.tile(g.integers(0, 2, size=97, dtype=np.uint8), 1400)
    return x ^ (g.random(x.size) < 0.01).astype(np.uint8)


def _tie() -> np.ndarray:
    # A B A C A D: at the third A both earlier copies match exactly |A| bits
    # (B and C open with the same bit, D with the other), and the rightmost
    # copy has a shorter gamma-coded offset (32 against 156).
    a, b, c, d = (_rand(s, n) for s, n in ((31, 24), (32, 100), (33, 8), (34, 30)))
    b[0] = c[0] = 1 - d[0]
    return np.concatenate([a, b, a, c, a, d])


_STRUCTURED = {
    "alternating-4000": [0, 1] * 2000,
    "alternating-megabit": [0, 1] * 500_000,
    "tiled-random-block": np.tile(_rand(7, 300), 40),
    "noisy-periodic": _noisy_periodic(),
    "all-zeros": [0] * 4096,
    "ones-15": [1] * 15,
    "ones-16": [1] * 16,
    "ones-17": [1] * 17,
    "orbit-27-300": parity_vector(27, 300).bits,
    "orbit-27-4096": parity_vector(27, 4096).bits,
    "orbit-2^70+5-2000": parity_vector(2**70 + 5, 2000).bits,
    "orbit-3^50-5000": parity_vector(3**50, 5000).bits,
    # the phrase at 40 reaches the end of the input exactly
    "match-ends-at-limit": np.tile(_rand(35, 40), 2),
    "match-ends-at-limit-overlapping": np.tile(_rand(36, 40), 3)[:100],
    "tail-phrase-at-limit": np.concatenate([_rand(37, 40), _rand(38, 50), _rand(37, 40)[:20]]),
    "equal-matches-rightmost-wins": _tie(),
}


@pytest.mark.parametrize("name", list(_STRUCTURED))
def test_lz_cost_matches_frozen_reference_structured(name):
    x = _STRUCTURED[name]
    assert _lz_cost(x) == lz_cost_reference(x)


def _random_4096():
    return (substream(501, i).integers(0, 2, size=4096, dtype=np.uint8) for i in range(200))


def test_lz_cost_matches_frozen_reference_random():
    for i, x in enumerate(_random_4096()):
        assert _lz_cost(x) == lz_cost_reference(x), i


_SHORT_K = [0, 1, 15, 16, 17, 31, 32, 33]


def _short(k):
    cases = [[0] * k, [1] * k, [0, 1] * (k // 2) + [0] * (k % 2), [1, 1, 0] * (k // 3)]
    return cases + [_rand(100 + s, k) for s in range(20)]


@pytest.mark.parametrize("k", _SHORT_K)
def test_lz_cost_matches_frozen_reference_short(k):
    for x in _short(k):
        assert _lz_cost(x) == lz_cost_reference(x), x


def _assert_estimate_is_a_code_length(x):
    code = encode(x)
    assert len(code) == description_length_estimate(x).estimate
    assert decode(code) == [int(b) for b in x]


@pytest.mark.parametrize("name", list(_STRUCTURED))
def test_lz_codec_writes_the_estimate_structured(name):
    _assert_estimate_is_a_code_length(_STRUCTURED[name])


def test_lz_codec_writes_the_estimate_random():
    for x in _random_4096():
        _assert_estimate_is_a_code_length(x)


@pytest.mark.parametrize("k", _SHORT_K)
def test_lz_codec_writes_the_estimate_short(k):
    for x in _short(k):
        _assert_estimate_is_a_code_length(x)


@pytest.mark.parametrize("k", range(1, 19))
def test_lz_code_lengths_obey_kraft(k):
    # Model bit + body over every k-bit x.  No phrase fits below k = 17,
    # so up to 16 every x is verbatim and the sum is exactly 1/2; at 17
    # two vectors compress and at 18 eight, and the codec writes those too.
    header = estimator_overhead(k) - 1
    lengths = Counter()
    for i in range(2**k):
        x = format(i, f"0{k}b")
        estimate = description_length_estimate(x).estimate
        lengths[estimate - header] += 1
        if estimate - header <= k:
            _assert_estimate_is_a_code_length(x)
    assert sum(Fraction(n, 2**bits) for bits, n in lengths.items()) <= 1


def test_estimates_of_structured_orbits_are_pinned():
    assert description_length_estimate(parity_vector(27, 300)).estimate == 179
    assert description_length_estimate(parity_vector(2**70 + 5, 2000)).estimate == 703


def test_random_fraction_runs_serially_at_any_worker_count(monkeypatch):
    seen = []
    sample = parity._sample_deficient

    def spy(*args):
        seen.append(threading.get_ident())
        return sample(*args)

    monkeypatch.setattr(parity, "_sample_deficient", spy)
    assert random_fraction(64, 8, seed=2, workers=2) == random_fraction(64, 8, seed=2)
    assert seen == [threading.get_ident()] * 16


def test_coerce_str_list_and_tuple_agree():
    bits = (1, 0, 1, 1, 0)
    for x in ("10110", [1, 0, 1, 1, 0], bits, ParityVector(bits)):
        assert ParityVector.coerce(x).bits == bits
    assert ParityVector.coerce("").bits == ()


def test_coerce_errors():
    with pytest.raises(ValueError, match="^parity bits must be 0 or 1$"):
        ParityVector.coerce("012")
    with pytest.raises(ValueError):
        ParityVector.coerce("01a")
    with pytest.raises(TypeError, match="^cannot interpret int as a parity vector$"):
        ParityVector.coerce(5)


@pytest.mark.parametrize("x", ["\x00\x01", "0 1", "1\n", "\u0661", "\uff10"])
def test_coerce_str_takes_only_ascii_bits(x):
    with pytest.raises(ValueError, match="^parity bits must be 0 or 1$"):
        ParityVector.coerce(x)
