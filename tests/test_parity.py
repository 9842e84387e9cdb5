import numpy as np
import pytest

from conjlab.parity import (
    CONCAT_SLACK_BITS,
    CompressibilityScore,
    ParityVector,
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


def test_realize_round_trip_random():
    rng = np.random.default_rng(22)
    for k in (8, 16, 32, 64):
        for _ in range(200):
            x = tuple(int(b) for b in rng.integers(0, 2, size=k))
            r = realize(x)
            assert parity_vector(r.witness, k).bits == x
            assert 1 <= r.residue <= 2**k


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
    rng = np.random.default_rng(25)
    cases = [
        "01" * 256,
        "0" * 500,
        "".join(str(int(b)) for b in rng.integers(0, 2, size=700)),
        parity_vector(27, 300).to_bitstring(),
    ]
    for x in cases:
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


def test_random_fraction_validation():
    with pytest.raises(ValueError):
        random_fraction(64, 0, seed=1)


def test_parity_vector_matches_reference_exhaustive_and_wide():
    starts = list(range(1, 301)) + [2**64 - 1, 2**64 + 1, 2**70 + 5, 3**50]
    for n in starts:
        for k in (0, 1, 16, 17, 64, 300):
            assert parity_vector(n, k).bits == _extract_reference(n, k), (n, k)
