"""Parity vectors of Collatz orbits: extraction, 2-adic realization, and a
computable incompressibility proxy.

The k-bit parity vector of n records the parity of the first k iterates
n, T(n), ..., T^{k-1}(n).  Extraction is a bijection between residues
mod 2^k (representatives {1, ..., 2^k}) and {0,1}^k, and ``realize``
inverts it in closed form, by a congruence mod 2^k.  The map T comes
from ``collatz``: ``parity_vector`` calls its scalar parity loop and
``bijection_check`` its array step.

``description_length_estimate`` is a self-delimiting two-part code length: a
gamma-coded length header plus the cheaper of a verbatim copy and a
greedy Lempel-Ziv phrase parse.  It upper-bounds the shortest
description this estimator can certify, so small values certify
structure while large values are merely absence of evidence of it.

The parse finds each phrase exactly: hash chains link every start to
the previous start with the same 16 bits, and the whole chain is walked,
never truncated, to take the longest earlier match and, among equally
long ones, the rightmost.  ``random_fraction`` runs its samples serially.
"""

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import ESTIMATOR_ID
from .collatz import _parities, _t_vec
from .rng import _check_seed, _check_workers, _draws, substream

__all__ = [
    "ParityVector",
    "Realization",
    "CompressibilityScore",
    "ESTIMATOR_ID",
    "CONCAT_SLACK_BITS",
    "parity_vector",
    "realize",
    "bijection_check",
    "estimator_overhead",
    "description_length_estimate",
    "random_fraction",
]

# Self-concatenation slack: estimate(x..x) <= 2 estimate(x) + this.  It is
# measured, not derived: the doubled vector re-derives its second half as
# one phrase and pays the header once, and test_concatenation_slack finds
# estimate(x..x) - 2 estimate(x) <= -2 on every vector it checks.
CONCAT_SLACK_BITS = 256

_MIN_MATCH = 16
# b"0" to 0, b"1" to 1 and any other byte to 2, which __post_init__ rejects
_ASCII_BITS = bytes(c - 48 if c in b"01" else 2 for c in range(256))
_BIJECTION_K_MAX = 24
_BIJECTION_BLOCK = 1 << 14


@dataclass(frozen=True)
class ParityVector:
    bits: tuple[int, ...]

    def __post_init__(self):
        if not {0, 1}.issuperset(self.bits):
            raise ValueError("parity bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    @classmethod
    def coerce(cls, x) -> "ParityVector":
        if isinstance(x, cls):
            return x
        if isinstance(x, str):
            return cls(tuple(x.encode().translate(_ASCII_BITS)))
        if isinstance(x, Iterable):
            return cls(tuple(map(int, x)))
        raise TypeError(f"cannot interpret {type(x).__name__} as a parity vector")

    def to_bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def as_bytes(self) -> bytes:
        return bytes(self.bits)


@dataclass(frozen=True)
class Realization:
    k: int
    residue: int
    witness: int


@dataclass(frozen=True)
class CompressibilityScore:
    length: int
    estimate: int
    deficiency: int
    estimator: str
    overhead_bits: int


def parity_vector(n: int, k: int) -> ParityVector:
    """Parities of the first k iterates n, T(n), ..., T^{k-1}(n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if k < 0:
        raise ValueError("k must be non-negative")
    return ParityVector(tuple(_parities(n, k, 0)))


def realize(x) -> Realization:
    """Invert extraction: the unique residue in {1, ..., 2^k} whose orbit
    opens with parity vector ``x``.

    Composing the k steps that ``x`` prescribes gives
    T^k(n) = (3^a n + s) / 2^k, where a counts the ones in ``x`` and s
    is tripled and gains 2^i at each odd step i (Terras 1976; Lagarias
    1985, Thm. B).  So the residue is the c with 3^a c + s = 0 (mod 2^k),
    c = -s 3^-a mod 2^k, and 2^k when that is 0.  No other residue
    solves it: if c's parity first differs from ``x`` at step i, the same
    composition leaves 3^a c + s = 2^i (mod 2^(i+1)).  The result is
    verified by re-extraction.
    """
    xv = ParityVector.coerce(x)
    k = len(xv)
    a = s = 0
    for i, want in enumerate(xv):
        if want:
            a += 1
            s = 3 * s + (1 << i)
    c = -s * pow(3, -a, 1 << k) % (1 << k) or 1 << k
    if parity_vector(c, k).bits != xv.bits:
        raise AssertionError("realization failed re-extraction check")
    return Realization(k=k, residue=c, witness=c)


def _opening(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per residue r mod 2^bits (r = 0 stands for 2^bits), in uint32: the
    code of its first ``bits`` parities, 3^a with a the odd steps among
    them, and T^bits(r)."""
    v = np.arange(1 << bits, dtype=np.uint32)
    code, mult = np.zeros_like(v), np.ones_like(v)
    for i in range(bits):
        b, v = _t_vec(v)
        code |= b << i
        mult += 2 * b * mult
    return code, mult, v


def _code_blocks(k: int) -> Iterator[np.ndarray]:
    """The k-bit codes of the residues 0, 1, ..., 2^k - 1 in ascending
    order (0 stands for 2^k), as uint32 blocks of rows of 2^(k // 2)."""
    m = k // 2
    h = k - m
    code_m, mult, t_m = _opening(m)
    high = _opening(h)[0] << m
    mask, rows = np.uint32((1 << h) - 1), _BIJECTION_BLOCK >> m
    for q0 in range(0, 1 << h, rows):
        q = np.arange(q0, min(q0 + rows, 1 << h), dtype=np.uint32)[:, None]
        yield high[(q * mult + t_m) & mask] | code_m


def bijection_check(k: int) -> bool:
    """Exhaustively confirm that extraction maps {1, ..., 2^k} onto {0,1}^k.

    With m = k // 2 and h = k - m, write each residue as n = q * 2^m + r,
    0 <= r < 2^m, 0 <= q < 2^h (residue 0 stands for 2^k; both have the
    all-zero code).  Then:

    - the first m parities of n are r's own;
    - T^m(n) = 3^a(r) * q + T^m(r), with a(r) the odd steps among them;
    - the next h parities depend only on T^m(n) mod 2^h.

    So no orbit is followed past h steps: two tables over the residues
    mod 2^m and mod 2^h (``_opening``) give every code,
    code_m(r) | code_h((3^a(r) q + T^m(r)) mod 2^h) << m, in blocks of at
    most 2^14 residues whose temporaries stay in cache.  Each block marks
    its codes in one bool array over all 2^k, and 2^k residues reach 2^k
    codes one-to-one exactly when every code is marked.  uint32 is exact,
    with no wrap: for k <= 24, m and h are at most 12, and
    T^i(r) + 1 <= 1.5^i (r + 1) keeps every table iterate
    below 1.5^12 * 2^12 = 3^12 (so no step wraps) and every index
    3^a(r) q + T^m(r) below 2^12 * 3^12 + 1.5^12 * 2^12 < 2^32.  k is
    capped for that bound and for the 2^k-byte array.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > _BIJECTION_K_MAX:
        raise ValueError(f"k > {_BIJECTION_K_MAX} not supported by the exhaustive check")
    hit = np.zeros(1 << k, dtype=bool)
    for codes in _code_blocks(k):
        hit[codes] = True
    return bool(hit.all())


def _gamma_len(m: int) -> int:
    # Elias gamma code length of a positive integer.
    return 2 * (m.bit_length() - 1) + 1


def estimator_overhead(k: int) -> int:
    """Header cost the estimator pays on any k-bit input: gamma(k+1) plus
    one model-selection bit."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _gamma_len(k + 1) + 1


def _chains(bits: np.ndarray) -> np.ndarray:
    """prev[j] is the nearest start before j with the same 16-gram, or -1.

    Each 16-gram is packed into a uint16 key by doubling (adjacent 1-gram
    keys make a 2-gram key, adjacent 2-grams a 4-gram, ...).  A stable
    argsort of uint16 keys, a radix sort, lists every key's starts in
    ascending order, so each start's predecessor there is its chain link.
    """
    m = bits.size - (_MIN_MATCH - 1)
    if m <= 0:
        return np.zeros(0, dtype=np.int64)
    w = bits.astype(np.uint16)
    s = 1
    while s < _MIN_MATCH:
        w = (w[:-s] << np.uint16(s)) | w[s:]
        s *= 2
    order = np.argsort(w, kind="stable")
    keys = w[order]
    before = np.concatenate(([-1], order[:-1]))
    before[1:][keys[1:] != keys[:-1]] = -1
    prev = np.empty(m, dtype=np.int64)
    prev[order] = before
    return prev


def _extend(raw: bytes, j: int, pos: int, lo: int, limit: int) -> int:
    """Common prefix length of raw[j:] and raw[pos:], capped at ``limit``,
    given that the first ``lo`` bytes agree: doubling slice compares, then
    a binary search inside the block that failed."""
    hi = min(2 * lo, limit)
    while lo < limit and raw[j + lo : j + hi] == raw[pos + lo : pos + hi]:
        lo = hi
        hi = min(2 * hi, limit)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if raw[j + lo : j + mid] == raw[pos + lo : pos + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _lz_cost(raw: bytes, prev: np.ndarray) -> int:
    """Greedy phrase-parse cost in bits.

    Phrases copy from any earlier start (overlap with the phrase itself
    allowed, which encodes runs); costs are 1 flag bit plus gamma codes
    for offset and length, literals cost a flag bit plus the payload bit.
    A phrase is only taken when strictly cheaper than the literals it
    replaces.

    The search is exact: at each start with an earlier copy of its 16-gram,
    the whole hash chain ``prev`` is walked from right to left, with no
    truncation, and the phrase is the longest earlier match, capped at the
    end of the input; among equally long matches the rightmost (nearest)
    one wins, since only a strictly longer match replaces the best so far.
    Every other position is a literal.
    """
    k = len(raw)
    # byte 1 at each start whose 16-gram occurred before; find() skips literals
    linked = (prev >= 0).tobytes()
    chain = memoryview(prev)  # Python ints on indexing, without a tolist() copy
    cost = 0
    pos = 0
    while (q := linked.find(1, pos)) >= 0:
        cost += 2 * (q - pos)
        pos = q
        limit = k - pos
        best, best_j = 0, -1
        j = chain[pos]
        while j >= 0:
            # only a match longer than best can replace it
            if raw[j + _MIN_MATCH : j + best + 1] == raw[pos + _MIN_MATCH : pos + best + 1]:
                best = _extend(raw, j, pos, max(best + 1, _MIN_MATCH), limit)
                best_j = j
                if best == limit:
                    break
            j = chain[j]
        phrase_cost = 1 + _gamma_len(pos - best_j) + _gamma_len(best)
        if phrase_cost < 2 * best:
            cost += phrase_cost
            pos += best
        else:
            cost += 2
            pos += 1
    return cost + 2 * (k - pos)


def _estimate_bits(bits_u8: np.ndarray) -> int:
    k = int(bits_u8.size)
    body = min(k, _lz_cost(bits_u8.tobytes(), _chains(bits_u8)))
    return estimator_overhead(k) + body


def description_length_estimate(x) -> CompressibilityScore:
    """Two-part code length of a parity vector and its randomness deficiency.

    estimate = header + model bit + min(k, phrase-parse cost); the
    deficiency k - estimate is at most -overhead for vectors this
    estimator cannot compress and grows with detected structure.
    """
    xv = ParityVector.coerce(x)
    k = len(xv)
    estimate = _estimate_bits(np.frombuffer(xv.as_bytes(), dtype=np.uint8))
    return CompressibilityScore(
        length=k,
        estimate=estimate,
        deficiency=k - estimate,
        estimator=ESTIMATOR_ID,
        overhead_bits=estimator_overhead(k),
    )


def _sample_deficient(k: int, seed: int, index: int, threshold: int) -> bool:
    bits = _draws(substream(seed, index).bit_generator.random_raw(-(-k // 64)), k)
    return k - _estimate_bits(bits) < threshold


def random_fraction(
    k: int,
    samples: int,
    seed: int,
    threshold: int | None = None,
    *,
    workers: int = 1,
) -> float:
    """Fraction of uniformly random k-bit vectors whose deficiency stays
    below ``threshold`` (default: the estimator's own overhead, the
    tightest bound it can certify on nothing).

    The true fraction, over all 2^k vectors, is at least
    1 - 2^-threshold: the model bit and body form a prefix-free code
    (``tests/lz_codec.py`` decodes it), so by Kraft's inequality at most
    2^(k - d) vectors have deficiency d or more.  At k = 4096 and the
    default threshold that floor is 1 - 2^-26.

    Sample i is the first k bits of the raw Philox words of stream
    (seed, i), bit i of word j as bit 64j + i, so the fraction is
    reproducible for a fixed seed.  ``workers`` is accepted and checked,
    but not used: the samples run serially, because each is a short
    Python loop that holds the interpreter lock, and threads made the
    whole run slower, not faster.
    """
    _check_seed(seed)
    _check_workers(workers)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    overhead = estimator_overhead(k)  # rejects k < 0 before any draw
    threshold = overhead if threshold is None else threshold
    hits = sum(_sample_deficient(k, seed, i, threshold) for i in range(samples))
    return hits / samples
