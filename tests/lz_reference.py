"""Frozen reference for the LZ phrase parse, used only by the test suite.

``lz_cost_reference(bits)`` is the phrase-parse cost of the estimator as it
was first written: a 16-gram feasibility table, then for each feasible
position a doubling-and-binary search over ``bytes.rfind`` for the longest
earlier occurrence, and one more ``rfind`` for its rightmost start.  It
shares no code with ``conjlab.parity``, so the package's parse is judged
against an independent implementation, cost for cost with ``==``.
It is quadratic in the worst case; keep its inputs small.
"""

import numpy as np

_MIN_MATCH = 16


def _gamma_len(m: int) -> int:
    # Elias gamma code length of a positive integer.
    return 2 * (m.bit_length() - 1) + 1


def _match_feasible(bits: np.ndarray) -> np.ndarray:
    """feasible[j] is True when the 16-gram at j already occurred earlier.

    Packs every 16-gram into a uint32 key and takes the first occurrence
    index of each key; positions whose key appeared strictly before can
    start a phrase, everything else is a guaranteed literal and skips the
    substring search entirely.
    """
    k = bits.size
    m = k - (_MIN_MATCH - 1)
    if m <= 0:
        return np.zeros(k, dtype=bool)
    w = np.zeros(m, dtype=np.uint32)
    for i in range(_MIN_MATCH):
        w |= bits[i : i + m].astype(np.uint32) << np.uint32(_MIN_MATCH - 1 - i)
    first = np.full(1 << _MIN_MATCH, m, dtype=np.int64)
    np.minimum.at(first, w, np.arange(m, dtype=np.int64))
    out = np.zeros(k, dtype=bool)
    out[:m] = first[w] < np.arange(m, dtype=np.int64)
    return out


def _lz_cost(raw: bytes, feasible: np.ndarray) -> int:
    """Greedy phrase-parse cost in bits.

    Phrases copy from any earlier start (overlap with the phrase itself
    allowed, which encodes runs); costs are 1 flag bit plus gamma codes
    for offset and length, literals cost a flag bit plus the payload bit.
    A phrase is only taken when strictly cheaper than the literals it
    replaces.
    """
    k = len(raw)
    cost = 0
    pos = 0
    while pos < k:
        limit = k - pos
        if limit < _MIN_MATCH or not feasible[pos]:
            cost += 2
            pos += 1
            continue

        def ok(length: int) -> bool:
            # any occurrence starting strictly before pos, overlap allowed
            return raw.rfind(raw[pos : pos + length], 0, pos + length - 1) != -1

        lo = _MIN_MATCH
        hi = min(2 * lo, limit)
        while hi < limit and ok(hi):
            lo = hi
            hi = min(2 * hi, limit)
        if ok(hi):
            lo = hi
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if ok(mid):
                lo = mid
            else:
                hi = mid
        # lo is now the longest feasible phrase length
        j = raw.rfind(raw[pos : pos + lo], 0, pos + lo - 1)
        phrase_cost = 1 + _gamma_len(pos - j) + _gamma_len(lo)
        if phrase_cost < 2 * lo:
            cost += phrase_cost
            pos += lo
        else:
            cost += 2
            pos += 1
    return cost


def lz_cost_reference(bits) -> int:
    """Phrase-parse cost of a 0/1 sequence under the reference parse."""
    b = np.asarray(bits, dtype=np.uint8)
    return _lz_cost(b.tobytes(), _match_feasible(b))
