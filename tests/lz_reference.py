"""Frozen reference for the LZ phrase parse, used only by the test suite.

``lz_cost_reference(bits)`` is the phrase-parse cost of the estimator as it
was first written: a 16-gram feasibility table, then for each feasible
position a doubling-and-binary search over ``bytes.rfind`` for the longest
earlier occurrence, and one more ``rfind`` for its rightmost start.  It
shares no code with ``conjlab.parity``, so the package's parse is judged
against an independent implementation, cost for cost with ``==``.
``lz_tokens(bits)`` yields the parse's literals and phrases one by one;
the cost is their sum, and ``lz_codec`` writes them as bits.
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


def _parse(raw: bytes, feasible: np.ndarray):
    """Greedy phrase parse, one token at a time: (0, bit) for a literal,
    (offset, length) for a phrase copied from ``offset`` bits back.

    Phrases copy from any earlier start (overlap with the phrase itself
    allowed, which encodes runs); costs are 1 flag bit plus gamma codes
    for offset and length, literals cost a flag bit plus the payload bit.
    A phrase is only taken when strictly cheaper than the literals it
    replaces.
    """
    k = len(raw)
    pos = 0
    while pos < k:
        limit = k - pos
        if limit < _MIN_MATCH or not feasible[pos]:
            yield 0, raw[pos]
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
            yield pos - j, lo
            pos += lo
        else:
            yield 0, raw[pos]
            pos += 1


def lz_tokens(bits):
    """The reference parse's tokens of a 0/1 sequence (see ``_parse``)."""
    b = np.asarray(bits, dtype=np.uint8)
    return _parse(b.tobytes(), _match_feasible(b))


def lz_cost_reference(bits) -> int:
    """Phrase-parse cost of a 0/1 sequence under the reference parse."""
    return sum(2 if off == 0 else 1 + _gamma_len(off) + _gamma_len(n) for off, n in lz_tokens(bits))
