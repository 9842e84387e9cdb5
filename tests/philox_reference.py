"""Philox4x64-10 in pure Python, an oracle for numpy's ``random_raw``.

Written from the round function and constants of Salmon, Moraes, Dror and
Shaw 2011, *Parallel random numbers: as easy as 1, 2, 3* (SC11), with
numpy's counter convention: the 256-bit counter is incremented before
each block of four words.
"""

_MASK = 2**64 - 1
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _block(ctr: list[int], key: list[int]) -> list[int]:
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for _ in range(10):
        p0, p1 = _MUL[0] * c0, _MUL[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + _BUMP[0]) & _MASK, (k1 + _BUMP[1]) & _MASK
    return [c0, c1, c2, c3]


def philox_words(key: list[int], counter: int, count: int) -> list[int]:
    """The next ``count`` words after ``counter`` (a 256-bit int) under a
    128-bit ``key`` given as two 64-bit words, from an empty buffer."""
    out = []
    while len(out) < count:
        counter = (counter + 1) % 2**256
        out += _block([(counter >> (64 * i)) & _MASK for i in range(4)], key)
    return out[:count]


def stream_words(seed: int, index: int, count: int) -> list[int]:
    """The first ``count`` words of conjlab stream (seed, index): key words
    (seed, index), counter 0."""
    return philox_words([seed, index], 0, count)


def stream_bits(seed: int, index: int, count: int) -> list[int]:
    """The first ``count`` draws of stream (seed, index): bit i of word j is
    draw 64j + i."""
    words = stream_words(seed, index, -(-count // 64))
    return [(w >> i) & 1 for w in words for i in range(64)][:count]
