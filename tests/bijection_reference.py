"""Frozen full-orbit reference for the codes behind ``bijection_check``,
used only by the test suite.

``codes_reference(k)`` is the check's loop as it was first vectorized:
the residues 1, ..., 2^k in int64 blocks of 2^14, each followed k steps,
bit i of its code set from the parity of its i-th iterate.  It shares no
code with ``conjlab``: the step is spelled here.  Element n - 1 holds the
code of n.  3^k stays inside int64 for k <= 39.
"""

import numpy as np


def codes_reference(k: int) -> np.ndarray:
    n, block = 1 << k, 1 << 14
    out = np.empty(n, dtype=np.int64)
    for a in range(0, n, block):
        v = np.arange(a + 1, min(a + block, n) + 1, dtype=np.int64)
        codes = np.zeros_like(v)
        for i in range(k):
            b = v & 1
            codes |= b << i
            v = (v + b * (2 * v + 1)) >> 1
        out[a : a + v.size] = codes
    return out
