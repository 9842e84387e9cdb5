"""Parity vectors: every k-bit pattern is hit by exactly one residue
class mod 2^k, and the witness comes in closed form.

The inversion never searches. Along a pattern x with a ones, k steps
send n to (3^a n + s) / 2^k, so the witness is the one residue c in
{1, ..., 2^k} with 3^a c + s = 0 (mod 2^k).
"""

from conjlab.parity import bijection_check, parity_vector, realize

# exhaustive check at small k: residues {1..2^k} <-> bit patterns
for k in (1, 4, 8, 12):
    print(f"k={k:2d} bijection: {bijection_check(k)}")

# invert a pattern nothing obvious satisfies
x = (1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0)
r = realize(x)
print(f"pattern {''.join(map(str, x))} -> witness {r.witness} (residue {r.residue} mod 2^{r.k})")
print(f"round trip ok: {parity_vector(r.witness, r.k).bits == x}")

# the witness is minimal: nothing smaller shares the pattern
smaller = [n for n in range(1, r.witness) if parity_vector(n, r.k).bits == x]
print(f"smaller realizations below witness: {smaller}")

# all-ones is the pattern of 2^k - 1 (the slowest climbers)
for k in (3, 5, 10, 20):
    w = realize("1" * k).witness
    print(f"all-ones k={k:2d}: witness {w} = 2^{k}-1 is {w == 2**k - 1}")
