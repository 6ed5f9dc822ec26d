"""NumPy counting kernel: the vectorised form of `counting.vertex_rule`.

The x-assignments with index in [lo, hi) are scanned in blocks, the index
read as a base-q number whose most significant digit is the first vertex.
`_rhs` evaluates r_t = 1 + alpha_t * prod(neighbors) for one vertex over a
block; it is the only vectorised statement of that product.  A vertex
contributes a factor 1 if x_t != 0, q if x_t == 0 and r_t == 0, and kills
the assignment otherwise.

`count_block` counts the weighted assignments.  A live assignment weighs
q^k, k its number of zero digits.  Each block tallies its live assignments
by k with `np.bincount`, and the tallies are combined as sum tally[k] * q^k
in Python integers, so the count is exact for every n and q: no
machine-word product is ever formed.  Only the assignment indices are
int64, so `hi` may not pass 2^63.

The scalar count in `counting` is its reference; point listing runs on
that scalar scan only.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 15


def _rhs(mul, plus_one, alpha_t, x, nbrs_t, m):
    """r_t = 1 + alpha_t * prod over s in `nbrs_t` of x[s], for the m
    assignments of one block."""
    prod = np.full(m, alpha_t, dtype=np.int64)
    for j in nbrs_t:
        prod = mul[prod, x[j]]
    return plus_one[prod]


def count_block(q, mul, plus_one, alpha, nbrs, lo, hi, block=BLOCK) -> int:
    """`mul` and `plus_one` are the field's lookup tables on encodings,
    `alpha` the coefficient encodings and `nbrs` the neighbor positions,
    both in vertex order."""
    if hi > 2**63:
        raise OverflowError(f"assignment index {hi - 1} does not fit in int64")
    n = len(alpha)
    if n == 0:
        return int(hi - lo)
    tally = np.zeros(n + 1, dtype=np.int64)
    for a in range(lo, hi, block):
        b = min(hi, a + block)
        m = b - a
        x = np.empty((n, m), dtype=np.int64)
        rem = np.arange(a, b, dtype=np.int64)
        for t in range(n - 1, -1, -1):
            x[t] = rem % q
            rem //= q
        free = np.zeros(m, dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        for t in range(n):
            zero = x[t] == 0
            alive &= ~zero | (_rhs(mul, plus_one, alpha[t], x, nbrs[t], m) == 0)
            free += zero
        tally += np.bincount(free[alive], minlength=n + 1)
    return sum(int(c) * q**k for k, c in enumerate(tally))

