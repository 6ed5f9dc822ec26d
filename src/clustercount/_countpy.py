"""NumPy enumeration kernels: the vectorised form of `counting.vertex_rule`.

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

`live_blocks` lists the live assignments themselves with their determined
x'_t = r_t / x_t, for `counting.brute_points`.

The scalar scans in `counting` are the reference for both.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 15
# the listing keeps its block's arrays alive while the caller consumes the
# points: with 2^15 the smoothness battery peaked at 44.4 MB RSS, with 2^12
# at 33.0 MB (x86-64 Linux, NumPy 2.4)
LIST_BLOCK = 1 << 12


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
        # the digits are decoded inline, here and in live_blocks: a shared
        # helper changed the order in which the arrays are freed and raised
        # the forked pool workers' peak RSS from 41.9 to 45.0 MB
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


def live_blocks(q, mul, plus_one, inv, alpha, nbrs, lo, hi, block=LIST_BLOCK):
    """Yield, block by block in index order, the live assignments with index
    in [lo, hi) as (xs, xps): two (n, k) arrays holding x and the determined
    x' = r_t * x_t^-1 per vertex.  `inv` maps encodings to inverses (0 to 0),
    so x'_t is 0 where x_t = 0: there it is free and the caller expands it."""
    n = len(alpha)
    inv = np.asarray(inv, dtype=np.int64)
    for a in range(lo, hi, block):
        b = min(hi, a + block)
        m = b - a
        x = np.empty((n, m), dtype=np.int64)
        rem = np.arange(a, b, dtype=np.int64)
        for t in range(n - 1, -1, -1):
            x[t] = rem % q
            rem //= q
        r = np.empty((n, m), dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        for t in range(n):
            r[t] = _rhs(mul, plus_one, alpha[t], x, nbrs[t], m)
            alive &= (x[t] != 0) | (r[t] == 0)
        x = x[:, alive]
        yield x, mul[r[:, alive], inv[x]]
