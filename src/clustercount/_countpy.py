"""NumPy counting kernel: the vectorised form of `counting.vertex_rule`.

The x-assignments with index in [lo, hi) are scanned, the index read as a
base-q number whose most significant digit is the first vertex.  A vertex
contributes a factor 1 if x_t != 0, q if x_t == 0 and r_t == 0, and kills
the assignment otherwise, where r_t = 1 + alpha_t * prod(neighbors).

`count_block` splits the n digits into a prefix, the first n - k vertices,
and a suffix, the last k, with B = q^k <= `block`.  The suffix layout, the
digit rows of all B suffix assignments and their zero counts, depends on
q and k only: `_layout` builds it once and keeps the last `LAYOUTS` of
them, read-only.  Digits and products are held in the dtype of the
field's tables, the narrowest unsigned one that holds q - 1 (uint8 up to
q = 256, uint16 above), and a product index is widened to intp before it
is formed, so that it cannot wrap.  Once per call the kernel forms each
vertex's product over its suffix neighbours, one flat `take` of the
product table per neighbour, and the alive mask of the suffix vertices
whose whole neighbourhood lies in the suffix.  Then the scan walks the
prefix values one block of B assignments at a time, decoding the prefix
digits as Python ints.  A prefix vertex with x_t = 0 that no suffix
neighbour can rescue (r_t != 0 on scalars) kills the whole block, which
is skipped.  Every other vertex that sees the prefix reads it only
through c_t = alpha_t * prod(prefix neighbours), one scalar, and ANDs in
a mask over the suffix: where r_t = 0, or x_t != 0 for a suffix vertex.
The masks are memoised per (vertex, c_t), at most q per vertex; prefix
vertices with the same suffix neighbours share theirs, and the root of
1 + c*y is found once per c in a call.  The live assignments of each
block are tallied by their number of zero digits with an integer
`np.bincount`.

Every assignment of every live block is tested and tallied: the scan
uses no tree decomposition and memoises no tally, so it stays independent
of the recursion.  A live assignment weighs q^z, z its number of zero
digits.  A block's tally holds at most B per entry in int64; the tallies
are combined as sum tally[z] * q^z in Python integers.  So the count is
exact for every n and q: no assignment index and no machine-word power is
ever formed, and [lo, hi) may lie anywhere, past 2^63 included.

The scalar count in `counting` is its reference; point listing runs on
that scalar scan only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

BLOCK = 1 << 15
LAYOUTS = 8  # layouts kept; one at block = BLOCK holds <= 16 * BLOCK bytes


@lru_cache(maxsize=LAYOUTS)
def _layout(q, k, dtype):
    """The digit rows of all q^k suffix assignments and their zero counts,
    read-only: shared by every scan at this q and k."""
    x = np.indices((q,) * k, dtype=dtype).reshape(k, q**k)
    zeros = (x == 0).sum(axis=0, dtype=np.uint8)
    x.flags.writeable = zeros.flags.writeable = False
    return x, zeros


def count_block(q, mul, plus_one, alpha, nbrs, lo, hi, block=BLOCK) -> int:
    """`mul` and `plus_one` are the field's lookup tables on encodings,
    `alpha` the coefficient encodings and `nbrs` the neighbor positions,
    both in vertex order."""
    n = len(alpha)
    k = 0
    while k < n and q ** (k + 1) <= block:
        k += 1
    s, B = n - k, q**k
    x, zeros = _layout(q, k, mul.dtype)  # the suffix: vertices s..n-1
    flat = mul.ravel()
    pre, suf = [], []  # prefix neighbours; prod over suffix ones, or None
    for t in range(n):
        pre.append([j for j in nbrs[t] if j < s])
        prod = None
        for j in nbrs[t]:
            if j >= s:
                prod = x[j - s] if prod is None else flat.take(
                    prod.astype(np.intp) * q + x[j - s])
        suf.append(prod)
    # prefix vertices with the same suffix neighbours share their masks
    key = [tuple(j for j in nbrs[t] if j >= s) if t < s else t
           for t in range(n)]
    roots = {}  # c != 0 -> the root of 1 + c*y

    def mask(t, c):
        # r_t = 1 + c * prod(suffix nbrs) == 0, c = alpha_t * prod(prefix
        # nbrs): the product must be the root of 1 + c*y, none if c = 0
        if suf[t] is None or c == 0:
            r = plus_one[c] == 0
        else:
            if c not in roots:
                roots[c] = int(np.flatnonzero(plus_one[mul[c]] == 0)[0])
            r = suf[t] == roots[c]
        return r | (x[t - s] != 0) if t >= s else r

    base = np.ones(B, dtype=bool)
    for t in range(s, n):
        if not pre[t]:
            base &= mask(t, alpha[t])
    sees_prefix = [t for t in range(n) if t < s or pre[t]]
    memo = {}
    tally = np.zeros(n + 1, dtype=np.int64)
    for p in range(lo // B, (hi - 1) // B + 1):
        xs, rem = [0] * s, p
        for t in range(s - 1, -1, -1):
            rem, xs[t] = divmod(rem, q)
        masks = {}
        for t in sees_prefix:
            if t < s and xs[t] != 0:
                continue
            c = alpha[t]
            for j in pre[t]:
                c = mul[c, xs[j]]
            if t < s and (c == 0 or suf[t] is None):
                if plus_one[c] != 0:
                    break  # x_t = 0 and r_t != 0 whatever the suffix
                continue
            kc = key[t], c
            if kc not in memo:
                memo[kc] = mask(t, c)
            masks[kc] = memo[kc]
        else:
            a, b = max(lo - p * B, 0), min(hi - p * B, B)
            alive = base[a:b]
            for m in masks.values():
                alive = alive & m[a:b]
            z = xs.count(0)
            tally[z:z + k + 1] += np.bincount(zeros[a:b][alive], None, k + 1)
    return sum(int(c) * q**z for z, c in enumerate(tally))
