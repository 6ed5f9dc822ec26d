"""NumPy counting kernel: the vectorised form of `counting.vertex_rule`.

The x-assignments with index in [lo, hi) are scanned, the index read as a
base-q number whose most significant digit is the first vertex.  A vertex
contributes a factor 1 if x_t != 0, q if x_t == 0 and r_t == 0, and kills
the assignment otherwise, where r_t = 1 + alpha_t * prod(neighbors).

`count_block` splits the n digits into a prefix, the first n - k vertices,
and a suffix, the last k, with B = q^k <= `block`.  The suffix layout
depends on q and k only.  It orders the B suffix assignments by their
number z of zero digits, pads each z-group to a multiple of 64 slots, and
holds the digit rows in that slot order, a map from each slot to its
assignment index (B at a padding slot, whose digits are all 0), the
packed mask of the slots that are not padding, the packed mask x_t != 0
of each suffix position t, and the weight q^z of each 64-slot word of
group z.  `_layout` builds a layout once and keeps the most recently
used ones, read-only, up to `LAYOUT_BYTES` in all; every layout at
q <= 9 fits at once.  Digits and products are held in the dtype of the
field's `mul_table`, the narrowest unsigned one that holds q - 1 (uint8
up to q = 256, uint16 above).

The kernel reads three field tables and builds none: `mul_table`, its
flat q-scaled copy `scaled_mul_table`, whose entry a*q + b is q*(a*b) in
the narrowest unsigned dtype that holds q^2 - 1, and `neg_inv_table`, the
root -1/c of 1 + c*y.  Once per call and per distinct tuple of suffix
neighbours it forms their product: a single neighbour's is its digit
row; with more, q times the first digit row, in the scaled table's
dtype, is an index, each further neighbour adds its digits and takes the
next index from the scaled table, and the last takes the product from
`mul_table`.  An index stays below q^2, so it cannot wrap, and past the
first neighbour it costs one add and one `take`, with no multiply.  `base` is the word-wise AND of
the real slots and the masks of the suffix vertices whose whole
neighbourhood lies in the suffix.  Then the scan walks the prefix values
one block of B assignments at a time, decoding the prefix digits as
Python ints.  A prefix vertex with x_t = 0 that no suffix neighbour can
rescue (r_t != 0 on scalars) kills the whole block, which is skipped.
Every other vertex that sees the prefix reads it only through
c_t = alpha_t * prod(prefix neighbours), one scalar, and ANDs in a mask
over the suffix: where the product equals -1/c_t, so that r_t = 0, or,
for a suffix vertex, where its packed nonzero row is set.  A suffix
vertex's mask with c_t = 0 or no suffix neighbours is constant on r_t,
its nonzero row or all ones, and packs nothing.  The masks are memoised
per (vertex, c_t), at most q per vertex; prefix vertices with the same
suffix neighbours share theirs.  Every mask is packed 64 slots to a
uint64 word.  A live block is the word-wise AND of `base` and its masks,
and of a mask of the slots in range when [lo, hi) ends inside it.  Its
tally is one int64 dot of the popcount of each word with the words'
weights.

Every assignment of every live block is tested and tallied: the scan
uses no tree decomposition and memoises no tally, so it stays independent
of the recursion.  A live assignment weighs q^z, z its number of zero
digits.  A word's popcount is at most 64 and its weight at most q^k, and
a block's tally is at most the sum of q^z over all B suffix assignments,
(2q - 1)^k < 2^k * B: at most 2^30 at the default `BLOCK`, and below
2^52 for any B < 2^32, so the int64 dot is exact.  The tallies
are summed per prefix zero count and combined with q^z in Python
integers.  So the count is exact for every n and q: no assignment index
and no machine-word power beyond q^k is ever formed, and [lo, hi) may lie
anywhere, past 2^63 included.

The scalar count in `counting` is its reference; point listing runs on
that scalar scan only.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 15
LAYOUT_BYTES = 8 * 16 * BLOCK  # the cached layouts' total size, 4 MiB
_layouts = {}  # (q, k, dtype) -> layout, least recently used first


def _pack(bits):
    """A bool array over the slots, 8 slots to a byte in slot order, as
    uint64 words."""
    return np.packbits(bits, bitorder="little").view(np.uint64)


def _build_layout(q, k, dtype):
    """The suffix assignments grouped by zero count, each group padded to
    whole 64-slot words: the digit rows in slot order, the map from slot
    to assignment index (B at a padding slot, whose digits are all 0),
    the packed mask of the other slots, the packed mask x_t != 0 of each
    suffix position t and the weight q^z of each word."""
    B = q**k
    index = np.arange(B, dtype=np.min_scalar_type(B))
    zeros = np.zeros(B, dtype=np.uint8)
    for t in range(k):
        zeros += index // q**t % q == 0
    groups, words = [], []
    for z in range(k + 1):
        group = index[zeros == z]
        pad = -len(group) % 64
        groups += [group, np.full(pad, B, dtype=index.dtype)]
        words += [q**z] * ((len(group) + pad) // 64)
    slot = np.concatenate(groups)
    x = np.empty((k, len(slot)), dtype=dtype)
    for t in range(k):
        x[t] = slot // q ** (k - 1 - t) % q
    nonzero = np.packbits(x != 0, axis=1, bitorder="little").view(np.uint64)
    layout = (x, slot, _pack(slot != B), nonzero,
              np.array(words, dtype=np.int64))
    for a in layout:
        a.flags.writeable = False
    return layout


def _layout(q, k, dtype):
    """The layout at q and k, read-only and shared by every scan there;
    the least recently used ones are dropped past LAYOUT_BYTES."""
    key = q, k, dtype
    layout = _layouts.pop(key, None)
    if layout is None:
        layout = _build_layout(q, k, dtype)
        _layouts[key] = layout
        held = sum(a.nbytes for lay in _layouts.values() for a in lay)
        while held > LAYOUT_BYTES:
            held -= sum(a.nbytes for a in _layouts.pop(next(iter(_layouts))))
    else:
        _layouts[key] = layout
    return layout


def count_block(q, mul, mulq, neg_inv, alpha, nbrs, lo, hi,
                block=BLOCK) -> int:
    """`mul`, `mulq` and `neg_inv` are the field's `mul_table`,
    `scaled_mul_table` and `neg_inv_table`, `alpha` the coefficient
    encodings and `nbrs` the neighbor positions, both in vertex order."""
    n = len(alpha)
    k = 0
    while k < n and q ** (k + 1) <= block:
        k += 1
    s, B = n - k, q**k
    # the suffix: s..n-1
    x, slot, base, nonzero, weights = _layout(q, k, mul.dtype)
    minus_one = neg_inv[1]
    pre = [[j for j in nbrs[t] if j < s] for t in range(n)]
    suf = [tuple(j - s for j in nbrs[t] if j >= s) for t in range(n)]
    prods = {}  # suffix positions -> product of their digits

    def product(js):
        # q * (product so far) + next digit indexes `mulq`, or `mul` for
        # the last digit: one add and one take per digit after the first
        if js not in prods:
            if len(js) == 1:
                prods[js] = x[js[0]]
            else:
                at = np.multiply(x[js[0]], q, dtype=mulq.dtype)
                for j in js[1:-1]:
                    at = mulq.take(at + x[j])
                prods[js] = mul.ravel().take(at + x[js[-1]])
        return prods[js]

    def mask(t, c):
        # r_t = 1 + c * prod(suffix nbrs) == 0, c = alpha_t * prod(prefix
        # nbrs): the product must be -1/c.  With c = 0 or no suffix nbrs
        # (a suffix vertex here) r_t = 1 + c on every slot.
        if suf[t] and c != 0:
            r = _pack(product(suf[t]) == neg_inv[c])
            return r | nonzero[t - s] if t >= s else r
        if c == minus_one:
            return np.full_like(base, ~np.uint64(0))
        return nonzero[t - s]

    for t in range(s, n):
        if not pre[t]:
            base = base & mask(t, alpha[t])
    # prefix vertices with the same suffix neighbours share their masks
    key = [suf[t] if t < s else t for t in range(n)]
    sees_prefix = [t for t in range(n) if t < s or pre[t]]
    memo = {}
    tally = [0] * (s + 1)  # by the prefix's zero count
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
            if t < s and (c == 0 or not suf[t]):
                if c != minus_one:
                    break  # x_t = 0 and r_t != 0 whatever the suffix
                continue
            kc = key[t], c
            if kc not in memo:
                memo[kc] = mask(t, c)
            masks[kc] = memo[kc]
        else:
            alive = base
            for m in masks.values():
                alive = alive & m
            a, b = max(lo - p * B, 0), min(hi - p * B, B)
            if a or b < B:
                alive = alive & _pack((slot >= a) & (slot < b))
            tally[xs.count(0)] += int(np.dot(np.bitwise_count(alive),
                                             weights))
    return sum(c * q**z for z, c in enumerate(tally))
