"""Jacobian of the defining equations and exhaustive singular-point search.

With f_t = x_t x'_t - 1 - alpha_t * prod(neighbors), the Jacobian rows are
indexed by vertices and the 2n columns by (x_1..x_n, x'_1..x'_n):

    df_t/dx_t  = x'_t
    df_t/dx'_t = x_t
    df_t/dx_u  = -alpha_t * prod over s ~ t, s != u of x_s   (u ~ t)

A point is singular when the rank drops below the number of equations.
On the variety, any point where no vertex has x_t = x'_t = 0 is provably
smooth (choose the x'-column where x_t != 0 and the x-column elsewhere:
the vanishing x-vertices form an independent set, so the chosen minor is
triangular with invertible diagonal).  The scan uses that as a prefilter,
which `prefilter=False` disables for cross-checking.

The search runs on integer encodings end to end: it reads each listed
point's `xs` and `xps` tuples.  `rank` reduces to echelon form only (rows
below each pivot), which is all the rank needs.
"""

from __future__ import annotations

import itertools

from .counting import PointRecord, VarietyInstance, brute_points, vertex_rule
from .errors import PointNotOnVariety
from .gf import Field


def verify_point(instance: VarietyInstance, record: PointRecord) -> bool:
    if (record.vertices != instance.forest.vertices
            or record.field != instance.field):
        return False
    fld = instance.field
    rs = vertex_rule(fld, *instance.scan_arrays, record.xs)
    return rs is not None and all(
        fld.mul_enc(x, xp) == r for x, xp, r in zip(record.xs, record.xps, rs))


def jacobian_at(instance: VarietyInstance, record: PointRecord) -> list[list[int]]:
    """n x 2n Jacobian (encodings), rows = vertex equations, columns = all
    x variables then all x' variables, both in vertex order."""
    if not verify_point(instance, record):
        raise PointNotOnVariety("record violates a defining equation")
    fld = instance.field
    mul = fld.mul_enc
    alpha, nbrs = instance.scan_arrays
    xs, xps = record.xs, record.xps
    n = len(xs)
    rows = []
    for t in range(n):
        row = [0] * (2 * n)
        row[t] = xps[t]
        row[n + t] = xs[t]
        minus_alpha = fld.neg_enc(alpha[t])
        for u in nbrs[t]:
            prod = minus_alpha
            for s in nbrs[t]:
                if s != u:
                    prod = mul(prod, xs[s])
            row[u] = prod
        rows.append(row)
    return rows


def rank(matrix: list[list[int]], field: Field) -> int:
    """Row rank by Gaussian elimination over the field (encodings in, exact).
    Only the rows below each pivot are cleared: the echelon form's pivot
    count is the rank."""
    rows = [list(r) for r in matrix]
    m, ncols = len(rows), len(rows[0]) if rows else 0
    r = 0
    if field.k == 1:
        p = field.p
        for c in range(ncols):
            if r == m:
                break
            pivot = next((i for i in range(r, m) if rows[i][c] % p), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            top = rows[r][c:]
            inv = pow(top[0], -1, p)
            for row in rows[r + 1:]:
                f = row[c] * inv % p
                if f:
                    row[c:] = [(a - f * b) % p for a, b in zip(row[c:], top)]
            r += 1
        return r
    mul, sub = field.mul_enc, field.sub_enc
    for c in range(ncols):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r][c:]
        inv = field.inv_enc(top[0])
        for row in rows[r + 1:]:
            if row[c]:
                f = mul(row[c], inv)
                row[c:] = [sub(a, mul(f, b)) for a, b in zip(row[c:], top)]
        r += 1
    return r


def _det(matrix: list[list[int]], field: Field) -> int:
    """Determinant by cofactor expansion; cross-check use only (tiny sizes)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = field.mul_enc(matrix[0][j], _det(minor, field))
        if j % 2:
            term = field.neg_enc(term)
        total = field.add_enc(total, term)
    return total


def all_minors_vanish(matrix: list[list[int]], field: Field, size: int) -> bool:
    """True when every size x size minor is zero.  Exponential; used only to
    cross-check the elimination rank on small test instances."""
    m = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    for rows_idx in itertools.combinations(range(m), size):
        for cols_idx in itertools.combinations(range(ncols), size):
            sub = [[matrix[i][j] for j in cols_idx] for i in rows_idx]
            if _det(sub, field) != 0:
                return False
    return True


def _could_be_singular(record: PointRecord) -> bool:
    xs = record.xs
    return 0 in xs and any(x == 0 and xp == 0
                           for x, xp in zip(xs, record.xps))


def singular_points(instance: VarietyInstance, *, budget: int | None = None,
                    prefilter: bool = True) -> list[PointRecord]:
    """All points where the Jacobian rank drops below the equation count,
    sorted by coordinates."""
    n = instance.n
    out = []
    for rec in brute_points(instance, budget=budget):
        if prefilter and not _could_be_singular(rec):
            continue
        if rank(jacobian_at(instance, rec), instance.field) < n:
            out.append(rec)
    return sorted(out, key=lambda r: r.key())
