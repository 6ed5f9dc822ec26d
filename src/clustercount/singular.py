"""Jacobian of the defining equations, and two singular-point searches.

With f_t = x_t x'_t - 1 - alpha_t * prod(neighbors), the Jacobian rows are
indexed by vertices and the 2n columns by (x_1..x_n, x'_1..x'_n):

    df_t/dx_t  = x'_t
    df_t/dx'_t = x_t
    df_t/dx_u  = -alpha_t * prod over s ~ t, s != u of x_s   (u ~ t)

A point is singular when the rank drops below the number of equations.
At a point of the variety let Z = {t : x_t = 0}, Z_0 = {t in Z : x'_t = 0}
and nu(Z_0) the size of a maximum matching of Z_0 into its neighbours in
the forest.  Then

    rank J = n - |Z_0| + nu(Z_0)        (`matching_rank`)

- Column x'_t holds x_t in row t and zeros elsewhere, so each row with
  x_t != 0 adds one to the rank.  Z is independent (x_t = 0 forces every
  neighbour nonzero), so among the rows of Z, column x_t holds only x'_t
  in row t, and each row of Z - Z_0 adds one too.
- A row t of Z_0 has 1 + alpha_t * prod = 0, so its entry in each
  neighbour column s is 1/x_s, and it is zero elsewhere: the rows of Z_0
  form a column-scaled biadjacency matrix of a forest.
- A forest has at most one perfect matching, so each square minor of that
  matrix is 0 or a signed product of nonzero entries, and its rank is the
  matching number over any field.

So a point is singular exactly when Z_0 fails Hall's condition.

Two searches use this.  `singular_points` is the exhaustive one: it lists
every point and ranks the Jacobian by elimination (`rank`), skipping
the points with Z_0 empty, which the formula shows are smooth; that
prefilter is what `prefilter=False` disables for cross-checking.
`matching_singular_points` never builds a Jacobian: it lists the
independent sets that fail Hall's condition and, for each, the points
whose Z_0 is exactly that set.  Both run on integer encodings end to end,
and both return points as pairs (xs, xps) of encoding tuples in vertex
order, sorted.
"""

from __future__ import annotations

from .counting import (VarietyInstance, _check_budget, _points_over,
                       brute_count, brute_points, vertex_rule)
from .errors import PointNotOnVariety
from .gf import Field


def verify_point(instance: VarietyInstance, point) -> bool:
    """Whether the pair (xs, xps) holds one encoding per vertex in each
    tuple and satisfies every defining equation."""
    xs, xps = point
    if not len(xs) == len(xps) == instance.n:
        return False
    fld = instance.field
    rs = vertex_rule(fld, *instance.scan_arrays, xs)
    return rs is not None and all(
        fld.mul_enc(x, xp) == r for x, xp, r in zip(xs, xps, rs))


def jacobian_at(instance: VarietyInstance, point) -> list[list[int]]:
    """n x 2n Jacobian (encodings) at the point (xs, xps), rows = vertex
    equations, columns = all x variables then all x' variables, both in
    vertex order."""
    if not verify_point(instance, point):
        raise PointNotOnVariety("point violates a defining equation")
    fld = instance.field
    mul = fld.mul_enc
    alpha, nbrs = instance.scan_arrays
    xs, xps = point
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
    mul, sub = field.mul_enc, field.sub_enc
    r = 0
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


def _could_be_singular(point) -> bool:
    xs, xps = point
    return 0 in xs and any(x == 0 and xp == 0 for x, xp in zip(xs, xps))


def singular_points(instance: VarietyInstance, *, budget: int | None = None,
                    prefilter: bool = True) -> list:
    """All points where the Jacobian rank drops below the equation count,
    sorted.  Besides the n * q^n scan, the budget is charged n^3 per point
    listed, the cost of ranking an n x 2n Jacobian, with the number of
    points taken from `brute_count` first."""
    n, q = instance.n, instance.field.q
    listed = brute_count(instance, budget=budget).count
    _check_budget(n, q, budget, n**3 * listed)
    out = []
    for point in brute_points(instance, budget=budget):
        if prefilter and not _could_be_singular(point):
            continue
        if rank(jacobian_at(instance, point), instance.field) < n:
            out.append(point)
    return sorted(out)


# ---------------------------------------------------------------------------
# the matching criterion
# ---------------------------------------------------------------------------

def _matching_number(group, nbrs: list[list[int]]) -> int:
    """Size of a maximum matching of the positions `group` into their
    neighbours, by augmenting paths."""
    partner: dict[int, int] = {}

    def augment(t, seen):
        for u in nbrs[t]:
            if u not in seen:
                seen.add(u)
                if u not in partner or augment(partner[u], seen):
                    partner[u] = t
                    return True
        return False

    return sum(augment(t, set()) for t in group)


def matching_rank(instance: VarietyInstance, point) -> int:
    """The Jacobian's rank at `point` by the formula n - |Z_0| + nu(Z_0)."""
    if not verify_point(instance, point):
        raise PointNotOnVariety("point violates a defining equation")
    z0 = [t for t, (x, xp) in enumerate(zip(*point)) if x == 0 and xp == 0]
    return instance.n - len(z0) + _matching_number(z0, instance.scan_arrays[1])


def _hall_violators(alpha: list[int], nbrs: list[list[int]]):
    """Every independent set of positions, with alpha nonzero on it, that
    has fewer matched positions than members (a sorted list each)."""
    n = len(alpha)

    def grow(t, chosen, blocked):
        if t == n:
            if _matching_number(chosen, nbrs) < len(chosen):
                yield chosen
            return
        yield from grow(t + 1, chosen, blocked)
        if alpha[t] and t not in blocked:
            yield from grow(t + 1, chosen + [t], blocked | set(nbrs[t]))

    return grow(0, [], frozenset())


def _vanishing_assignments(fld: Field, alpha: list[int],
                           nbrs: list[list[int]], zero: list[int]):
    """x-assignments (one list, refilled in place) that vanish on `zero`,
    among them all that have 1 + alpha_t * prod over s ~ t of x_s = 0 at
    each t in it.  The value at the last neighbour of each such t is
    solved for, not scanned; the other neighbours of `zero` run over
    F_q^*, the rest of the vertices over F_q.  An isolated t is left to
    the caller's `vertex_rule`."""
    n, q = len(alpha), fld.q
    mul, inv = fld.mul_enc, fld.inv_enc
    closes: dict[int, list[int]] = {}
    for t in zero:
        if nbrs[t]:
            closes.setdefault(max(nbrs[t]), []).append(t)
    near = {u for t in zero for u in nbrs[t]}
    members = set(zero)
    xs = [0] * n

    def solved(u, t):
        """x_u with alpha_t * prod over s ~ t of x_s = -1."""
        prod = alpha[t]
        for s in nbrs[t]:
            if s != u:
                prod = mul(prod, xs[s])
        return fld.neg_enc(inv(prod))

    def fill(u):
        if u == n:
            yield xs
            return
        if u in members:
            yield from fill(u + 1)
            return
        if u in closes:
            need = {solved(u, t) for t in closes[u]}
            values = need if len(need) == 1 else ()
        else:
            values = range(1 if u in near else 0, q)
        for x in values:
            xs[u] = x
            yield from fill(u + 1)

    yield from fill(0)


def matching_singular_points(instance: VarietyInstance, *,
                             budget: int | None = None) -> list:
    """The points where the Jacobian rank drops below the equation count,
    found by the matching criterion without a Jacobian: for each
    independent set S that fails Hall's condition, the points whose Z_0 is
    exactly S.  Those are the points that vanish on S with x' = 0 there,
    solve 1 + alpha_t * prod x_s = 0 at each t in S, and have x'_t != 0
    wherever x_t = 0 outside S.  Each point has one Z_0, so it is listed
    once.  Same budget precondition and output, sorted by coordinates, as
    `singular_points`."""
    fld = instance.field
    n, q = instance.n, fld.q
    _check_budget(n, q, budget)
    alpha, nbrs = instance.scan_arrays
    out = []
    for zero in _hall_violators(alpha, nbrs):
        zero_values = [range(1, q)] * n
        for t in zero:
            zero_values[t] = (0,)
        for xs in _vanishing_assignments(fld, alpha, nbrs, zero):
            rs = vertex_rule(fld, alpha, nbrs, xs)
            if rs is not None:
                out.extend(_points_over(fld, fld.inv_enc, xs, rs, zero_values))
    return sorted(out)
