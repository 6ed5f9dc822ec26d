"""Brute-force exact point counting and point listing.

The variety attached to a forest and a coefficient map has one equation per
vertex t:

    x_t * x'_t = 1 + alpha_t * prod over neighbors s of x_s

Enumeration runs over x-assignments only: with r_t the right-hand side, a
vertex contributes a factor 1 when x_t != 0 (x'_t is determined), a factor
q when x_t = 0 and r_t = 0 (x'_t is free), and 0 otherwise.  `vertex_rule`
states this rule once, and `_live_scalar` scans it over a range of
assignment indices.  Every scalar count (`_count_scalar`) and every point
listing (`brute_points`) is built on that one scan; the listing derives the
determined x' from the right-hand sides and expands the free x' slots
(`_points_over`, shared with the matching criterion of `singular`).
`_countpy.count_block` is the vectorised count over fields with lookup
tables (q <= TABLE_MAX_Q), and the scalar count is its reference.
`brute_count` splits the index range over a process pool only for scans
of at least `_PARALLEL_THRESHOLD` = 2^28 assignments.  On a 2-CPU host,
with random trees over F_2, F_4 and F_8, two workers took a median 1.9
and 1.4 times as long as the NumPy kernel in-process at 2^26 and 2^27
assignments, and 0.78 times at 2^28 (`_SCALAR_PARALLEL_THRESHOLD` = 2^18
for the scalar scan, about 100 times slower per assignment).  Smaller
scans run in-process whatever `jobs` is.
A point is the pair (xs, xps) of its x and x' encodings, tuples in vertex
order.

Also provided: the unions of the normal-form type-A varieties over
invertible (Y) and over all (Z) leading coefficients, and the exhaustive
check that dropping the first equation fibers Z(n+1) over Z(n) in lines.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

from . import _countpy
from .coeffs import CoeffMap
from .errors import (BadBudget, BudgetExceeded, UnsupportedSize,
                     UnsupportedType)
from .forests import Forest, dynkin, normal_form_slots
from .gf import Field

EXTENSION_AVAILABLE = False  # no compiled kernel exists; perfbench reads this
DEFAULT_BUDGET = 10**9
TABLE_MAX_Q = 1024
_PARALLEL_THRESHOLD = 1 << 28
_SCALAR_PARALLEL_THRESHOLD = 1 << 18


def resolve_budget(budget: int | None) -> int:
    """`budget`, else CLUSTERCOUNT_BUDGET, else DEFAULT_BUDGET; BadBudget
    for a value below 1 or a variable that is not an integer."""
    if budget is not None:
        if budget < 1:
            raise BadBudget(f"budget must be at least 1, got {budget}")
        return budget
    env = os.environ.get("CLUSTERCOUNT_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        raise BadBudget(
            f"CLUSTERCOUNT_BUDGET must be an integer, got {env!r}") from None
    if budget < 1:
        raise BadBudget(f"CLUSTERCOUNT_BUDGET must be at least 1, got {budget}")
    return budget


@dataclass(frozen=True)
class VarietyInstance:
    """A forest, a coefficient map on its vertices, and the base field."""

    forest: Forest
    coeffs: CoeffMap
    field: Field

    def __post_init__(self):
        if set(self.coeffs.values) != set(self.forest.vertices):
            raise ValueError("coefficient vertices do not match the forest")
        if self.coeffs.field != self.field:
            raise ValueError("coefficient field does not match the instance field")

    @property
    def n(self) -> int:
        return self.forest.n_vertices

    @cached_property
    def scan_arrays(self) -> tuple[list[int], list[list[int]]]:
        """Coefficient encodings and neighbor positions, both in vertex order."""
        vs = self.forest.vertices
        index = {v: i for i, v in enumerate(vs)}
        alpha = [self.coeffs.enc(v) for v in vs]
        nbrs = [[index[u] for u in self.forest.adjacency[v]] for v in vs]
        return alpha, nbrs

    def descriptor(self) -> str:
        # an extension-field coefficient's digits are joined with ':' as
        # in --alpha, so the comma only separates vertices
        text, enc = self.field.text, self.coeffs.enc
        alphas = ",".join(text(enc(v)).replace(",", ":")
                          for v in self.forest.vertices)
        return (f"forest[{self.n}v/{len(self.forest.edges)}e]"
                f"(alpha=[{alphas}]) over {self.field!r}")


@dataclass(frozen=True)
class CountReport:
    count: int
    branch: str | None = None
    engine: str | None = None
    stats: dict | None = None

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("negative count")


def _check_budget(n: int, q: int, budget: int | None, extra: int = 0) -> None:
    """The budget precondition on the cost model n * q^n elementary steps
    (at least q^n) plus `extra`: BudgetExceeded above
    `resolve_budget(budget)`."""
    budget = resolve_budget(budget)
    est = max(1, n) * q**n + extra
    if est > budget:
        raise BudgetExceeded(est, budget)


# ---------------------------------------------------------------------------
# the vertex rule and the scans built on it
# ---------------------------------------------------------------------------

def vertex_rule(field: Field, alpha: list[int], nbrs: list[list[int]],
                xs) -> list[int] | None:
    """The right-hand sides r_t = 1 + alpha_t * prod over s ~ t of x_s for
    one x-assignment `xs` (encodings in vertex order), or None when some
    vertex has x_t = 0 and r_t != 0, so that no point lies over `xs`.

    Otherwise each vertex with x_t != 0 weighs 1 (x'_t = r_t / x_t) and each
    vertex with x_t = 0 weighs q (r_t = 0, x'_t free): `xs` carries
    q^(number of zero x_t) points."""
    mul, add = field.mul_enc, field.add_enc
    rs = []
    for t, x in enumerate(xs):
        r = alpha[t]
        for j in nbrs[t]:
            r = mul(r, xs[j])
        r = add(r, 1)
        if x == 0 and r != 0:
            return None
        rs.append(r)
    return rs


def _pick_engine(engine: str, field: Field) -> str:
    if engine == "auto":
        return "numpy" if field.q <= TABLE_MAX_Q else "scalar"
    if engine not in ("numpy", "scalar"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "numpy" and field.q > TABLE_MAX_Q:
        raise UnsupportedSize(f"q = {field.q} is above the lookup-table "
                              f"limit {TABLE_MAX_Q}; use engine='scalar'")
    return engine


def _live_scalar(instance: VarietyInstance, lo: int, hi: int):
    """Yield (xs, rs) for the live x-assignments with index in [lo, hi), in
    index order: `xs` the encodings in vertex order, the first vertex the
    most significant base-q digit of the index, and `rs` their right-hand
    sides by `vertex_rule`.  With n = 0 the one empty assignment is live."""
    fld = instance.field
    alpha, nbrs = instance.scan_arrays
    space = itertools.product(range(fld.q), repeat=instance.n)
    for xs in itertools.islice(space, lo, hi):
        rs = vertex_rule(fld, alpha, nbrs, xs)
        if rs is not None:
            yield xs, rs


def _count_scalar(instance: VarietyInstance, lo: int, hi: int) -> int:
    """Reference count with per-element field arithmetic; exact for any field."""
    q = instance.field.q
    return sum(q ** xs.count(0) for xs, _ in _live_scalar(instance, lo, hi))


def _count_range(instance: VarietyInstance, engine: str, lo: int, hi: int) -> int:
    if engine == "scalar":
        return _count_scalar(instance, lo, hi)
    fld = instance.field
    return _countpy.count_block(fld.q, fld.mul_table(), fld.scaled_mul_table(),
                                fld.neg_inv_table(), *instance.scan_arrays,
                                lo, hi)


def brute_count(instance: VarietyInstance, *, budget: int | None = None,
                jobs: int = 1, engine: str = "auto") -> CountReport:
    """Exact number of points, by weighted scan of the qⁿ x-assignments.

    `engine` is "numpy" (the table-driven kernel, q <= TABLE_MAX_Q),
    "scalar" (the reference scan) or "auto" (numpy when the field allows).
    With qⁿ at least the engine's threshold the index range is split over a
    process pool of min(`jobs`, CPU count) workers, when that is above 1.
    A count above q^(2n), the number of (x, x') pairs, raises
    ArithmeticError."""
    n, q = instance.n, instance.field.q
    _check_budget(n, q, budget)
    chosen = _pick_engine(engine, instance.field)
    space = q**n
    threshold = (_PARALLEL_THRESHOLD if chosen == "numpy"
                 else _SCALAR_PARALLEL_THRESHOLD)
    workers = (min(jobs, os.cpu_count() or 1)
               if jobs > 1 and space >= threshold else 1)
    if workers > 1:
        bounds = [space * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(workers) as pool:
            total = sum(pool.map(_count_range, [instance] * workers,
                                 [chosen] * workers, bounds[:-1], bounds[1:]))
    else:
        total = _count_range(instance, chosen, 0, space)
    if total > q ** (2 * n):
        raise ArithmeticError(f"{chosen} scan of {instance.descriptor()} "
                              f"counted {total} points, more than q^(2n)")
    return CountReport(total, engine=chosen)


# ---------------------------------------------------------------------------
# point listing
# ---------------------------------------------------------------------------

def _points_over(field: Field, inv, xs, rs, zero_values):
    """Yield the points (xs, xps) over the x-assignment `xs` with right-hand
    sides `rs`: x'_t = r_t * inv(x_t) where x_t != 0, and x'_t runs over
    zero_values[t] where x_t = 0, the last such slot innermost."""
    mul = field.mul_enc
    xs = tuple(xs)
    for xps in itertools.product(*(
            zero_values[t] if x == 0 else (mul(r, inv(x)),)
            for t, (x, r) in enumerate(zip(xs, rs)))):
        yield xs, xps


def brute_points(instance: VarietyInstance, *, budget: int | None = None):
    """Yield every point (xs, xps), lexicographically in the x-assignment
    (vertex order, then encoding order), with free x' slots expanded
    innermost.  The live assignments come from `_live_scalar`."""
    fld = instance.field
    n, q = instance.n, fld.q
    _check_budget(n, q, budget)
    inv, free = fld.inv_table().__getitem__, [range(q)] * n
    for xs, rs in _live_scalar(instance, 0, q**n):
        yield from _points_over(fld, inv, xs, rs, free)


# ---------------------------------------------------------------------------
# normal-form type A instances and their unions over the leading coefficient
# ---------------------------------------------------------------------------

def normal_form_instance(field: Field, dynkin_type: str, rank: int,
                         params: tuple = ()) -> VarietyInstance:
    """Instance with the given parameters on the normal-form slots, 1 elsewhere."""
    f = dynkin(dynkin_type, rank)
    slots = normal_form_slots(dynkin_type, rank)
    if len(params) != len(slots):
        raise UnsupportedType(
            f"{dynkin_type}_{rank} normal form takes {len(slots)} parameter(s), "
            f"got {len(params)}")
    values = {v: 1 for v in f.vertices} | dict(zip(slots, params))
    return VarietyInstance(f, CoeffMap.make(field, values), field)


def _unit_params(field: Field, dynkin_type: str, rank: int):
    """Every tuple of units on the normal-form slots, in encoding order."""
    return itertools.product(range(1, field.q),
                             repeat=len(normal_form_slots(dynkin_type, rank)))


def _a_union_member(field: Field, n: int, a: int) -> VarietyInstance:
    """A_n with the coefficient a (zero too) on vertex 1 and 1 elsewhere."""
    f = dynkin("A", n)
    values = {v: 1 for v in f.vertices} | {1: a}
    return VarietyInstance(f, CoeffMap.make(field, values), field)


def count_Y(n: int, field: Field) -> int:
    """Points of the union over invertible leading coefficients of the
    normal-form A_n varieties.  For n = 0 this is the punctured line, q - 1."""
    if n == 0:
        return field.q - 1
    return sum(brute_count(_a_union_member(field, n, a)).count
               for a in range(1, field.q))


def count_Z(n: int, field: Field) -> int:
    """Points of the union over ALL leading coefficients (zero included)."""
    if n < 1:
        raise ValueError("Z is defined for n >= 1")
    return sum(brute_count(_a_union_member(field, n, a)).count
               for a in range(field.q))


# ---------------------------------------------------------------------------
# the line fibration of Z(n+1) over Z(n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FibrationReport:
    ok: bool
    surjective: bool
    fiber_size: int | None
    total_points: int
    detail: str = ""


def _z_points(n: int, field: Field):
    """Points of Z_A(n) as tuples (alpha, x tuple, x' tuple), encodings."""
    return {(a, xs, xps) for a in range(field.q)
            for xs, xps in brute_points(_a_union_member(field, n, a))}


def check_z_fibration(n: int, field: Field) -> FibrationReport:
    """Project Z_A(n+1) onto Z_A(n) by dropping the first equation: the first
    x-variable becomes the leading coefficient and indices shift down.
    Verifies the image is inside Z_A(n), the map is onto, and every fiber
    has exactly q points."""
    q = field.q
    source = _z_points(n + 1, field)
    target = _z_points(n, field)
    fibers: dict[tuple, int] = {t: 0 for t in target}
    for (_, xs, xps) in source:
        image = (xs[0], xs[1:], xps[1:])
        if image not in fibers:
            return FibrationReport(False, False, None, len(source),
                                   "projected point leaves the target")
        fibers[image] += 1
    sizes = set(fibers.values())
    ok = sizes == {q}
    return FibrationReport(ok, 0 not in sizes, q if ok else None, len(source),
                           "" if ok else "fiber size mismatch")
