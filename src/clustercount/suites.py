"""Verification batteries: the structural claims the package must reproduce.

Each battery exercises one claim across its full stated range and returns a
`SuiteResult` carrying pass/fail, a counterexample witness when one exists,
and timing.  `run_suite("paper")` runs everything; the CLI `check`
subcommand and the acceptance tests are both thin wrappers over this
module.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

from .coeffs import CoeffMap, flip, normalize
from .counting import (VarietyInstance, _a_union_member, _unit_params,
                       brute_count, check_z_fibration, count_Y, count_Z,
                       normal_form_instance)
from .errors import ClusterCountError
from .forests import Forest, dynkin, leafy_tiling
from .formulas import (branches_for, epoly_check, formula_count,
                       formula_count_params, formula_Y, formula_Z)
from .gf import field_from_order, field_make
from .qpoly import FamilyPolicy, fit_and_verify
from .recursion import recursive_count
from .singular import matching_singular_points


@dataclass
class SuiteResult:
    name: str
    ok: bool
    checked: int
    elapsed_ms: float
    failures: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "elapsed_ms": round(self.elapsed_ms, 1),
            "failures": [str(f) for f in self.failures[:10]],
        }


def _battery(name, checks):
    start = time.perf_counter()
    failures = []
    checked = 0
    try:
        for label, ok in checks:
            checked += 1
            if not ok:
                failures.append(label)
    except (ArithmeticError, ClusterCountError) as exc:
        failures.append(f"raised {type(exc).__name__}: {exc}")
    elapsed = (time.perf_counter() - start) * 1000
    return SuiteResult(name, not failures, checked, elapsed, failures)


def _three_way(dynkin_type, rank, field, memo):
    """For every unit parameter tuple of the family: the check that the
    brute, recursive and formula counts agree, the brute count, and the
    formula report with its branch."""
    for ps in _unit_params(field, dynkin_type, rank):
        inst = normal_form_instance(field, dynkin_type, rank, ps)
        b = brute_count(inst).count
        r = recursive_count(inst, memo).count
        rep = formula_count(dynkin_type, rank, inst.coeffs, field)
        yield ((f"{dynkin_type}{rank} q={field.q} params={ps}: "
                f"{b}/{r}/{rep.count}", b == r == rep.count), b, rep)


def _branch(dynkin_type, rank, branch_id):
    return next(b for b in branches_for(dynkin_type, rank)
                if b.branch_id == branch_id)


def suite_type_a() -> SuiteResult:
    """A_n, n = 0..8, q in {2,3,4,5,7}, every normal-form parameter:
    brute = recursion = formula, and the odd special case exceeds the
    generic formula by exactly q^((n+1)/2)."""
    memo = {}

    def checks():
        for n in range(9):
            for q in (2, 3, 4, 5, 7):
                field = field_from_order(q)
                for check, b, rep in _three_way("A", n, field, memo):
                    yield check
                    if rep.branch == "A-odd-special":
                        gap = b - _branch("A", n, "A-odd-generic").count(n, q)
                        yield (f"A{n} q={q} special gap {gap}",
                               gap == q ** ((n + 1) // 2))

    return _battery("type-A formula battery", checks())


def suite_type_d() -> SuiteResult:
    """D_n, n in {4,5,6}, q in {2,3,4,5} (criterion range plus the F_4
    prime power), all unit parameter tuples; the six formula branches must
    each fire somewhere and always agree."""
    memo = {}

    def checks():
        seen_branches = set()
        for n in (4, 5, 6):
            for q in (2, 3, 4, 5):
                field = field_from_order(q)
                for check, _, rep in _three_way("D", n, field, memo):
                    seen_branches.add(rep.branch)
                    yield check
        expected = {"D-odd-generic", "D-odd-special", "D-even-generic",
                    "D-even-equal-special", "D-even-one-special",
                    "D-even-double-special"}
        yield (f"all six D branches exercised ({sorted(seen_branches)})",
               seen_branches == expected)

    return _battery("type-D formula battery", checks())


def suite_type_e() -> SuiteResult:
    """E6/E7/E8 at q in {2,3,4,5} (the criterion range plus headroom):
    three-way agreement.  For E6/E8 the free coefficient sits on the
    short-arm leaf and must normalize away; for E7 it is the long-branch
    parameter slot."""
    memo = {}

    def checks():
        for q in (2, 3, 4, 5):
            field = field_from_order(q)
            for rank in (6, 8):
                f = dynkin("E", rank)
                fc = formula_count_params("E", rank, field).count
                for a in range(1, q):
                    values = {v: 1 for v in f.vertices}
                    values[2] = a
                    inst = VarietyInstance(f, CoeffMap.make(field, values),
                                           field)
                    b = brute_count(inst).count
                    r = recursive_count(inst, memo).count
                    yield (f"E{rank} q={q} alpha={a}: {b}/{r}/{fc}",
                           b == r == fc)
            yield from (check for check, _, _ in
                        _three_way("E", 7, field, memo))

    return _battery("type-E formula battery", checks())


def _random_tree(rng: random.Random, n: int) -> Forest:
    edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
    return Forest.make(range(1, n + 1), edges)


def suite_reduction() -> SuiteResult:
    """500 randomized trees (<= 7 vertices, q in {2,3,5}): the brute count
    is invariant under a random flip and under full normalization, and the
    normalized map is 1 on every covered vertex."""
    rng = random.Random(20250810)

    def checks():
        for case in range(500):
            n = rng.randint(1, 7)
            q = rng.choice((2, 3, 5))
            field = field_make(q)
            forest = _random_tree(rng, n)
            cm = CoeffMap.make(field,
                               {v: rng.randint(1, q - 1) for v in forest.vertices})
            inst = VarietyInstance(forest, cm, field)
            base = brute_count(inst).count
            if forest.edges:
                u, v = rng.choice(forest.edges)
                s, t = (u, v) if rng.random() < 0.5 else (v, u)
                flipped = flip(forest, cm, s, t)
                nb = brute_count(VarietyInstance(forest, flipped, field)).count
                yield (f"case {case}: flip({s},{t}) changed count "
                       f"{base} -> {nb}", nb == base)
            tiling = leafy_tiling(forest)
            norm = normalize(forest, tiling, cm)
            ones = all(norm.coeffs.enc(v) == 1 for v in tiling.covered)
            yield (f"case {case}: covered vertex not normalized to 1", ones)
            nn = brute_count(VarietyInstance(forest, norm.coeffs, field)).count
            yield (f"case {case}: normalize changed count {base} -> {nn}",
                   nn == base)

    return _battery("reduction soundness battery", checks())


def suite_yz() -> SuiteResult:
    """Unions over the leading coefficient for n <= 5, q in {2,3,5}:
    enumerated Y matches (q^(n+2)+(-1)^(n+1))/(q+1), enumerated Z matches
    q^(n+1) and the open-closed decomposition Z(n) = Y(n) + Y(n-1)."""

    def checks():
        for q in (2, 3, 5):
            field = field_make(q)
            ys = {}
            for n in range(6):
                ys[n] = count_Y(n, field)
                yield (f"Y_A{n} q={q}: {ys[n]} vs {formula_Y(n, q)}",
                       ys[n] == formula_Y(n, q))
            for n in range(1, 6):
                z = count_Z(n, field)
                yield (f"Z_A{n} q={q}: {z} vs {formula_Z(n, q)}",
                       z == formula_Z(n, q))
                yield (f"Z_A{n} q={q} decomposition: {z} vs "
                       f"{ys[n]}+{ys[n - 1]}", z == ys[n] + ys[n - 1])

    return _battery("Y/Z identity battery", checks())


def suite_fibration() -> SuiteResult:
    """Dropping the first equation projects Z(n+1) onto Z(n) with every
    fiber of size exactly q, for n in {1,2,3}, q in {2,3}."""

    def checks():
        for n in (1, 2, 3):
            for q in (2, 3):
                rep = check_z_fibration(n, field_make(q))
                yield (f"Z_A{n + 1} -> Z_A{n} q={q}: {rep.detail or 'ok'}",
                       rep.ok and rep.surjective)

    return _battery("Z fibration battery", checks())


def suite_smoothness() -> SuiteResult:
    """A_n for n <= 6, q in {2,3,5,7}, all unit leading coefficients: no
    singular points except exactly one (with vanishing odd coordinates)
    when n is odd and the coefficient is (-1)^((n+1)/2).  The points come
    from the matching criterion (`matching_singular_points`), not from
    ranking Jacobians; tier-1 tests hold it equal to the exhaustive
    Jacobian scan."""

    def checks():
        for n in range(1, 7):
            for q in (2, 3, 5, 7):
                field = field_make(q)
                for a in range(1, q):
                    inst = _a_union_member(field, n, a)
                    pts = matching_singular_points(inst)
                    expect = int(n % 2 == 1 and _branch(
                        "A", n, "A-odd-special").predicate((a,), field))
                    yield (f"A{n} q={q} alpha={a}: {len(pts)} singular, "
                           f"expected {expect}", len(pts) == expect)
                    for xs, xps in pts:
                        odd_zero = all(
                            x == 0 and xp == 0
                            for v, x, xp in zip(inst.forest.vertices, xs, xps)
                            if v % 2 == 1)
                        yield (f"A{n} q={q} alpha={a}: odd coordinates "
                               "nonzero at singular point", odd_zero)

    return _battery("smoothness classification battery", checks())


def suite_cohomology() -> SuiteResult:
    """Alternating weight sums of the encoded tables equal the counts:
    Y for n <= 6 and the even all-ones family for n <= 8, q in {2,3,5,7}."""

    def checks():
        for q in (2, 3, 5, 7):
            for n in range(7):
                rep = epoly_check("Y", n, q)
                yield (f"Y_A{n} q={q}: {rep.e_poly_value} vs "
                       f"{rep.count_value}", rep.ok)
            for n in range(0, 9, 2):
                rep = epoly_check("X", n, q)
                yield (f"X{n}(1) q={q}: {rep.e_poly_value} vs "
                       f"{rep.count_value}", rep.ok)

    return _battery("cohomology consistency battery", checks())


def suite_interpolation() -> SuiteResult:
    """fit_and_verify reproduces the closed-form polynomials, with integer
    coefficients and zero residual at two held-out primes; a failed check's
    label lists the residuals."""
    targets = [
        (FamilyPolicy("A", 2, "generic"), "q^2 + 1"),
        (FamilyPolicy("A", 3, "generic"), "q^3 - 1"),
        (FamilyPolicy("A", 3, "special"), "q^3 + q^2 - 1"),
        (FamilyPolicy("D", 4, "generic"), "q^4 - 2*q^2 + 1"),
        (FamilyPolicy("D", 5, "generic"), "q^5 - 1"),
        (FamilyPolicy("E", 6, "generic"), "q^6 + q^4 + q^3 + q^2 + 1"),
        (FamilyPolicy("E", 7, "generic"), "q^7 + q^5 - q^2 - 1"),
        (FamilyPolicy("E", 7, "special"), "q^7 + 2*q^5 + q^3 - q^2 - 1"),
        (FamilyPolicy("E", 8, "generic"),
         "q^8 + q^6 + q^5 + q^4 + q^3 + q^2 + 1"),
    ]
    memo = {}

    def checks():
        for policy, expected in targets:
            rep = fit_and_verify(policy, memo=memo)
            residuals = ", ".join(map(str, rep.residuals))
            yield (f"{policy.name}: {rep.polynomial} vs {expected}, "
                   f"residuals [{residuals}]",
                   str(rep.polynomial) == expected and rep.ok)

    return _battery("interpolation battery", checks())


def suite_prime_power() -> SuiteResult:
    """Counts over F_4 and F_9 equal the closed forms evaluated at q = 4, 9
    (A_n for n <= 4 and D_4), confirming polynomials in q rather than p."""
    memo = {}

    def checks():
        for p, k in ((2, 2), (3, 2)):
            field = field_make(p, k)
            for t, rank in [("A", r) for r in range(5)] + [("D", 4)]:
                yield from (check for check, _, _ in
                            _three_way(t, rank, field, memo))

    return _battery("prime-power sanity battery", checks())


PAPER_SUITE: dict[str, object] = {
    "typeA": suite_type_a,
    "typeD": suite_type_d,
    "typeE": suite_type_e,
    "reduction": suite_reduction,
    "yz": suite_yz,
    "fibration": suite_fibration,
    "smoothness": suite_smoothness,
    "cohomology": suite_cohomology,
    "interpolation": suite_interpolation,
    "primepower": suite_prime_power,
}


def run_suite(name: str) -> list[SuiteResult]:
    """Run one battery by name, or all of them with name = "paper"."""
    if name == "paper":
        names = list(PAPER_SUITE)
    elif name in PAPER_SUITE:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from paper, {', '.join(PAPER_SUITE)}")
    return [PAPER_SUITE[nm]() for nm in names]
