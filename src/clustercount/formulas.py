"""Closed-form point counts for the Dynkin families, with case branching.

All formulas are polynomial identities in the field size q, evaluated in
exact integer arithmetic with numerators computed fully before a checked
exact division.  Branch predicates compare field elements (so over F_2
the element -1 equals 1 and only the "special" branches are reachable);
for each type and rank the predicates partition the normalized parameter
space, which is asserted at dispatch.

The weight tables of the compactly-supported cohomology of the type-A
unions (Y) and of the even all-ones varieties are encoded as data; their
alternating weight sums must reproduce the counts, which `epoly_check`
verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coeffs import CoeffMap
from .counting import CountReport, normal_form_instance
from .errors import BadParity, BadRank, NotNormalized, UnsupportedType
from .forests import check_rank, normal_form_slots
from .gf import Field


def exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-exact division {num}/{den}")
    return q


# ---------------------------------------------------------------------------
# branch tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaBranch:
    branch_id: str
    predicate: Callable[[tuple[int, ...], Field], bool]
    count: Callable[[int, int], int]  # (rank, q) -> count


def _minus_one_power(field: Field, e: int) -> int:
    """Encoding of (-1)^e in the field."""
    return field.neg_enc(1) if e % 2 else 1


def _a_even(n: int, q: int) -> int:
    return exact_div(q ** (n + 2) - 1, q * q - 1)


def _a_odd_generic(n: int, q: int) -> int:
    return exact_div((q ** ((n + 1) // 2) - 1) * (q ** ((n + 3) // 2) - 1),
                     q * q - 1)


def _a_odd_special(n: int, q: int) -> int:
    return _a_odd_generic(n, q) + q ** ((n + 1) // 2)


def _d_odd_generic(n: int, q: int) -> int:
    return q**n - 1


def _d_odd_special(n: int, q: int) -> int:
    return q**n - 1 + q * q * exact_div(q ** (n - 1) - 1, q * q - 1)


def _d_even_generic(n: int, q: int) -> int:
    return (q ** (n // 2) - 1) ** 2


def _d_even_equal(n: int, q: int) -> int:
    return (_d_even_generic(n, q)
            + q * q * exact_div((q ** ((n - 2) // 2) - 1) * (q ** (n // 2) - 1),
                                q * q - 1))


def _d_even_one_special(n: int, q: int) -> int:
    return _d_even_generic(n, q) + (q - 1) * q ** (n // 2)


def _d_even_double_special(n: int, q: int) -> int:
    # all four summands exactly as printed; no algebraic simplification
    return ((q ** (n // 2) - 1) ** 2
            + 2 * (q - 1) * q ** (n // 2)
            + q * q * exact_div((q ** ((n - 2) // 2) - 1) * (q ** (n // 2) - 1),
                                q * q - 1)
            + q ** ((n + 2) // 2))


def _e6(n: int, q: int) -> int:
    return q**6 + q**4 + q**3 + q**2 + 1


def _e7_generic(n: int, q: int) -> int:
    return q**7 + q**5 - q**2 - 1


def _e7_special(n: int, q: int) -> int:
    return q**7 + 2 * q**5 + q**3 - q**2 - 1


def _e8(n: int, q: int) -> int:
    return q**8 + q**6 + q**5 + q**4 + q**3 + q**2 + 1


def _always(p, F) -> bool:
    return True


def _generic_special(family: str, e: int, generic, special) -> list[FormulaBranch]:
    """The two branches of a one-parameter family whose count changes when
    the parameter equals (-1)^e."""
    def is_special(p, F):
        return p[0] == _minus_one_power(F, e)
    return [
        FormulaBranch(f"{family}-generic", lambda p, F: not is_special(p, F),
                      generic),
        FormulaBranch(f"{family}-special", is_special, special),
    ]


def branches_for(dynkin_type: str, rank: int) -> list[FormulaBranch]:
    """The count formulas of a family with the parameter values (p, the
    normal-form parameters in slot order) where each applies.

    This is the one statement of which parameter values are special.  A
    family with several branches lists `<family>-generic` first and names
    the others `<family>-<kind>`."""
    t = dynkin_type.upper()
    if t not in ("A", "D", "E"):
        raise UnsupportedType(f"no closed form for type {dynkin_type!r}")
    check_rank(t, rank)
    if t == "A" and rank % 2 == 0:
        return [FormulaBranch("A-even", _always, _a_even)]
    if t == "A":
        return _generic_special("A-odd", (rank + 1) // 2,
                                _a_odd_generic, _a_odd_special)
    if t == "D" and rank % 2 == 1:
        return _generic_special("D-odd", 0, _d_odd_generic, _d_odd_special)
    if t == "D":
        def s(F, e=rank // 2):
            return _minus_one_power(F, e)
        return [
            FormulaBranch(
                "D-even-generic",
                lambda p, F: p[0] != p[1] and p[0] != s(F) and p[1] != s(F),
                _d_even_generic),
            FormulaBranch(
                "D-even-equal-special",
                lambda p, F: p[0] == p[1] and p[0] != s(F),
                _d_even_equal),
            FormulaBranch(
                "D-even-one-special",
                lambda p, F: p[0] != p[1] and (p[0] == s(F) or p[1] == s(F)),
                _d_even_one_special),
            FormulaBranch(
                "D-even-double-special",
                lambda p, F: p[0] == p[1] == s(F),
                _d_even_double_special),
        ]
    if rank == 7:
        return _generic_special("E7", 1, _e7_generic, _e7_special)
    return [FormulaBranch(f"E{rank}", _always, _e6 if rank == 6 else _e8)]


def _normal_form_params(dynkin_type: str, rank: int,
                        coeffs: CoeffMap) -> tuple[int, ...]:
    slots = normal_form_slots(dynkin_type, rank)
    vertices = sorted(coeffs.values)
    if vertices != list(range(1, rank + 1)):
        raise NotNormalized(f"a rank-{rank} normal form has vertices "
                            f"1..{rank}, got {vertices}")
    for v in vertices:
        if v in slots:
            if coeffs.enc(v) == 0:
                raise NotNormalized(f"parameter at vertex {v} must be invertible")
        elif coeffs.enc(v) != 1:
            raise NotNormalized(
                f"vertex {v} must carry coefficient 1 in normal form "
                f"(found {coeffs.field.text(coeffs.enc(v))})")
    return tuple(coeffs.enc(v) for v in slots)


def formula_count(dynkin_type: str, rank: int, coeffs: CoeffMap,
                  field: Field) -> CountReport:
    """Closed-form count for a normal-form instance, with its branch label."""
    params = _normal_form_params(dynkin_type, rank, coeffs)
    branches = branches_for(dynkin_type, rank)
    firing = [b for b in branches if b.predicate(params, field)]
    if len(firing) != 1:
        raise AssertionError(
            f"branch predicates must partition: {[b.branch_id for b in firing]} "
            f"fired for params {params}")
    branch = firing[0]
    return CountReport(branch.count(rank, field.q), branch=branch.branch_id)


def formula_count_params(dynkin_type: str, rank: int, field: Field,
                         params: tuple = ()) -> CountReport:
    """`formula_count` on `normal_form_instance`'s coefficients."""
    inst = normal_form_instance(field, dynkin_type, rank, params)
    return formula_count(dynkin_type, rank, inst.coeffs, field)


# ---------------------------------------------------------------------------
# unions over the leading coefficient
# ---------------------------------------------------------------------------

def formula_Y(n: int, q: int) -> int:
    """(q^(n+2) + (-1)^(n+1)) / (q+1): points of the union over invertible
    leading coefficients."""
    if n < 0:
        raise BadRank("Y is defined for n >= 0")
    return exact_div(q ** (n + 2) + (-1) ** (n + 1), q + 1)


def formula_Z(n: int, q: int) -> int:
    """q^(n+1): points of the union over all leading coefficients."""
    if n < 1:
        raise BadRank("Z is defined for n >= 1")
    return q ** (n + 1)


# ---------------------------------------------------------------------------
# cohomology weight tables and their E-polynomial consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyTable:
    """(degree, weight, dimension) triples of the nonzero compactly-supported
    cohomology groups; all one-dimensional Tate classes."""

    entries: tuple[tuple[int, int, int], ...]

    def e_polynomial(self, q: int) -> int:
        return sum((-1) ** deg * dim * q**w for deg, w, dim in self.entries)


def cohomology_table(space: str, n: int) -> CohomologyTable:
    """Weight table for `space` = "Y" (any n >= 0) or "X" (all-ones type A,
    even n only): Y has one class of weight i in degree i+n+1 for
    0 <= i <= n+1; X has one class of weight i in degree i+n for even i."""
    if space == "Y":
        if n < 0:
            raise BadRank("Y table needs n >= 0")
        entries = tuple((i + n + 1, i, 1) for i in range(n + 2))
        return CohomologyTable(entries)
    if space == "X":
        if n < 0 or n % 2 != 0:
            raise BadParity(f"X table is defined for even n >= 0, got {n}")
        entries = tuple((i + n, i, 1) for i in range(0, n + 1, 2))
        return CohomologyTable(entries)
    raise UnsupportedType(f"unknown space {space!r}; use 'Y' or 'X'")


@dataclass(frozen=True)
class EPolyReport:
    ok: bool
    e_poly_value: int
    count_value: int


def epoly_check(space: str, n: int, q: int) -> EPolyReport:
    """Does the alternating weight sum of the table equal the point count?"""
    table = cohomology_table(space, n)
    ev = table.e_polynomial(q)
    cv = formula_Y(n, q) if space == "Y" else _a_even(n, q)
    return EPolyReport(ev == cv, ev, cv)
