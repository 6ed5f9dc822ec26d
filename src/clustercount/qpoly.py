"""Count polynomials in q recovered by exact Lagrange interpolation.

Counting a fixed family branch at d+1 primes determines a degree-d
polynomial with rational coefficients; for the families here the result
must have integer coefficients and must keep predicting counts at held-out
primes exactly.  A fit reports that verdict rather than raising:
`FitReport.ok` is false when a coefficient is not an integer or a
held-out residual is nonzero.  A branch policy chooses, per field,
parameters that stay inside one case of the closed-form branching (e.g.
"the special value" is the field element (-1)^e, not a fixed integer),
since mixing branches across primes makes the counts non-polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import VarietyInstance, _unit_params, normal_form_instance
from .errors import DuplicateAbscissa, UnsupportedType
from .formulas import branches_for
from .gf import Field, field_make, is_prime
from .recursion import recursive_count


@dataclass(frozen=True)
class QPolynomial:
    """Exact-rational-coefficient polynomial in q, ascending degree."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs) -> "QPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return QPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, q) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * q + c
        return total

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def coefficient_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        return self.text()

    def text(self, descending: bool = True) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        degrees = range(len(self.coeffs))
        for d in (reversed(degrees) if descending else degrees):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "q" if d == 1 else f"q^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def interpolate_counts(samples) -> QPolynomial:
    """Unique interpolant through (q, count) samples, exact: the Newton
    form's divided differences, expanded by Horner's rule."""
    samples = [(int(x), int(y)) for x, y in samples]
    xs = [x for x, _ in samples]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"repeated q values in {sorted(xs)}")
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    dd = [Fraction(y) for _, y in samples]  # dd[i] becomes f[x_0..x_i]
    for k in range(1, len(dd)):
        for i in range(len(dd) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    coeffs = []
    for x, c in zip(reversed(xs), reversed(dd)):  # coeffs * (q - x) + c
        coeffs = [a - x * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += c
    return QPolynomial.make(coeffs)


# ---------------------------------------------------------------------------
# branch policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyPolicy:
    """A Dynkin family plus a branch-stable parameter choice rule."""

    dynkin_type: str
    rank: int
    branch: str  # generic | special | equal-special | one-special | double-special

    @property
    def name(self) -> str:
        return f"{self.dynkin_type.upper()}{self.rank}-{self.branch}"

    @property
    def degree_bound(self) -> int:
        """The rank, at least 1: a count polynomial of A_n, D_n or E_n has
        degree n, and a fit needs two samples."""
        return max(self.rank, 1)

    def params_for(self, field: Field) -> tuple[int, ...] | None:
        """The first tuple of units, in encoding order, that lies in this
        branch, or None when the field is too small to realize it."""
        branches = branches_for(self.dynkin_type, self.rank)
        if len(branches) == 1:
            if self.branch != "generic":
                raise UnsupportedType(f"{self.name}: family has a single branch")
            wanted = branches[0]
        else:
            family = branches[0].branch_id.removesuffix("-generic")
            wanted = next((b for b in branches
                           if b.branch_id == f"{family}-{self.branch}"), None)
            if wanted is None:
                raise UnsupportedType(f"{self.name}: unknown branch")
        units = _unit_params(field, self.dynkin_type, self.rank)
        return next((p for p in units if wanted.predicate(p, field)), None)

    def instance(self, field: Field) -> VarietyInstance | None:
        params = self.params_for(field)
        if params is None:
            return None
        return normal_form_instance(field, self.dynkin_type, self.rank, params)


@dataclass(frozen=True)
class FitReport:
    polynomial: QPolynomial
    samples: tuple[tuple[int, int], ...]
    held_out: tuple[tuple[int, int], ...]
    residuals: tuple[Fraction, ...]  # poly(q) - count, per held-out prime

    @property
    def ok(self) -> bool:
        return self.polynomial.is_integral() and not any(self.residuals)


def _primes_from(start: int):
    p = start
    while True:
        if is_prime(p):
            yield p
        p += 1


def fit_and_verify(policy: FamilyPolicy, degree: int | None = None, *,
                   extra: int = 2, memo: dict | None = None) -> FitReport:
    """Fit the count polynomial of a family branch and verify it on held-out
    primes.

    Counts run at the first degree+1 admissible primes >= 3, then `extra`
    more.  The report carries the exact residual poly(q) - count at each
    held-out prime, and `ok` holds when the interpolant has integer
    coefficients and every residual is zero; a failed fit is reported, not
    raised.  Counting is by the leaf-removal recursion, which stays fast at
    the larger primes, sharing `memo` when given.  A degree below 1 or a
    negative `extra` raises ValueError.
    """
    degree = policy.degree_bound if degree is None else degree
    if degree < 1:
        raise ValueError(f"the degree bound must be at least 1, got {degree}")
    if extra < 0:
        raise ValueError(f"the held-out prime count must be at least 0, "
                         f"got {extra}")
    memo = {} if memo is None else memo
    samples: list[tuple[int, int]] = []
    held: list[tuple[int, int]] = []
    for p in _primes_from(3):
        field = field_make(p)
        inst = policy.instance(field)
        if inst is None:
            continue
        target = samples if len(samples) <= degree else held
        target.append((p, recursive_count(inst, memo).count))
        if len(samples) > degree and len(held) >= extra:
            break
    poly = interpolate_counts(samples)
    residuals = tuple(poly(q) - count for q, count in held)
    return FitReport(poly, tuple(samples), tuple(held), residuals)
