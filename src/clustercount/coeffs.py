"""Coefficient maps on forest vertices and the moves that preserve counts.

The key fact: for adjacent s-t, rescaling the variable pair at t by the
coefficient at s gives an isomorphic variety whose coefficient is 1 at s
and divided by the old value at every other neighbor of t.  Driving these
flips with a partial domino tiling normalizes the coefficients to 1 on
every covered vertex (`normalize`); the uncovered residuals depend on the
flip order, but the point count never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import NotAdjacent, NotALeaf, ZeroCoefficient
from .forests import DominoTiling, Forest, flip_plan
from .gf import Field, FieldElement


@dataclass(frozen=True)
class CoeffMap:
    """Assignment vertex -> field element, stored as encodings.

    Values must be invertible; `allow_zero` relaxes this for the union-type
    varieties where the coefficient on one path endpoint ranges over the
    whole field.
    """

    field: Field
    values: dict[int, int]
    allow_zero: bool = dc_field(default=False, compare=False)

    @staticmethod
    def make(field: Field, values: dict, allow_zero: bool = False) -> "CoeffMap":
        enc = {}
        for v, val in values.items():
            e = field.element(val).code if not isinstance(val, int) else field.from_int(val)
            if e == 0 and not allow_zero:
                raise ZeroCoefficient(f"coefficient at vertex {v} is zero")
            enc[int(v)] = e
        return CoeffMap(field, enc, allow_zero)

    @staticmethod
    def ones(field: Field, forest: Forest) -> "CoeffMap":
        return CoeffMap(field, {v: 1 for v in forest.vertices})

    def enc(self, v: int) -> int:
        return self.values[v]

    def get(self, v: int) -> FieldElement:
        return FieldElement(self.field, self.values[v])

    def with_value(self, v: int, value) -> "CoeffMap":
        e = self.field.element(value).code
        if e == 0 and not self.allow_zero:
            raise ZeroCoefficient(f"coefficient at vertex {v} is zero")
        vals = dict(self.values)
        vals[v] = e
        return CoeffMap(self.field, vals, self.allow_zero)

    def restrict(self, vertices) -> "CoeffMap":
        keep = set(vertices)
        return CoeffMap(self.field,
                        {v: e for v, e in self.values.items() if v in keep},
                        self.allow_zero)

    def as_str(self) -> dict[int, str]:
        return {v: str(self.get(v)) for v in sorted(self.values)}


@dataclass(frozen=True)
class NormalForm:
    """Result of tiling-driven normalization, with the flip trace."""

    forest: Forest
    tiling: DominoTiling
    coeffs: CoeffMap
    trace: tuple[tuple[int, int], ...]


def apply_flips(field: Field, values: dict[int, int],
                flips) -> dict[int, int]:
    """`values` after each flip (s, t, others) in turn: the coefficient at
    s becomes 1 and those on `others`, the other neighbors of t, are divided
    by the old coefficient at s."""
    vals = dict(values)
    for s, _, others in flips:
        a_s = vals[s]
        if a_s == 0:
            raise ZeroCoefficient(f"cannot flip zero coefficient at vertex {s}")
        inv = field.inv_enc(a_s)
        vals[s] = 1
        for u in others:
            vals[u] = field.mul_enc(vals[u], inv)
    return vals


def flip(forest: Forest, coeffs: CoeffMap, s: int, t: int) -> CoeffMap:
    """Jump the coefficient at s over the adjacent vertex t.

    The result has coefficient 1 at s and the old values divided by the old
    coefficient at s on every other neighbor of t; the variety's point count
    is unchanged (the variables at t absorb the rescaling).
    """
    if t not in forest.adjacency.get(s, ()):
        raise NotAdjacent(f"{s}-{t} is not an edge")
    others = tuple(u for u in forest.adjacency[t] if u != s)
    return CoeffMap(coeffs.field,
                    apply_flips(coeffs.field, coeffs.values, [(s, t, others)]),
                    coeffs.allow_zero)


def normalize(forest: Forest, tiling: DominoTiling, coeffs: CoeffMap,
              coloring: dict[int, str] | None = None) -> NormalForm:
    """Flip every covered vertex over its domino partner, whites first.

    Within a color the flips follow the schedule that never revisits an
    already-normalized vertex, so the result is 1 on every covered vertex.
    Residual values on uncovered vertices depend on the (recorded) order;
    only count-equivalence with the input is promised for them.
    """
    for v in tiling.covered:
        if coeffs.enc(v) == 0:
            raise ZeroCoefficient(f"coefficient at covered vertex {v} is zero")
    plan = flip_plan(forest, tiling, coloring)
    out = CoeffMap(coeffs.field, apply_flips(coeffs.field, coeffs.values, plan),
                   coeffs.allow_zero)
    return NormalForm(forest, tiling, out, tuple((s, t) for s, t, _ in plan))


@dataclass(frozen=True)
class ScaledSlotCoeffs:
    """Coefficient family on a fixed forest: `base` with the value at `slot`
    multiplied by a free invertible parameter."""

    forest: Forest
    base: CoeffMap
    slot: int

    def at(self, beta) -> CoeffMap:
        b = self.base.field.element(beta)
        if b.is_zero():
            raise ZeroCoefficient("slot multiplier must be invertible")
        return self.base.with_value(
            self.slot, self.base.field.mul_enc(self.base.enc(self.slot), b.code))


@dataclass(frozen=True)
class LeafSplit:
    """The two reduced families produced by removing a leaf.

    `primed` lives on the forest without the leaf and carries a free
    multiplier on the leaf's old neighbor; `doubleprimed_*` describe the
    forest with both the leaf and its neighbor removed.
    """

    leaf: int
    neighbor: int
    primed: ScaledSlotCoeffs
    doubleprimed_forest: Forest
    doubleprimed_coeffs: CoeffMap


def leaf_removal_transforms(forest: Forest, coeffs: CoeffMap,
                            leaf: int) -> LeafSplit:
    """Coefficient transforms for the two loci of the leaf-removal split.

    With f the leaf, g its neighbor: on the locus where the variable at f is
    an invertible beta, the variety is the one on T - f with the coefficient
    at g multiplied by beta.  On the locus where it vanishes, it is a line
    times the variety on T - {f, g} with the coefficients at the other
    neighbors of g divided by -alpha_f.
    """
    if forest.degree(leaf) != 1:
        raise NotALeaf(f"vertex {leaf} has degree {forest.degree(leaf)}")
    a_f = coeffs.enc(leaf)
    if a_f == 0:
        raise ZeroCoefficient(f"coefficient at leaf {leaf} is zero")
    g = forest.adjacency[leaf][0]
    fld = coeffs.field

    t_primed = forest.remove([leaf])
    primed = ScaledSlotCoeffs(t_primed, coeffs.restrict(t_primed.vertices), g)

    t_double = forest.remove([leaf, g])
    scale = fld.neg_enc(fld.inv_enc(a_f))  # -1/alpha_f
    vals = {}
    for v in t_double.vertices:
        e = coeffs.enc(v)
        if v in forest.adjacency[g]:
            e = fld.mul_enc(e, scale)
        vals[v] = e
    return LeafSplit(leaf, g, primed, t_double,
                     CoeffMap(fld, vals, coeffs.allow_zero))


# ---------------------------------------------------------------------------
# file format: "v value" per line; value is an integer, or a comma-separated
# coefficient vector for extension fields; missing vertices default to 1
# ---------------------------------------------------------------------------

def parse_coeff_text(text: str, field: Field, forest: Forest,
                     allow_zero: bool = False) -> CoeffMap:
    values: dict[int, object] = {v: 1 for v in forest.vertices}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'vertex value'")
        v = int(parts[0])
        if v not in values:
            raise ValueError(f"line {lineno}: vertex {v} not in the forest")
        spec = parts[1].strip()
        if "," in spec:
            values[v] = tuple(int(c) for c in spec.split(","))
        else:
            values[v] = int(spec)
    return CoeffMap.make(field, values, allow_zero)


def read_coeff_file(path, field: Field, forest: Forest,
                    allow_zero: bool = False) -> CoeffMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coeff_text(fh.read(), field, forest, allow_zero)
