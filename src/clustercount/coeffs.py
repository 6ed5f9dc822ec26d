"""Coefficient maps on forest vertices and the moves that preserve counts.

The key fact: for adjacent s-t, rescaling the variable pair at t by the
coefficient at s gives an isomorphic variety whose coefficient is 1 at s
and divided by the old value at every other neighbor of t.  Driving these
flips with a partial domino tiling normalizes the coefficients to 1 on
every covered vertex (`normalize`) and never changes the point count.  The
result depends only on the tiling: a flip changes a vertex only through
flips that must come before it, and divisions commute, so every order that
keeps those constraints gives the same values, uncovered vertices included.
`normalize` and the recursion's memo keys both flip in one such order,
`forests.hung_flips`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (NotAdjacent, NotALeaf, UnsupportedSize,
                     ZeroCoefficient)
from .forests import DominoTiling, Forest, flip_plan
from .gf import Field


@dataclass(frozen=True)
class CoeffMap:
    """Assignment vertex -> field element, stored as encodings.

    Any element is a coefficient, zero included: the counted fibres lie
    over the whole affine space of coefficients.  Only the methods that
    divide by a coefficient require it to be a unit: a flip (`apply_flips`,
    so `flip`, `normalize` and the formula path), `leaf_removal_transforms`
    and the recursion.
    """

    field: Field
    values: dict[int, int]

    @staticmethod
    def make(field: Field, values: dict) -> "CoeffMap":
        """Encode each value: an int by `Field.from_int`, a digit sequence
        by `Field.from_vector`."""
        return CoeffMap(field, {
            int(v): (field.from_int(val) if isinstance(val, int)
                     else field.from_vector(val))
            for v, val in values.items()})

    @staticmethod
    def ones(field: Field, forest: Forest) -> "CoeffMap":
        return CoeffMap(field, {v: 1 for v in forest.vertices})

    def enc(self, v: int) -> int:
        return self.values[v]

    def as_str(self) -> dict[int, str]:
        text = self.field.text
        return {v: text(self.values[v]) for v in sorted(self.values)}


@dataclass(frozen=True)
class NormalForm:
    """Result of tiling-driven normalization, with the flip trace."""

    coeffs: CoeffMap
    trace: tuple[tuple[int, int], ...]


def apply_flips(field: Field, values: dict[int, int],
                flips) -> dict[int, int]:
    """`values` after each flip (s, t, others) in turn: the coefficient at
    s becomes 1 and those on `others`, the other neighbors of t, are divided
    by the old coefficient at s.  ZeroCoefficient when that is zero."""
    vals = dict(values)
    for s, _, others in flips:
        a_s = vals[s]
        if a_s == 1:  # already 1, and dividing by 1 changes nothing
            continue
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
                    apply_flips(coeffs.field, coeffs.values, [(s, t, others)]))


def normalize(forest: Forest, tiling: DominoTiling,
              coeffs: CoeffMap) -> NormalForm:
    """Flip every covered vertex over its domino partner, in the order of
    `flip_plan`, so the result is 1 on every covered vertex.  Every order
    that never divides a vertex already set to 1 gives the same values, on
    the uncovered vertices too; the trace lists the flips (s, partner) in
    the order they are applied.  NotAdjacent when a domino is not an edge
    of `forest`; ZeroCoefficient when a covered vertex is zero, since its
    own flip divides by it (a zero stays zero under division).
    """
    plan = flip_plan(forest, tiling)
    out = CoeffMap(coeffs.field,
                   apply_flips(coeffs.field, coeffs.values, plan))
    return NormalForm(out, tuple((s, t) for s, t, _ in plan))


def leaf_removal_transforms(forest: Forest, coeffs: CoeffMap, leaf: int):
    """Coefficient transforms for the two loci of the leaf-removal split.

    With f the leaf, g its neighbor: on the locus where the variable at f is
    an invertible beta, the variety is the one on T - f with the coefficient
    at g multiplied by beta.  On the locus where it vanishes, it is a line
    times the variety on T - {f, g} with the coefficients at the other
    neighbors of g divided by -alpha_f.

    Returns (g, the encodings on T - f, the encodings on T - {f, g}); those
    on T - f are the ones of `coeffs`, before any beta.  Only `vertices`
    and `adjacency` are read from `forest`, so a recursion record will do.
    NotALeaf when f is not a vertex of degree 1; ZeroCoefficient when
    alpha_f, which it divides by, is zero.
    """
    if leaf not in forest.adjacency:
        raise NotALeaf(f"vertex {leaf} is not in the forest")
    degree = len(forest.adjacency[leaf])
    if degree != 1:
        raise NotALeaf(f"vertex {leaf} has degree {degree}")
    vals = coeffs.values
    a_f = vals[leaf]
    if a_f == 0:
        raise ZeroCoefficient(f"coefficient at leaf {leaf} is zero")
    g = forest.adjacency[leaf][0]
    fld = coeffs.field

    primed = {v: vals[v] for v in forest.vertices if v != leaf}
    double = {v: a for v, a in primed.items() if v != g}
    scale = fld.neg_enc(fld.inv_enc(a_f))  # -1/alpha_f
    for v in forest.adjacency[g]:
        if v != leaf:
            double[v] = fld.mul_enc(double[v], scale)
    return g, primed, double


# ---------------------------------------------------------------------------
# file format: "v value" per line; value is an integer, or a comma-separated
# coefficient vector for extension fields; each vertex at most once, missing
# vertices default to 1
# ---------------------------------------------------------------------------

def parse_coeff_text(text: str, field: Field, forest: Forest) -> CoeffMap:
    given: dict[int, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            vertex, spec = line.split(None, 1)
            v = int(vertex)
            value = (tuple(int(c) for c in spec.split(",")) if "," in spec
                     else int(spec))
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'vertex value', "
                             f"got {line!r}") from None
        if v not in forest.adjacency:
            raise ValueError(f"line {lineno}: vertex {v} not in the forest")
        if v in given:
            raise ValueError(f"line {lineno}: vertex {v} given twice")
        if isinstance(value, tuple):
            try:
                field.from_vector(value)
            except UnsupportedSize as exc:
                raise ValueError(f"line {lineno}: vertex {v}: {exc}") from None
        given[v] = value
    return CoeffMap.make(field, {v: 1 for v in forest.vertices} | given)


def read_coeff_file(path, field: Field, forest: Forest) -> CoeffMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coeff_text(fh.read(), field, forest)
