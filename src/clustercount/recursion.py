"""Leaf-removal counting recursion, memoized on normalized canonical forms.

Removing a leaf f with neighbor g splits the points by whether the variable
at f vanishes:

    N_T(alpha) = q * N_T''(alpha'') + sum over invertible beta of
                 N_T'(alpha'(beta))

with the coefficient transforms from `coeffs.leaf_removal_transforms`; as
a_g is invertible, the beta child writes beta itself at g.  The base cases
are a single vertex, where x x' = 1 + alpha has q - 1 points, or 2q - 1
when alpha = -1, and the empty forest (one point).

A tree's memo key is the canonical form of its labels after `normalize` on
its leafy tiling, so children that normalize alike share one entry; the
record replays the same flips in the same order, as both take them from
`forests.hung_flips`.  Every tree that the recursion meets is an induced
subtree of the input, so each count's tree table, the one owner of per-tree
state, keys a tree's record by its sorted vertices and builds it from
adjacency lists alone, in three walks (see `_Tree`); no record outlives the
count.  From the first memo miss on, the record also holds the tree's split
(leaf, T - f, its flip exponents, the trees of T - {f, g}).  A key costs one
replay of the record's flips and one lookup in its key cache, and
`canonical_form` runs once per distinct normalized tree.

The flips only divide, so every label is a Laurent monomial in the input
coefficients: 1 on covered vertices, and on T' = T - f the beta child's
label at an uncovered v is base_v * beta^e_v, with base the labels at
beta = 1 and e_v the power of the coefficient at g
(`_Tree.flip_exponents`).  So a split of a tree takes one of three ways:
a T' of one vertex g sums to q^2 - q + 1 in closed form (q - 1 points for
each beta, and q more at beta = -1); when every e_v is 0 the q - 1
children share one key and the sum is (q - 1) * N(beta = 1); otherwise
their keys are built column by column from `Field.inv_table`, after one
replay for all of them.  The memo still grows about as 3q on E8, but a
memo miss is now the main cost: E8 with all ones takes 0.05 s at
q = 1009, 0.5 s at q = 10007 and 6 s at q = 100003, against 13 s at
q = 1009 replaying every child (2 CPUs, Python 3.11).
"""

from __future__ import annotations

from .coeffs import CoeffMap, apply_flips, leaf_removal_transforms
from .counting import CountReport, VarietyInstance
from .errors import NotALeaf, ZeroCoefficient
from .forests import canonical_form, centred_plan, hung_flips, leafy_pairs
from .gf import Field


def _pick_leaf(tree) -> int:
    """Leaf whose removal with its neighbor splits the tree into the most
    components, i.e. whose neighbor has the highest degree (the first such
    leaf); any leaf is correct, this only speeds up the recursion.  `tree`
    is a `Forest` or a `_Tree`."""
    adj = tree.adjacency
    return max((v for v in tree.vertices if len(adj[v]) == 1),
               key=lambda f: len(adj[adj[f][0]]))


class _Tree:
    """A record of the count's tree table: the tree on the sorted `vertices`
    of a forest of `adjacency`, with its own `adjacency`; from a walk from its
    largest vertex, the `flips` that `normalize` makes on its leafy tiling
    (`hung_flips` of its `leafy_pairs`, as in `flip_plan`) and the vertices
    none sets to 1 (`uncovered`); from two walks that start where that one
    ends, the `_canonical_plan`; the key cache `keys`; and the `split` that
    `_split_counts` sets on the first miss."""

    def __init__(self, vertices: tuple[int, ...], adjacency):
        self.vertices = vertices
        inside = set(vertices)
        adj = self.adjacency = {
            v: tuple([u for u in adjacency[v] if u in inside])
            for v in vertices}
        pairs, end = leafy_pairs(adj, vertices[-1])
        self.flips = hung_flips(adj, pairs)
        covered = {v for pair in pairs for v in pair}
        self.uncovered = tuple([v for v in vertices if v not in covered])
        self._canonical_plan = (centred_plan(adj, end),)
        self.keys, self.split = {}, None

    def flip_exponents(self, g: int) -> tuple[int, ...]:
        """For each of `uncovered`, the power of the coefficient at g in its
        value after `flips` (a Laurent monomial in the coefficients, as
        flips only divide)."""
        power = dict.fromkeys(self.vertices, 0) | {g: 1}
        for s, _, others in self.flips:
            for u in others:
                power[u] -= power[s]
            power[s] = 0
        return tuple(map(power.get, self.uncovered))

    def apart(self, f: int, g: int):
        """The sorted vertex lists of the trees of T - {f, g}, f a leaf at
        g, in the order of their smallest vertices: in the canonical plan each
        vertex joins its parent's tree, or starts its own below g."""
        ((roots, bottom_up),) = self._canonical_plan
        tree = {r: r if g in roots else roots[0] for r in roots}
        for v, children in reversed(bottom_up):
            for u in children:
                tree[u] = u if v == g else tree[v]
        parts = {}
        for v in self.vertices:
            if v != f and v != g:
                parts.setdefault(tree[v], []).append(v)
        return parts.values()


def _pieces(comps, adjacency, trees: dict) -> tuple:
    """The trees on the sorted vertex lists `comps` of a forest of
    `adjacency`: a single vertex as itself, any other its record in
    `trees`, built the first time the count meets it."""
    return tuple(comp[0] if len(comp) == 1 else trees.get(comp)
                 or trees.setdefault(comp, _Tree(comp, adjacency))
                 for comp in map(tuple, comps))


def _count_keyed(rec: _Tree, values: dict[int, int], labels: tuple,
                 field: Field, memo: dict, trees: dict) -> int:
    """The count of the tree of `rec` at `values`, whose normalized labels
    are `labels` on its `uncovered` and 1 elsewhere."""
    key = rec.keys.get(labels)
    if key is None:
        full = dict.fromkeys(rec.vertices, 1)
        full.update(zip(rec.uncovered, labels))
        key = rec.keys[labels] = canonical_form(rec, full), field.q
    hit = memo.get(key)
    if hit is None:
        leaf = _pick_leaf(rec) if rec.split is None else rec.split[0]
        hit = memo[key] = sum(_split_counts(rec, leaf, values, field, memo,
                                            trees))
    return hit


def _uncovered_labels(rec: _Tree, values: dict, field: Field) -> tuple:
    """The normalized labels of `rec`'s tree at `values` on its `uncovered`:
    one replay of its `flips`."""
    labels = apply_flips(field, values, rec.flips)
    return tuple(map(labels.__getitem__, rec.uncovered))


def _column(field: Field, b: int, e: int) -> list[int]:
    """b * beta^e for beta = 1, ..., q - 1."""
    betas = (range(1, field.q) if e == 1 else field.inv_table()[1:] if e == -1
             else [field.pow_enc(x, e) for x in range(1, field.q)])
    return [field.mul_enc(b, x) for x in betas]


def _split_counts(rec: _Tree, leaf: int, values: dict[int, int],
                  field: Field, memo: dict, trees: dict) -> tuple[int, int]:
    """(zero part, nonzero part) of the split of `rec`'s tree at `leaf`,
    the leaf of `rec.split` once that is built; see `leaf_split_counts`."""
    g, primed, double = leaf_removal_transforms(
        rec, CoeffMap(field, values), leaf)
    if rec.split is None:
        (rest,) = _pieces([[v for v in rec.vertices if v != leaf]],
                          rec.adjacency, trees)
        exps = None if isinstance(rest, int) else rest.flip_exponents(g)
        rec.split = (leaf, rest, exps,
                     _pieces(rec.apart(leaf, g), rec.adjacency, trees))
    _, rest, exps, pieces = rec.split
    q = field.q
    zero_part = q * _product(pieces, double, field, memo, trees)
    if isinstance(rest, int):  # T' = {g}: x_g x'_g = 1 + beta
        return zero_part, q * q - q + 1
    primed[g] = 1  # `primed` is each beta child in turn; nothing keeps it
    base = _uncovered_labels(rest, primed, field)
    if not any(exps):
        return zero_part, (q - 1) * _count_keyed(rest, primed, base, field,
                                                 memo, trees)
    nonzero_part = 0
    columns = [_column(field, b, e) for b, e in zip(base, exps)]
    for beta, labels in enumerate(zip(*columns), 1):
        primed[g] = beta
        nonzero_part += _count_keyed(rest, primed, labels, field, memo, trees)
    return zero_part, nonzero_part


def _product(pieces: tuple, values: dict[int, int], field: Field,
             memo: dict, trees: dict) -> int:
    """The product of the counts of `pieces` (see `_pieces`) at `values`."""
    total, q = 1, field.q
    for piece in pieces:
        if isinstance(piece, int):
            total *= 2 * q - 1 if values[piece] == field.neg_enc(1) else q - 1
            continue
        labels = _uncovered_labels(piece, values, field)
        total *= _count_keyed(piece, values, labels, field, memo, trees)
    return total


def _require_invertible(instance: VarietyInstance) -> None:
    """ZeroCoefficient unless every coefficient is a unit: the recursion's
    splits and normalizing flips divide by them."""
    for v in instance.forest.vertices:
        if instance.coeffs.enc(v) == 0:
            raise ZeroCoefficient(f"coefficient at vertex {v} is zero")


def recursive_count(instance: VarietyInstance,
                    memo: dict | None = None) -> CountReport:
    """Exact point count by the leaf-removal recursion.

    Passing a shared `memo` dict across calls reuses normalized sub-variety
    counts between related instances.  The report's `stats` are `nodes`,
    the memo entries this call added, and `canonical_forms`, the
    normalized labelled trees it built a key for.
    """
    _require_invertible(instance)
    memo = {} if memo is None else memo
    before = len(memo)
    forest, trees = instance.forest, {}
    total = _product(_pieces(forest.components, forest.adjacency, trees),
                     instance.coeffs.values, instance.field, memo, trees)
    return CountReport(total, stats={
        "nodes": len(memo) - before,
        "canonical_forms": sum(len(rec.keys) for rec in trees.values())})


def leaf_split_counts(instance: VarietyInstance, leaf: int) -> tuple[int, int]:
    """The two terms of the recursion at `leaf`: (count of the locus where
    the leaf variable vanishes, count where it is invertible).  Every
    coefficient must be invertible, as in `recursive_count`.  On a forest
    the leaf's tree is split, and both terms are multiplied by the count of
    the other trees.  NotALeaf when `leaf` is not a vertex of degree 1."""
    _require_invertible(instance)
    forest, values, field = (instance.forest, instance.coeffs.values,
                             instance.field)
    comps = forest.components
    comp = next((c for c in comps if leaf in c), None)
    if comp is None:
        raise NotALeaf(f"vertex {leaf} is not in the forest")
    memo, trees = {}, {}
    # a fresh record, so that its split is built at `leaf`
    zero_part, nonzero_part = _split_counts(_Tree(comp, forest.adjacency),
                                            leaf, values, field, memo, trees)
    others = _product(_pieces([c for c in comps if c != comp],
                              forest.adjacency, trees),
                      values, field, memo, trees)
    return zero_part * others, nonzero_part * others
