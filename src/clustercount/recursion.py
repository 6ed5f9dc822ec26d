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
its leafy tiling, so children that normalize alike share one entry.  Each
count keeps a tree table: per edge set of a tree of two or more vertices,
the first `Forest` the count met on it, and a key cache from the exact
labels to the key.  Every later visit to those edges, through another
removal or another component split, uses that tree, so what it caches
(components, flips, exponents, canonical plan, removals) is built once per
count.  A key costs one replay of `Forest.leafy_flips` and one lookup, and
`canonical_form` runs once per distinct normalized tree.

The flips only divide, so every label is a Laurent monomial in the input
coefficients: 1 on covered vertices, and on T' = T - f the beta child's
label at an uncovered v is base_v * beta^e_v, with base the labels at
beta = 1 and e_v the power of the coefficient at g
(`Forest.flip_exponents`).  So a split of a tree takes one of three ways:
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
from .errors import ZeroCoefficient
from .forests import Forest, canonical_form
from .gf import Field


def _pick_leaf(forest: Forest) -> int:
    """Leaf whose removal with its neighbor splits the tree into the most
    components, i.e. whose neighbor has the highest degree (the first such
    leaf); any leaf is correct, this only speeds up the recursion."""
    return max(forest.leaves(),
               key=lambda f: forest.degree(forest.adjacency[f][0]))


def _count_keyed(tree: Forest, known: dict, values: dict[int, int],
                 labels: tuple, field: Field, memo: dict, trees: dict) -> int:
    """The count of `tree` at `values`, whose normalized labels are `labels`
    on `tree.uncovered` and 1 elsewhere; `known` is its key cache."""
    key = known.get(labels)
    if key is None:
        full = dict.fromkeys(tree.vertices, 1)
        full.update(zip(tree.uncovered, labels))
        key = known[labels] = canonical_form(tree, full), field.q
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = sum(_split_counts(tree, values, _pick_leaf(tree),
                                            field, memo, trees))
    return hit


def _uncovered_labels(tree: Forest, values: dict, field: Field) -> tuple:
    """The normalized labels of `tree` at `values` on `tree.uncovered`: one
    replay of its `leafy_flips`."""
    labels = apply_flips(field, values, tree.leafy_flips)
    return tuple(map(labels.__getitem__, tree.uncovered))


def _column(field: Field, b: int, e: int) -> list[int]:
    """b * beta^e for beta = 1, ..., q - 1."""
    betas = (range(1, field.q) if e == 1 else field.inv_table()[1:] if e == -1
             else [field.pow_enc(x, e) for x in range(1, field.q)])
    return [field.mul_enc(b, x) for x in betas]


def _split_counts(forest: Forest, values: dict[int, int], leaf: int,
                  field: Field, memo: dict, trees: dict) -> tuple[int, int]:
    """(zero part, nonzero part) of the split of the tree `forest` at
    `leaf`; see `leaf_split_counts`."""
    g, (t_primed, primed), (t_double, double) = leaf_removal_transforms(
        forest, CoeffMap(field, values), leaf)
    q = field.q
    zero_part = q * _count_forest(t_double, double, field, memo, trees)
    if t_primed.n_vertices == 1:  # T' = {g}: x_g x'_g = 1 + beta
        return zero_part, q * q - q + 1
    t_primed, known = trees.setdefault(t_primed.edges, (t_primed, {}))
    primed[g] = 1  # `primed` is each beta child in turn; nothing keeps it
    base = _uncovered_labels(t_primed, primed, field)
    exps = t_primed.flip_exponents(g)
    if not any(exps):
        return zero_part, (q - 1) * _count_keyed(t_primed, known, primed, base,
                                                 field, memo, trees)
    nonzero_part = 0
    columns = [_column(field, b, e) for b, e in zip(base, exps)]
    for beta, labels in enumerate(zip(*columns), 1):
        primed[g] = beta
        nonzero_part += _count_keyed(t_primed, known, primed, labels, field,
                                     memo, trees)
    return zero_part, nonzero_part


def _count_forest(forest: Forest, values: dict[int, int], field: Field,
                  memo: dict, trees: dict) -> int:
    """The product of the counts of the trees of `forest` at `values`."""
    total, q = 1, field.q
    one_tree = len(forest.components) == 1
    for tree in (forest,) if one_tree else forest.component_forests:
        if tree.n_vertices == 1:
            minus_one = values[tree.vertices[0]] == field.neg_enc(1)
            total *= 2 * q - 1 if minus_one else q - 1
            continue
        tree, known = trees.setdefault(tree.edges, (tree, {}))
        labels = _uncovered_labels(tree, values, field)
        total *= _count_keyed(tree, known, values, labels, field, memo, trees)
    return total


def _require_invertible(instance: VarietyInstance) -> None:
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
    trees = {}
    total = _count_forest(instance.forest, instance.coeffs.values,
                          instance.field, memo, trees)
    return CountReport(total, stats={
        "nodes": len(memo) - before,
        "canonical_forms": sum(len(known) for _, known in trees.values())})


def leaf_split_counts(instance: VarietyInstance, leaf: int) -> tuple[int, int]:
    """The two terms of the recursion at `leaf`: (count of the locus where
    the leaf variable vanishes, count where it is invertible).  Every
    coefficient must be invertible, as in `recursive_count`.  On a forest
    the leaf's tree is split, and both terms are multiplied by the count of
    the other trees.  NotALeaf when `leaf` is not a vertex of degree 1."""
    _require_invertible(instance)
    forest, values, field = (instance.forest, instance.coeffs.values,
                             instance.field)
    comp = next((c for c in forest.components if leaf in c), ())
    memo, trees = {}, {}
    zero_part, nonzero_part = _split_counts(forest.induced(comp), values,
                                            leaf, field, memo, trees)
    others = _count_forest(forest.remove(comp), values, field, memo, trees)
    return zero_part * others, nonzero_part * others
