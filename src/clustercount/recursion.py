"""Leaf-removal counting recursion, memoized on normalized canonical forms.

Removing a leaf f with neighbor g splits the points by whether the variable
at f vanishes:

    N_T(alpha) = q * N_T''(alpha'') + sum over invertible beta of
                 N_T'(alpha'(beta))

with the coefficient transforms from `coeffs.leaf_removal_transforms`.  The
base cases are the empty forest (one point) and a single vertex, where
x x' = 1 + alpha has q - 1 points, or 2q - 1 when alpha = -1.

The beta sum has q - 1 branches.  Each child is normalized and the memo
table is keyed on its canonical form, so children that normalize alike
share one entry; but the distinct classes still number about one per beta,
so the memo grows linearly in q (with every normal-form parameter 2: q + 1
entries for A4, q + 2 for D5, 3q + 1 for E8) and the time about as q^2.

The recursion carries a forest, its coefficient encodings as a plain
{vertex: encoding} dict, and the field.  The beta children's coefficients
at g are a_g * beta; as beta runs over F_q^*, so does a_g * beta (a_g is
invertible, since every coefficient is), so the sum writes beta itself
at g.  A beta child then costs one copy of the dict on T - f and one memo
key.

What the recursion needs of a forest is cached on the forest object: its
components and their subforests, the flips of `normalize` on its leafy
tiling (`Forest.leafy_flips`), the centre rooting of `canonical_form`, and
its subforests without given vertices (`Forest.remove` returns one object
per dropped set).  So the q - 1 beta children of a node share T - f, and
every node reached again with other coefficients shares its subforests
and their caches with the first visit.

A memo key is the canonical form of `normalize`'s result, so the memo
classes are those of normalizing each child afresh.  Building that string
is most of a key's cost, and the same normalized trees recur many times:
E8 at q = 101 asks for about 30,500 keys of 305 normalized trees.  So
each `recursive_count` call keeps a key cache from the exact normalized
tree, (its edges, its normalized labels in vertex order), to its key; the
edges fix a tree of at least 2 vertices, the only ones keyed.  A key then
costs one replay of the flips on the encodings (`coeffs.apply_flips`) and
one dict lookup; `canonical_form` runs only on a miss.  The cache holds
about one entry per memo entry the call makes (305 against a memo of 304
for E8 at q = 101), so it grows linearly in q like the memo, and it dies
with the call.  It is not keyed on the coefficients before the flips:
those take about q^2 distinct values per tree shape instead of q, and on
E8 at q = 307 such a cache held 95,168 entries against 923 and raised
the peak RSS from 31 MB to 63 MB.
"""

from __future__ import annotations

from .coeffs import CoeffMap, apply_flips, leaf_removal_transforms
from .counting import CountReport, VarietyInstance
from .errors import ZeroCoefficient
from .forests import Forest, canonical_form
from .gf import Field


def _memo_key(forest: Forest, labels: dict[int, int], q: int):
    """The memo key of a tree whose normalized coefficients are `labels`."""
    return canonical_form(forest, labels), q


def _pick_leaf(forest: Forest) -> int:
    """Leaf whose removal with its neighbor splits the tree into the most
    components, i.e. whose neighbor has the highest degree (the first such
    leaf); any leaf is correct, this only speeds up the recursion."""
    return max(forest.leaves(),
               key=lambda f: forest.degree(forest.adjacency[f][0]))


def _count_tree(forest: Forest, values: dict[int, int], field: Field,
                memo: dict, keys: dict) -> int:
    q = field.q
    n = forest.n_vertices
    if n == 0:
        return 1
    if n == 1:
        minus_one = field.neg_enc(1)
        return 2 * q - 1 if values[forest.vertices[0]] == minus_one else q - 1
    labels = apply_flips(field, values, forest.leafy_flips)
    exact = forest.edges, tuple(map(labels.__getitem__, forest.vertices))
    key = keys.get(exact)
    if key is None:
        key = keys[exact] = _memo_key(forest, labels, q)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = sum(_split_counts(forest, values, _pick_leaf(forest), field,
                              memo, keys))
    memo[key] = total
    return total


def _split_counts(forest: Forest, values: dict[int, int], leaf: int,
                  field: Field, memo: dict, keys: dict) -> tuple[int, int]:
    """(zero part, nonzero part) of the split at `leaf`; see
    `leaf_split_counts`."""
    g, (t_primed, primed), (t_double, double) = leaf_removal_transforms(
        forest, CoeffMap(field, values), leaf)
    zero_part = field.q * _count_forest(t_double, double, field, memo, keys)
    nonzero_part = 0
    for beta in range(1, field.q):
        child = dict(primed)
        child[g] = beta
        nonzero_part += _count_forest(t_primed, child, field, memo, keys)
    return zero_part, nonzero_part


def _count_forest(forest: Forest, values: dict[int, int], field: Field,
                  memo: dict, keys: dict) -> int:
    if len(forest.components) == 1:
        return _count_tree(forest, values, field, memo, keys)
    total = 1
    for tree in forest.component_forests:
        total *= _count_tree(tree, {v: values[v] for v in tree.vertices},
                             field, memo, keys)
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
    keys = {}
    total = _count_forest(instance.forest, instance.coeffs.values,
                          instance.field, memo, keys)
    return CountReport(total, stats={"nodes": len(memo) - before,
                                     "canonical_forms": len(keys)})


def leaf_split_counts(instance: VarietyInstance, leaf: int,
                      memo: dict | None = None) -> tuple[int, int]:
    """The two terms of the recursion at `leaf`: (count of the locus where
    the leaf variable vanishes, count where it is invertible).  Every
    coefficient must be invertible, as in `recursive_count`."""
    _require_invertible(instance)
    memo = {} if memo is None else memo
    return _split_counts(instance.forest, instance.coeffs.values, leaf,
                         instance.field, memo, {})
