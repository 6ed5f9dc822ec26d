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
key.  A dict is split per component only when its forest has more
than one, which T - f, a tree, never has; so all q - 1 beta children share
the one forest object T - f, and what a key needs of the forest is
computed once and cached on it: its components, the flips of `normalize`
on its leafy tiling (`Forest.leafy_flips`) and the centre rooting of
`canonical_form`.  A key then costs one replay of the flips on the
encodings (`coeffs.apply_flips`) and one `canonical_form` call.  The key
is the canonical form of `normalize`'s result, so the memo classes are
those of normalizing each child afresh.
"""

from __future__ import annotations

import time

from .coeffs import CoeffMap, apply_flips, leaf_removal_transforms
from .counting import CountReport, VarietyInstance
from .errors import ZeroCoefficient
from .forests import Forest, canonical_form
from .gf import Field


def _memo_key(forest: Forest, values: dict[int, int], field: Field):
    labels = apply_flips(field, values, forest.leafy_flips)
    return canonical_form(forest, labels), field.q


def _pick_leaf(forest: Forest) -> int:
    """Leaf whose removal with its neighbor splits the tree into the most
    components, i.e. whose neighbor has the highest degree (the first such
    leaf); any leaf is correct, this only speeds up the recursion."""
    return max(forest.leaves(),
               key=lambda f: forest.degree(forest.adjacency[f][0]))


def _count_tree(forest: Forest, values: dict[int, int], field: Field,
                memo: dict) -> int:
    q = field.q
    n = forest.n_vertices
    if n == 0:
        return 1
    if n == 1:
        minus_one = field.neg_enc(1)
        return 2 * q - 1 if values[forest.vertices[0]] == minus_one else q - 1
    key = _memo_key(forest, values, field)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = sum(_split_counts(forest, values, _pick_leaf(forest), field, memo))
    memo[key] = total
    return total


def _split_counts(forest: Forest, values: dict[int, int], leaf: int,
                  field: Field, memo: dict) -> tuple[int, int]:
    """(zero part, nonzero part) of the split at `leaf`; see
    `leaf_split_counts`."""
    g, (t_primed, primed), (t_double, double) = leaf_removal_transforms(
        forest, CoeffMap(field, values), leaf)
    zero_part = field.q * _count_forest(t_double, double, field, memo)
    nonzero_part = 0
    for beta in range(1, field.q):
        child = dict(primed)
        child[g] = beta
        nonzero_part += _count_forest(t_primed, child, field, memo)
    return zero_part, nonzero_part


def _count_forest(forest: Forest, values: dict[int, int], field: Field,
                  memo: dict) -> int:
    comps = forest.components
    if len(comps) == 1:
        return _count_tree(forest, values, field, memo)
    total = 1
    for comp in comps:
        total *= _count_tree(forest.induced(comp),
                             {v: values[v] for v in comp}, field, memo)
    return total


def _require_invertible(instance: VarietyInstance) -> None:
    for v in instance.forest.vertices:
        if instance.coeffs.enc(v) == 0:
            raise ZeroCoefficient(f"coefficient at vertex {v} is zero")


def recursive_count(instance: VarietyInstance,
                    memo: dict | None = None) -> CountReport:
    """Exact point count by the leaf-removal recursion.

    Passing a shared `memo` dict across calls reuses normalized sub-variety
    counts between related instances.
    """
    _require_invertible(instance)
    start = time.perf_counter()
    memo = {} if memo is None else memo
    total = _count_forest(instance.forest, instance.coeffs.values,
                          instance.field, memo)
    elapsed = (time.perf_counter() - start) * 1000
    return CountReport(instance.descriptor(), instance.field.q, "recursion",
                       total, elapsed_ms=elapsed)


def leaf_split_counts(instance: VarietyInstance, leaf: int,
                      memo: dict | None = None) -> tuple[int, int]:
    """The two terms of the recursion at `leaf`: (count of the locus where
    the leaf variable vanishes, count where it is invertible).  Every
    coefficient must be invertible, as in `recursive_count`."""
    _require_invertible(instance)
    memo = {} if memo is None else memo
    return _split_counts(instance.forest, instance.coeffs.values, leaf,
                         instance.field, memo)
