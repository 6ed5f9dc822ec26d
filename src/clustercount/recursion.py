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

All q - 1 beta children share one forest object (`Forest.induced` returns
the forest itself for a whole component), so what a key needs of the
forest is computed once per forest and cached on it: its components, the
flips of `normalize` on its leafy tiling (`Forest.leafy_flips`) and the
centre rooting of `canonical_form`.  A key then costs one replay of the
flips on the coefficients (`coeffs.apply_flips`) and one `canonical_form`
call.  The key is the canonical form of `normalize`'s result, so the memo
classes are those of normalizing each child afresh.
"""

from __future__ import annotations

import time

from .coeffs import CoeffMap, apply_flips, leaf_removal_transforms
from .counting import CountReport, VarietyInstance
from .errors import ZeroCoefficient
from .forests import Forest, canonical_form


def _memo_key(forest: Forest, coeffs: CoeffMap, q: int):
    labels = apply_flips(coeffs.field, coeffs.values, forest.leafy_flips)
    return canonical_form(forest, labels), q


def _single_vertex_count(coeffs: CoeffMap, v: int, q: int) -> int:
    a = coeffs.enc(v)
    minus_one = coeffs.field.neg_enc(1)
    return 2 * q - 1 if a == minus_one else q - 1


def _pick_leaf(forest: Forest) -> int:
    """Leaf whose removal with its neighbor splits the tree into the most
    components, i.e. whose neighbor has the highest degree (the first such
    leaf); any leaf is correct, this only speeds up the recursion."""
    return max(forest.leaves(),
               key=lambda f: forest.degree(forest.adjacency[f][0]))


def _count_tree(forest: Forest, coeffs: CoeffMap, field, memo: dict) -> int:
    q = field.q
    n = forest.n_vertices
    if n == 0:
        return 1
    if n == 1:
        return _single_vertex_count(coeffs, forest.vertices[0], q)
    key = _memo_key(forest, coeffs, q)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = sum(_split_counts(forest, coeffs, _pick_leaf(forest), field, memo))
    memo[key] = total
    return total


def _split_counts(forest: Forest, coeffs: CoeffMap, leaf: int, field,
                  memo: dict) -> tuple[int, int]:
    """(zero part, nonzero part) of the split at `leaf`; see
    `leaf_split_counts`."""
    q = field.q
    split = leaf_removal_transforms(forest, coeffs, leaf)
    zero_part = q * _count_forest(split.doubleprimed_forest,
                                  split.doubleprimed_coeffs, field, memo)
    nonzero_part = sum(
        _count_forest(split.primed.forest, split.primed.at(beta), field, memo)
        for beta in range(1, q))
    return zero_part, nonzero_part


def _count_forest(forest: Forest, coeffs: CoeffMap, field, memo: dict) -> int:
    total = 1
    for comp in forest.components():
        sub = forest.induced(comp)
        total *= _count_tree(sub, coeffs.restrict(comp), field, memo)
    return total


def recursive_count(instance: VarietyInstance,
                    memo: dict | None = None) -> CountReport:
    """Exact point count by the leaf-removal recursion.

    Passing a shared `memo` dict across calls reuses normalized sub-variety
    counts between related instances.
    """
    for v in instance.forest.vertices:
        if instance.coeffs.enc(v) == 0:
            raise ZeroCoefficient(f"coefficient at vertex {v} is zero")
    start = time.perf_counter()
    memo = {} if memo is None else memo
    total = _count_forest(instance.forest, instance.coeffs, instance.field,
                          memo)
    elapsed = (time.perf_counter() - start) * 1000
    return CountReport(instance.descriptor(), instance.field.q, "recursion",
                       total, elapsed_ms=elapsed)


def leaf_split_counts(instance: VarietyInstance, leaf: int,
                      memo: dict | None = None) -> tuple[int, int]:
    """The two terms of the recursion at `leaf`: (count of the locus where
    the leaf variable vanishes, count where it is invertible)."""
    memo = {} if memo is None else memo
    return _split_counts(instance.forest, instance.coeffs, leaf,
                         instance.field, memo)
