"""Shared test oracles, kept independent of the library's counting paths."""

from __future__ import annotations

import itertools
import random

from clustercount import (CoeffMap, DominoTiling, Forest, VarietyInstance,
                          canonical_form, leafy_tiling, normalize)
from clustercount.recursion import _pick_leaf


def naive_count(instance: VarietyInstance) -> int:
    """Count by checking every (x, x') pair in F_q^(2n) directly against the
    defining equations.  Exponentially slower than the library's weighted
    scan and shares no code with it."""
    fld = instance.field
    vs = list(instance.forest.vertices)
    n = len(vs)
    total = 0
    for assignment in itertools.product(range(fld.q), repeat=2 * n):
        xs = dict(zip(vs, assignment[:n]))
        xps = dict(zip(vs, assignment[n:]))
        ok = True
        for t in vs:
            rhs = instance.coeffs.enc(t)
            for s in instance.forest.adjacency[t]:
                rhs = fld.mul_enc(rhs, xs[s])
            rhs = fld.add_enc(rhs, 1)
            if fld.mul_enc(xs[t], xps[t]) != rhs:
                ok = False
                break
        total += ok
    return total


def without(forest: Forest, drop) -> Forest:
    """The subforest of `forest` without the vertices in `drop`, built
    afresh by `Forest.make`."""
    drop = set(drop)
    return Forest.make([v for v in forest.vertices if v not in drop],
                       [e for e in forest.edges
                        if e[0] not in drop and e[1] not in drop])


def reference_recursion(instance: VarietyInstance, memo: dict) -> int:
    """The leaf-removal recursion of `recursive_count` with nothing reused
    but `memo`: every subforest is built afresh by `Forest.make`, and every
    tree's key is the canonical form of `normalize` on its leafy tiling,
    computed anew each time.  Splits at the same leaves, so it fills `memo`
    with the library's keys and counts."""
    fld = instance.field
    q = fld.q

    def count_tree(tree, values):
        if tree.n_vertices == 0:
            return 1
        if tree.n_vertices == 1:
            (a,) = values.values()
            return 2 * q - 1 if a == fld.neg_enc(1) else q - 1
        norm = normalize(tree, leafy_tiling(tree), CoeffMap(fld, values))
        key = canonical_form(tree, norm.coeffs.values), q
        if key in memo:
            return memo[key]
        leaf = _pick_leaf(tree)
        g = tree.adjacency[leaf][0]
        scale = fld.neg_enc(fld.inv_enc(values[leaf]))  # -1/alpha_leaf
        inner = without(tree, {leaf, g})
        double = {v: values[v] for v in inner.vertices}
        for v in tree.adjacency[g]:
            if v != leaf:
                double[v] = fld.mul_enc(double[v], scale)
        total = q * count_forest(inner, double)
        rest = without(tree, {leaf})
        for beta in range(1, q):
            child = {v: values[v] for v in rest.vertices}
            child[g] = beta
            total += count_forest(rest, child)
        memo[key] = total
        return total

    def count_forest(forest, values):
        total = 1
        for comp in forest.components:
            tree = without(forest, set(forest.vertices) - set(comp))
            total *= count_tree(tree, {v: values[v] for v in comp})
        return total

    return count_forest(instance.forest, dict(instance.coeffs.values))


def record_satisfies(instance: VarietyInstance, point) -> bool:
    """Re-verify one point (xs, xps) against the equations, one vertex at a
    time with `mul_enc`/`add_enc`, without the library's `vertex_rule`."""
    fld = instance.field
    x = dict(zip(instance.forest.vertices, point[0]))
    xp = dict(zip(instance.forest.vertices, point[1]))
    for t in instance.forest.vertices:
        rhs = instance.coeffs.enc(t)
        for s in instance.forest.adjacency[t]:
            rhs = fld.mul_enc(rhs, x[s])
        if fld.mul_enc(x[t], xp[t]) != fld.add_enc(rhs, 1):
            return False
    return True


def random_tree(rng: random.Random, n: int, base: int = 1) -> Forest:
    """Uniformly-attached random tree on vertices base..base+n-1."""
    verts = list(range(base, base + n))
    edges = [(verts[rng.randint(0, i - 1)], verts[i]) for i in range(1, n)]
    return Forest.make(verts, edges)


def relabel(forest: Forest, mapping: dict[int, int]) -> Forest:
    """`forest` with each vertex v renamed mapping[v]."""
    return Forest.make([mapping[v] for v in forest.vertices],
                       [(mapping[u], mapping[v]) for u, v in forest.edges])


def spider(legs) -> Forest:
    """Paths of the given lengths joined at vertex 1; all legs of length 1
    give the star K_{1,m}."""
    edges, nxt = [], 2
    for length in legs:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Forest.make(range(1, nxt), edges)


def random_coeffs(rng: random.Random, field, forest) -> CoeffMap:
    return CoeffMap.make(
        field, {v: rng.randint(1, field.q - 1) for v in forest.vertices})


def random_partial_tiling(rng: random.Random, forest) -> DominoTiling:
    """A random matching: the edges in random order, each kept when both
    ends are still free and a coin says so."""
    edges = list(forest.edges)
    rng.shuffle(edges)
    used, dominoes = set(), []
    for u, v in edges:
        if u not in used and v not in used and rng.random() < 0.7:
            dominoes.append((u, v))
            used.update((u, v))
    return DominoTiling.make(dominoes)


def _det(matrix: list[list[int]], field) -> int:
    """Determinant by cofactor expansion; cross-check use only (tiny sizes)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = field.mul_enc(matrix[0][j], _det(minor, field))
        if j % 2:
            term = field.neg_enc(term)
        total = field.add_enc(total, term)
    return total


def all_minors_vanish(matrix: list[list[int]], field, size: int) -> bool:
    """True when every size x size minor is zero.  Exponential; used only to
    cross-check the elimination rank on small test instances."""
    m = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    for rows_idx in itertools.combinations(range(m), size):
        for cols_idx in itertools.combinations(range(ncols), size):
            sub = [[matrix[i][j] for j in cols_idx] for i in rows_idx]
            if _det(sub, field) != 0:
                return False
    return True
