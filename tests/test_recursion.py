import itertools
import random

import pytest

from clustercount import (CoeffMap, Forest, VarietyInstance, brute_count,
                          brute_points, canonical_form, dynkin,
                          field_from_order, field_make, forests,
                          leafy_tiling, normal_form_instance, normalize,
                          recursion)
from clustercount.coeffs import apply_flips
from clustercount.errors import NotALeaf, ZeroCoefficient
from clustercount.forests import dynkin_tiling, normal_form_slots
from clustercount.formulas import formula_count
from clustercount.recursion import (_column, _pick_leaf, leaf_split_counts,
                                    recursive_count)

from helpers import (random_coeffs, random_tree, reference_recursion, relabel,
                     spider, without)


def test_a2_all_ones_q3():
    inst = normal_form_instance(field_make(3), "A", 2)
    assert recursive_count(inst).count == 10


def test_a1_special_q7():
    inst = normal_form_instance(field_make(7), "A", 1, (-1,))
    assert recursive_count(inst).count == 13


def test_d4_generic_q5():
    inst = normal_form_instance(field_make(5), "D", 4, (2, 3))
    assert recursive_count(inst).count == 576


def test_star_k1_39_q2():
    # 4.05e18: above q^(n + ceil(n/2)) = 2^60, so no such bound holds
    f = spider((1,) * 39)
    inst = VarietyInstance(f, CoeffMap.ones(field_make(2), f), field_make(2))
    assert recursive_count(inst).count == 3**39 + 2


def test_empty_forest():
    inst = normal_form_instance(field_make(3), "A", 0)
    assert recursive_count(inst).count == 1


def test_matches_brute_exhaustively_tiny():
    # all coefficient maps on all shapes with <= 4 vertices, q <= 3
    shapes = [
        dynkin("A", 1), dynkin("A", 2), dynkin("A", 3), dynkin("A", 4),
        dynkin("D", 4),
    ]
    for f in shapes:
        for q in (2, 3):
            F = field_make(q)
            for vals in itertools.product(range(1, q), repeat=f.n_vertices):
                cm = CoeffMap.make(F, dict(zip(f.vertices, vals)))
                inst = VarietyInstance(f, cm, F)
                assert recursive_count(inst).count == brute_count(inst).count


def test_matches_brute_randomized():
    # one memo for every field, prime powers F_4, F_8 and F_9 included
    rng = random.Random(53)
    memo = {}
    for q, trials, max_n in ((2, 200, 8), (3, 200, 8), (4, 200, 8),
                             (5, 200, 8), (7, 60, 5), (8, 60, 5), (9, 60, 5)):
        F = field_from_order(q)
        for _ in range(trials):
            f = random_tree(rng, rng.randint(1, max_n))
            inst = VarietyInstance(f, random_coeffs(rng, F, f), F)
            assert (recursive_count(inst, memo).count
                    == brute_count(inst).count)


def _leafy_cases():
    """Random forests of up to 30 vertices, most with several components,
    on shuffled labels (negative ones included, as the leafy rule reads
    their order), each with a field from F_2 ... F_9."""
    rng = random.Random(67)
    for i in range(280):
        F = field_from_order((2, 3, 4, 5, 7, 8, 9)[i % 7])
        n = rng.randint(1, 9 if i % 2 else 30)
        tree = relabel(random_tree(rng, n),
                       dict(zip(range(1, n + 1), rng.sample(range(-9, 60), n))))
        yield F, Forest.make(tree.vertices,
                             [e for e in tree.edges if rng.random() < 0.8])


def _records(forest):
    """The recursion's record of each tree of `forest` with two or more
    vertices, built from its adjacency as a count builds it."""
    return [recursion._Tree(comp, forest.adjacency)
            for comp in forest.components if len(comp) > 1]


def test_memo_key_replays_normalize():
    # the records' flips give what normalize gives on the leafy tiling, so
    # each tree's memo key is the canonical form of the normalized map on
    # it; and no flip divides a vertex that an earlier one set to 1
    rng = random.Random(68)
    for F, f in _leafy_cases():
        cm = random_coeffs(rng, F, f)
        norm = normalize(f, leafy_tiling(f), cm)
        flips = [flip for rec in _records(f) for flip in rec.flips]
        labels = apply_flips(F, cm.values, flips)
        assert labels == norm.coeffs.values
        ones = set()
        for s, _, others in flips:
            assert ones.isdisjoint(others), (f, s)
            ones.add(s)
        if max(map(len, f.components), default=0) <= 9:
            memo = {}
            recursive_count(VarietyInstance(f, cm, F), memo)
            for comp in f.components:
                if len(comp) > 1:
                    key = canonical_form(
                        without(f, set(f.vertices) - set(comp)),
                        norm.coeffs.values)
                    assert (key, F.q) in memo


def test_leafy_flips_read_the_leafy_tiling():
    # one statement of the leafy rule: the flips pair each covered vertex
    # with its partner in leafy_tiling, and cover nothing else; and one
    # schedule: normalize's plan on that tiling is the records' flips, in
    # their order
    for _, f in _leafy_cases():
        flips = [flip for rec in _records(f) for flip in rec.flips]
        partner = {s: t for s, t, _ in flips}
        assert len(partner) == len(flips)
        tiling = leafy_tiling(f)
        assert tiling.partner == partner
        assert forests.flip_plan(f, tiling) == tuple(flips)


def test_records_match_forests(monkeypatch):
    # every record that a count builds agrees with the Forest on its
    # vertices: adjacency, leafy tiling, canonical form, leaf pick, and the
    # flip exponents, read off normalize with 2 at g and 1 elsewhere
    built = []

    class Recorded(recursion._Tree):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(recursion, "_Tree", Recorded)
    rng = random.Random(131)
    G = field_make(1009)
    for F, f in _leafy_cases():
        built.clear()
        recursive_count(VarietyInstance(f, random_coeffs(rng, F, f), F))
        for rec in built:
            sub = without(f, set(f.vertices) - set(rec.vertices))
            assert rec.adjacency == sub.adjacency
            tiling = leafy_tiling(sub)
            assert {s: t for s, t, _ in rec.flips} == tiling.partner
            assert rec.uncovered == tuple(v for v in sub.vertices
                                          if v not in tiling.covered)
            labels = {v: rng.choice((1, 2)) for v in rec.vertices}
            assert canonical_form(rec, labels) == canonical_form(sub, labels)
            leaf = _pick_leaf(sub)
            assert _pick_leaf(rec) == leaf
            assert rec.split is None or rec.split[0] == leaf
            plan = forests.flip_plan(sub, tiling)
            for g in rec.vertices:
                ones = dict.fromkeys(sub.vertices, 1) | {g: 2}
                normal = apply_flips(G, ones, plan)
                assert [normal[v] for v in rec.uncovered] == [
                    G.pow_enc(2, e) for e in rec.flip_exponents(g)], (rec, g)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_leafy_flips_built_once_per_tree(monkeypatch, q):
    # the per-count tree table: a tree that the count reaches by several
    # removals or component splits builds its flips once, and builds them
    # from the leafy walk, with no tiling and no flip plan
    built = []
    walk = recursion.leafy_pairs

    def counted(adjacency, root):
        built.append(tuple(adjacency))
        return walk(adjacency, root)

    def refuse(*args):
        raise AssertionError("the recursion built a tiling or a flip plan")

    monkeypatch.setattr(recursion, "leafy_pairs", counted)
    monkeypatch.setattr(forests, "leafy_tiling", refuse)
    monkeypatch.setattr(forests, "flip_plan", refuse)
    rng = random.Random(107 + q)
    F = field_make(q)
    for _ in range(6):
        f = random_tree(rng, rng.randint(9, 13))
        built.clear()
        recursive_count(VarietyInstance(f, random_coeffs(rng, F, f), F))
        assert len(set(built)) > 1
        assert len(built) == len(set(built))


def _split_cases(q):
    """E8 with all ones at q = 13, else six random trees of 9 to 14
    vertices with random coefficients over F_q."""
    F = field_make(q)
    if q == 13:
        f = dynkin("E", 8)
        return [VarietyInstance(f, CoeffMap.ones(F, f), F)]
    rng = random.Random(113 + q)
    trees = [random_tree(rng, rng.randint(9, 14)) for _ in range(6)]
    return [VarietyInstance(f, random_coeffs(rng, F, f), F) for f in trees]


@pytest.mark.parametrize("q", (2, 3, 5, 13))
def test_each_tree_split_once(monkeypatch, q):
    # the count's tree table keeps each tree's split: one leaf pick per
    # distinct tree that the count splits, however many memo misses it has
    picked, split = [], []
    pick, transforms = recursion._pick_leaf, recursion.leaf_removal_transforms

    def counted_pick(tree):
        picked.append(tree.vertices)
        return pick(tree)

    def counted_transforms(tree, coeffs, leaf):
        split.append(tree.vertices)
        return transforms(tree, coeffs, leaf)

    monkeypatch.setattr(recursion, "_pick_leaf", counted_pick)
    monkeypatch.setattr(recursion, "leaf_removal_transforms",
                        counted_transforms)
    misses = distinct = 0
    for inst in _split_cases(q):
        picked.clear()
        split.clear()
        recursive_count(inst)
        assert sorted(picked) == sorted(set(split))
        misses, distinct = misses + len(split), distinct + len(set(split))
    # over F_2 every label is 1, so a tree misses the memo at most once;
    # over larger fields some tree misses it more than once
    assert misses > distinct or q == 2


def _forests_reached(forest):
    """Every `Forest` that the instance dict of `forest` reaches through
    dicts, lists, tuples and the forests it finds."""
    found, stack, seen = [], list(vars(forest).values()), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Forest):
            found.append(obj)
            stack.extend(vars(obj).values())
        elif isinstance(obj, dict):
            stack += [*obj, *obj.values()]
        elif isinstance(obj, (list, tuple)):
            stack += obj
    return found


def _count_cases():
    """Random trees and three-tree forests over F_3, and E8 with all ones
    at q = 13."""
    rng = random.Random(5)
    F = field_make(3)
    tree = random_tree(rng, 14)
    cases = [VarietyInstance(tree, random_coeffs(rng, F, tree), F)]
    a, b = random_tree(rng, 8), random_tree(rng, 7, base=9)
    forest = Forest.make(a.vertices + b.vertices + (20,), a.edges + b.edges)
    cases.append(VarietyInstance(forest, random_coeffs(rng, F, forest), F))
    e8 = dynkin("E", 8)
    cases.append(VarietyInstance(e8, CoeffMap.ones(field_make(13), e8),
                                 field_make(13)))
    for n in (12, 16):
        tree = random_tree(rng, n)
        cases.append(VarietyInstance(tree, random_coeffs(rng, F, tree), F))
        a, b, c = (random_tree(rng, 5), random_tree(rng, 6, base=6),
                   random_tree(rng, 4, base=12))
        forest = Forest.make(a.vertices + b.vertices + c.vertices,
                             a.edges + b.edges + c.edges)
        cases.append(VarietyInstance(forest, random_coeffs(rng, F, forest),
                                     F))
    return cases


def test_count_leaves_no_subforest_on_the_input():
    # the subforests of a count live in its tree table, which the count
    # drops when it returns; the input forest keeps only its own structure
    for inst in _count_cases():
        recursive_count(inst)
        assert _forests_reached(inst.forest) == [], inst.forest


def test_count_builds_no_forest_and_walks_each_tree_three_times(monkeypatch):
    # the records are built from adjacency lists: a count constructs no
    # Forest beyond its input, and walks each distinct tree at most three
    # times (the leafy walk, then two for the centres and the plan)
    walks, built = [], []
    hang = forests.hang

    def counted(adjacency, roots):
        walks.append(roots)
        return hang(adjacency, roots)

    class Recorded(recursion._Tree):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.vertices)

    def refuse(*args, **kwargs):
        raise AssertionError("the count built a Forest")

    cases = _count_cases()
    for inst in cases:  # the input's own structure
        inst.forest.components
    monkeypatch.setattr(forests, "hang", counted)
    monkeypatch.setattr(recursion, "_Tree", Recorded)
    for name in ("make", "__init__"):
        monkeypatch.setattr(Forest, name, refuse)
    for inst in cases:
        walks.clear()
        built.clear()
        recursive_count(inst)
        assert len(set(built)) == len(built) > 1
        assert len(walks) <= 3 * len(built), inst.forest


def test_benchmark_counters_match_stats(monkeypatch):
    # the benchmark reads `nodes` as calls of leaf_removal_transforms and
    # keys as calls of canonical_form under recursive_count: with a fresh
    # memo they are the stats; again on the same memo, no split and one key
    # per tree of two or more vertices
    calls = dict.fromkeys(("leaf_removal_transforms", "canonical_form"), 0)
    for name in calls:
        def counted(*args, _orig=getattr(recursion, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(recursion, name, counted)
    rng = random.Random(127)
    cases = [normal_form_instance(field_from_order(q), t, rank, params)
             for (t, rank, q, params), _ in PINNED_DYNKIN_STATS]
    for q in (3, 4, 5, 7):
        F = field_from_order(q)
        tree = random_tree(rng, rng.randint(6, 14))
        cases.append(VarietyInstance(tree, random_coeffs(rng, F, tree), F))
        a, b = random_tree(rng, 6), random_tree(rng, 5, base=7)
        forest = Forest.make(a.vertices + b.vertices + (13,),
                             a.edges + b.edges)
        cases.append(VarietyInstance(forest, random_coeffs(rng, F, forest),
                                     F))
    for inst in cases:
        trees = sum(len(c) > 1 for c in inst.forest.components)
        memo = {}
        for again in (False, True):
            calls.update(dict.fromkeys(calls, 0))
            stats = recursive_count(inst, memo).stats
            assert (stats["nodes"], stats["canonical_forms"]) == (
                calls["leaf_removal_transforms"], calls["canonical_form"])
            if again:
                assert stats == {"nodes": 0, "canonical_forms": trees}


def test_long_path_matches_formula():
    # a long path over F_3, all ones: its keys are rooted at the centres,
    # not at all 150 vertices, so this takes well under a second
    F = field_make(3)
    f = dynkin("A", 150)
    inst = VarietyInstance(f, CoeffMap.ones(F, f), F)
    assert (recursive_count(inst).count
            == formula_count("A", 150, inst.coeffs, F).count)


def test_memoized_equals_unmemoized():
    rng = random.Random(59)
    shared = {}
    for _ in range(30):
        f = random_tree(rng, rng.randint(1, 7))
        q = rng.choice((2, 3, 5))
        F = field_make(q)
        inst = VarietyInstance(f, random_coeffs(rng, F, f), F)
        assert (recursive_count(inst).count
                == recursive_count(inst, shared).count)
    assert shared  # the shared table actually filled up


def test_split_terms_match_brute_loci():
    rng = random.Random(61)
    for _ in range(40):
        f = random_tree(rng, rng.randint(2, 6))
        q = rng.choice((2, 3, 5))
        F = field_make(q)
        inst = VarietyInstance(f, random_coeffs(rng, F, f), F)
        leaf = rng.choice([v for v in f.vertices
                           if len(f.adjacency[v]) == 1])
        zero_part, nonzero_part = leaf_split_counts(inst, leaf)
        pts = list(brute_points(inst))
        pos = f.vertices.index(leaf)
        zero_brute = sum(1 for xs, _ in pts if xs[pos] == 0)
        assert zero_part == zero_brute
        assert nonzero_part == len(pts) - zero_brute


def test_forest_product():
    from clustercount import Forest
    F = field_make(3)
    forest = Forest.make([1, 2, 3, 4, 5], [(1, 2), (4, 5)])
    cm = CoeffMap.ones(F, forest)
    inst = VarietyInstance(forest, cm, F)
    assert recursive_count(inst).count == brute_count(inst).count


def test_zero_coefficient_rejected():
    f = dynkin("A", 2)
    F = field_make(3)
    cm = CoeffMap.make(F, {1: 0, 2: 1})
    with pytest.raises(ZeroCoefficient):
        recursive_count(VarietyInstance(f, cm, F))


def test_split_at_absent_vertex_rejected(monkeypatch):
    # checked before the other trees are counted
    def no_count(*args):
        raise AssertionError("counted the other trees")
    monkeypatch.setattr(recursion, "_product", no_count)
    F = field_make(5)
    f = Forest.make([1, 2, 3, 4, 5], [(1, 2), (4, 5)])
    for v in (9, 3):
        with pytest.raises(NotALeaf):
            leaf_split_counts(VarietyInstance(f, CoeffMap.ones(F, f), F), v)


def test_split_zero_coefficient_rejected():
    # the beta sum writes beta itself at the leaf's neighbour g, which is
    # the sum over a_g * beta only when a_g is invertible
    f = dynkin("A", 3)
    F = field_make(3)
    for values in ({1: 1, 2: 0, 3: 1}, {1: 1, 2: 1, 3: 0}, {1: 0, 2: 1, 3: 1}):
        inst = VarietyInstance(f, CoeffMap.make(F, values), F)
        with pytest.raises(ZeroCoefficient):
            leaf_split_counts(inst, 1)


def test_memo_collapses_beta_branches():
    # large q: the beta sum has q - 1 = 30 branches per removal; normalized
    # keys merge them only to about one class per beta, q + 2 entries here
    F = field_make(31)
    inst = normal_form_instance(F, "A", 5, (3,))
    memo = {}
    n = recursive_count(inst, memo).count
    generic = (31**3 - 1) * (31**4 - 1) // (31**2 - 1)
    assert n == generic
    assert len(memo) == 33


@pytest.mark.parametrize("q", (13, 29))
def test_memo_grows_linearly_in_q(q):
    F = field_make(q)
    for t, rank, size in (("A", 4, q + 1), ("D", 5, q + 2), ("E", 8, 3 * q + 1)):
        params = (2,) * len(normal_form_slots(t, rank))
        memo = {}
        recursive_count(normal_form_instance(F, t, rank, params), memo)
        assert len(memo) == size, (t, rank)


def test_matches_reference_recursion():
    # the key cache and the shared subforests change no key: the same
    # count, memo size and memo as normalizing every child afresh
    rng = random.Random(71)
    for i in range(105):
        q = (2, 3, 4, 5, 7, 8, 9)[i % 7]
        F = field_from_order(q)
        tree = random_tree(rng, rng.randint(1, 8 if q < 7 else 6))
        f = Forest.make(tree.vertices,
                        [e for e in tree.edges if rng.random() < 0.8])
        inst = VarietyInstance(f, random_coeffs(rng, F, f), F)
        memo, ref_memo = {}, {}
        assert (recursive_count(inst, memo).count
                == reference_recursion(inst, ref_memo))
        assert len(memo) == len(ref_memo)
        assert memo == ref_memo


def test_memo_shared_between_a_and_d():
    # A_n and D_n on the same labels 1..n, one memo across both
    F = field_make(7)
    rng = random.Random(73)
    memo, ref_memo = {}, {}
    for n in (4, 5, 6):
        for t in ("A", "D"):
            f = dynkin(t, n)
            inst = VarietyInstance(f, random_coeffs(rng, F, f), F)
            count = recursive_count(inst, memo).count
            assert count == reference_recursion(inst, ref_memo)
            assert count == brute_count(inst).count
            assert memo == ref_memo


@pytest.mark.parametrize("q", (13, 29))
def test_stats_key_cache_linear_in_q(q):
    # about one normalized labelled tree per memo entry: the key cache
    # grows linearly in q, like the memo
    F = field_make(q)
    for t, rank in (("A", 4), ("D", 5), ("E", 8)):
        params = (2,) * len(normal_form_slots(t, rank))
        memo = {}
        stats = recursive_count(normal_form_instance(F, t, rank, params),
                                memo).stats
        assert stats["nodes"] == len(memo)
        assert stats["canonical_forms"] <= len(memo) + 1, (t, rank)
        memo_size = len(memo)
        again = recursive_count(normal_form_instance(F, t, rank, params),
                                memo).stats
        assert again == {"nodes": 0, "canonical_forms": 1}
        assert len(memo) == memo_size


def test_beta_children_labels_are_monomials_in_beta():
    # the sweep's invariant: on T - f the beta child's normalized labels are
    # base * beta^e on the uncovered vertices and 1 on the covered ones
    rng = random.Random(79)
    for i in range(140):
        q = (2, 3, 4, 5, 7, 8, 9)[i % 7]
        F = field_from_order(q)
        tree = random_tree(rng, rng.randint(2, 8 if q < 7 else 6))
        cm = random_coeffs(rng, F, tree)
        for f in [v for v in tree.vertices if len(tree.adjacency[v]) == 1]:
            g = tree.adjacency[f][0]
            rest = recursion._Tree(
                tuple(v for v in tree.vertices if v != f), tree.adjacency)
            covered = leafy_tiling(without(tree, [f])).covered
            assert set(rest.uncovered) == set(rest.vertices) - set(covered)
            primed = {v: cm.values[v] for v in rest.vertices}
            base = apply_flips(F, primed | {g: 1}, rest.flips)
            exps = rest.flip_exponents(g)
            for beta in range(1, q):
                labels = apply_flips(F, primed | {g: beta}, rest.flips)
                for v, e in zip(rest.uncovered, exps):
                    assert labels[v] == F.mul_enc(base[v], F.pow_enc(beta, e))
                assert all(labels[v] == 1 for v in covered)
        inst = VarietyInstance(tree, cm, F)
        count = recursive_count(inst).count
        assert count == reference_recursion(inst, {})
        assert count == brute_count(inst).count


def test_column_takes_any_exponent():
    # leafy tilings give exponents 0 and +-1 only; other powers go by pow_enc
    for F in (field_from_order(11), field_from_order(9)):
        for e in (-3, -2, -1, 0, 1, 2, 3):
            assert _column(F, 2, e) == [F.mul_enc(2, F.pow_enc(x, e))
                                        for x in range(1, F.q)]


def test_split_of_an_edge_is_closed_form():
    # T - f = {g}: q - 1 points for each beta and q more at beta = -1, which
    # at q = 2 is beta = 1
    f = dynkin("A", 2)
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field_from_order(q)
        for a, b in itertools.product(range(1, q), repeat=2):
            inst = VarietyInstance(f, CoeffMap(F, {1: a, 2: b}), F)
            assert leaf_split_counts(inst, 1) == (q, q * q - q + 1), (q, a, b)


@pytest.mark.parametrize("forest, leaf", (
    (Forest.make(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6)]), 1),
    (Forest.make(range(1, 6), [(1, 2), (2, 3), (4, 5)]), 4),
    (dynkin("A", 2), 1),
    (Forest.make(range(1, 6), [(1, 2), (3, 4)]), 1),
))
def test_split_of_forest_or_edge_matches_brute_loci(forest, leaf):
    # a forest's other trees multiply both terms; T - f = {g} is closed form
    for q in (2, 3, 4, 5, 8, 9):
        if q**forest.n_vertices > 10**5:  # brute_points yields every point
            continue
        F = field_from_order(q)
        inst = VarietyInstance(forest, random_coeffs(random.Random(q), F,
                                                     forest), F)
        pts = list(brute_points(inst))
        pos = forest.vertices.index(leaf)
        zero_brute = sum(1 for xs, _ in pts if xs[pos] == 0)
        assert leaf_split_counts(inst, leaf) == (zero_brute,
                                                 len(pts) - zero_brute)


# (nodes, canonical_forms) as the per-beta recursion gave them before the
# sweep: the sweep must make the same memo entries and keys
PINNED_DYNKIN_STATS = (
    (("A", 6, 17, ()), (35, 35)), (("A", 7, 17, (3,)), (36, 36)),
    (("D", 4, 13, (2, 5)), (3, 3)), (("D", 7, 19, (4,)), (40, 40)),
    (("D", 6, 9, (2, 3)), (12, 12)), (("E", 6, 23, ()), (47, 48)),
    (("E", 7, 11, (5,)), (24, 25)), (("E", 8, 16, ()), (49, 50)),
    (("E", 8, 31, ()), (94, 95)))
PINNED_RANDOM_STATS = (
    (8, 10), (7, 9), (33, 53), (106, 132), (197, 216), (27, 29), (6, 8),
    (37, 44), (23, 39), (23, 32), (28, 31), (12, 14), (24, 30), (23, 31),
    (8, 8), (42, 51), (35, 45), (12, 12))


def test_stats_pinned():
    for (t, rank, q, params), pinned in PINNED_DYNKIN_STATS:
        inst = normal_form_instance(field_from_order(q), t, rank, params)
        stats = recursive_count(inst).stats
        assert (stats["nodes"], stats["canonical_forms"]) == pinned, (t, rank)
    rng = random.Random(89)
    for i, pinned in enumerate(PINNED_RANDOM_STATS):
        F = field_from_order((3, 4, 5, 7, 8, 9)[i % 6])
        f = random_tree(rng, rng.randint(6, 14))
        stats = recursive_count(
            VarietyInstance(f, random_coeffs(rng, F, f), F)).stats
        assert (stats["nodes"], stats["canonical_forms"]) == pinned, i


def test_matches_formula_at_q_1009():
    # random coefficients on every vertex; the formula reads their normal form
    F = field_from_order(1009)
    rng = random.Random(83)
    for t, ranks in (("A", range(2, 10)), ("D", range(4, 10)),
                     ("E", range(6, 9))):
        for rank in ranks:
            f = dynkin(t, rank)
            cm = random_coeffs(rng, F, f)
            normal = normalize(f, dynkin_tiling(t, rank), cm).coeffs
            assert (recursive_count(VarietyInstance(f, cm, F)).count
                    == formula_count(t, rank, normal, F).count), (t, rank)


def test_e8_all_ones_q_10007():
    q = 10007
    F = field_make(q)
    f = dynkin("E", 8)
    inst = VarietyInstance(f, CoeffMap.ones(F, f), F)
    assert (recursive_count(inst).count
            == q**8 + q**6 + q**5 + q**4 + q**3 + q**2 + 1)


def test_e8_over_f256_matches_formula():
    F = field_from_order(256)
    f = dynkin("E", 8)
    for cm in (CoeffMap.ones(F, f), random_coeffs(random.Random(97), F, f)):
        normal = normalize(f, dynkin_tiling("E", 8), cm).coeffs
        assert (recursive_count(VarietyInstance(f, cm, F)).count
                == formula_count("E", 8, normal, F).count)


def test_normalize_builds_no_inverse_table():
    # a table of q entries is only worth building for a sweep over all beta
    F = field_make(2**31 - 1)
    f = dynkin("E", 8)
    cm = random_coeffs(random.Random(101), F, f)
    normalize(f, leafy_tiling(f), cm)
    normalize(f, dynkin_tiling("E", 8), cm)
    assert F._inv_table is None
    assert F._logs is None
