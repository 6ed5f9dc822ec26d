import itertools
import random

import pytest

from clustercount import (DominoTiling, Forest, canonical_form, dynkin,
                          dynkin_tiling, leafy_tiling, normal_form_slots)
from clustercount.errors import BadRank
from clustercount.forests import check_rank, flip_plan, parse_tree_text

from helpers import random_partial_tiling, random_tree, relabel


def _random_forest(rng, n):
    """A random forest on n vertices with scattered labels: a random tree,
    relabeled, that keeps each edge with probability 0.8."""
    f = random_tree(rng, n)
    g = relabel(f, dict(zip(f.vertices, rng.sample(range(1, 4 * n + 1), n))))
    return Forest.make(g.vertices, [e for e in g.edges if rng.random() < 0.8])


def _distances(forest, source):
    dist, todo = {source: 0}, [source]
    for v in todo:
        for u in forest.adjacency[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                todo.append(u)
    return dist


class TestDynkin:
    def test_a3_path(self):
        f = dynkin("A", 3)
        assert f.edges == ((1, 2), (2, 3))

    def test_a0_empty(self):
        f = dynkin("A", 0)
        assert f.n_vertices == 0

    def test_d4_fork(self):
        f = dynkin("D", 4)
        assert f.edges == ((1, 3), (2, 3), (3, 4))

    def test_d3_is_a3_shaped(self):
        assert canonical_form(dynkin("D", 3)) == canonical_form(dynkin("A", 3))

    def test_e_shapes(self):
        e6 = dynkin("E", 6)
        assert sorted(map(len, e6.adjacency.values())) == [1, 1, 1, 2, 2, 3]
        e8 = dynkin("E", 8)
        assert len(e8.adjacency[1]) == 3

    def test_bad_ranks(self):
        with pytest.raises(BadRank):
            dynkin("A", -1)
        with pytest.raises(BadRank):
            dynkin("D", 2)
        with pytest.raises(BadRank):
            dynkin("E", 9)

    def test_check_rank(self):
        assert check_rank("a", 0) == "A"
        assert check_rank("D", 3) == "D"
        assert check_rank("e", 8) == "E"
        for typ, rank, message in (
                ("A", -1, "A_n needs rank >= 0, got -1"),
                ("D", 2, "D_n needs rank >= 3, got 2"),
                ("E", 5, "E_n needs rank in {6,7,8}, got 5"),
                ("E", 9, "E_n needs rank in {6,7,8}, got 9"),
                ("B", 2, "unknown Dynkin type 'B'")):
            with pytest.raises(BadRank) as exc:
                check_rank(typ, rank)
            assert str(exc.value) == message

    def test_normal_form_slots(self):
        assert normal_form_slots("A", 4) == ()
        assert normal_form_slots("A", 5) == (1,)
        assert normal_form_slots("D", 4) == (1, 2)
        assert normal_form_slots("D", 5) == (1,)
        assert normal_form_slots("E", 6) == ()
        assert normal_form_slots("E", 7) == (7,)
        assert normal_form_slots("E", 8) == ()


class TestLeafyTiling:
    def test_a4_full(self):
        t = leafy_tiling(dynkin("A", 4))
        assert set(t.dominoes) == {(1, 2), (3, 4)}
        assert t.covered == set(dynkin("A", 4).vertices)

    def test_a3_avoids_first_vertex(self):
        t = leafy_tiling(dynkin("A", 3))
        assert t.dominoes == ((2, 3),)

    def test_d4_avoids_fork(self):
        t = leafy_tiling(dynkin("D", 4))
        assert t.dominoes == ((3, 4),)

    def test_uncovered_are_leaves(self):
        rng = random.Random(5)
        for _ in range(300):
            f = random_tree(rng, rng.randint(1, 10))
            t = leafy_tiling(f)
            for v in f.vertices:
                if v not in t.covered:
                    assert len(f.adjacency[v]) <= 1

    def test_dynkin_tilings_avoid_exactly_the_slots(self):
        for typ, ranks in (("A", range(0, 9)), ("D", range(3, 9)),
                           ("E", (6, 7, 8))):
            for rank in ranks:
                f = dynkin(typ, rank)
                t = dynkin_tiling(typ, rank)
                uncovered = set(f.vertices) - set(t.covered)
                assert uncovered == set(normal_form_slots(typ, rank))

    def test_dynkin_tiling_dominoes(self):
        # consecutive pairs along the path after the slots: from vertex 2
        # for odd rank, else from 1 (A) or 3 (D); E pairs each arm's first
        # two vertices, and E8 also the last two
        def path_from(start, rank):
            return tuple((i, i + 1) for i in range(start, rank, 2))

        for rank in range(0, 41):
            assert dynkin_tiling("A", rank).dominoes == path_from(
                2 if rank % 2 else 1, rank)
        for rank in range(3, 41):
            assert dynkin_tiling("D", rank).dominoes == path_from(
                2 if rank % 2 else 3, rank)
        e6 = ((1, 2), (3, 5), (4, 6))
        assert dynkin_tiling("E", 6).dominoes == e6
        assert dynkin_tiling("E", 7).dominoes == e6
        assert dynkin_tiling("E", 8).dominoes == e6 + ((7, 8),)

    def test_each_domino_is_an_untaken_vertex_and_its_largest_child(self):
        # in each component hung from its largest vertex
        rng = random.Random(23)
        for _ in range(300):
            f = _random_forest(rng, rng.randint(1, 14))
            depth = {}
            for comp in f.components:
                depth.update(_distances(f, max(comp)))
            parent = {v: u for v in f.vertices for u in f.adjacency[v]
                      if depth[u] < depth[v]}
            dominoes = set(leafy_tiling(f).dominoes)
            for d in dominoes:
                child = max(d, key=depth.get)
                top = min(d, key=depth.get)
                assert child == max(u for u in f.adjacency[top]
                                    if u != parent.get(top))
                if top in parent:
                    assert tuple(sorted((top, parent[top]))) not in dominoes

    def test_overlapping_dominoes_rejected(self):
        with pytest.raises(ValueError):
            DominoTiling.make([(1, 2), (2, 3)])


class TestFlipPlan:
    def test_a2_full(self):
        # hung from 2, the child 1 flips over its parent first
        f = dynkin("A", 2)
        t = DominoTiling.make([(1, 2)])
        assert flip_plan(f, t) == ((1, 2, ()), (2, 1, ()))

    def test_a4_schedule_start(self):
        # Flipping 3 before 1 lets the flip at 1 rescale vertex 3, and
        # flipping 2 before 4 lets the flip at 4 rescale vertex 2; hung
        # from 4, the child 1 flips first.  See test_coeffs for the order
        # oracle.
        f = dynkin("A", 4)
        t = DominoTiling.make([(1, 2), (3, 4)])
        assert flip_plan(f, t)[0][0] == 1

    def test_empty_tiling_gives_no_flips(self):
        assert flip_plan(dynkin("A", 2), DominoTiling.make([])) == ()

    def test_random_tilings_flip_each_covered_vertex_once(self):
        # any tiling on forests of several trees: each covered vertex is
        # flipped once, over its partner, and no flip divides a vertex
        # that an earlier flip set to 1
        rng = random.Random(71)
        several = 0
        for _ in range(400):
            f = _random_forest(rng, rng.randint(2, 16))
            several += len(f.components) > 1
            t = random_partial_tiling(rng, f)
            plan = flip_plan(f, t)
            assert sorted(s for s, _, _ in plan) == sorted(t.covered)
            ones = set()
            for s, partner, others in plan:
                assert partner == t.partner[s]
                assert others == tuple(u for u in f.adjacency[partner]
                                       if u != s)
                assert ones.isdisjoint(others), (f, t, s)
                ones.add(s)
        assert several > 250


class TestCanonicalForm:
    def test_relabeling_invariance_paths(self):
        p123 = Forest.make([1, 2, 3], [(1, 2), (2, 3)])
        p321 = Forest.make([1, 2, 3], [(3, 2), (2, 1)])
        assert canonical_form(p123) == canonical_form(p321)

    def test_labels_distinguish(self):
        f = dynkin("A", 3)
        a = canonical_form(f, {1: 7, 2: 1, 3: 1})
        b = canonical_form(f, {1: 1, 2: 1, 3: 7})  # mirror image: same
        c = canonical_form(f, {1: 7, 2: 7, 3: 1})
        assert a == b
        assert a != c

    def test_different_sizes_differ(self):
        assert canonical_form(dynkin("A", 3)) != canonical_form(dynkin("A", 4))

    def test_random_relabeling_invariance(self):
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randint(1, 12)
            f = random_tree(rng, n)
            labels = {v: rng.randint(0, 3) for v in f.vertices}
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mapping = dict(zip(f.vertices, perm))
            g = relabel(f, mapping)
            relabels = {mapping[v]: labels[v] for v in f.vertices}
            assert canonical_form(f, labels) == canonical_form(g, relabels)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_exactly_when_isomorphic(self, n):
        # every forest on 1..n (bicentral trees and forests of several
        # components included) with every labeling from {1, 2}; the classes
        # of label-preserving isomorphism come from brute force over all
        # vertex permutations, and must be the classes of equal strings
        vertices = range(1, n + 1)
        pairs = list(itertools.combinations(vertices, 2))
        forests = []
        for k in range(n):
            for edges in itertools.combinations(pairs, k):
                try:
                    forests.append(Forest.make(vertices, edges))
                except ValueError:  # a cycle
                    pass
        assert len(forests) == {1: 1, 2: 2, 3: 7, 4: 38, 5: 291, 6: 2932}[n]
        perms = list(itertools.permutations(vertices))  # v -> p[v - 1]
        preimages = [[p.index(v) for v in vertices] for p in perms]
        iso_class, string_class = {}, {}
        for f in forests:
            edge_images = None
            for labels in itertools.product((1, 2), repeat=n):
                obj = (frozenset(f.edges), labels)
                if obj not in iso_class:
                    if edge_images is None:
                        edge_images = [frozenset(
                            (min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1]))
                            for u, v in f.edges) for p in perms]
                    for edges, pre in zip(edge_images, preimages):
                        iso_class[edges, tuple(labels[i] for i in pre)] = obj
                cf = canonical_form(f, dict(zip(vertices, labels)))
                assert string_class.setdefault(cf, iso_class[obj]) \
                    == iso_class[obj]
        assert len(string_class) == len(set(iso_class.values()))

    def test_roots_are_the_vertices_of_least_eccentricity(self):
        rng = random.Random(29)
        for _ in range(300):
            f = _random_forest(rng, rng.randint(1, 14))
            plan = f._canonical_plan
            assert len(plan) == len(f.components)
            for comp, (roots, _) in zip(f.components, plan):
                ecc = {v: max(_distances(f, v).values()) for v in comp}
                least = min(ecc.values())
                assert roots == tuple(v for v in comp if ecc[v] == least)

    def test_forest_components_sorted(self):
        f1 = Forest.make([1, 2, 3, 4], [(1, 2)])
        f2 = Forest.make([1, 2, 3, 4], [(3, 4)])
        assert canonical_form(f1) == canonical_form(f2)


# Canonical strings (all labels 1) and flip plans: a change to any of them
# changes the recursion's memo keys, or the flips that its records replay
# to build them (the leafy plans), or the trace that `normalize` prints.
PINNED_FORESTS = {
    "R1": ((3, 4, 5, 9, 13, 15, 16, 19, 21),
           ((3, 5), (4, 5), (4, 21), (5, 13), (5, 19), (9, 15), (9, 16),
            (9, 19))),
    "R2": ((4, 6, 9, 10, 20, 22, 24, 26, 27, 32, 33, 34),
           ((4, 6), (4, 34), (6, 27), (9, 26), (10, 22), (20, 22), (22, 33),
            (24, 26), (24, 33), (24, 34), (32, 33))),
    "R3": ((1, 5, 8, 9, 16, 18, 24, 27, 30, 31, 35, 36, 38),
           ((1, 5), (1, 30), (5, 24), (9, 24), (9, 27), (9, 35), (9, 36),
            (16, 35), (18, 27), (24, 31), (24, 38))),
}
PINNED = {
    "A1": ("(1|)",
           ()),
    "A2": ("(1|)(1|)",
           ((1, 2, ()), (2, 1, ()))),
    "A3": ("(1|(1|)(1|))",
           ((2, 3, ()), (3, 2, (1,)))),
    "A4": ("(1|(1|))(1|(1|))",
           ((1, 2, (3,)), (3, 4, ()), (4, 3, (2,)), (2, 1, ()))),
    "A5": ("(1|(1|(1|))(1|(1|)))",
           ((2, 3, (4,)), (4, 5, ()), (5, 4, (3,)), (3, 2, (1,)))),
    "A6": ("(1|(1|(1|)))(1|(1|(1|)))",
           ((1, 2, (3,)), (3, 4, (5,)), (5, 6, ()), (6, 5, (4,)),
            (4, 3, (2,)), (2, 1, ()))),
    "A7": ("(1|(1|(1|(1|)))(1|(1|(1|))))",
           ((2, 3, (4,)), (4, 5, (6,)), (6, 7, ()), (7, 6, (5,)),
            (5, 4, (3,)), (3, 2, (1,)))),
    "A8": ("(1|(1|(1|(1|))))(1|(1|(1|(1|))))",
           ((1, 2, (3,)), (3, 4, (5,)), (5, 6, (7,)), (7, 8, ()),
            (8, 7, (6,)), (6, 5, (4,)), (4, 3, (2,)), (2, 1, ()))),
    "D4": ("(1|(1|)(1|)(1|))",
           ((3, 4, ()), (4, 3, (1, 2)))),
    "D5": ("(1|(1|)(1|))(1|(1|))",
           ((2, 3, (1, 4)), (4, 5, ()), (5, 4, (3,)), (3, 2, ()))),
    "D6": ("(1|(1|(1|)(1|))(1|(1|)))",
           ((3, 4, (5,)), (5, 6, ()), (6, 5, (4,)), (4, 3, (1, 2)))),
    "D7": ("(1|(1|(1|)(1|)))(1|(1|(1|)))",
           ((2, 3, (1, 4)), (4, 5, (6,)), (6, 7, ()), (7, 6, (5,)),
            (5, 4, (3,)), (3, 2, ()))),
    "D8": ("(1|(1|(1|(1|)(1|)))(1|(1|(1|))))",
           ((3, 4, (5,)), (5, 6, (7,)), (7, 8, ()), (8, 7, (6,)),
            (6, 5, (4,)), (4, 3, (1, 2)))),
    "E6": ("(1|(1|(1|))(1|(1|))(1|))",
           ((3, 1, (2, 4)), (4, 6, ()), (6, 4, (1,)), (1, 3, (5,)))),
    "E7": ("(1|(1|(1|))(1|))(1|(1|(1|)))",
           ((5, 3, (1,)), (1, 4, (6,)), (6, 7, ()), (7, 6, (4,)),
            (4, 1, (2, 3)), (3, 5, ()))),
    "E8": ("(1|(1|(1|(1|))(1|))(1|(1|(1|))))",
           ((3, 1, (2, 4)), (4, 6, (7,)), (7, 8, ()), (8, 7, (6,)),
            (6, 4, (1,)), (1, 3, (5,)))),
    "R1": ("(1|(1|(1|)(1|)))(1|(1|(1|))(1|)(1|))",
           ((16, 9, (15, 19)), (19, 5, (3, 4, 13)), (4, 21, ()),
            (21, 4, (5,)), (5, 19, (9,)), (9, 16, ()))),
    "R2": ("(1|(1|(1|(1|)(1|))(1|))(1|(1|)))(1|(1|(1|(1|))))",
           ((20, 22, (10, 33)), (32, 33, (22, 24)), (9, 26, (24,)),
            (6, 4, (34,)), (24, 34, (4,)), (34, 24, (26, 33)), (4, 6, (27,)),
            (26, 9, ()), (33, 32, ()), (22, 20, ()))),
    "R3": ("(1|(1|(1|(1|))(1|(1|))(1|))(1|(1|(1|)))(1|)(1|));(1|)",
           ((16, 35, (9,)), (18, 27, (9,)), (36, 9, (24, 27, 35)),
            (1, 5, (24,)), (24, 38, ()), (38, 24, (5, 9, 31)), (5, 1, (30,)),
            (9, 36, ()), (27, 18, ()), (35, 16, ()))),
}
DYNKIN_FLIPS = {
    "E6": ((5, 3, (1,)), (2, 1, (3, 4)), (4, 6, ()), (6, 4, (1,)),
           (1, 2, ()), (3, 5, ())),
    "E7": ((5, 3, (1,)), (2, 1, (3, 4)), (4, 6, (7,)), (6, 4, (1,)),
           (1, 2, ()), (3, 5, ())),
    "E8": ((5, 3, (1,)), (2, 1, (3, 4)), (4, 6, (7,)), (7, 8, ()),
           (8, 7, (6,)), (6, 4, (1,)), (1, 2, ()), (3, 5, ())),
}


def _pinned_forest(name):
    if name in PINNED_FORESTS:
        return Forest.make(*PINNED_FORESTS[name])
    return dynkin(name[0], int(name[1:]))


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", list(PINNED))
    def test_canonical_form_and_leafy_flips(self, name):
        f = _pinned_forest(name)
        string, flips = PINNED[name]
        assert canonical_form(f, dict.fromkeys(f.vertices, 1)) == string
        assert flip_plan(f, leafy_tiling(f)) == flips

    @pytest.mark.parametrize("name", [n for n in PINNED if n[0] in "ADE"])
    def test_dynkin_tiling_flips(self, name):
        # for A_n and D_n the Dynkin tiling is the leafy one
        f = _pinned_forest(name)
        tiling = dynkin_tiling(name[0], int(name[1:]))
        assert flip_plan(f, tiling) == DYNKIN_FLIPS.get(name, PINNED[name][1])


class TestForestBasics:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Forest.make([1, 2, 3], [(1, 2), (2, 3), (3, 1)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Forest.make([1], [(1, 1)])

    def test_undeclared_vertex_rejected(self):
        with pytest.raises(ValueError):
            Forest.make([1, 2], [(1, 3)])

    def test_components(self):
        f = Forest.make([1, 2, 3, 4, 5], [(1, 2), (4, 5)])
        assert f.components == ((1, 2), (3,), (4, 5))

    def test_make_names_first_edge_closing_cycle(self):
        # in the order given, a repeated edge kept once
        with pytest.raises(ValueError, match="^edge 1-4 closes a cycle"):
            Forest.make(range(1, 5), [(3, 4), (1, 2), (2, 1), (2, 3), (4, 1)])

    def test_parse_tree_text(self):
        f = parse_tree_text("1 2\n2 3\n5\n# comment\n")
        assert f.vertices == (1, 2, 3, 5)
        assert f.edges == ((1, 2), (2, 3))

    @pytest.mark.parametrize("text, lineno", [
        ("1 2\nx y\n", 2), ("1 2 3\n", 1), ("# c\n\n4 z\n", 3),
        ("1 2\n2 2\n", 2), ("1 2\n2 3\n3 1\n", 3), ("1 2\n2 1\n", 2),
        ("3 4\n1 2\n2 3\n# c\n4 1\n", 5)])
    def test_parse_tree_text_names_bad_line(self, text, lineno):
        with pytest.raises(ValueError, match=f"^line {lineno}: "):
            parse_tree_text(text)
