import itertools
import random

import pytest

from clustercount import (CoeffMap, Forest, VarietyInstance, brute_count,
                          dynkin, flip, leaf_removal_transforms, leafy_tiling,
                          normalize)
from clustercount.coeffs import apply_flips, parse_coeff_text
from clustercount.errors import NotAdjacent, NotALeaf, ZeroCoefficient
from clustercount.forests import DominoTiling, flip_plan
from clustercount.gf import field_make

from helpers import (random_coeffs, random_partial_tiling, random_tree,
                     without)


class TestFlip:
    def test_a2(self):
        f = dynkin("A", 2)
        F7 = field_make(7)
        cm = CoeffMap.make(F7, {1: 3, 2: 5})
        out = flip(f, cm, 1, 2)
        assert out.enc(1) == 1
        assert out.enc(2) == 5  # vertex 2 has no other neighbor than 1

    def test_a3(self):
        f = dynkin("A", 3)
        F7 = field_make(7)
        a, b, c = 2, 3, 4
        out = flip(f, CoeffMap.make(F7, {1: a, 2: b, 3: c}), 1, 2)
        assert out.enc(1) == 1
        assert out.enc(2) == b
        assert out.enc(3) == c * pow(a, -1, 7) % 7

    def test_not_adjacent(self):
        f = dynkin("A", 3)
        cm = CoeffMap.ones(field_make(5), f)
        with pytest.raises(NotAdjacent):
            flip(f, cm, 1, 3)

    def test_zero_coefficient(self):
        f = dynkin("A", 2)
        cm = CoeffMap.make(field_make(5), {1: 0, 2: 1})
        with pytest.raises(ZeroCoefficient):
            flip(f, cm, 1, 2)

    def test_flip_preserves_count_exhaustive_small(self):
        # every tree on <= 4 vertices, every coefficient map over F_2/F_3,
        # every oriented adjacent pair
        trees = [
            Forest.make([1], []),
            dynkin("A", 2),
            dynkin("A", 3),
            Forest.make([1, 2, 3], [(1, 3), (2, 3)]),
            dynkin("A", 4),
            dynkin("D", 4),
        ]
        for f in trees:
            for q in (2, 3):
                F = field_make(q)
                units = range(1, q)
                for vals in itertools.product(units, repeat=f.n_vertices):
                    cm = CoeffMap.make(F, dict(zip(f.vertices, vals)))
                    inst = VarietyInstance(f, cm, F)
                    base = brute_count(inst).count
                    for u, v in f.edges:
                        for s, t in ((u, v), (v, u)):
                            flipped = flip(f, cm, s, t)
                            assert brute_count(
                                VarietyInstance(f, flipped, F)).count == base

    def test_flip_preserves_count_randomized(self):
        rng = random.Random(23)
        for _ in range(120):
            f = random_tree(rng, rng.randint(2, 7))
            q = rng.choice((4, 5))
            F = field_make(2, 2) if q == 4 else field_make(5)
            cm = random_coeffs(rng, F, f)
            inst = VarietyInstance(f, cm, F)
            base = brute_count(inst).count
            u, v = rng.choice(f.edges)
            s, t = (u, v) if rng.random() < 0.5 else (v, u)
            flipped = flip(f, cm, s, t)
            assert brute_count(VarietyInstance(f, flipped, F)).count == base


def _valid_first_flips(forest, tiling, coeffs):
    """Brute-force oracle: try every order of the covered vertices; collect
    the first vertices of orders that end with every covered vertex at
    coefficient 1."""
    covered = list(tiling.covered)
    good_starts = set()
    for order in itertools.permutations(covered):
        cur = apply_flips(coeffs.field, coeffs.values, [
            (s, tiling.partner[s], tuple(
                u for u in forest.adjacency[tiling.partner[s]] if u != s))
            for s in order])
        if all(cur[v] == 1 for v in covered):
            good_starts.add(order[0])
    return good_starts


def _random_flip_order(rng, forest, tiling):
    """The covered vertices in a random order that flips s2 before s
    whenever the flip of s2 divides the coefficient at s (s is a neighbor
    of partner(s2))."""
    divides = {s2: {s for s in forest.adjacency[tiling.partner[s2]]
                    if s != s2 and s in tiling.covered}
               for s2 in tiling.covered}
    indeg = {s: 0 for s in tiling.covered}
    for targets in divides.values():
        for s in targets:
            indeg[s] += 1
    ready = sorted(s for s, d in indeg.items() if d == 0)
    order = []
    while ready:
        s2 = ready.pop(rng.randrange(len(ready)))
        order.append(s2)
        for s in divides[s2]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    assert len(order) == len(tiling.covered)
    return order


class TestNormalize:
    def test_a4_full_tiling_all_ones(self):
        f = dynkin("A", 4)
        F7 = field_make(7)
        cm = CoeffMap.make(F7, {1: 2, 2: 3, 3: 4, 4: 5})
        t = leafy_tiling(f)
        norm = normalize(f, t, cm)
        assert all(norm.coeffs.enc(v) == 1 for v in f.vertices)

    def test_a3_residual_depends_on_odd_positions(self):
        f = dynkin("A", 3)
        F7 = field_make(7)
        t = DominoTiling.make([(2, 3)])
        for a, b, c in itertools.product(range(1, 7), repeat=3):
            norm = normalize(f, t, CoeffMap.make(F7, {1: a, 2: b, 3: c}))
            assert norm.coeffs.enc(2) == norm.coeffs.enc(3) == 1
            assert norm.coeffs.enc(1) == a * pow(c, -1, 7) % 7

    def test_a1_empty_tiling_unchanged(self):
        f = dynkin("A", 1)
        cm = CoeffMap.make(field_make(5), {1: 3})
        norm = normalize(f, DominoTiling.make([]), cm)
        assert norm.coeffs.enc(1) == 3
        assert norm.trace == ()

    def test_schedule_matches_order_oracle(self):
        # The flip plan's first flip must be one the exhaustive order
        # oracle accepts.  For the 4-path with dominoes {1-2, 3-4} the
        # flip at 1 divides 3 and the flip at 4 divides 2, so the valid
        # starts are 1 and 4.
        f = dynkin("A", 4)
        F5 = field_make(5)
        t = DominoTiling.make([(1, 2), (3, 4)])
        cm = CoeffMap.make(F5, {1: 2, 2: 3, 3: 4, 4: 2})
        starts = _valid_first_flips(f, t, cm)
        assert starts == {1, 4}
        assert flip_plan(f, t)[0][0] in starts

    def test_schedule_oracle_random(self):
        rng = random.Random(31)
        for _ in range(40):
            f = random_tree(rng, rng.randint(2, 7))
            F5 = field_make(5)
            t = leafy_tiling(f)
            if not t.covered:
                continue
            cm = random_coeffs(rng, F5, f)
            starts = _valid_first_flips(f, t, cm)
            if starts:  # generic coefficients: schedule must start correctly
                assert flip_plan(f, t)[0][0] in starts

    def test_normalize_preserves_count_and_covers(self):
        rng = random.Random(37)
        for _ in range(80):
            f = random_tree(rng, rng.randint(1, 7))
            q = rng.choice((2, 3, 5))
            F = field_make(q)
            cm = random_coeffs(rng, F, f)
            t = leafy_tiling(f)
            norm = normalize(f, t, cm)
            assert all(norm.coeffs.enc(v) == 1 for v in t.covered)
            a = brute_count(VarietyInstance(f, cm, F)).count
            b = brute_count(VarietyInstance(f, norm.coeffs, F)).count
            assert a == b

    def test_trace_replays_to_same_result(self):
        rng = random.Random(43)
        for _ in range(30):
            f = random_tree(rng, rng.randint(2, 7))
            F = field_make(5)
            cm = random_coeffs(rng, F, f)
            t = leafy_tiling(f)
            norm = normalize(f, t, cm)
            replay = cm
            for s, partner in norm.trace:
                replay = flip(f, replay, s, partner)
            assert replay.values == norm.coeffs.values

    def test_result_independent_of_flip_order(self):
        # every constraint-respecting order gives normalize's coefficients,
        # on the uncovered vertices too: flip_plan's order only fixes the
        # printed trace
        rng = random.Random(47)
        for i in range(200):
            f = random_tree(rng, rng.randint(2, 12))
            F = field_make((5, 7, 11, 13)[i % 4])
            cm = random_coeffs(rng, F, f)
            t = leafy_tiling(f) if i % 2 else random_partial_tiling(rng, f)
            expected = normalize(f, t, cm).coeffs.values
            for _ in range(10):
                flips = []
                for s in _random_flip_order(rng, f, t):
                    partner = t.partner[s]
                    flips.append((s, partner, tuple(
                        u for u in f.adjacency[partner] if u != s)))
                assert apply_flips(F, cm.values, flips) == expected

    def test_zero_on_covered_vertex_rejected(self):
        f = dynkin("A", 2)
        cm = CoeffMap.make(field_make(3), {1: 0, 2: 1})
        with pytest.raises(ZeroCoefficient):
            normalize(f, DominoTiling.make([(1, 2)]), cm)

    @pytest.mark.parametrize("domino", [(1, 3), (1, 9), (2, 2)])
    def test_domino_off_the_forest_rejected(self, domino):
        # a non-edge, a vertex outside the forest and a loop: normalizing
        # over any of them would change the count
        f = dynkin("A", 3)
        cm = CoeffMap.make(field_make(5), {1: 2, 2: 3, 3: 4})
        with pytest.raises(NotAdjacent,
                           match="^{}-{} is not an edge$".format(*domino)):
            normalize(f, DominoTiling.make([domino]), cm)


class TestLeafRemoval:
    def test_a3_transforms(self):
        f = dynkin("A", 3)
        F5 = field_make(5)
        g, a1, a2 = leaf_removal_transforms(f, CoeffMap.ones(F5, f), 1)
        assert g == 2
        assert tuple(a1) == without(f, [1]).vertices == (2, 3)
        assert _beta_child(F5, a1, g, 3) == {2: 3, 3: 1}  # alpha_g * beta
        assert tuple(a2) == without(f, [1, 2]).vertices == (3,)
        assert a2 == {3: 4}  # -1

    def test_d4_fork_leaf(self):
        f = dynkin("D", 4)
        F7 = field_make(7)
        a, b = 3, 5
        cm = CoeffMap.make(F7, {1: a, 2: b, 3: 1, 4: 1})
        g, _, a2 = leaf_removal_transforms(f, cm, 1)
        assert g == 3
        t2 = without(f, [1, g])
        assert tuple(a2) == t2.vertices == (2, 4)
        assert t2.edges == ()
        inv_a = pow(a, -1, 7)
        assert a2[2] == (-b * inv_a) % 7
        assert a2[4] == (-inv_a) % 7

    def test_not_a_leaf(self):
        f = dynkin("A", 3)
        cm = CoeffMap.ones(field_make(5), f)
        with pytest.raises(NotALeaf):
            leaf_removal_transforms(f, cm, 2)

    def test_missing_vertex_not_a_leaf(self):
        f = Forest.make([1, 2, 3, 4, 5], [(1, 2), (4, 5)])
        cm = CoeffMap.ones(field_make(5), f)
        for v in (9, 3):  # absent, and present with degree 0
            with pytest.raises(NotALeaf):
                leaf_removal_transforms(f, cm, v)

    def test_zero_leaf_coefficient(self):
        f = dynkin("A", 2)
        cm = CoeffMap.make(field_make(5), {1: 0, 2: 1})
        with pytest.raises(ZeroCoefficient):
            leaf_removal_transforms(f, cm, 1)

    def test_counting_identity(self):
        # N(T) = q * N(T'') + sum over invertible beta of N(T'(beta))
        rng = random.Random(41)
        for _ in range(50):
            f = random_tree(rng, rng.randint(2, 6))
            q = rng.choice((2, 3, 5))
            F = field_make(q)
            cm = random_coeffs(rng, F, f)
            leaf = rng.choice([v for v in f.vertices
                               if len(f.adjacency[v]) == 1])
            g, a1, a2 = leaf_removal_transforms(f, cm, leaf)
            t1, t2 = without(f, [leaf]), without(f, [leaf, g])
            assert (tuple(a1), tuple(a2)) == (t1.vertices, t2.vertices)
            total = q * _forest_count(t2, a2, F)
            for beta in range(1, q):
                total += _forest_count(t1, _beta_child(F, a1, g, beta), F)
            assert total == brute_count(VarietyInstance(f, cm, F)).count


def _beta_child(field, values, g, beta):
    """The encodings on T - f with the coefficient at g multiplied by beta."""
    return values | {g: field.mul_enc(values[g], beta)}


def _forest_count(forest, values, field):
    return brute_count(
        VarietyInstance(forest, CoeffMap(field, values), field)).count


def test_parse_coeff_text():
    f = dynkin("A", 3)
    F9 = field_make(3, 2)
    cm = parse_coeff_text("1 2\n3 1,2\n", F9, f)
    assert cm.enc(1) == 2
    assert cm.enc(2) == 1  # defaulted
    assert F9.text(cm.enc(3)) == "1,2"


@pytest.mark.parametrize("text, message", [
    ("1 2\n1 3\n", "line 2: vertex 1 given twice"),
    ("1 2 3\n", "line 1: "),
    ("2 1,x\n", "line 1: "),
    ("\n# c\nv 2\n", "line 3: "),
    ("9 2\n", "line 1: vertex 9 not in the forest"),
    ("2 3\n1 1,2\n", "line 2: vertex 1: vector longer than extension degree 1"),
])
def test_parse_coeff_text_rejects(text, message):
    with pytest.raises(ValueError) as info:
        parse_coeff_text(text, field_make(5), dynkin("A", 3))
    assert str(info.value).startswith(message)


def test_parse_coeff_text_rejects_long_vector_extension_field():
    with pytest.raises(ValueError) as info:
        parse_coeff_text("3 1,2,1\n", field_make(3, 2), dynkin("A", 3))
    assert str(info.value) == ("line 1: vertex 3: vector longer than "
                               "extension degree 2")
