import random

import pytest

from clustercount import (CoeffMap, Forest, VarietyInstance, brute_count,
                          brute_points, dynkin, field_from_order, field_make,
                          normal_form_instance)
from clustercount.errors import BudgetExceeded, PointNotOnVariety
from clustercount.singular import (_hall_violators, jacobian_at,
                                   matching_rank, matching_singular_points,
                                   rank, singular_points, verify_point)

from helpers import all_minors_vanish, random_tree

ALL_Q = (2, 3, 4, 5, 7, 8, 9)


def _biased_instance(rng, field, forest, allow_zero=False):
    """Coefficient -1, where singular points live, on a random half or more
    of the vertices; the rest uniform over F_q^*, or over F_q with
    `allow_zero`."""
    vs = forest.vertices
    minus_one = set(rng.sample(vs, rng.randint((len(vs) + 1) // 2, len(vs))))
    low = 0 if allow_zero else 1
    values = {v: field.neg_enc(1) if v in minus_one
              else rng.randrange(low, field.q) for v in vs}
    return VarietyInstance(
        forest, CoeffMap.make(field, values), field)


def _random_forest(rng, n):
    """A random tree on 1..n with each edge kept with probability 3/4."""
    tree = random_tree(rng, n)
    return Forest.make(tree.vertices,
                       [e for e in tree.edges if rng.random() < 0.75])


class TestJacobian:
    def test_a1_origin_zero_matrix(self):
        F5 = field_make(5)
        inst = normal_form_instance(F5, "A", 1, (-1,))
        assert jacobian_at(inst, ((0,), (0,))) == [[0, 0]]

    def test_a1_generic_point(self):
        F3 = field_make(3)
        inst = normal_form_instance(F3, "A", 1, (1,))
        J = jacobian_at(inst, ((1,), (2,)))
        assert J == [[2, 1]]
        assert rank(J, F3) == 1

    def test_first_row_structure(self):
        # row of vertex 1 in A_n: (x'_1, -alpha, 0, ..., x_1, 0, ...)
        F7 = field_make(7)
        inst = normal_form_instance(F7, "A", 3, (3,))
        xs, xps = next(iter(brute_points(inst)))
        J = jacobian_at(inst, (xs, xps))
        assert J[0][0] == xps[0]
        assert J[0][1] == (-3) % 7
        assert J[0][2] == 0
        assert J[0][3] == xs[0]
        assert J[0][4] == J[0][5] == 0

    def test_full_rank_at_all_nonzero_point(self):
        F3 = field_make(3)
        inst = normal_form_instance(F3, "A", 2)
        recs = [r for r in brute_points(inst) if 0 not in r[0]]
        assert recs
        for r in recs:
            assert rank(jacobian_at(inst, r), F3) == 2

    def test_off_variety_rejected(self):
        F3 = field_make(3)
        inst = normal_form_instance(F3, "A", 1, (1,))
        with pytest.raises(PointNotOnVariety):
            jacobian_at(inst, ((0,), (0,)))
        # a pair whose tuples do not hold one encoding per vertex
        assert verify_point(inst, ((1,), (2,)))
        for xs, xps in (((1, 1), (2, 2)), ((1,), (2, 0)), ((), ())):
            assert not verify_point(inst, (xs, xps))
            with pytest.raises(PointNotOnVariety):
                jacobian_at(inst, (xs, xps))


class TestRank:
    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]], field_make(5)) == 0

    def test_identity(self):
        F5 = field_make(5)
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert rank(eye, F5) == 3

    def test_dependent_rows_mod5(self):
        assert rank([[1, 2], [2, 4]], field_make(5)) == 1

    def test_rank_depends_on_characteristic(self):
        # [[1, 2], [3, 6]] has rank 1 over F_5 (row2 = 3*row1) and over any
        # field, but [[1,2],[2,1]] drops rank exactly in characteristic 3
        m = [[1, 2], [2, 1]]
        assert rank(m, field_make(3)) == 1
        assert rank(m, field_make(5)) == 2

    def test_extension_field_rank(self):
        F4 = field_make(2, 2)
        x = F4.from_vector((0, 1))
        # rows (1, x) and (x, x^2): second is x * first -> rank 1
        x2 = F4.mul_enc(x, x)
        assert rank([[1, x], [x, x2]], F4) == 1

    def test_matches_minor_enumeration_extension_fields(self):
        rng = random.Random(23)
        for _ in range(60):
            F = field_from_order(rng.choice((4, 8, 9)))
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[rng.randrange(F.q) for _ in range(cols)] for _ in range(rows)]
            if rows >= 3 and rng.random() < 0.5:  # force a dependent row
                a, b = rng.randrange(F.q), rng.randrange(F.q)
                m[-1] = [F.add_enc(F.mul_enc(a, u), F.mul_enc(b, v))
                         for u, v in zip(m[0], m[1])]
            r = rank(m, F)
            if r > 0:
                assert not all_minors_vanish(m, F, r)
            if r < min(rows, cols):
                assert all_minors_vanish(m, F, r + 1)

    def test_matches_minor_enumeration(self):
        rng = random.Random(19)
        for _ in range(60):
            q = rng.choice((2, 3, 5))
            F = field_make(q)
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            m = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
            r = rank(m, F)
            if r > 0:
                assert not all_minors_vanish(m, F, r)
            if r < min(rows, cols):
                assert all_minors_vanish(m, F, r + 1)


class TestSingularPoints:
    def test_a1_special_unique_origin(self):
        inst = normal_form_instance(field_make(5), "A", 1, (-1,))
        pts = singular_points(inst)
        assert pts == [((0,), (0,))]

    def test_a3_special_unique_point(self):
        inst = normal_form_instance(field_make(5), "A", 3, (1,))
        assert singular_points(inst) == [((0, 4, 0), (0, 4, 0))]

    def test_a4_smooth(self):
        F3 = field_make(3)
        f = dynkin("A", 4)
        for a in (1, 2):
            cm = CoeffMap.make(F3, {1: a, 2: 1, 3: 1, 4: 1})
            assert singular_points(VarietyInstance(f, cm, F3)) == []

    def test_prefilter_equals_full_scan(self):
        rng = random.Random(29)
        found = 0
        for _ in range(30):
            n = rng.randint(1, 3)
            F = field_from_order(rng.choice((2, 3, 4, 5, 8, 9)))
            inst = _biased_instance(rng, F, random_tree(rng, n))
            fast = singular_points(inst)
            slow = singular_points(inst, prefilter=False)
            assert fast == slow
            found += len(fast)
        assert found >= 10

    def test_budget_charges_each_listed_point(self):
        # n * q^n for the scan plus n^3 per point for its Jacobian's rank
        inst = normal_form_instance(field_make(5), "A", 3, (1,))
        est = 3 * 5**3 + 3**3 * brute_count(inst).count
        assert len(singular_points(inst, budget=est)) == 1
        with pytest.raises(BudgetExceeded):
            singular_points(inst, budget=est - 1)
        # the criterion ranks no Jacobian and keeps the scan's precondition
        assert len(matching_singular_points(inst, budget=3 * 5**3)) == 1

    def test_returned_points_satisfy_equations_and_minors(self):
        inst = normal_form_instance(field_make(3), "A", 3, (1,))
        pts = singular_points(inst)
        assert len(pts) == 1
        from helpers import record_satisfies
        for p in pts:
            assert record_satisfies(inst, p)
            J = jacobian_at(inst, p)
            assert all_minors_vanish(J, field_make(3), 3)


class TestMatchingCriterion:
    def test_rank_formula_equals_elimination(self):
        rng = random.Random(31)
        singular = 0
        for _ in range(50):
            F = field_from_order(rng.choice((2, 3, 4, 5, 8, 9)))
            n = rng.randint(1, 3 if F.q <= 5 else 2)
            inst = _biased_instance(rng, F, _random_forest(rng, n),
                                    allow_zero=rng.random() < 0.3)
            for p in brute_points(inst):
                r = matching_rank(inst, p)
                assert r == rank(jacobian_at(inst, p), F)
                singular += r < n
        assert singular > 30

    def test_rank_formula_rejects_off_variety(self):
        F3 = field_make(3)
        inst = normal_form_instance(F3, "A", 1, (1,))
        with pytest.raises(PointNotOnVariety):
            matching_rank(inst, ((0,), (0,)))

    def test_hall_violators(self):
        # A3: only the two ends, which share their one neighbour
        assert list(_hall_violators([1, 1, 1], [[1], [0, 2], [1]])) == [[0, 2]]
        # the star K_{1,3} (centre 0): two or three leaves; a zero
        # coefficient keeps its vertex out of every set
        star = [[1, 2, 3], [0], [0], [0]]
        assert sorted(_hall_violators([1, 1, 1, 1], star)) == [
            [1, 2], [1, 2, 3], [1, 3], [2, 3]]
        assert list(_hall_violators([1, 1, 0, 1], star)) == [[1, 3]]
        # an isolated vertex fails on its own; A2 and A4 have no violator
        assert list(_hall_violators([1], [[]])) == [[0]]
        assert list(_hall_violators([1, 1], [[1], [0]])) == []
        a4 = [[1], [0, 2], [1, 3], [2]]
        assert list(_hall_violators([1] * 4, a4)) == []

    def test_battery_family_matches_scan(self):
        # A_n, every leading coefficient, 1 elsewhere: the smoothness
        # battery's family, over prime and prime-power fields
        found = 0
        for q in ALL_Q:
            F = field_from_order(q)
            for n in range(1, 5):
                f = dynkin("A", n)
                for a in range(1, q):
                    values = {v: 1 for v in f.vertices} | {1: a}
                    inst = VarietyInstance(f, CoeffMap.make(F, values), F)
                    fast = matching_singular_points(inst)
                    assert fast == singular_points(inst)
                    found += len(fast)
        assert found == 14  # one at each special A1 and A3

    def test_random_forests_match_scan(self):
        rng = random.Random(37)
        found = 0
        for _ in range(200):
            F = field_from_order(rng.choice(ALL_Q))
            n = rng.randint(1, 5 if F.q <= 3 else 4 if F.q <= 5 else 3)
            inst = _biased_instance(rng, F, _random_forest(rng, n),
                                    allow_zero=rng.random() < 0.3)
            fast = matching_singular_points(inst)
            assert fast == singular_points(inst)
            found += len(fast)
        assert found > 500

    def test_listed_points_are_singular(self):
        inst = normal_form_instance(field_make(7), "A", 5, (-1,))
        pts = matching_singular_points(inst)
        assert pts == [((0, 1, 0, 6, 0), (0, 1, 0, 6, 0))]
        assert all(rank(jacobian_at(inst, p), inst.field) < 5 for p in pts)

    def test_empty_forest_and_budget(self):
        F5 = field_make(5)
        assert matching_singular_points(normal_form_instance(F5, "A", 0)) == []
        inst = normal_form_instance(F5, "A", 3, (1,))
        with pytest.raises(BudgetExceeded):
            matching_singular_points(inst, budget=10)
