import random

import pytest

from clustercount import (CoeffMap, VarietyInstance, brute_points, dynkin,
                          field_from_order, field_make, normal_form_instance)
from clustercount.counting import PointRecord
from clustercount.errors import PointNotOnVariety
from clustercount.singular import (all_minors_vanish, jacobian_at, rank,
                                   singular_points, verify_point)

from helpers import random_coeffs, random_tree


def _record(field, xs, xps):
    vs = tuple(sorted(xs))
    return PointRecord(vs, field, tuple(xs[v] for v in vs),
                       tuple(xps[v] for v in vs))


class TestJacobian:
    def test_a1_origin_zero_matrix(self):
        F5 = field_make(5)
        inst = normal_form_instance(F5, "A", 1, (-1,))
        rec = _record(F5, {1: 0}, {1: 0})
        assert jacobian_at(inst, rec) == [[0, 0]]

    def test_a1_generic_point(self):
        F3 = field_make(3)
        inst = normal_form_instance(F3, "A", 1, (1,))
        rec = _record(F3, {1: 1}, {1: 2})
        J = jacobian_at(inst, rec)
        assert J == [[2, 1]]
        assert rank(J, F3) == 1

    def test_first_row_structure(self):
        # row of vertex 1 in A_n: (x'_1, -alpha, 0, ..., x_1, 0, ...)
        F7 = field_make(7)
        inst = normal_form_instance(F7, "A", 3, (3,))
        rec = next(iter(brute_points(inst)))
        J = jacobian_at(inst, rec)
        assert J[0][0] == rec.xps[0]
        assert J[0][1] == (-3) % 7
        assert J[0][2] == 0
        assert J[0][3] == rec.xs[0]
        assert J[0][4] == J[0][5] == 0

    def test_full_rank_at_all_nonzero_point(self):
        F3 = field_make(3)
        inst = normal_form_instance(F3, "A", 2)
        recs = [r for r in brute_points(inst)
                if 0 not in r.xs]
        assert recs
        for r in recs:
            assert rank(jacobian_at(inst, r), F3) == 2

    def test_off_variety_rejected(self):
        F3 = field_make(3)
        inst = normal_form_instance(F3, "A", 1, (1,))
        with pytest.raises(PointNotOnVariety):
            jacobian_at(inst, _record(F3, {1: 0}, {1: 0}))
        with pytest.raises(PointNotOnVariety):  # a point of another forest
            jacobian_at(inst, _record(F3, {2: 1}, {2: 2}))
        # a point of A1 over F_5 whose encodings also solve the F_7 equation
        F5, F7 = field_make(5), field_make(7)
        inst7 = normal_form_instance(F7, "A", 1, (1,))
        assert verify_point(inst7, _record(F7, {1: 1}, {1: 2}))
        assert not verify_point(inst7, _record(F5, {1: 1}, {1: 2}))
        with pytest.raises(PointNotOnVariety):
            jacobian_at(inst7, _record(F5, {1: 1}, {1: 2}))


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
        x = F4.element((0, 1)).code
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
        assert [p.key() for p in pts] == [((0,), (0,))]

    def test_a3_special_unique_point(self):
        inst = normal_form_instance(field_make(5), "A", 3, (1,))
        pts = singular_points(inst)
        assert len(pts) == 1
        p = pts[0]
        assert p.vertices == (1, 2, 3)
        assert p.xs == (0, 4, 0)
        assert p.xps == (0, 4, 0)

    def test_a4_smooth(self):
        F3 = field_make(3)
        f = dynkin("A", 4)
        for a in (1, 2):
            cm = CoeffMap.make(F3, {1: a, 2: 1, 3: 1, 4: 1})
            assert singular_points(VarietyInstance(f, cm, F3)) == []

    def test_prefilter_equals_full_scan(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 3)
            q = rng.choice((2, 3, 5))
            F = field_make(q)
            f = random_tree(rng, n)
            inst = VarietyInstance(f, random_coeffs(rng, F, f), F)
            fast = [p.key() for p in singular_points(inst)]
            slow = [p.key() for p in singular_points(inst, prefilter=False)]
            assert fast == slow

    def test_returned_points_satisfy_equations_and_minors(self):
        inst = normal_form_instance(field_make(3), "A", 3, (1,))
        pts = singular_points(inst)
        assert len(pts) == 1
        from helpers import record_satisfies
        for p in pts:
            assert record_satisfies(inst, p)
            J = jacobian_at(inst, p)
            assert all_minors_vanish(J, field_make(3), 3)
