import itertools

import pytest

from clustercount import (CoeffMap, brute_count, field_from_order, field_make,
                          normal_form_instance)
from clustercount.errors import BadParity, NotNormalized, UnsupportedType
from clustercount.formulas import (branches_for, cohomology_table, epoly_check, exact_div,
                                   formula_count, formula_count_params,
                                   formula_Y, formula_Z)


class TestTypeA:
    def test_even_value(self):
        # (3^6 - 1)/(3^2 - 1) = 91, brute-confirmed
        rep = formula_count_params("A", 4, field_make(3))
        assert rep.count == 91
        assert rep.branch == "A-even"
        inst = normal_form_instance(field_make(3), "A", 4)
        assert brute_count(inst).count == 91

    def test_a0_is_a_point(self):
        assert formula_count_params("A", 0, field_make(5)).count == 1

    def test_odd_branches(self):
        F5 = field_make(5)
        # A_3: special value is (-1)^2 = 1
        generic = formula_count_params("A", 3, F5, (2,))
        special = formula_count_params("A", 3, F5, (1,))
        assert generic.branch == "A-odd-generic"
        assert special.branch == "A-odd-special"
        assert generic.count == 5**3 - 1
        assert special.count == 5**3 - 1 + 5**2

    def test_char2_collapses_to_special(self):
        # over F_2 every unit equals -1, so odd ranks only reach the
        # special branch
        F2 = field_make(2)
        rep = formula_count_params("A", 5, F2, (1,))
        assert rep.branch == "A-odd-special"


class TestTypeD:
    def test_d4_double_special_q3(self):
        rep = formula_count_params("D", 4, field_make(3), (1, 1))
        assert rep.count == 145  # 64 + 36 + 18 + 27
        assert rep.branch == "D-even-double-special"

    def test_d4_branch_values_q3(self):
        F3 = field_make(3)
        assert formula_count_params("D", 4, F3, (2, 2)).count == 82
        assert formula_count_params("D", 4, F3, (1, 2)).branch == "D-even-one-special"
        assert formula_count_params("D", 4, F3, (2, 1)).branch == "D-even-one-special"

    def test_d5_branches(self):
        F3 = field_make(3)
        generic = formula_count_params("D", 5, F3, (2,))
        special = formula_count_params("D", 5, F3, (1,))
        assert generic.count == 3**5 - 1 == 242
        assert special.count == 332

    def test_d6_special_value_is_minus_one(self):
        # (-1)^(6/2) = -1: over F_5 the doubly-special point is (4, 4)
        F5 = field_make(5)
        assert (formula_count_params("D", 6, F5, (4, 4)).branch
                == "D-even-double-special")
        assert (formula_count_params("D", 6, F5, (1, 1)).branch
                == "D-even-equal-special")


class TestTypeE:
    def test_printed_polynomials(self):
        F2, F3 = field_make(2), field_make(3)
        assert formula_count_params("E", 6, F2).count == 93
        assert formula_count_params("E", 8, F2).count == 381
        assert formula_count_params("E", 7, F3, (1,)).count == 3**7 + 3**5 - 9 - 1
        rep = formula_count_params("E", 7, F3, (2,))  # 2 = -1 in F_3
        assert rep.branch == "E7-special"
        assert rep.count == 3**7 + 2 * 3**5 + 27 - 9 - 1


class TestDispatch:
    def test_branch_partition_everywhere(self):
        # exactly one predicate fires for every parameter tuple
        for typ, rank in (("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6),
                          ("E", 7), ("E", 8)):
            for q in (2, 3, 4, 5):
                F = field_from_order(q)
                branches = branches_for(typ, rank)
                n_params = 2 if (typ == "D" and rank % 2 == 0) else (
                    1 if (typ, rank % 2) in (("A", 1), ("D", 1)) or
                         (typ, rank) == ("E", 7) else 0)
                import itertools
                for ps in itertools.product(range(1, q), repeat=n_params):
                    fired = [b for b in branches if b.predicate(ps, F)]
                    assert len(fired) == 1

    def test_not_normalized_rejected(self):
        F5 = field_make(5)
        inst = normal_form_instance(F5, "A", 4)
        bad = CoeffMap(F5, inst.coeffs.values | {2: 3})
        with pytest.raises(NotNormalized):
            formula_count("A", 4, bad, F5)
        # a vertex missing or one beyond the rank
        for values in ({1: 1}, {1: 1, 2: 1, 3: 1, 4: 1}):
            with pytest.raises(NotNormalized, match="vertices 1..3"):
                formula_count("A", 3, CoeffMap(F5, values), F5)

    def test_unsupported_type(self):
        with pytest.raises(UnsupportedType):
            branches_for("B", 2)

    def test_exact_division_guard(self):
        with pytest.raises(ArithmeticError):
            exact_div(7, 2)


class TestSpecialValues:
    """The paper's special parameter values, stated here independently of
    `branches_for`: (-1)^((n+1)/2) for odd A_n, 1 for odd D_n, (-1)^(n/2)
    for even D_n and -1 for E_7."""

    @staticmethod
    def _minus_one(F):
        return next(u for u in range(1, F.q) if F.add_enc(u, 1) == 0)

    def _special(self, typ, n, F):
        if typ == "A":
            return self._minus_one(F) if (n + 1) // 2 % 2 else 1
        if typ == "D" and n % 2 == 1:
            return 1
        if typ == "D":
            return self._minus_one(F) if n // 2 % 2 else 1
        return self._minus_one(F)

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_special_branch_exactly_at_paper_value(self, q):
        F = field_from_order(q)
        families = ([("A", n, "A-odd") for n in range(1, 10, 2)]
                    + [("D", n, "D-odd" if n % 2 else "D-even")
                       for n in range(3, 9)]
                    + [("E", 7, "E7")])
        for typ, n, family in families:
            s = self._special(typ, n, F)
            n_params = 2 if typ == "D" and n % 2 == 0 else 1
            for ps in itertools.product(range(1, q), repeat=n_params):
                branch = formula_count_params(typ, n, F, ps).branch
                if n_params == 1:
                    expected = "special" if ps[0] == s else "generic"
                elif ps.count(s) == 2:
                    expected = "double-special"
                elif ps.count(s) == 1:
                    expected = "one-special"
                else:
                    expected = "equal-special" if ps[0] == ps[1] else "generic"
                assert branch == f"{family}-{expected}", (q, ps, branch)


class TestUnionsFormulas:
    def test_values(self):
        assert formula_Y(1, 3) == 7
        assert formula_Y(0, 5) == 4
        assert formula_Y(2, 2) == 5
        assert formula_Z(1, 3) == 9
        assert formula_Z(2, 2) == 8

    def test_z_equals_sum_of_ys(self):
        for n in range(1, 9):
            for q in (2, 3, 4, 5, 7, 9):
                assert formula_Z(n, q) == formula_Y(n, q) + formula_Y(n - 1, q)

    def test_division_always_exact(self):
        for n in range(0, 12):
            for q in (2, 3, 4, 5, 7, 8, 9, 11):
                formula_Y(n, q)  # raises on non-exact division


class TestCohomology:
    def test_x0_single_class(self):
        t = cohomology_table("X", 0)
        assert t.entries == ((0, 0, 1),)

    def test_y0_punctured_line(self):
        t = cohomology_table("Y", 0)
        assert t.entries == ((1, 0, 1), (2, 1, 1))

    def test_x2_epoly(self):
        t = cohomology_table("X", 2)
        assert t.entries == ((2, 0, 1), (4, 2, 1))
        assert t.e_polynomial(3) == 10

    def test_y1_sign_convention(self):
        t = cohomology_table("Y", 1)
        assert t.e_polynomial(2) == 1 - 2 + 4 == 3

    def test_bad_parity(self):
        with pytest.raises(BadParity):
            cohomology_table("X", 3)

    def test_epoly_checks(self):
        assert epoly_check("Y", 2, 3).ok
        assert epoly_check("X", 4, 2).ok
        rep = epoly_check("Y", 2, 3)
        assert rep.e_poly_value == rep.count_value == 20

    def test_all_dimensions_one(self):
        for n in range(8):
            for deg, w, dim in cohomology_table("Y", n).entries:
                assert dim == 1
