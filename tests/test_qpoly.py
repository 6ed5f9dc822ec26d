import itertools
from fractions import Fraction

import pytest

from clustercount import (brute_count, field_from_order, field_make,
                          normal_form_slots)
from clustercount.errors import DuplicateAbscissa, UnsupportedType
from clustercount.formulas import branches_for, formula_count_params
from clustercount.qpoly import (FamilyPolicy, QPolynomial, fit_and_verify,
                                interpolate_counts)


class TestInterpolate:
    def test_a2_counts(self):
        p = interpolate_counts([(2, 5), (3, 10), (5, 26)])
        assert p.coeffs == (Fraction(1), Fraction(0), Fraction(1))
        assert str(p) == "q^2 + 1"

    def test_constant(self):
        p = interpolate_counts([(2, 1), (3, 1)])
        assert str(p) == "1"
        assert p.degree == 0

    def test_pure_cube(self):
        p = interpolate_counts([(2, 8), (3, 27), (5, 125), (7, 343)])
        assert str(p) == "q^3"

    def test_duplicate_abscissa(self):
        with pytest.raises(DuplicateAbscissa):
            interpolate_counts([(2, 1), (2, 2), (3, 5)])

    def test_exact_rational_result(self):
        p = interpolate_counts([(1, 0), (2, 1)])
        assert p.coeffs == (Fraction(-1), Fraction(1))
        assert p(Fraction(7)) == 6

    def test_text_formats(self):
        p = QPolynomial.make([1, 0, -2, 0, 1])
        assert p.text() == "q^4 - 2*q^2 + 1"
        assert p.text(descending=False) == "1 - 2*q^2 + q^4"
        assert p.coefficient_strings() == ["1", "0", "-2", "0", "1"]


class TestPolicies:
    def test_generic_avoids_special_value(self):
        from clustercount.gf import field_make
        pol = FamilyPolicy("A", 3, "generic")  # special value is 1
        assert pol.params_for(field_make(5)) == (2,)
        pol = FamilyPolicy("A", 1, "generic")  # special value is -1
        assert pol.params_for(field_make(5)) == (1,)

    def test_too_small_fields_inadmissible(self):
        from clustercount.gf import field_make
        # F_2 has a single unit, which IS the special value
        assert FamilyPolicy("A", 3, "generic").params_for(field_make(2)) is None
        # D_4 generic needs two distinct non-special units
        assert FamilyPolicy("D", 4, "generic").params_for(field_make(3)) is None
        assert FamilyPolicy("D", 4, "generic").params_for(field_make(5)) == (2, 3)


    def test_params_lie_in_the_branch_or_none_exist(self):
        # every family and branch that `interpolate` accepts
        families = ([("A", n) for n in range(10)]
                    + [("D", n) for n in range(3, 9)]
                    + [("E", n) for n in (6, 7, 8)])
        branches = ("generic", "special", "equal-special", "one-special",
                    "double-special")
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            F = field_from_order(q)
            for (typ, n), branch in itertools.product(families, branches):
                policy = FamilyPolicy(typ, n, branch)
                try:
                    params = policy.params_for(F)
                except UnsupportedType:
                    continue
                if typ == "A" and n % 2 == 0:
                    expected = "A-even"
                elif typ == "E" and n != 7:
                    expected = f"E{n}"
                else:
                    family = {"A": "A-odd", "D": f"D-{'odd' if n % 2 else 'even'}",
                              "E": "E7"}[typ]
                    expected = f"{family}-{branch}"
                assert expected in {b.branch_id for b in branches_for(typ, n)}
                if params is None:
                    slots = len(normal_form_slots(typ, n))
                    reached = {formula_count_params(typ, n, F, ps).branch
                               for ps in itertools.product(range(1, q),
                                                           repeat=slots)}
                    assert expected not in reached, (policy.name, q)
                else:
                    got = formula_count_params(typ, n, F, params).branch
                    assert got == expected, (policy.name, q, params)

    def test_unknown_branches_rejected(self):
        F = field_make(5)
        for typ, n, branch in (("A", 3, "one-special"), ("D", 4, "special"),
                               ("E", 8, "special"), ("A", 2, "special")):
            with pytest.raises(UnsupportedType):
                FamilyPolicy(typ, n, branch).params_for(F)


class TestFitAndVerify:
    def test_a3_generic_and_special(self):
        assert str(fit_and_verify(FamilyPolicy("A", 3, "generic")).polynomial) \
            == "q^3 - 1"
        assert str(fit_and_verify(FamilyPolicy("A", 3, "special")).polynomial) \
            == "q^3 + q^2 - 1"

    def test_d5_generic(self):
        rep = fit_and_verify(FamilyPolicy("D", 5, "generic"))
        assert str(rep.polynomial) == "q^5 - 1"
        assert rep.ok
        assert rep.residuals == (0, 0)
        assert rep.polynomial.degree <= FamilyPolicy("D", 5, "generic").degree_bound

    def test_d4_skips_inadmissible_primes(self):
        rep = fit_and_verify(FamilyPolicy("D", 4, "generic"))
        assert str(rep.polynomial) == "q^4 - 2*q^2 + 1"
        assert rep.samples[0][0] == 5  # q=3 cannot realize the branch

    def test_integer_coefficients_enforced(self):
        for policy in (FamilyPolicy("A", 2, "generic"),
                       FamilyPolicy("E", 6, "generic")):
            rep = fit_and_verify(policy)
            assert rep.polynomial.is_integral()

    def test_brute_counter_agrees_on_small_family(self):
        policy = FamilyPolicy("A", 2, "generic")
        rep = fit_and_verify(policy)
        assert str(rep.polynomial) == "q^2 + 1"
        for q, count in rep.samples + rep.held_out:
            assert count == brute_count(policy.instance(field_make(q))).count

    def test_no_held_out_primes(self):
        rep = fit_and_verify(FamilyPolicy("A", 2, "generic"), extra=0)
        assert str(rep.polynomial) == "q^2 + 1"
        assert [q for q, _ in rep.samples] == [3, 5, 7]
        assert rep.held_out == () and rep.residuals == ()

    def test_mixed_branch_policy_caught(self):
        # counting a DIFFERENT branch at the held-out primes is reported
        class LyingPolicy(FamilyPolicy):
            def instance(self, field):
                branch = "special" if field.q > 12 else "generic"
                return FamilyPolicy(self.dynkin_type, self.rank,
                                    branch).instance(field)

        rep = fit_and_verify(LyingPolicy("A", 3, "generic"))
        assert not rep.ok
        assert str(rep.polynomial) == "q^3 - 1"
        assert [q for q, _ in rep.held_out] == [13, 17]
        # q^3 - 1 against the special branch's q^3 + q^2 - 1
        assert rep.residuals == (-13**2, -17**2)

    def test_wrong_sample_prime_caught(self):
        # a wrong count at a sample prime bends the fit off the integers
        class LyingPolicy(FamilyPolicy):
            def instance(self, field):
                branch = "special" if field.q == 5 else "generic"
                return FamilyPolicy(self.dynkin_type, self.rank,
                                    branch).instance(field)

        rep = fit_and_verify(LyingPolicy("A", 3, "generic"))
        assert [q for q, _ in rep.samples] == [3, 5, 7, 11]
        assert not rep.polynomial.is_integral()
        assert not rep.ok
