from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barychi.combinatorics import ext_binomial
from barychi.engine import chi_c_direct
from barychi.errors import NonPositiveRho, NonPositiveWeight
from barychi.model import ProblemInstance, validate
from barychi.series import (
    SparseSeries,
    chen_lin_series,
    chi_c_series,
    expand_geometric_power,
    multiply_truncated,
)

F = Fraction


def brute_poly_product(a: dict, b: dict, bound: Fraction) -> dict:
    """Schoolbook product of exponent->coefficient maps, truncated."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e <= bound:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class TestSparseSeries:
    def test_zero_coefficients_dropped(self):
        s = SparseSeries([(F(1, 2), 3), (F(1, 2), -3), (F(1), 2)])
        assert len(s) == 1
        assert s.coefficient(1) == 2
        assert s.coefficient(F(1, 2)) == 0

    def test_exponent_value_identity(self):
        s = SparseSeries([(F(2, 4), 1)])
        assert s.coefficient(F(1, 2)) == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            SparseSeries([(F(-1, 2), 1)])

    def test_terms_sorted(self):
        s = SparseSeries([(F(2), 1), (F(1, 3), 4), (F(1), -2)])
        assert s.terms() == [(F(1, 3), 4), (F(1), -2), (F(2), 1)]


class TestExpandGeometricPower:
    def test_inverse_of_geometric(self):
        assert expand_geometric_power(-1, 5) == SparseSeries([(F(0), 1), (F(1), -1)])

    def test_power_zero(self):
        assert expand_geometric_power(0, 5) == SparseSeries([(F(0), 1)])

    def test_square(self):
        # (1 + x + x^2 + x^3)^2 truncated: coefficients count pairs.
        base = {F(n): 1 for n in range(4)}
        expected = brute_poly_product(base, base, F(3))
        assert expand_geometric_power(2, 3) == SparseSeries(expected)

    def test_coefficients_are_repetition_counts(self):
        g = expand_geometric_power(3, 6)
        for n in range(7):
            assert g.coefficient(n) == ext_binomial(3 + n - 1, n)

    def test_fractional_bound_truncates_to_floor(self):
        g = expand_geometric_power(2, F(5, 2))
        assert max(e for e, _ in g.terms()) == 2


class TestMultiplyTruncated:
    def test_identity(self):
        a = SparseSeries([(F(0), 1), (F(1, 2), -1), (F(2), 5)])
        one = SparseSeries([(F(0), 1)])
        assert multiply_truncated(a, one, 10) == a

    def test_exponent_merge(self):
        root = SparseSeries([(F(0), 1), (F(1, 2), -1)])
        sq = multiply_truncated(root, root, 2)
        assert sq == SparseSeries([(F(0), 1), (F(1, 2), -2), (F(1), 1)])

    def test_mixed_factors(self):
        a = SparseSeries([(F(0), 1), (F(1), -1)])
        b = SparseSeries([(F(0), 1), (F(1, 2), -1)])
        got = multiply_truncated(a, b, 2)
        assert got == SparseSeries(
            [(F(0), 1), (F(1, 2), -1), (F(1), -1), (F(3, 2), 1)]
        )

    @given(st.integers(0, 40))
    def test_matches_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        def rand_series():
            return {
                F(rng.randint(0, 8), rng.randint(1, 4)): rng.randint(-3, 3)
                for _ in range(rng.randint(0, 6))
            }
        a, b = rand_series(), rand_series()
        bound = F(rng.randint(0, 10), rng.randint(1, 3))
        got = multiply_truncated(SparseSeries(a), SparseSeries(b), bound)
        assert got == SparseSeries(brute_poly_product(
            {e: c for e, c in a.items() if c},
            {e: c for e, c in b.items() if c},
            bound,
        ))


class TestChenLinSeries:
    def test_worked_expansion(self):
        inst = validate(ProblemInstance(2, (F(1, 2),), F(1)))
        assert chen_lin_series(inst) == SparseSeries(
            [(F(0), 1), (F(1, 2), -1), (F(1), -1)]
        )

    def test_no_weights_is_pure_geometric_power(self):
        for chi in (-3, 0, 2):
            inst = validate(ProblemInstance(chi, (), F(4)))
            assert chen_lin_series(inst) == expand_geometric_power(-chi, 4)

    def test_chi_equal_r_leaves_only_the_product(self):
        weights = (F(1, 3), F(2, 3))
        inst = validate(ProblemInstance(2, weights, F(2)))
        expected = {F(0): 1}
        for w in weights:
            expected = brute_poly_product(expected, {F(0): 1, w: -1}, F(2))
        assert chen_lin_series(inst) == SparseSeries(expected)

    def test_constant_term_is_one(self):
        inst = validate(ProblemInstance(-4, (F(2, 5), F(7, 5), F(1)), F(6)))
        assert chen_lin_series(inst).coefficient(0) == 1

    def test_validates_inputs(self):
        # validate is the one place the series route's inputs are checked.
        with pytest.raises(NonPositiveWeight):
            chen_lin_series(validate(ProblemInstance(0, (F(0),), F(1))))
        with pytest.raises(NonPositiveRho):
            chen_lin_series(validate(ProblemInstance(0, (), F(-2))))


class TestChiCSeries:
    def test_worked_example(self):
        res = chi_c_series(validate(ProblemInstance(2, (F(1, 2),), F(1))))
        assert res.chi_c_value == 2
        assert res.degree_d_rho == -1
        assert res.term_breakdown == ((F(1, 2), -1), (F(1), -1))

    def test_no_weights_contract(self):
        for chi in range(-5, 6):
            for k in range(1, 6):
                res = chi_c_series(validate(ProblemInstance(chi, (), F(k))))
                assert res.chi_c_value == 1 - ext_binomial(k - chi, k)

    def test_empty_window_is_empty_space(self):
        res = chi_c_series(validate(ProblemInstance(3, (F(1, 2), F(2, 3)), F(1, 4))))
        assert res.chi_c_value == 0

    def test_agrees_with_direct(self, engine_corpus):
        for inst in engine_corpus[:200]:
            res = chi_c_series(inst)
            assert res.chi_c_value == chi_c_direct(inst).chi_c_value

    def test_exponent_merge_consistency(self):
        # 1/2 + 1/2 collides with the integer exponent 1.
        inst = validate(ProblemInstance(3, (F(1, 2), F(1, 2)), F(2)))
        res = chi_c_series(inst)
        assert res.chi_c_value == chi_c_direct(inst).chi_c_value

    def test_truncation_stability(self):
        inst = validate(ProblemInstance(-2, (F(2, 5), F(4, 3)), F(7, 2)))
        base = chi_c_series(inst).chi_c_value
        for bound in (F(4), F(6), F(15, 2)):
            assert chi_c_series(inst, bound).chi_c_value == base

    def test_unit_weight_factor_consistency(self):
        plain = validate(ProblemInstance(1, (F(2, 5),), F(3)))
        augmented = validate(ProblemInstance(1, (F(2, 5), F(1)), F(3)))
        res_plain = chi_c_series(plain)
        res_aug = chi_c_series(augmented)
        assert res_plain.chi_c_value == chi_c_direct(plain).chi_c_value
        assert res_aug.chi_c_value == chi_c_direct(augmented).chi_c_value
        assert res_plain.chi_c_value == res_aug.chi_c_value
