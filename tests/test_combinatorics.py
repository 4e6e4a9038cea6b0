from fractions import Fraction
from math import factorial, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barychi.combinatorics import (
    ext_binomial,
    gould_convolution,
    hockey_stick_sum,
)


def falling_factorial_oracle(n: int, k: int) -> int:
    """Independent evaluation of n(n-1)...(n-k+1)/k! as an exact fraction."""
    value = Fraction(1)
    for j in range(k):
        value *= n - j
    value /= factorial(k)
    assert value.denominator == 1
    return value.numerator


class TestExtBinomial:
    def test_negative_upper_values(self):
        assert ext_binomial(-1, 2) == 1
        assert ext_binomial(-3, 2) == 6

    @pytest.mark.parametrize("n", [-5, 0, 7])
    def test_k_zero_is_one(self, n):
        assert ext_binomial(n, 0) == 1

    def test_zero_band(self):
        assert ext_binomial(2, 5) == 0

    def test_negative_k_is_zero(self):
        assert ext_binomial(5, -1) == 0
        assert ext_binomial(-5, -3) == 0

    def test_matches_falling_factorial_oracle(self):
        for n in range(-25, 26):
            for k in range(0, 26):
                assert ext_binomial(n, k) == falling_factorial_oracle(n, k), (n, k)

    @given(st.integers(-200, 200), st.integers(0, 80))
    def test_oracle_agreement_wide(self, n, k):
        assert ext_binomial(n, k) == falling_factorial_oracle(n, k)

    def test_negative_argument_reflection(self):
        for n in range(-20, 0):
            for k in range(1, 20):
                assert ext_binomial(n, k) == (-1) ** k * ext_binomial(-n + k - 1, k)

    def test_pascal_rule(self):
        for m in range(-20, 21):
            for n in range(1, 21):
                assert ext_binomial(m, n - 1) + ext_binomial(m, n) == ext_binomial(m + 1, n)

    def test_huge_operands_stay_exact(self):
        # Values in the thousands-of-bits range; any fixed-width path would break.
        value = ext_binomial(-2000, 500)
        assert value == ext_binomial(2499, 500)
        assert value.bit_length() > 1000


class TestHockeyStick:
    def test_small_example(self):
        assert hockey_stick_sum(3, 2) == 10 == ext_binomial(5, 2)

    def test_empty_sum(self):
        for m in (-7, 0, 4):
            assert hockey_stick_sum(m, 0) == 1

    def test_m_zero_collapses_to_leading_term(self):
        assert hockey_stick_sum(0, 4) == 1

    def test_contract(self):
        for m in range(-15, 16):
            for n in range(0, 16):
                assert hockey_stick_sum(m, n) == ext_binomial(m + n, n)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            hockey_stick_sum(3, -1)


class TestGouldConvolution:
    def test_zero_characteristics(self):
        for k in range(0, 10):
            assert gould_convolution(0, 0, k) == 1

    def test_unit_characteristics(self):
        assert gould_convolution(1, 1, 3) == ext_binomial(1, 3) == 0

    def test_k_zero(self):
        assert gould_convolution(5, -3, 0) == 1

    def test_contract(self):
        for chi1 in range(-8, 9):
            for chi2 in range(-8, 9):
                for k in range(0, 13):
                    assert gould_convolution(chi1, chi2, k) == ext_binomial(k - chi1 - chi2, k)


class TestFloorRational:
    """The routes floor exact rationals with ``math.floor``, which must stay
    exact integer division (never a float round trip) at any operand size."""

    @pytest.mark.parametrize(
        "q,expected",
        [
            (Fraction(9, 2), 4),
            (Fraction(-1, 2), -1),
            (Fraction(3, 1), 3),
            (Fraction(-7, 3), -3),
            (0, 0),
        ],
    )
    def test_values(self, q, expected):
        assert floor(q) == expected

    @given(st.integers(-10**6, 10**6), st.integers(1, 997))
    def test_matches_integer_division(self, p, q):
        assert floor(Fraction(p, q)) == p // q
