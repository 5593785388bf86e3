from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qformkit import (
    FormatError,
    MismatchedRadicand,
    QuadExt,
    parse_quadext,
    parse_rational,
    render_quadext,
    render_rational,
)

rationals = st.fractions(max_denominator=1000)
small_rationals = st.fractions(max_denominator=20)


def qe(rat, rad=0, t=1):
    return QuadExt(Fraction(rat), Fraction(rad), Fraction(t))


class TestQuadExtMul:
    def test_difference_of_squares(self):
        # (1 + sqrt 2)(1 - sqrt 2) = -1
        x = qe(1, 1, 2)
        y = qe(1, -1, 2)
        assert x * y == qe(-1, 0, 2)

    def test_sqrt_squared_is_radicand(self):
        x = qe(0, 1, 3)
        assert x * x == qe(3, 0, 3)

    def test_rational_multiplier(self):
        x = qe(Fraction(1, 2), Fraction(1, 3), 5)
        y = qe(2, 0, 5)
        assert x * y == qe(1, Fraction(2, 3), 5)

    def test_mismatched_radicands_rejected(self):
        with pytest.raises(MismatchedRadicand):
            qe(1, 1, 2) * qe(1, 1, 3)

    def test_mismatched_t_allowed_when_one_rad_zero(self):
        assert qe(2, 0, 2) * qe(0, 1, 3) == qe(0, 2, 3)


class TestEqualValueRadicands:
    def test_square_radicand_equals_rational_multiple(self):
        # sqrt(4) = 2 * sqrt(1) = 2
        assert qe(0, 1, 4) == qe(0, 2, 1)
        assert hash(qe(0, 1, 4)) == hash(qe(0, 2, 1))

    def test_square_factor_equality(self):
        # sqrt(8) = 2 * sqrt(2)
        assert qe(1, 1, 8) == qe(1, 2, 2)
        assert hash(qe(1, 1, 8)) == hash(qe(1, 2, 2))
        assert qe(0, 1, 8) != qe(0, -2, 2)

    def test_add_and_multiply_across_square_factor(self):
        assert qe(0, 1, 8) + qe(0, 1, 2) == qe(0, 3, 2)
        assert qe(0, 1, 2) + qe(0, 1, 8) == qe(0, 3, 2)
        assert qe(0, 1, 8) * qe(0, 1, 2) == qe(4)
        assert (qe(0, 1, 8) - qe(0, 2, 2)).is_zero()

    def test_non_square_ratio_still_rejected(self):
        with pytest.raises(MismatchedRadicand):
            qe(0, 1, 8) + qe(0, 1, 3)
        assert qe(0, 1, 2) != qe(0, 1, 3)


scales = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)


@given(small_rationals, small_rationals, st.integers(2, 7), scales)
def test_rescaled_radicand_is_the_same_value(rat, rad, t, s):
    # rad*sqrt(t) = (rad/s)*sqrt(s^2 t)
    x, y = qe(rat, rad, t), qe(rat, rad / s, s * s * t)
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert (x - y).is_zero()


class TestQuadExtZero:
    def test_plain_zero(self):
        assert qe(0, 0, 7).is_zero()

    def test_perfect_square_cancellation(self):
        # 2 - sqrt(4) = 0
        assert qe(2, -1, 4).is_zero()

    def test_both_parts_positive(self):
        assert not qe(1, 1, 2).is_zero()

    def test_same_signs_never_zero(self):
        assert not qe(2, 1, 4).is_zero()

    def test_near_miss(self):
        assert not qe(2, -1, 5).is_zero()


@given(rationals, rationals, rationals)
def test_rational_arithmetic_is_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(small_rationals, small_rationals)
def test_x_minus_x_is_zero(rat, rad):
    x = QuadExt(rat, rad, Fraction(2))
    assert (x - x).is_zero()


@given(small_rationals, small_rationals, small_rationals, small_rationals)
def test_zero_absorbs_products(a, b, c, d):
    x = QuadExt(a, b, Fraction(3))
    y = QuadExt(c, d, Fraction(3))
    if x.is_zero():
        assert (x * y).is_zero()


@given(rationals)
def test_rational_render_round_trip(x):
    assert parse_rational(render_rational(x)) == x


@given(small_rationals, small_rationals, st.fractions(min_value="1/7", max_value=50, max_denominator=9))
def test_quadext_render_round_trip(rat, rad, t):
    x = QuadExt(rat, rad, t)
    y = parse_quadext(render_quadext(x))
    if rad == 0:
        assert (y.rat, y.rad) == (rat, Fraction(0))
    else:
        assert (y.rat, y.rad, y.t) == (rat, rad, t)


def test_render_examples():
    assert render_rational(Fraction(3, 4)) == "3/4"
    assert render_rational(Fraction(-2)) == "-2"
    assert render_quadext(qe(Fraction(1, 2), Fraction(-1, 3), 5)) == "1/2 + -1/3*sqrt(5)"
    assert render_quadext(qe(7)) == "7"


def test_immutability():
    x = qe(1, 2, 3)
    with pytest.raises(AttributeError):
        x.rat = Fraction(0)


def test_pow():
    x = qe(1, 1, 2)
    assert x**0 == qe(1, 0, 2)
    assert x**2 == qe(3, 2, 2)


class TestParseRationalBounds:
    @pytest.mark.parametrize("text", ["1e5000", "1e-5000", "2.5E4301", "1e+4301", "-3e5_000"])
    def test_exponent_beyond_bound_rejected(self, text):
        with pytest.raises(FormatError, match="exponent"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text, value",
        [("1e4300", Fraction(10) ** 4300), ("1e-4300", Fraction(1, 10**4300)),
         ("1.5e-3", Fraction(3, 2000)), (" 7/3 ", Fraction(7, 3)), ("12", Fraction(12))],
    )
    def test_values_within_bound_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1e", "e5", "1e5x", "1/0", "1e" + "9" * 5000])
    def test_malformed_exponent_is_a_format_error(self, text):
        with pytest.raises(FormatError):
            parse_rational(text)
