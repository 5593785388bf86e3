import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qformkit import (
    FormatError,
    HomogeneousPoly,
    MismatchedRadicand,
    QuadExt,
    QuadraticForm,
    evaluate,
    parse_rational,
    render_quadext,
    render_rational,
)
from qformkit import scalars

from conftest import parse_quadext

rationals = st.fractions(max_denominator=1000)
small_rationals = st.fractions(max_denominator=20)


def qe(rat, rad=0, t=1):
    return QuadExt(Fraction(rat), Fraction(rad), Fraction(t))


def product(x, y):
    """x*y, which QuadExt no longer takes itself: the int evaluator of
    HomogeneousPoly at the monomial x1*x2."""
    return HomogeneousPoly(2, 2, {(1, 1): 1}).evaluate((x, y))


def combination(a, x, b, y):
    """a*x + b*y for rational a and b, by the int evaluator."""
    return HomogeneousPoly(2, 1, {(1, 0): a, (0, 1): b}).evaluate((x, y))


class TestQuadExtMul:
    """Products of two QuadExt values, taken in int pairs."""

    def test_difference_of_squares(self):
        # (1 + sqrt 2)(1 - sqrt 2) = -1
        x = qe(1, 1, 2)
        y = qe(1, -1, 2)
        assert product(x, y) == qe(-1, 0, 2)

    def test_sqrt_squared_is_radicand(self):
        x = qe(0, 1, 3)
        assert product(x, x) == qe(3, 0, 3)

    def test_rational_multiplier(self):
        x = qe(Fraction(1, 2), Fraction(1, 3), 5)
        y = qe(2, 0, 5)
        assert product(x, y) == qe(1, Fraction(2, 3), 5)

    def test_mismatched_radicands_rejected(self):
        with pytest.raises(MismatchedRadicand):
            product(qe(1, 1, 2), qe(1, 1, 3))

    def test_mismatched_t_allowed_when_one_rad_zero(self):
        assert product(qe(2, 0, 2), qe(0, 1, 3)) == qe(0, 2, 3)


class TestQuadExtInit:
    @pytest.mark.parametrize("t", [0, -1, Fraction(0), Fraction(-1, 2), "0"])
    def test_radicand_must_be_positive(self, t):
        with pytest.raises(ValueError, match="radicand"):
            QuadExt(1, 1, t)

    def test_fractions_are_kept_not_copied(self):
        rat, rad, t = Fraction(1, 3), Fraction(2, 5), Fraction(7, 2)
        x = QuadExt(rat, rad, t)
        assert x.rat is rat and x.rad is rad and x.t is t

    def test_other_values_become_fractions(self):
        x = QuadExt(1, "2/3", 5)
        assert (type(x.rat), type(x.rad), type(x.t)) == (Fraction,) * 3
        assert (x.rat, x.rad, x.t) == (1, Fraction(2, 3), 5)


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
        assert combination(1, qe(0, 1, 8), 1, qe(0, 1, 2)) == qe(0, 3, 2)
        assert combination(1, qe(0, 1, 2), 1, qe(0, 1, 8)) == qe(0, 3, 2)
        assert product(qe(0, 1, 8), qe(0, 1, 2)) == qe(4)
        assert combination(1, qe(0, 1, 8), -1, qe(0, 2, 2)).is_zero()

    def test_only_other_has_a_sqrt_part(self):
        # a rational self is compared over the other's radicand: sqrt(1) = 1
        assert (qe(1, 0, 2) == qe(0, 1, 1)) is True
        assert (qe(1, 0, 2) == qe(0, 1, 3)) is False

    def test_non_square_ratio_still_rejected(self):
        with pytest.raises(MismatchedRadicand):
            qe(0, 1, 8)._align(qe(0, 1, 3))
        # unequal, and no raise: __eq__ fails closed
        assert qe(0, 1, 2) != qe(0, 1, 3)
        assert not qe(0, 1, 8) == qe(1, 1, 3)


scales = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)


@given(small_rationals, small_rationals, st.integers(2, 7), scales)
def test_rescaled_radicand_is_the_same_value(rat, rad, t, s):
    # rad*sqrt(t) = (rad/s)*sqrt(s^2 t)
    x, y = qe(rat, rad, t), qe(rat, rad / s, s * s * t)
    assert x == y and y == x
    assert hash(x) == hash(y)
    # written over x's radicand, y has x's own parts
    over, u = x._align(y)
    assert (over.rat, over.rad, u) == (rat, rad, t)


positive_rationals = st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20)


@given(small_rationals, positive_rationals, positive_rationals)
def test_zero_hashes_as_zero(r, s, t):
    # -r*s + r*sqrt(s^2) is zero with a nonzero sqrt-part when r != 0
    for zero in (QuadExt(0, 0, t), QuadExt(-r * s, r, s * s)):
        assert zero == 0 and zero.is_zero()
        assert hash(zero) == hash(0)


def test_equality_with_another_type_is_false():
    assert (QuadExt(1, 2, 3) == "x") is False


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

    @staticmethod
    def reference(rat, rad, t):
        """QuadExt.is_zero as it was written on the value's own fields."""
        if rat == 0 and rad == 0:
            return True
        if rat == 0 or rad == 0:
            return False
        return (rat > 0) != (rad > 0) and rat * rat == rad * rad * t

    PARTS = [0, 1, -1, 2, -2, 3, -3, Fraction(3, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-1, 3)]
    # perfect squares (1, 4, 9/4, 1/9) among them
    RADICANDS = [Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 9), Fraction(2), Fraction(1, 2),
                 Fraction(9, 8), Fraction(4, 9)]

    def test_rule_matches_the_reference(self):
        zeros = 0
        for t in self.RADICANDS:
            tn, td = t.as_integer_ratio()
            for rat in self.PARTS:
                for rad in self.PARTS:
                    want = self.reference(Fraction(rat), Fraction(rad), t)
                    zeros += want
                    assert qe(rat, rad, t).is_zero() is want
                    # ints and Fractions, (tn, td) in lowest terms and not
                    for k in (1, 2, 6):
                        assert scalars._is_zero(rat, rad, k * tn, k * td) is want
                        assert scalars._is_zero(Fraction(rat), Fraction(rad), k * tn, k * td) is want
        # 0 + 0 sqrt(t) for each t, and every cancellation over a square t
        assert zeros > len(self.RADICANDS)


@given(rationals, rationals, rationals)
def test_rational_arithmetic_is_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(small_rationals, small_rationals)
def test_x_minus_x_is_zero(rat, rad):
    x = QuadExt(rat, rad, Fraction(2))
    assert combination(1, x, -1, x).is_zero()


@given(small_rationals, small_rationals, small_rationals, small_rationals)
def test_zero_absorbs_products(a, b, c, d):
    x = QuadExt(a, b, Fraction(3))
    y = QuadExt(c, d, Fraction(3))
    if x.is_zero():
        assert product(x, y).is_zero()


def test_quadext_has_no_arithmetic():
    """QuadExt is a value: it has no operators, so no code in the package
    can add, subtract or multiply two of them."""
    for name in ("_coerce", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert not hasattr(QuadExt, name), name


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


# every reader of a rational that a caller hands in, and the value it
# gives for an input read as v
_READERS = {
    "QuadraticForm": (lambda x: QuadraticForm([[x]]).matrix[0][0], lambda v: v),
    "HomogeneousPoly": (lambda x: HomogeneousPoly(1, 1, {(1,): x}).terms[(1,)], lambda v: v),
    "QuadExt": (QuadExt, lambda v: v),
    "evaluate": (lambda x: evaluate(QuadraticForm([[1]]), [x]), lambda v: v * v),
    "HomogeneousPoly.evaluate": (lambda x: HomogeneousPoly(1, 1, {(1,): 1}).evaluate([x]), lambda v: v),
    "parse_rational": (parse_rational, lambda v: v),
}


def _outcome(read, x):
    """The value read gives for x, or its FormatError's message with an
    entry's or a term's name taken off."""
    try:
        return read(x)
    except FormatError as exc:
        return re.sub(r"^(entry \(\d+,\d+\)|term \d+): ", "", str(exc))


@pytest.mark.parametrize(
    "x, want",
    [
        (0.5, "not a rational: 0.5"),
        (True, "not a rational: True"),
        (Decimal("0.5"), "not a rational: Decimal('0.5')"),
        (None, "not a rational: None"),
        ("x", "not a rational: 'x'"),
        ("1e5000", "exponent out of range (|e| > 4300): '1e5000'"),
        ("1/2", Fraction(1, 2)),
        (" 3 ", Fraction(3)),
        ("7/14", Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ],
    ids=repr,
)
def test_one_reader_for_every_caller_value(x, want):
    """Constructors, evaluators, QuadExt and parse_rational read a value
    alike: the same rational, or the same FormatError."""
    got = {name: _outcome(read, x) for name, (read, _) in _READERS.items()}
    expected = {name: want if isinstance(want, str) else value(want) for name, (_, value) in _READERS.items()}
    assert got == expected


def test_a_bool_equals_no_quadext():
    assert (QuadExt(1) == True) is False  # noqa: E712
    assert (False == QuadExt(0)) is False  # noqa: E712
    assert QuadExt(1) != True  # noqa: E712
    assert QuadExt(1) == 1 and QuadExt(0) == Fraction(0)


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
