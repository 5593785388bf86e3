"""Exact scalar arithmetic.

Rational numbers are plain ``fractions.Fraction`` values (arbitrary
precision, always reduced, positive denominator).  On top of them sits
``QuadExt``, the value a + b*sqrt(t) of a real quadratic extension with a
positive rational radicand t.  The radicand may be a perfect square; the
zero test handles that case through the general condition rather than by
simplifying the root away.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

from .errors import FormatError, MismatchedRadicand
from .record import Record, _set


# Python already refuses to read an int of more digits than this from text;
# a decimal exponent is held to the same size, so "1e100000000" cannot
# expand into a hundred-million-digit integer.
MAX_EXPONENT = 4300


def parse_rational(text) -> Fraction:
    """Parse "n/d" or "n" (also accepts plain ints from JSON), or a
    decimal such as "1.5e-3" with |exponent| <= MAX_EXPONENT."""
    if isinstance(text, bool):
        raise FormatError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            _, e, exponent = text.lower().partition("e")
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise FormatError(
                    f"exponent out of range (|e| > {MAX_EXPONENT}): {text!r}"
                )
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {text!r}") from exc
    raise FormatError(f"not a rational: {text!r}")


def render_rational(x: Fraction) -> str:
    """Canonical "n/d" (or "n" when the denominator is 1), exact at any
    size: str(int) refuses more than 4300 digits, str(Decimal(int)) does
    not, and reads the same."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return _render(*x.as_integer_ratio())


def render_ratio(num: int, den: int) -> str:
    """render_rational(Fraction(num, den)) for ints num and den > 0,
    without making the Fraction."""
    g = gcd(num, den)
    return _render(num // g, den // g)


def _render(num, den):
    if den == 1:
        return str(Decimal(num))
    return f"{Decimal(num)}/{Decimal(den)}"


class QuadExt(Record):
    """a + b*sqrt(t) with rational a, b and fixed positive rational t.

    Two values combine when their radicands agree, when one of them has a
    zero sqrt-part, or when the radicands differ by a rational square
    factor (sqrt(8) = 2*sqrt(2)).  Division is deliberately absent: the
    certificate checks only ever add, multiply, and test for zero.
    """

    __slots__ = ("rat", "rad", "t")

    def __init__(self, rat=0, rad=0, t=1):
        # most arguments are already Fractions; re-wrapping one copies it
        rat = rat if type(rat) is Fraction else Fraction(rat)
        rad = rad if type(rad) is Fraction else Fraction(rad)
        t = t if type(t) is Fraction else Fraction(t)
        if t <= 0:
            raise ValueError(f"radicand must be positive, got {t}")
        _set(self, "rat", rat)
        _set(self, "rad", rad)
        _set(self, "t", t)

    @staticmethod
    def _coerce(value, t):
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt(value, 0, t)
        return NotImplemented

    def _align(self, other: "QuadExt"):
        """(other, t): the radicand t of a sum or product with other, and
        other written over it.  t is self's radicand unless only other has
        a nonzero sqrt-part; when both do and the radicands differ, other
        is rewritten over self.t, which needs t'/t to be a rational square
        s^2: b*sqrt(t') = (b*s)*sqrt(t)."""
        if not other.rad or other.t == self.t:
            return other, self.t
        if not self.rad:
            return other, other.t
        s = exact_sqrt(other.t / self.t)
        if s is None:
            raise MismatchedRadicand(
                f"cannot combine sqrt({self.t}) with sqrt({other.t})"
            )
        return QuadExt(other.rat, other.rad * s, self.t), self.t

    def __add__(self, other):
        other = self._coerce(other, self.t)
        if other is NotImplemented:
            return NotImplemented
        other, t = self._align(other)
        return QuadExt(self.rat + other.rat, self.rad + other.rad, t)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.rat, -self.rad, self.t)

    def __sub__(self, other):
        other = self._coerce(other, self.t)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other, self.t)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other, self.t)
        if other is NotImplemented:
            return NotImplemented
        other, t = self._align(other)
        # (a + b sqrt t)(c + d sqrt t) = (ac + bd t) + (ad + bc) sqrt t
        return QuadExt(
            self.rat * other.rat + self.rad * other.rad * t,
            self.rat * other.rad + self.rad * other.rat,
            t,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """Exact zero test, valid even when t is a perfect square."""
        return _is_zero(self.rat, self.rad, *self.t.as_integer_ratio())

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = self._coerce(other, self.t)
        if other is NotImplemented:
            return NotImplemented
        try:
            return (self - other).is_zero()
        except MismatchedRadicand:
            return False

    def __hash__(self):
        # Hash by real value: collapse perfect-square radicands, and key
        # b*sqrt(t) by b^2*t and the sign of b, which every radicand
        # written for the same value shares.
        if self.is_zero():
            return hash(Fraction(0))
        if self.rad == 0:
            return hash(self.rat)
        root = exact_sqrt(self.t)
        if root is not None:
            return hash(self.rat + self.rad * root)
        return hash((self.rat, self.rad * self.rad * self.t, self.rad > 0))

    def __repr__(self):
        return f"QuadExt({self.rat!r}, {self.rad!r}, t={self.t!r})"

    def __str__(self):
        return render_quadext(self)


def _is_zero(rat, rad, tn, td) -> bool:
    """Whether rat + rad*sqrt(tn / td) is zero, for rat and rad ints or
    Fractions and ints tn, td > 0, in lowest terms or not: both parts are
    zero, or they have opposite signs and rat^2 td = rad^2 tn.  Exact even
    when tn / td is a perfect square."""
    if not rad:
        return not rat
    return (rat < 0) != (rad < 0) and rat * rat * td == rad * rad * tn


def exact_sqrt(t: Fraction):
    """Rational square root of t, or None when t is not a perfect square."""
    num, den = t.numerator, t.denominator
    if num < 0:
        return None
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def render_quadext(x: QuadExt) -> str:
    """"a + b*sqrt(t)"; collapses to the plain rational when b = 0."""
    if x.rad == 0:
        return render_rational(x.rat)
    return f"{render_rational(x.rat)} + {render_rational(x.rad)}*sqrt({render_rational(x.t)})"
