"""Exact scalar arithmetic.

Rational numbers are plain ``fractions.Fraction`` values (arbitrary
precision, always reduced, positive denominator).  On top of them sits
``QuadExt``, the value a + b*sqrt(t) of a real quadratic extension with a
positive rational radicand t.  The radicand may be a perfect square; the
zero test handles that case through the general condition rather than by
simplifying the root away.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormatError, MismatchedRadicand

Rational = Fraction


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
    """Canonical "n/d" (or "n" when the denominator is 1)."""
    return str(Fraction(x))


class QuadExt:
    """a + b*sqrt(t) with rational a, b and fixed positive rational t.

    Two values combine when their radicands agree, when one of them has a
    zero sqrt-part, or when the radicands differ by a rational square
    factor (sqrt(8) = 2*sqrt(2)).  Division is deliberately absent: the
    certificate checks only ever add, multiply, and test for zero.
    """

    __slots__ = ("rat", "rad", "t")

    def __init__(self, rat=0, rad=0, t=1):
        rat = Fraction(rat)
        rad = Fraction(rad)
        t = Fraction(t)
        if t <= 0:
            raise ValueError(f"radicand must be positive, got {t}")
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "rad", rad)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    @staticmethod
    def _coerce(value, t):
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt(value, 0, t)
        return NotImplemented

    def _join_t(self, other: "QuadExt") -> Fraction:
        if self.rad != 0 and other.rad != 0 and self.t != other.t:
            raise MismatchedRadicand(
                f"cannot combine sqrt({self.t}) with sqrt({other.t})"
            )
        if self.rad != 0:
            return self.t
        if other.rad != 0:
            return other.t
        return self.t

    def _over_own_t(self, other: "QuadExt") -> "QuadExt":
        """other rewritten over self.t, when t'/t is a rational square s^2:
        b*sqrt(t') = (b*s)*sqrt(t)."""
        s = _exact_sqrt(other.t / self.t)
        if s is None:
            raise MismatchedRadicand(
                f"cannot combine sqrt({self.t}) with sqrt({other.t})"
            )
        return QuadExt(other.rat, other.rad * s, self.t)

    def __add__(self, other):
        other = self._coerce(other, self.t)
        if other is NotImplemented:
            return NotImplemented
        try:
            t = self._join_t(other)
        except MismatchedRadicand:  # kept off the common, equal-radicand path
            other, t = self._over_own_t(other), self.t
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
        try:
            t = self._join_t(other)
        except MismatchedRadicand:
            other, t = self._over_own_t(other), self.t
        # (a + b sqrt t)(c + d sqrt t) = (ac + bd t) + (ad + bc) sqrt t
        return QuadExt(
            self.rat * other.rat + self.rad * other.rad * t,
            self.rat * other.rad + self.rad * other.rat,
            t,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = QuadExt(1, 0, self.t)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        """Exact zero test, valid even when t is a perfect square."""
        if self.rat == 0 and self.rad == 0:
            return True
        if self.rat == 0 or self.rad == 0:
            return False
        opposite = (self.rat > 0) != (self.rad > 0)
        return opposite and self.rat * self.rat == self.rad * self.rad * self.t

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
        root = _exact_sqrt(self.t)
        if root is not None:
            return hash(self.rat + self.rad * root)
        return hash((self.rat, self.rad * self.rad * self.t, self.rad > 0))

    def to_float(self) -> float:
        return float(self.rat) + float(self.rad) * float(self.t) ** 0.5

    def __repr__(self):
        return f"QuadExt({self.rat!r}, {self.rad!r}, t={self.t!r})"

    def __str__(self):
        return render_quadext(self)


def _exact_sqrt(t: Fraction):
    """Rational square root of t, or None when t is not a perfect square."""
    from math import isqrt

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


def parse_quadext(text: str) -> QuadExt:
    """Inverse of render_quadext (bit-exact for rendered values)."""
    text = text.strip()
    if "sqrt(" not in text:
        return QuadExt(parse_rational(text))
    try:
        rat_part, rest = text.split(" + ", 1)
        rad_part, t_part = rest.split("*sqrt(", 1)
        if not t_part.endswith(")"):
            raise ValueError(text)
        return QuadExt(
            parse_rational(rat_part),
            parse_rational(rad_part),
            parse_rational(t_part[:-1]),
        )
    except (ValueError, FormatError) as exc:
        raise FormatError(f"not a quadratic-extension value: {text!r}") from exc
