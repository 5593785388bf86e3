"""Exact scalars: reading, rendering and comparing them.

Rational numbers are plain ``fractions.Fraction`` values (arbitrary
precision, always reduced, positive denominator).  On top of them sits
``QuadExt``, the value a + b*sqrt(t) of a real quadratic extension with a
positive rational radicand t; the evaluators compute such values in ints.  The radicand may be a perfect square; the
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


def _read_entry(x):
    """(num, den), den > 0, of an exact rational a caller hands in: the
    one reader of matrix entries, polynomial coefficients, point
    coordinates, QuadExt parts and parse_rational, from a JSON file or a
    library call.  An int is read as it is, and text as int() reads it,
    or as "n/d" with int() on each side of the slash; int() also takes a
    space or a sign beside the slash, and Fraction() does not, so a digit
    must stand on either side of it.  Any other text (decimals, exponents)
    is read by Fraction(), with |exponent| <= MAX_EXPONENT.  A Fraction,
    or an int subclass other than bool, is read by its ratio.  A float, a
    bool, a Decimal or any other value is no exact rational and raises
    FormatError."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        try:
            if "/" not in x:
                return int(x), 1
            num, den = x.split("/", 1)
            if num[-1:].isdigit() and den[:1].isdigit():
                d = int(den)
                if d:
                    return int(num), d
        except ValueError:
            pass
        try:
            _, e, exponent = x.lower().partition("e")
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise FormatError(f"exponent out of range (|e| > {MAX_EXPONENT}): {x!r}")
            return Fraction(x.strip()).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {x!r}") from exc
    if isinstance(x, Fraction) or isinstance(x, int) and not isinstance(x, bool):
        return x.as_integer_ratio()
    raise FormatError(f"not a rational: {x!r}")


def parse_rational(x) -> Fraction:
    """The Fraction of x as _read_entry reads it: an int, a Fraction, or
    text such as "n/d", "n" or "1.5e-3"."""
    return x if type(x) is Fraction else Fraction(*_read_entry(x))


def render_rational(x: Fraction) -> str:
    """Canonical "n/d" (or "n" when the denominator is 1), exact at any
    size: str(int) refuses more than 4300 digits, str(Decimal(int)) does
    not, and reads the same."""
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
    """The value a + b*sqrt(t) with rational a, b and positive rational t:
    a certificate's coordinates and values.  It is a value, with no
    arithmetic: it tests for zero, compares, hashes and renders.  The
    evaluators compute in ints (forms._read_point writes a point of
    QuadExt entries over one radicand) and make a QuadExt of the result.
    Each part is read by parse_rational, which keeps a Fraction as it is,
    so QuadExt(x) takes what a matrix entry takes and refuses a float or
    a bool; a bool is not equal to any QuadExt.

    Two values are written over one radicand when their radicands agree,
    when one of them has a zero sqrt-part, or when the radicands differ by
    a rational square factor (sqrt(8) = 2*sqrt(2)); see _align.
    """

    __slots__ = ("rat", "rad", "t")

    def __init__(self, rat=0, rad=0, t=1):
        rat, rad, t = parse_rational(rat), parse_rational(rad), parse_rational(t)
        if t <= 0:
            raise ValueError(f"radicand must be positive, got {t}")
        _set(self, "rat", rat)
        _set(self, "rad", rad)
        _set(self, "t", t)

    def _align(self, other: "QuadExt"):
        """(other, t): the radicand t of self and other together, and
        other written over it, by _join."""
        return _join(self.rad, self.t, other)

    def is_zero(self) -> bool:
        """Exact zero test, valid even when t is a perfect square."""
        return _is_zero(self.rat, self.rad, *self.t.as_integer_ratio())

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        # a bool is no number here: QuadExt(1) == True is False
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = QuadExt(other, 0, self.t)
        elif not isinstance(other, QuadExt):
            return NotImplemented
        # the same parts over the same radicand: equal, and no Fraction made
        if self.t == other.t and self.rat == other.rat and self.rad == other.rad:
            return True
        try:
            other, t = self._align(other)
        except MismatchedRadicand:
            return False
        return _is_zero(self.rat - other.rat, self.rad - other.rad, *t.as_integer_ratio())

    def __hash__(self):
        # Hash by real value: collapse perfect-square radicands, and key
        # b*sqrt(t) by b^2*t and the sign of b, which every radicand
        # written for the same value shares.  A zero value has b = 0 or a
        # square t, so it hashes as hash(0) by one of the first two.
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


def _join(rad, t, other: QuadExt):
    """(other, t'): the radicand t' of a value with sqrt-part rad over t
    and of the QuadExt other together, and other written over it; the one
    radicand rule, which QuadExt._align applies to two values and the
    witness re-check to a value it computed and one a witness carries.
    t' is t unless only other has a nonzero sqrt-part; when both do and
    the radicands differ, other is rewritten over t, which needs
    other.t / t to be a rational square s^2: b*sqrt(t') = (b*s)*sqrt(t).
    Otherwise it raises MismatchedRadicand.  A radicand over which other
    is already written makes no Fraction and no QuadExt."""
    if not other.rad or other.t == t:
        return other, t
    if not rad:
        return other, other.t
    s = exact_sqrt(other.t / t)
    if s is None:
        raise MismatchedRadicand(f"cannot combine sqrt({t}) with sqrt({other.t})")
    return QuadExt(other.rat, other.rad * s, t), t


def _sqrt_ratio(num: int, den: int):
    """(rn, rd), ints in lowest terms with rn / rd the square root of
    num / den, for ints num >= 0 and den > 0, or None when num / den is
    not the square of a rational; no Fraction is made."""
    g = gcd(num, den)
    num, den = num // g, den // g
    rn, rd = isqrt(num), isqrt(den)
    return (rn, rd) if rn * rn == num and rd * rd == den else None


def exact_sqrt(t: Fraction):
    """Rational square root of t > 0, or None when t is not a perfect
    square."""
    root = _sqrt_ratio(*t.as_integer_ratio())
    return None if root is None else Fraction(*root)


# the radicand of a rational value, made once: pullback folds a square
# radicand into its point and gives it this one
_ONE = Fraction(1)
# a decision's zero parts, made once: q's value at a witness, and the
# sqrt-part of a rational value; QuadExt keeps a Fraction part as it is
_ZERO = Fraction(0)


def render_quadext(x: QuadExt) -> str:
    """"a + b*sqrt(t)"; collapses to the plain rational when b = 0."""
    if x.rad == 0:
        return render_rational(x.rat)
    return f"{render_rational(x.rat)} + {render_rational(x.rad)}*sqrt({render_rational(x.t)})"
