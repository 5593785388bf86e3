"""Homogeneous polynomials with exact rational coefficients.

Divisibility of a homogeneous polynomial by an indefinite quadratic is a
complete decision for real zero-set containment: the quotient certifies
containment, and a nonzero remainder guarantees a real null-cone point
where the polynomial does not vanish.  A deterministic sweep of cone
points in Q(sqrt(t)), complete by polynomial identity testing (Schwartz
1980; Alon 1999, "Combinatorial Nullstellensatz"), finds such a point and
attaches it to the refutation as a concrete witness.

A polynomial holds its coefficients as Python ints over one positive
denominator, reduced so that the gcd of the denominator and every
numerator is 1.  The parser and the division work in those ints; the
{exponent: Fraction} map `terms` is built only when something reads it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb, gcd

from .errors import (
    CertificateRejected,
    DegreeMismatch,
    DimensionMismatch,
    FormatError,
    NoWitnessFound,
    NotIndefinite,
)
from .containment import Counterexample, WitnessVector, _holds
from .forms import (
    CongruenceDiagonalization,
    QuadraticForm,
    classify,
    congruence_diagonalize,
    _common_denominator,
    _read_point,
)
from .forms import evaluate as form_eval
from .record import Record, _set, lazy
from .scalars import QuadExt, _read_entry, render_ratio

# The degree is the one field of a polynomial file whose cost (division,
# the witness sweep's grid, power tables) does not grow with the file.
MAX_DEGREE = 100
# The number of monomials of one degree, C(degree + nvars - 1, nvars - 1),
# bounds the quotient, the remainder and the steps of a division, however
# few terms the file holds.  At 75,000 the division of a dense quadratic
# into x1^degree takes about 1 s (nvars 6, 8 and 12 on a 2-core Xeon,
# Python 3.11).
MAX_MONOMIALS = 75_000


def _grlex_key(exp):
    return (sum(exp), exp)


class HomogeneousPoly(Record):
    """Exponent-vector -> coefficient map, all terms of one total degree,
    held as nonzero ints _ints over one positive denominator _den."""

    __slots__ = ("nvars", "degree", "_ints", "_den", "_terms")
    _fields = ("nvars", "degree", "terms")

    def __init__(self, nvars, degree, terms):
        # a mapping's items, or the pairs as given: a repeated exponent is
        # refused, not overwritten
        self._fill(nvars, degree, _term_ratios(nvars, degree, terms.items() if hasattr(terms, "items") else terms))

    def _fill(self, nvars, degree, ratios):
        den, ints = _common_denominator(ratios)
        _set(self, "nvars", nvars)
        _set(self, "degree", degree)
        _set(self, "_ints", ints)
        _set(self, "_den", den)

    @classmethod
    def _from_ints(cls, nvars, degree, ratios):
        """The polynomial sum x/d x^e over ratios {d: {e: x}} of nonzero
        ints x and d > 0, written over one denominator by
        forms._common_denominator; no validation."""
        poly = cls.__new__(cls)
        poly._fill(nvars, degree, ratios)
        return poly

    def __reduce__(self):
        # past the file bounds the checking constructor refuses a
        # polynomial that qformkit built itself: rebuild from the ints
        return HomogeneousPoly._from_ints, (self.nvars, self.degree, {self._den: self._ints})

    @lazy
    def terms(self):
        """{exponent tuple: Fraction}, built the first time it is read."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._ints.items()}

    def is_zero(self):
        return not self._ints

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPoly)
            and self.nvars == other.nvars
            and self._den == other._den
            and self._ints == other._ints
            and (self.is_zero() or self.degree == other.degree)
        )

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._ints.items())))

    def evaluate(self, x):
        """Value at a forms.Point, or a point of ints, Fractions or QuadExt
        entries: a QuadExt when the point has a radicand t, that is when
        an entry is a QuadExt, else a Fraction.

        forms._read_point writes entry i as (a_i + b_i sqrt(t)) / D, and
        with t = tn / td and s = tn td that is (a_i td + b_i sqrt(s)) /
        (D td).  So the sum over the int coefficients runs on int pairs
        (p, q), meaning p + q sqrt(s), with (p, q)(p', q') =
        (pp' + s qq', pq' + qp'), from one table of the powers each
        coordinate needs.  Every term has degree k, so the summed pair is
        divided once, by (D td)^k den, and sqrt(s) = td sqrt(t)."""
        if len(x) != self.nvars:
            raise DimensionMismatch(
                f"point length {len(x)} != nvars {self.nvars}"
            )
        x = _read_point(x)
        tn, td = (1, 1) if x.t is None else x.t.as_integer_ratio()
        s = tn * td
        points = [(a * td, b) for a, b in zip(x.a, x.b)]
        tops = [max(col) for col in zip(*self._ints)] or [0] * self.nvars
        powers = []
        for (p, q), top in zip(points, tops):
            row = [(1, 0)]
            for _ in range(top):
                u, v = row[-1]
                row.append((u * p + s * v * q, u * q + v * p))
            powers.append(row)
        rat = rad = 0
        for exp, c in self._ints.items():
            u, v = c, 0
            for row, e in zip(powers, exp):
                if e:
                    p, q = row[e]
                    u, v = u * p + s * v * q, u * q + v * p
            rat += u
            rad += v
        big = (x.d * td) ** self.degree * self._den
        return Fraction(rat, big) if x.t is None else QuadExt(Fraction(rat, big), Fraction(rad * td, big), x.t)

    def __repr__(self):
        return f"HomogeneousPoly({self.nvars}, {self.degree}, {self.terms!r})"

    def _rendered_terms(self):
        """(exponent, rendered coefficient) in descending graded lex,
        read from the ints without building terms."""
        ints, den = self._ints, self._den
        return [(e, render_ratio(ints[e], den)) for e in sorted(ints, key=_grlex_key, reverse=True)]

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in self._rendered_terms():
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e
            )
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts)


class DivisionResult(Record):
    """r = q*quotient + remainder, with no remainder monomial divisible by
    the leading monomial of q."""

    __slots__ = ("quotient", "remainder")


def poly_from_form(q: QuadraticForm) -> HomogeneousPoly:
    """Degree-2 polynomial evaluating identically to the form: Q_ii on
    x_i^2 and 2*Q_ij on x_i x_j for i < j."""
    n = q.dim
    den, rows = q.den, q.ints
    ints = {}
    for i in range(n):
        for j in range(i, n):
            coef = rows[i][j] if i == j else 2 * rows[i][j]
            if coef:
                exp = [0] * n
                exp[i] += 1
                exp[j] += 1
                ints[tuple(exp)] = coef
    return HomogeneousPoly._from_ints(n, 2, {den: ints})


def reduce_by_quadratic(r: HomogeneousPoly, q: HomogeneousPoly) -> DivisionResult:
    """Single-divisor multivariate division under graded lex order.

    The remainder is zero iff q divides r: a single polynomial is its own
    normal-form basis for the principal ideal it generates, so this is a
    complete divisibility decision.

    The leading term of the work polynomial comes off a heap (Monagan &
    Pearce 2007) instead of a rescan of every term, so a division costs
    O(T log T) rather than O(T^2) in the term count T.  An exponent is
    pushed each time it enters the work dict; a popped exponent that has
    since cancelled out of it is skipped.  Every term a step adds lies
    below the term it removes, so no exponent is processed twice.

    The division runs on r's and q's integer numerators.  Each exponent
    vector is packed into one int, x1 in the most significant field, with
    a guard bit on top of every field (Monagan & Pearce's packed exponent
    vectors).  All terms of r have one degree, so graded lex is integer
    order, a monomial product or quotient is an int sum or difference,
    and the leading monomial L of q divides e exactly when e - L borrows
    into no guard bit.  A step divides by q's leading integer coefficient
    c; where c does not divide the coefficient, the work, quotient and
    remainder dicts are first multiplied by the missing factor, and the
    scale S records the product (lazy pseudo-division, Knuth, TAOCP 2,
    4.6.1).  So S * r_ints = q_ints * quotient + remainder, and one gcd
    reduces each result over the denominators S * den(r) and den(q).
    """
    if q.is_zero() or q.degree != 2:
        raise DegreeMismatch("divisor must be a nonzero quadratic")
    if r.nvars != q.nvars:
        raise DimensionMismatch("variable counts differ")
    n = r.nvars
    width = max(r.degree, 2).bit_length() + 1
    shifts = [width * (n - 1 - i) for i in range(n)]
    guard = sum(1 << (s + width - 1) for s in shifts)

    def pack(exp):
        key = 0
        for e in exp:
            key = (key << width) | e
        return key

    (lead, lead_coef), *tail = sorted([(pack(e), c) for e, c in q._ints.items()], reverse=True)
    quotient = {}
    remainder = {}
    scale = 1
    work = {pack(e): c for e, c in r._ints.items()}
    heap = [-key for key in work]
    heapify(heap)
    while heap:
        key = -heappop(heap)
        coef = work.pop(key, None)
        if coef is None:
            continue  # cancelled since it was pushed
        qkey = key - lead
        if qkey & guard:
            remainder[key] = coef
            continue
        if coef % lead_coef:
            m = abs(lead_coef) // gcd(coef, lead_coef)
            for part in (work, quotient, remainder):
                for k in part:
                    part[k] *= m
            coef *= m
            scale *= m
        qcoef = coef // lead_coef
        quotient[qkey] = qcoef
        for off, c2 in tail:
            e = qkey + off
            old = work.get(e)
            if old is None:
                work[e] = -qcoef * c2
                heappush(heap, -e)
            else:
                new = old - qcoef * c2
                if new:
                    work[e] = new
                else:
                    del work[e]
    field = (1 << width) - 1

    def unpack(part, factor):
        return {tuple([key >> s & field for s in shifts]): c * factor for key, c in part.items()}

    den = scale * r._den
    return DivisionResult(
        quotient=HomogeneousPoly._from_ints(n, max(r.degree - 2, 0), {den: unpack(quotient, q._den)}),
        remainder=HomogeneousPoly._from_ints(n, r.degree, {den: unpack(remainder, 1)}),
    )


class Divisible(Record):
    __slots__ = ("quotient",)

    def to_json(self):
        return {"verdict": "divisible", "quotient": poly_to_json(self.quotient)}


class ConePointWitness(Counterexample):
    """The refutation of poly-contain: a real cone point of q where r is
    nonzero."""

    # Record derives the fields from the class's own __slots__, empty here
    __slots__ = ()
    _fields = ("witness",)
    _label = "witness"


def sample_cone_point(diag_q: CongruenceDiagonalization, h, sign):
    """The second point where the line through c and h meets the null
    cone of q, in original coordinates, as the forms.Point pullback
    returns; exactly null, one radicand t.

    In the frame B^T Q B = diag(d), with p the first positive index, n
    the first negative one and t = d_p / -d_n, c = e_p + sign*sqrt(t) e_n
    is null.  Along the line, q(c + s h) = 2 s beta + s^2 delta with
    delta = sum d_i h_i^2 and beta = d_p h_p + sign*sqrt(t) d_n h_n, so
    v = delta*c - 2*beta*h is null, and Bv is returned.  c is null only
    for sign +-1, so another sign raises ValueError, and an h whose length
    is not q's dimension raises DimensionMismatch.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    if len(h) != diag_q.dim:
        raise DimensionMismatch(f"h has {len(h)} entries, q has dim {diag_q.dim}")
    if diag_q.lead is None:
        raise NotIndefinite("a cone point needs an indefinite form")
    d = diag_q.diag
    (p, *_), (n, *_), _ = diag_q.inertia.blocks
    delta = sum(di * hi * hi for di, hi in zip(d, h))
    rat = [-2 * d[p] * h[p] * hi for hi in h]
    rad = [-2 * d[n] * h[n] * hi for hi in h]
    rat[p] += delta
    rad[n] += delta
    t = d[p] / -d[n]
    return diag_q.pullback([(a, x, sign * y) for a, (x, y) in enumerate(zip(rat, rad))], t)


def _grid(n, size):
    """Every h in {1, ..., size}^n, by increasing coordinate sum: each
    sum's n - 1 cut points split it into n positive parts."""
    for total in range(n, n * size + 1):
        for cuts in combinations(range(1, total), n - 1):
            h = tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
            if max(h) <= size:
                yield h


def decide_containment_homogeneous(q: QuadraticForm, r: HomogeneousPoly):
    """Divisible(s) with r = q*s, or a real cone-point witness of
    non-containment, from a sweep that is complete: h -> v of
    sample_cone_point reaches every cone point off the tangent hyperplane
    at c, and for a rank-2 q the two signs put c on both planes of the
    cone.  So if q does not divide r, r(Bv) is for one sign a nonzero
    polynomial in h of degree <= 2 deg r, which cannot vanish on all of
    {1, ..., 2 deg r + 1}^n.  NoWitnessFound is unreachable.

    r = q*s + rem for the division's quotient s and remainder rem, and q
    vanishes at every swept point, so the sweep evaluates rem, which has
    no more terms than r and usually far fewer: r(v) = rem(v) there."""
    if q.dim != r.nvars:
        raise DimensionMismatch(f"form dim {q.dim} != poly nvars {r.nvars}")
    dq = congruence_diagonalize(q)
    if dq.lead is None:
        raise NotIndefinite("the quadratic divisor must be indefinite")
    division = reduce_by_quadratic(r, poly_from_form(q))
    rem = division.remainder
    if rem.is_zero():
        return Divisible(division.quotient)
    for h in _grid(r.nvars, 2 * r.degree + 1):
        for sign in (1, -1):
            point = sample_cone_point(dq, h, sign)
            r_val = rem.evaluate(point)
            # v = 0 for at most one sign, and r(0) != 0 only for a constant r
            if not r_val.is_zero() and any(point.a + point.b):
                q_val = form_eval(q, point)
                if not q_val.is_zero():
                    raise CertificateRejected("swept point is off the null cone of q")
                return ConePointWitness(WitnessVector(point, q_val, r_val))
    raise NoWitnessFound("no swept cone point separates r, yet q does not divide r")


def verify_poly_witness(q: QuadraticForm, r: HomogeneousPoly, w: WitnessVector) -> bool:
    """Independent recheck: q vanishes at the witness, r does not, and
    each value equals the one the witness carries."""
    return _holds(q, w, r.evaluate)


# --- polynomial exchange format ----------------------------------------------


def poly_from_json(obj) -> HomogeneousPoly:
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object with 'nvars', 'degree', 'terms'")
    try:
        nvars, degree, terms = obj["nvars"], obj["degree"], obj["terms"]
    except KeyError as exc:
        raise FormatError(f"missing key {exc}") from exc

    def pairs():
        if not isinstance(terms, list):
            raise FormatError("'terms' must be a list")
        for i, term in enumerate(terms):
            if not isinstance(term, dict) or "exp" not in term or "coef" not in term:
                raise FormatError(f"term {i} must have 'exp' and 'coef'")
            yield term["exp"], term["coef"]

    return HomogeneousPoly(nvars, degree, pairs())


def _term_ratios(nvars, degree, pairs):
    """{d: {exponent tuple: x}} of the nonzero coefficients x / d, d > 0,
    of the (exponent, coefficient) pairs of a polynomial in nvars
    variables of one degree, from a JSON file or a constructor.  nvars is
    an int >= 1 and degree an int in 0..MAX_DEGREE, with at most
    MAX_MONOMIALS monomials between them; both are checked before pairs
    is read.  Every term is checked, zero or not: its exponents are nvars
    ints >= 0 that sum to degree, and no other term has them; the
    coefficient is read by scalars._read_entry.  An error names its term."""
    # type(), not isinstance(): JSON true and false are no count or degree
    if type(nvars) is not int or nvars < 1:
        raise FormatError(f"'nvars' must be a positive integer, got {nvars!r}")
    if type(degree) is not int or not 0 <= degree <= MAX_DEGREE:
        raise FormatError(
            f"'degree' must be an integer in 0..{MAX_DEGREE}, got {degree!r}"
        )
    monomials = comb(degree + nvars - 1, nvars - 1)
    if monomials > MAX_MONOMIALS:
        raise FormatError(
            f"{nvars} variables of degree {degree} have {monomials} monomials, "
            f"more than {MAX_MONOMIALS}"
        )
    seen = set()
    ratios = {}
    for i, (exp, coef) in enumerate(pairs):
        # type(), not isinstance(): JSON true and false are no exponent
        if (
            not isinstance(exp, (list, tuple))
            or len(exp) != nvars
            or any(type(e) is not int or e < 0 for e in exp)
        ):
            raise FormatError(f"term {i}: bad exponent vector {exp!r}")
        if sum(exp) != degree:
            raise FormatError(
                f"term {i}: exponents sum to {sum(exp)}, expected degree {degree}"
            )
        key = tuple(exp)
        if key in seen:
            raise FormatError(f"term {i}: duplicate exponent vector {exp!r}")
        seen.add(key)
        try:
            x, d = _read_entry(coef)
        except FormatError as exc:
            raise FormatError(f"term {i}: {exc}") from exc
        if x:
            ratios.setdefault(d, {})[key] = x
    return ratios


def poly_to_json(p: HomogeneousPoly):
    return {
        "nvars": p.nvars,
        "degree": p.degree,
        "terms": [{"exp": list(exp), "coef": c} for exp, c in p._rendered_terms()],
    }
