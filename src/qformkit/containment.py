"""Zero-set containment for an indefinite base form.

Given indefinite q and any quadratic r with Z_q contained in Z_r, r must
be a scalar multiple of q.  The decision diagonalizes q once and tests
R = alpha*Q entrywise; when that fails, a counterexample vector on the
null cone of q (with r nonzero there) is constructed from a fixed finite
family in that diagonal frame and returned as an independently
checkable certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, FormatError, MismatchedRadicand, NoWitnessFound, NotIndefinite
from .forms import CongruenceDiagonalization, Point, QuadraticForm, classify, congruence_diagonalize, evaluate
from .forms import _apply, _dot, _read_point
from .record import Record, _set, lazy
from .scalars import QuadExt, _is_zero, exact_sqrt, render_quadext, render_ratio, render_rational


class WitnessVector(Record):
    """A vector v with q(v) = 0 and r(v) != 0, and q_value and r_value the
    QuadExt values there; a value given as a rational is held as
    QuadExt(value).

    The private slot _point holds v as a forms.Point, the int normal form
    (a_i + b_i*sqrt(t)) / D of its n coordinates, which the re-check, t
    and to_json read: a witness that a decision builds is given the Point
    its frame's pullback returns, and carries no QuadExt per coordinate.
    coords, the n QuadExt entries over t, is a view built from the point
    the first time it is read.  A witness built from coords instead holds
    them in _point as they are, and forms._read_point reads the point
    from them wherever it is read; a Point given as coords is held as
    it is."""

    __slots__ = ("_point", "q_value", "r_value", "_coords")
    _fields = ("coords", "q_value", "r_value")

    def __init__(self, coords, q_value, r_value):
        _set(self, "_point", coords)
        _set(self, "q_value", q_value if isinstance(q_value, QuadExt) else QuadExt(q_value))
        _set(self, "r_value", r_value if isinstance(r_value, QuadExt) else QuadExt(r_value))

    @lazy
    def coords(self) -> tuple:
        """v's n coordinates as a tuple: those given, or a Point's as QuadExt values."""
        return tuple(self._point)

    t = property(lambda self: _read_point(self._point).t or Fraction(1), doc="v's radicand, 1 when v is rational")

    def to_json(self):
        """t and each coordinate's (rational part, sqrt part) over t, as
        forms._read_point writes them; it raises MismatchedRadicand when
        no rational square joins the radicands."""
        p = _read_point(self._point)
        return {
            "t": render_rational(p.t or Fraction(1)),
            "coords": [[render_ratio(x, p.d), render_ratio(y, p.d)] for x, y in zip(p.a, p.b)],
        }


def witness_json(w: WitnessVector, key: str = "witness") -> dict:
    """The certificate fields of a refutation: the witness under key,
    then q and r at it."""
    return {
        key: w.to_json(),
        "q_value": render_quadext(w.q_value),
        "r_value": render_quadext(w.r_value),
    }


class Proportional(Record):
    __slots__ = ("alpha",)

    def to_json(self):
        return {"verdict": "proportional", "alpha": render_rational(self.alpha)}


class Counterexample(Record):
    """A refutation: the witness is a point where q vanishes and r does
    not.  A subclass names another verdict by overriding _label."""

    __slots__ = ("witness",)
    _label = "counterexample"

    def to_json(self):
        return {"verdict": self._label, **witness_json(self.witness)}


ContainmentVerdict = Proportional | Counterexample


def decide_containment(q: QuadraticForm, r: QuadraticForm) -> ContainmentVerdict:
    """Decide Z_q subset-of Z_r for indefinite q; exact both ways.

    Returns Proportional(alpha) with r = alpha*q entrywise, or a
    Counterexample whose witness lies on the null cone of q with
    r nonzero there.
    """
    if q.dim != r.dim:
        raise DimensionMismatch(f"dims differ: {q.dim} vs {r.dim}")
    return _decide_in_frame(q, r, congruence_diagonalize(q))


def _decide_in_frame(
    q: QuadraticForm, r: QuadraticForm, dq: CongruenceDiagonalization
) -> ContainmentVerdict:
    """decide_containment for a caller that already diagonalized q (dq).

    A pivot of each sign proves q indefinite, so dq.lead, which runs q's
    pass only that far, is the indefiniteness test.  B is invertible, so
    B^T R B = alpha*diag(d) exactly when R = alpha*Q: proportionality is
    an entrywise test on the original matrices, and needs no more of the
    pass.  Neither does a refutation: construct_witness reads its witness
    off dq.lead, and the pass never runs past it.
    """
    if dq.lead is None:
        raise NotIndefinite(
            "the base form must be indefinite (take both signs); "
            "semidefinite forms are outside this decision procedure"
        )
    alpha = _ratio(q, r)
    if alpha is not None:
        return Proportional(alpha)
    return Counterexample(construct_witness(dq, r, q))


def _ratio(q, r):
    """alpha with R = alpha*Q entrywise, or None; Q is not zero, and both
    are symmetric, so the upper triangles decide.  With Q = Q_int / den_Q
    and R = R_int / den_R, and (a, b) the first entries of Q_int and R_int
    with a != 0, R = alpha*Q exactly when R_int is zero before (a, b) and
    R_int a = b Q_int from there on, and then alpha = b den_Q / (den_R a).
    The test is one loop in ints over the upper triangle, which stops at
    the first entry that fails, and makes no Fraction but alpha, and that
    only when it holds."""
    a = b = 0
    for i, (q_row, r_row) in enumerate(zip(q.ints, r.ints)):
        for x, y in zip(q_row[i:], r_row[i:]):
            if a:
                if y * a != b * x:
                    return None
            elif x:
                a, b = x, y
            elif y:
                return None
    return Fraction(b * q.den, r.den * a)


def _witness_family(diag, inertia):
    """Null vectors of diag(d) in diagonalizing coordinates, in the fixed
    iteration order (a), (b), (d), indices lexicographic, sign + before -.

    A member is (tn, td, support): the radicand is t = tn / td with ints
    tn, td > 0, not always in lowest terms, and coordinate i is
    x + y*sqrt(t) for each (i, x, y) in support, and zero elsewhere.
    Every member is exactly null for the diagonal form.  The positive,
    negative and zero indices are the frame's inertia.blocks.  Two kinds
    of frame are read: a lead frame, of inertia (1, 1, 0), whose family
    is its two (a) members, and a semidefinite frame, whose positive or
    negative block is empty, so that its family is (b), then (d).  (The
    letters (c) and (e) name members that pair a zero or a second index
    with a positive and a negative one; no frame read here has them.)
    """
    pos, neg, zero = inertia.blocks
    # (a) e_p +- sqrt(d_p / -d_n) e_n
    for p in pos:
        for ng in neg:
            (pn, pd), (nn, nd) = diag[p].as_integer_ratio(), diag[ng].as_integer_ratio()
            for sign in (1, -1):
                yield pn * nd, -nn * pd, ((p, 1, 0), (ng, 0, sign))
    # (b) e_z
    for zi in zero:
        yield 1, 1, ((zi, 1, 0),)
    # (d) e_z +- e_z'
    for i, zi in enumerate(zero):
        for zj in zero[i + 1 :]:
            for sign in (1, -1):
                yield 1, 1, ((zi, 1, 0), (zj, sign, 0))


def construct_witness(
    diag_q: CongruenceDiagonalization, r: QuadraticForm, q: QuadraticForm
) -> WitnessVector:
    """A point of q's null cone where r is exactly nonzero.  For an
    indefinite q and r not proportional to q, it is read off q's lead
    frame, diag_q.lead, so q's pass runs no further than its first pivot
    of each sign: the lead frame's family is its two (a) members,
    e_p +- sqrt(d_p / -d_n) e_n, tried first, and when neither fires,
    _plane_witness builds the witness in closed form from the frame's two
    columns.  Both read R_int times a lead column from one _products.  A
    semidefinite q has no lead frame, and its family is its kernel's, (b)
    then (d), scanned on diag_q.

    DimensionMismatch is raised when q, r and diag_q are not all of one
    dimension; the frame's is read without running its pass.
    NoWitnessFound, the fail-closed fault, is raised when no point
    separates r from q: r proportional to q, or q definite, or r zero on
    the kernel of a semidefinite q."""
    if not q.dim == r.dim == diag_q.dim:
        raise DimensionMismatch(f"dims differ: q {q.dim}, r {r.dim}, frame {diag_q.dim}")
    lead = diag_q.lead
    frame = lead or diag_q
    r_col = _products(r, frame)
    witness = _first_witness(frame, r, r_col) or (lead and _plane_witness(lead, r, q, r_col))
    if witness is None:
        raise NoWitnessFound("no witness separates r from q")
    return witness


def _products(m: QuadraticForm, frame: CongruenceDiagonalization):
    """f -> M_int column(f), m's ints times column f of frame, made by
    forms._apply the first time f is read, and kept: one product per
    column a frame reads."""
    return _kept(lambda f: _apply(m.ints, frame.column(f)))


def _kept(fn):
    """fn with each value kept, by its arguments, once it is made: what
    functools.cache does, in a plain dict, since functools.cache takes
    about a microsecond to make (its update_wrapper), and a refutation
    makes two."""
    kept = {}
    return lambda *key: kept[key] if key in kept else kept.setdefault(key, fn(*key))


def _plane_witness(lead, r, q, r_col):
    """The witness of a refutation that lead's two members miss, or None
    when R = alpha*Q.  It runs in ints: y_p and y_n are lead.column(0)
    and lead.column(1), columns of B times their scales, and q(.) and r(.)
    below are the forms of Q_int and R_int, q and r times their
    denominators, whose ratios and signs are those of q and r.  r_col is
    _products of r on lead.

    Neither member fired, so r vanishes on both null lines of q in the
    plane span{y_p, y_n}, where q(y_p) > 0 > q(y_n) and q(y_p, y_n) = 0.
    A binary form that vanishes on both null lines of an indefinite
    binary form is a multiple of it (the paper's theorem in dimension 2),
    so r = c*q on that plane, c = r(y_p) / q(y_p).  R is not alpha*Q, so
    some entry of the upper triangle has R_ij q(y_p) != r(y_p) Q_ij; take
    the first, and X = (e_i) when i = j, else (e_i, e_j, e_i + e_j).

    For each x in X, y is y_n when Delta = q(x, y)^2 - q(x) q(y) > 0
    there, else y_p when Delta > 0 there.  The Gram determinant of x and
    y is -Delta < 0, so q is nondegenerate and indefinite on span{x, y},
    and the candidates u = q(y) x - q(x, y) y +- sqrt(Delta) y, + first,
    span its two null lines: q(u) = q(y) (q(y) q(x) - 2 q(x, y)^2
    + 2 q(x, y)^2 - q(x) q(y)) = 0.  When neither Delta is positive,
    q(x) >= q(x, y_p)^2 / q(y_p) >= 0 and q(x) <= q(x, y_n)^2 / q(y_n)
    <= 0, so x is null and Q-orthogonal to both lead columns, and x itself
    is the one candidate.

    One candidate fires.  Suppose none does.  For x of positive Delta, r
    vanishes on both null lines of span{x, y}, so r = c_x*q there; y lies
    in that plane with q(y) != 0, so c_x = r(y) / q(y) = c.  A null x has
    r(x) = 0 = c*q(x).  So r(x) = c*q(x) for every x in X, and by
    polarization R_ij = (r(e_i + e_j) - r(e_i) - r(e_j)) / 2 = c*Q_ij,
    against the choice of (i, j).

    r(u) = q(y)^2 r(x) - 2 q(y) q(x, y) r(x, y) + (q(x, y)^2 + Delta) r(y)
    +- 2 (q(y) r(x, y) - q(x, y) r(y)) sqrt(Delta), which scalars._is_zero
    decides.  The witness is u as a Point over t = Delta, divided by the
    gcd of its entries, with sqrt(Delta) folded into the rational part
    when Delta is a square, as pullback does.

    Every value is a dot of forms._apply's products: Q_int y and R_int y
    once for each lead column, and Q_int x and R_int x, which read at
    most two rows, for each x.  At most 6 candidates are tried; finding
    (i, j) costs O(n^2) ints with an early exit, each x O(n) beyond its
    products, and no column but lead's two is built.
    """
    Q, R, n = q.ints, r.ints, q.dim
    # (y, q(y), r(y)) for y_n, then y_p
    planes = [(y, _dot(y, _apply(Q, y)), _dot(y, r_col(f))) for f in (1, 0) for y in (lead.column(f),)]
    _, qp, rp = planes[1]
    ij = next(((i, j) for i in range(n) for j in range(i, n) if R[i][j] * qp != rp * Q[i][j]), None)
    if ij is None:
        return None
    e_i, e_j = ([int(k == l) for k in range(n)] for l in ij)
    for x in (e_i,) if e_i == e_j else (e_i, e_j, [u + v for u, v in zip(e_i, e_j)]):
        qx, rx = _apply(Q, x), _apply(R, x)
        qxx = _dot(x, qx)
        # the first lead column y with Delta > 0; with none, x is null and
        # the one candidate: u = x, as for y = 0 with q(y) = 1
        y, qy, ry, qxy, delta = [0] * n, 1, 0, 0, 0
        for c, qc, rc in planes:
            qxc = _dot(c, qx)
            if qxc * qxc > qxx * qc:
                y, qy, ry, qxy, delta = c, qc, rc, qxc, qxc * qxc - qxx * qc
                break
        rxy = _dot(y, rx)
        rat = qy * qy * _dot(x, rx) - 2 * qy * qxy * rxy + (qxy * qxy + delta) * ry
        rad = 2 * (qy * rxy - qxy * ry)
        for sign in (1, -1):
            if not _is_zero(rat, sign * rad, delta, 1):
                a, b = [qy * u - qxy * v for u, v in zip(x, y)], [sign * v for v in y]
                root, rad = math.isqrt(delta), sign * rad
                if root * root == delta:  # Delta = 0 too, when u = x
                    a, b, rat, rad, delta = [u + w * root for u, w in zip(a, b)], [0] * n, rat + rad * root, 0, 1
                g = math.gcd(*a, *b)
                t, big = Fraction(delta), g * g * r.den
                point = Point(t, 1, tuple(u // g for u in a), tuple(w // g for w in b))
                return WitnessVector(point, QuadExt(0, 0, t), QuadExt(Fraction(rat, big), Fraction(rad, big), t))
    return None


def _first_witness(diag_q: CongruenceDiagonalization, r: QuadraticForm, r_col):
    """The witness at the first member of diag_q's witness family on
    which r is exactly nonzero, or None when no member fires.
    R = R_int / den is r's (ints, den), and r_col is _products of r on
    diag_q.

    r(Bv) = v^T (B^T R B) v, and a member touches only the entries of
    B^T R B on its 1 or 2 support indices, so only those are computed, in
    ints: with column c of B = column(c) / scales[c], entry (a, b) is
    E_ab / (scales[a] scales[b] den), E_ab = column(a) . r_col(b), a dot
    over the product R_int column(b), made once per column the scan
    reads.  A support lists its indices in frame order, so a <= b, and
    each E_ab is kept: z kernel columns cost z products and z(z + 1)/2
    dots of n ints, whatever the z(z - 1) (d) members.  diag_q.column
    builds a column of B the first time it is read (see forms._column),
    so a refutation builds only the columns its scan reads, and cols is
    not read.

    The scan decides r(v) != 0 in ints too.  With t = tn / td, P the
    product of the support's scales and f_a = P / scales[a], r(v) times
    P^2 den td is rat + rad sqrt(t), where rat sums
    w E_ab f_a f_b (x_a x_b td + y_a y_b tn) and rad sums
    w E_ab f_a f_b (x_a y_b + y_a x_b) td, w = 1 on the diagonal and 2
    off it, and scalars._is_zero tests it.  Fractions and QuadExts are
    made only for the member that fires: the witness holds the Point
    pullback returns, and the two QuadExts made are q's and r's values.
    """
    column, scales = diag_q.column, diag_q.scales
    entry = _kept(lambda a, b: _dot(column(a), r_col(b)))
    for tn, td, support in _witness_family(diag_q.diag, diag_q.inertia):
        scale = math.prod(scales[a] for a, _, _ in support)
        over = [(a, scale // scales[a], x, y) for a, x, y in support]
        # (x_a + y_a sqrt t)(x_b + y_b sqrt t), weighted by entry (a, b)
        rat = rad = 0
        for s, (a, fa, xa, ya) in enumerate(over):
            for b, fb, xb, yb in over[s:]:
                e = entry(a, b) * fa * fb
                if a != b:
                    e *= 2
                rat += e * (xa * xb * td + ya * yb * tn)
                rad += e * (xa * yb + ya * xb) * td
        if not _is_zero(rat, rad, tn, td):
            t = Fraction(tn, td)
            point = diag_q.pullback(support, t)
            root = exact_sqrt(t)
            if root is not None:  # pullback folds sqrt(t) into the coordinates; so too r's value
                rat, rad, t = rat + rad * root, 0, Fraction(1)
            big = scale * scale * r.den * td
            r_val = QuadExt(Fraction(rat, big), Fraction(rad, big), t)
            # q(Bv) = v^T diag(d) v is zero by construction of the family
            return WitnessVector(point, QuadExt(0, 0, t), r_val)
    return None


def verify_witness(q: QuadraticForm, r: QuadraticForm, w: WitnessVector) -> bool:
    """Independent certificate check: recompute both values exactly; q's
    is zero, r's is not, and each equals the value the witness carries."""
    return _holds(q, w, lambda x: evaluate(r, x))


def _holds(q: QuadraticForm, w: WitnessVector, r_at) -> bool:
    """Whether q(v) = 0, r(v) = r_at(v) != 0, and both equal the values w
    carries, at w's point v, which the evaluations read through
    forms._read_point.  It fails closed: coordinates whose
    radicands no rational square joins are no point of one quadratic
    extension, and a coordinate that scalars._read_entry refuses (a
    float, a bool) is no exact value; both are rejected, not raised on.
    A length that is not q's or r's raises DimensionMismatch from the
    evaluation."""
    try:
        q_val, r_val = evaluate(q, w._point), r_at(w._point)
    except (MismatchedRadicand, FormatError):
        return False
    return not q_val and bool(r_val) and w.q_value == q_val and w.r_value == r_val
