"""Zero-set containment for an indefinite base form.

Given indefinite q and any quadratic r with Z_q contained in Z_r, r must
be a scalar multiple of q.  The decision diagonalizes q once and tests
R = alpha*Q entrywise; when that fails, a counterexample vector on the
null cone of q (with r nonzero there) is built in closed form from the
plane of q's first pivot of each sign, by the same theorem in dimension
2, and returned as an independently checkable certificate.  A
semidefinite q is refuted on its kernel instead, by construct_witness,
which semidefinite shares.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, FormatError, MismatchedRadicand, NoWitnessFound, NotIndefinite
from .forms import CongruenceDiagonalization, Point, QuadraticForm, classify, congruence_diagonalize
from .forms import _apply, _dot, _evaluate, _indefinite, _read_point
# no code here calls evaluate; perfbench/spans.py wraps it at this binding too
from .forms import evaluate
from .record import Record, _set, lazy
from .scalars import _ONE, _ZERO, QuadExt, _is_zero, _join, _sqrt_ratio, render_quadext, render_ratio, render_rational


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

    B is invertible, so B^T R B = alpha*diag(d) exactly when R = alpha*Q:
    proportionality is an entrywise test on the original matrices, _ratio,
    and it runs first.  A refutation then reads dq.lead, which runs q's
    pass only until it has a pivot of each sign: None proves q not
    indefinite, and otherwise construct_witness reads its witness off
    that frame, so the pass never runs past it.  A proportional verdict
    needs only the fact that q is indefinite, from forms._indefinite: Q's
    own diagonal proves it with no pass step when it can, and dq.lead
    decides when it cannot.  Either way a q that is not indefinite raises
    NotIndefinite, Q = 0 among them.
    """
    alpha = _ratio(q, r)
    if alpha is None and dq.lead:
        return Counterexample(construct_witness(dq, r, q))
    if alpha is not None and _indefinite(q, dq):
        return Proportional(alpha)
    raise NotIndefinite(
        "the base form must be indefinite (take both signs); "
        "semidefinite forms are outside this decision procedure"
    )


def _ratio(q, r):
    """alpha with R = alpha*Q entrywise, or None, also when Q = 0; both
    are symmetric, so the upper triangles decide.  With Q = Q_int / den_Q
    and R = R_int / den_R, and (a, b) the first entries of Q_int and R_int
    with a != 0, R = alpha*Q exactly when R_int is zero before (a, b) and
    R_int a = b Q_int from there on, and then alpha = b den_Q / (den_R a).
    The test is one loop in ints over the upper triangle, which stops at
    the first entry that fails, and makes no Fraction but alpha, and that
    only when it holds.  It reads neither q's frame nor its pass."""
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
    return Fraction(b * q.den, r.den * a) if a else None


def construct_witness(
    diag_q: CongruenceDiagonalization, r: QuadraticForm, q: QuadraticForm
) -> WitnessVector:
    """A point of q's null cone where r is exactly nonzero.  For an
    indefinite q it is read off q's lead frame, diag_q.lead, by
    _lead_witness, so q's pass runs no further than its first pivot of
    each sign.  A semidefinite q has no lead frame: its null cone is its
    kernel, and _kernel_witness scans the kernel columns of diag_q.

    DimensionMismatch is raised when q, r and diag_q are not all of one
    dimension; the frame's is read without running its pass.
    NoWitnessFound, the fail-closed fault, is raised when no point
    separates r from q: r proportional to q, or q definite, or r zero on
    the kernel of a semidefinite q."""
    if not q.dim == r.dim == diag_q.dim:
        raise DimensionMismatch(f"dims differ: q {q.dim}, r {r.dim}, frame {diag_q.dim}")
    lead = diag_q.lead
    witness = _lead_witness(lead, r, q) if lead else _kernel_witness(diag_q, r)
    if witness is None:
        raise NoWitnessFound("no witness separates r from q")
    return witness


def _lead_witness(lead, r, q):
    """The witness of a refutation on q's lead frame, or None when
    R = alpha*Q.  It runs in ints: y_p and y_n are lead.column(0) and
    lead.column(1), columns of B times their scales s_p and s_n, and
    q(.) and r(.) below are the forms of Q_int and R_int, q and r times
    their denominators, whose ratios and signs are those of q and r.

    The null lines first.  lead's diagonal is d_p > 0 > d_n, and with
    t = d_p / -d_n = tn / td, ints not always in lowest terms,
    e_p +- sqrt(t) e_n span the null lines of diag(d_p, d_n); B maps them
    to the null lines of q in the plane span{y_p, y_n}.  With
    E_ab = y_a . (R_int y_b), r times (s_p s_n)^2 den td there is
    (E_pp s_n^2 td + E_nn s_p^2 tn) +- 2 E_pn s_p s_n td sqrt(t), which
    scalars._is_zero decides, sign + first.  The witness is the line that
    fires, as the Point lead._pullback returns, with sqrt(t) folded into
    the rational part when t is a rational square, and r's value over the
    same radicand.

    When neither fires, r vanishes on both null lines of q in that plane,
    where q(y_p) > 0 > q(y_n) and q(y_p, y_n) = 0.  A binary form that
    vanishes on both null lines of an indefinite binary form is a
    multiple of it (the paper's theorem in dimension 2), so r = c*q on
    that plane, c = r(y_p) / q(y_p).  R is not alpha*Q, so some entry of
    the upper triangle has R_ij q(y_p) != r(y_p) Q_ij; take the first,
    and X = (e_i) when i = j, else (e_i, e_j, e_i + e_j).

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

    forms._apply makes R_int y_p, then R_int y_n, for the null lines, and
    Q_int y for each lead column only when the plane route runs; q(y) and
    r(y) = E_yy are dots over them.  x is e_i, e_j or e_i + e_j, so q(x)
    and r(x) are sums of at most 4 entries of Q_int and R_int, and
    q(x, y) and r(x, y) of at most 2 entries of Q_int y and R_int y: no
    product and no dot is made for x, and x is written out as a vector
    only for the candidate that fires.  At most 6 candidates are tried;
    finding (i, j) costs O(n^2) ints with an early exit, each x O(1),
    and no column but lead's two is built.
    """
    Q, R, n = q.ints, r.ints, q.dim
    (pn, pd, sp), (nn, nd, sn) = lead._rec
    tn, td = pn * nd, -nn * pd
    y_p, y_n = lead.column(0), lead.column(1)
    r_p, r_n = _apply(R, y_p), _apply(R, y_n)
    e_pp, e_nn = _dot(y_p, r_p), _dot(y_n, r_n)
    rat, rad = e_pp * sn * sn * td + e_nn * sp * sp * tn, 2 * _dot(y_p, r_n) * sp * sn * td
    for sign in (1, -1):
        if not _is_zero(rat, sign * rad, tn, td):
            # sqrt(t), once: pullback folds it into the coordinates, so too r's value
            root, rad, big = _sqrt_ratio(tn, td), sign * rad, (sp * sn) ** 2 * r.den * td
            if root is None:
                t = Fraction(tn, td)
            else:
                rn, rd = root
                rat, rad, big, t = rat * rd + rad * rn, 0, big * rd, _ONE
            point = lead._pullback(((0, 1, 0), (1, 0, sign)), t, root)
            return WitnessVector(point, QuadExt(_ZERO, _ZERO, t), QuadExt(Fraction(rat, big), Fraction(rad, big), t))

    # the plane route: (y, Q_int y, R_int y, q(y), r(y)) for y_n, then y_p
    q_n, q_p = _apply(Q, y_n), _apply(Q, y_p)
    qp = _dot(y_p, q_p)
    planes = ((y_n, q_n, r_n, _dot(y_n, q_n), e_nn), (y_p, q_p, r_p, qp, e_pp))
    ij = next(((i, j) for i in range(n) for j in range(i, n) if R[i][j] * qp != e_pp * Q[i][j]), None)
    if ij is None:
        return None
    i, j = ij
    zero = (0,) * n
    # x is the sum of e_k over k in x: its values are entries of Q, R and the planes' products
    for x in ((i,),) if i == j else ((i,), (j,), (i, j)):
        qxx = sum(Q[k][l] for k in x for l in x)
        # the first lead column y with Delta > 0; with none, x is null and
        # the one candidate: u = x, as for y = 0 with q(y) = 1
        y, qy, ry, qxy, rxy, delta = zero, 1, 0, 0, 0, 0
        for c, q_c, r_c, qc, rc in planes:
            qxc = sum(q_c[k] for k in x)
            if qxc * qxc > qxx * qc:
                y, qy, ry, qxy, rxy, delta = c, qc, rc, qxc, sum(r_c[k] for k in x), qxc * qxc - qxx * qc
                break
        rxx = sum(R[k][l] for k in x for l in x)
        rat = qy * qy * rxx - 2 * qy * qxy * rxy + (qxy * qxy + delta) * ry
        rad = 2 * (qy * rxy - qxy * ry)
        for sign in (1, -1):
            if not _is_zero(rat, sign * rad, delta, 1):
                a, b = [qy * (k in x) - qxy * v for k, v in enumerate(y)], [sign * v for v in y]
                root, rad = math.isqrt(delta), sign * rad
                if root * root == delta:  # Delta = 0 too, when u = x
                    a, b, rat, rad, delta = [u + w * root for u, w in zip(a, b)], [0] * n, rat + rad * root, 0, 1
                g = math.gcd(*a, *b)
                t, big = Fraction(delta), g * g * r.den
                point = Point(t, 1, tuple(u // g for u in a), tuple(w // g for w in b))
                return WitnessVector(point, QuadExt(_ZERO, _ZERO, t), QuadExt(Fraction(rat, big), Fraction(rad, big), t))
    return None


def _kernel_witness(dq: CongruenceDiagonalization, r: QuadraticForm):
    """The witness of a refutation on the kernel of a semidefinite q, or
    None when r vanishes there.  dq is q's frame, and its zero block (see
    dq.inertia.blocks) indexes the columns b_z = column(z) / scales[z] of
    B at the zeros of d: B^T Q B = diag(d) with B invertible and d of one
    sign off its zeros, so they are an exact basis of ker Q, which is q's
    null cone.

    In ints, with E_ab = column(a) . (R_int column(b)), r(b_z) is
    E_zz / (scales[z]^2 den): the witness is b_z at the first z, in frame
    order, with E_zz != 0.  When every E_zz is 0, r(b_z +- b_z') is
    +-2 E_zz' / (scales[z] scales[z'] den), and the witness is b_z + b_z'
    at the first pair z < z' with E_zz' != 0.  When none fires, r is zero
    on each b_z and each b_z + b_z', so by polarization on all of ker Q,
    and Z_q is contained in Z_r.

    forms._apply makes R_int column(z) once, as the scan reaches z, and
    the pairs read the list of them; only the columns the scan reads are
    built.  The witness is rational: the Point dq._pullback returns over
    t = 1, with q's value 0 and r's the one Fraction made."""
    column, scales, zero = dq.column, dq.scales, dq.inertia.blocks[2]
    r_cols = []

    def members():  # (support, e, scale): r there is e / (scale den)
        for z in zero:
            r_cols.append(_apply(r.ints, column(z)))
            yield ((z, 1, 0),), _dot(column(z), r_cols[-1]), scales[z] ** 2
        for i, a in enumerate(zero):
            for b, r_b in zip(zero[i + 1 :], r_cols[i + 1 :]):
                yield ((a, 1, 0), (b, 1, 0)), 2 * _dot(column(a), r_b), scales[a] * scales[b]

    for support, e, scale in members():
        if e:
            point = dq._pullback(support, _ONE, None)
            return WitnessVector(point, QuadExt(_ZERO, _ZERO, _ONE), QuadExt(Fraction(e, scale * r.den), _ZERO, _ONE))
    return None


def verify_witness(q: QuadraticForm, r: QuadraticForm, w: WitnessVector) -> bool:
    """Independent certificate check: recompute both values exactly, in
    ints by forms._evaluate; q's is zero, r's is not, and each equals the
    value the witness carries (see _holds)."""
    return _holds(q, w, lambda x: _evaluate(r, x))


def _holds(q: QuadraticForm, w: WitnessVector, r_at) -> bool:
    """Whether q(v) = 0, r(v) != 0, and both equal the values w carries,
    at w's point v.  q(v) is forms._evaluate's and r(v) is r_at's, an
    int core of the same form (t, rat, rad, big): the value
    (rat + rad*sqrt(t)) / big over the radicand t of v as
    forms._read_point reads it, None for a rational v.  The zero tests
    are scalars._is_zero's, and _agrees compares each carried value by
    cross-multiplication, so a witness whose values are written over v's
    radicand is re-checked with no Fraction and no QuadExt made.

    It fails closed: coordinates whose radicands no rational square
    joins are no point of one quadratic extension, and a coordinate that
    scalars._read_entry refuses (a float, a bool) is no exact value; both
    are rejected, not raised on.  A length that is not q's or r's raises
    DimensionMismatch from the evaluation."""
    try:
        (t, q_rat, q_rad, q_big), (_, r_rat, r_rad, r_big) = _evaluate(q, w._point), r_at(w._point)
    except (MismatchedRadicand, FormatError):
        return False
    t = t or _ONE
    tn, td = t.as_integer_ratio()
    return (
        _is_zero(q_rat, q_rad, tn, td)
        and not _is_zero(r_rat, r_rad, tn, td)
        and _agrees(w.q_value, t, q_rat, q_rad, q_big)
        and _agrees(w.r_value, t, r_rat, r_rad, r_big)
    )


def _agrees(c: QuadExt, t, rat, rad, big) -> bool:
    """Whether the QuadExt c is (rat + rad*sqrt(t)) / big, ints rat, rad
    and big > 0.  scalars._join, the one radicand rule, writes c over the
    radicand of the two, and the difference times big and c's
    denominators is tested by scalars._is_zero.  Radicands that no
    rational square joins give False: two such values differ, as
    QuadExt.__eq__ finds."""
    try:
        c, t = _join(rad, t, c)
    except MismatchedRadicand:
        return False
    (cn, cd), (en, ed) = c.rat.as_integer_ratio(), c.rad.as_integer_ratio()
    return _is_zero((rat * cd - cn * big) * ed, (rad * ed - en * big) * cd, *t.as_integer_ratio())
