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

from .errors import DimensionMismatch, MismatchedRadicand, NoWitnessFound, NotIndefinite
from .forms import CongruenceDiagonalization, QuadraticForm, _read_point, classify, congruence_diagonalize, evaluate
from .record import Record, _set, lazy
from .scalars import QuadExt, _is_zero, exact_sqrt, render_quadext, render_ratio, render_rational


class WitnessVector(Record):
    """A vector v with q(v) = 0 and r(v) != 0, and q_value and r_value the
    QuadExt values there.

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
        _set(self, "q_value", q_value)
        _set(self, "r_value", r_value)

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
    pass.  A refutation resumes it only when construct_witness does.
    """
    if dq.lead is None:
        raise NotIndefinite(
            "the base form must be indefinite (take both signs); "
            "semidefinite forms are outside this decision procedure"
        )
    alpha = _ratio(q, r)
    if alpha is not None:
        return Proportional(alpha)
    return Counterexample(construct_witness(dq, r))


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
    iteration order (a)..(e), indices lexicographic, sign + before -.

    A member is (tn, td, support): the radicand is t = tn / td with ints
    tn, td > 0, not always in lowest terms, and coordinate i is
    x + y*sqrt(t) for each (i, x, y) in support, and zero elsewhere.
    Every member is exactly null for the diagonal form; jointly their
    r-evaluations determine every entry of the transformed r-matrix, so
    at least one is nonzero whenever r is not proportional to q.  The
    positive, negative and zero indices are the frame's inertia.blocks.
    """
    pos, neg, zero = inertia.blocks
    nd = [d.as_integer_ratio() for d in diag]

    def radicand(c, a, b=None):
        # t = (d_a [+ d_b]) / -d_c as (tn, td > 0); d_c has the other sign
        (an, ad), (cn, cd) = nd[a], nd[c]
        if b is not None:
            bn, bd = nd[b]
            an, ad = an * bd + bn * ad, ad * bd
        return (an if cn < 0 else -an) * cd, abs(cn) * ad

    # (a) e_p +- sqrt(d_p / -d_n) e_n
    for p in pos:
        for ng in neg:
            tn, td = radicand(ng, p)
            for sign in (1, -1):
                yield tn, td, ((p, 1, 0), (ng, 0, sign))
    # (b) e_z
    for zi in zero:
        yield 1, 1, ((zi, 1, 0),)
    # (c) +-e_p + sqrt(d_p / -d_n) e_n + e_z
    for p in pos:
        for ng in neg:
            tn, td = radicand(ng, p)
            for zi in zero:
                for sign in (1, -1):
                    yield tn, td, ((p, sign, 0), (ng, 0, 1), (zi, 1, 0))
    # (d) e_z +- e_z'
    for i, zi in enumerate(zero):
        for zj in zero[i + 1 :]:
            for sign in (1, -1):
                yield 1, 1, ((zi, 1, 0), (zj, sign, 0))
    # (e) sigma1 e_p + sigma2 e_p' + sqrt((d_p + d_p') / -d_n) e_n,
    #     then the mirror construction for pairs of negative indices
    for same, other in ((pos, neg), (neg, pos)):
        for i, a in enumerate(same):
            for b in same[i + 1 :]:
                for c in other:
                    tn, td = radicand(c, a, b)
                    for s1 in (1, -1):
                        for s2 in (1, -1):
                            yield tn, td, ((a, s1, 0), (b, s2, 0), (c, 0, 1))


def construct_witness(
    diag_q: CongruenceDiagonalization, r: QuadraticForm
) -> WitnessVector:
    """First member of the witness family on which r is exactly nonzero,
    mapped back to original coordinates.  Unreachable failure when r is
    genuinely non-proportional.

    The first two members, (a) for the first positive and the first
    negative pivot in pass order, are the whole family of diag_q.lead,
    with the same radicand and columns: they are tried there first, and
    only when neither fires is diag_q's pass resumed for the full scan."""
    witness = (diag_q.lead and _first_witness(diag_q.lead, r)) or _first_witness(diag_q, r)
    if witness is None:
        raise NoWitnessFound(
            "no family member separates r from q; r is proportional to q"
        )
    return witness


def _first_witness(diag_q: CongruenceDiagonalization, r: QuadraticForm):
    """construct_witness, or None when no member fires.  R = R_int / den
    is r's (ints, den).

    r(Bv) = v^T (B^T R B) v, and a member touches only the entries of
    B^T R B on its 1-3 support indices, so only those are computed, in
    ints: with column c of B = column(c) / scales[c], entry (a, b) is
    E_ab / (scales[a] scales[b] den), E_ab = column(a) . (R_int column(b)),
    with R_int column(b) cached per column.  diag_q.column builds a
    column of B the first time it is read (see forms._column), so a
    refutation builds only the columns its scan reads, and cols is not
    read.

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
    r_cols = {}
    entries = {}

    def entry(a, b):
        key = (a, b) if a <= b else (b, a)
        val = entries.get(key)
        if val is None:
            a, b = key
            rb = r_cols.get(b)
            if rb is None:
                col = [(i, x) for i, x in enumerate(column(b)) if x]
                rb = r_cols[b] = [sum(row[i] * x for i, x in col) for row in r.ints]
            val = entries[key] = sum(x * y for x, y in zip(column(a), rb) if x)
        return val

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
    extension, and are rejected, not raised on.  A length that is not
    q's or r's raises DimensionMismatch from the evaluation."""
    try:
        q_val, r_val = evaluate(q, w._point), r_at(w._point)
    except MismatchedRadicand:
        return False
    return not q_val and bool(r_val) and w.q_value == q_val and w.r_value == r_val
