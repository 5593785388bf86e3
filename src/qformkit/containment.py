"""Zero-set containment for an indefinite base form.

Given indefinite q and any quadratic r with Z_q contained in Z_r, r must
be a scalar multiple of q.  The decision diagonalizes q once and tests
R = alpha*Q entrywise; when that fails, a counterexample vector on the
null cone of q (with r nonzero there) is constructed from a fixed finite
family in that diagonal frame and returned as an independently
checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, NoWitnessFound, NotIndefinite
from .forms import (  # noqa: F401 -- classify stays bound for perfbench/spans.py
    INDEFINITE,
    CongruenceDiagonalization,
    QuadraticForm,
    classify,
    classify_inertia,
    congruence_diagonalize,
    evaluate,
)
from .scalars import QuadExt, render_quadext, render_rational


@dataclass(frozen=True)
class WitnessVector:
    """A vector v with q(v) = 0 and r(v) != 0, coordinates in Q(sqrt(t))."""

    coords: tuple  # QuadExt entries sharing one radicand
    q_value: QuadExt
    r_value: QuadExt

    @property
    def t(self) -> Fraction:
        for c in self.coords:
            if c.rad != 0:
                return c.t
        return self.coords[0].t if self.coords else Fraction(1)

    def to_json(self):
        return {
            "t": render_rational(self.t),
            "coords": [
                [render_rational(c.rat), render_rational(c.rad)]
                for c in self.coords
            ],
        }


@dataclass(frozen=True)
class Proportional:
    alpha: Fraction

    def to_json(self):
        return {"verdict": "proportional", "alpha": render_rational(self.alpha)}


@dataclass(frozen=True)
class Counterexample:
    witness: WitnessVector

    def to_json(self):
        return {
            "verdict": "counterexample",
            "witness": self.witness.to_json(),
            "q_value": render_quadext(self.witness.q_value),
            "r_value": render_quadext(self.witness.r_value),
        }


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
    proportionality is an entrywise test on the original matrices.
    """
    if classify_inertia(dq.inertia) != INDEFINITE:
        raise NotIndefinite(
            "the base form must be indefinite (take both signs); "
            "semidefinite forms are outside this decision procedure"
        )
    alpha = _ratio(q.matrix, r.matrix)
    if alpha is not None:
        return Proportional(alpha)
    return Counterexample(construct_witness(dq, r))


def _ratio(qm, rm):
    """alpha with rm = alpha*qm entrywise, or None; qm is not zero, and
    both are symmetric, so the upper triangles decide."""
    n = len(qm)
    pairs = [(qm[i][j], rm[i][j]) for i in range(n) for j in range(i, n)]
    a, b = next(p for p in pairs if p[0])
    alpha = b / a
    return alpha if all(b == alpha * a for a, b in pairs) else None


def _witness_family(diag, inertia):
    """Null vectors of diag(d) in diagonalizing coordinates, in the fixed
    iteration order (a)..(e), indices lexicographic, sign + before -.

    A member is (t, support): coordinate i is x + y*sqrt(t) for each
    (i, x, y) in support, and zero elsewhere.  Every member is exactly
    null for the diagonal form; jointly their r-evaluations determine
    every entry of the transformed r-matrix, so at least one is nonzero
    whenever r is not proportional to q.
    """
    n = len(diag)
    k, m = inertia.k, inertia.m
    pos = range(k)
    neg = range(k, k + m)
    zero = range(k + m, n)
    one = Fraction(1)

    # (a) e_p +- sqrt(d_p / -d_n) e_n
    for p in pos:
        for ng in neg:
            t = diag[p] / (-diag[ng])
            for sign in (1, -1):
                yield t, ((p, 1, 0), (ng, 0, sign))
    # (b) e_z
    for zi in zero:
        yield one, ((zi, 1, 0),)
    # (c) +-e_p + sqrt(d_p / -d_n) e_n + e_z
    for p in pos:
        for ng in neg:
            t = diag[p] / (-diag[ng])
            for zi in zero:
                for sign in (1, -1):
                    yield t, ((p, sign, 0), (ng, 0, 1), (zi, 1, 0))
    # (d) e_z +- e_z'
    for i, zi in enumerate(zero):
        for zj in zero[i + 1 :]:
            for sign in (1, -1):
                yield one, ((zi, 1, 0), (zj, sign, 0))
    # (e) sigma1 e_p + sigma2 e_p' + sqrt((d_p + d_p') / -d_n) e_n,
    #     and the mirror construction for pairs of negative indices
    for i, p in enumerate(pos):
        for p2 in pos[i + 1 :]:
            for ng in neg:
                t = (diag[p] + diag[p2]) / (-diag[ng])
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        yield t, ((p, s1, 0), (p2, s2, 0), (ng, 0, 1))
    for i, ng in enumerate(neg):
        for ng2 in neg[i + 1 :]:
            for p in pos:
                t = (-diag[ng] - diag[ng2]) / diag[p]
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        yield t, ((ng, s1, 0), (ng2, s2, 0), (p, 0, 1))


def construct_witness(
    diag_q: CongruenceDiagonalization, r: QuadraticForm
) -> WitnessVector:
    """First member of the witness family on which r is exactly nonzero,
    mapped back to original coordinates.  Unreachable failure when r is
    genuinely non-proportional.

    r(Bv) = v^T (B^T R B) v, and a member touches only the entries of
    B^T R B on its 2-3 support indices, so only those are computed:
    entry (a, b) is b_a . (R b_b), with R b_b cached per column.
    """
    basis = diag_q.basis
    rows = range(len(basis))
    r_cols = {}
    entries = {}

    def entry(a, b):
        key = (a, b) if a <= b else (b, a)
        val = entries.get(key)
        if val is None:
            a, b = key
            rb = r_cols.get(b)
            if rb is None:
                col = [(i, basis[i][b]) for i in rows if basis[i][b]]
                rb = r_cols[b] = [sum(row[i] * x for i, x in col) for row in r.matrix]
            val = entries[key] = sum(basis[i][a] * rb[i] for i in rows if basis[i][a])
        return val

    for t, support in _witness_family(diag_q.diag, diag_q.inertia):
        # (x_a + y_a sqrt t)(x_b + y_b sqrt t), weighted by entry (a, b)
        rat = rad = 0
        for s, (a, xa, ya) in enumerate(support):
            for b, xb, yb in support[s:]:
                e = entry(a, b) if a == b else 2 * entry(a, b)
                rat += e * (xa * xb + t * ya * yb)
                rad += e * (xa * yb + ya * xb)
        r_val = QuadExt(rat, rad, t)
        if not r_val.is_zero():
            coords = tuple(
                QuadExt(
                    sum(basis[i][a] * x for a, x, _ in support),
                    sum(basis[i][a] * y for a, _, y in support),
                    t,
                )
                for i in rows
            )
            # q(Bv) = v^T diag(d) v, zero by construction of the family
            d = diag_q.diag
            q_val = QuadExt(
                sum(d[a] * (x * x + t * y * y) for a, x, y in support),
                sum(2 * d[a] * x * y for a, x, y in support),
                t,
            )
            return WitnessVector(coords=coords, q_value=q_val, r_value=r_val)
    raise NoWitnessFound(
        "no family member separates r from q; r is proportional to q"
    )


def verify_witness(q: QuadraticForm, r: QuadraticForm, w: WitnessVector) -> bool:
    """Independent certificate check: recompute both values exactly."""
    if q.dim != r.dim or len(w.coords) != q.dim:
        raise DimensionMismatch("witness length does not match form dimension")
    q_val = evaluate(q, w.coords)
    r_val = evaluate(r, w.coords)
    return q_val.is_zero() and not r_val.is_zero()
