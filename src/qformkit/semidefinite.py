"""Simultaneous diagonalization of semidefinite pairs.

For semidefinite q the zero set is the kernel of its matrix, a subspace,
so containment of zero sets is exact rational kernel containment.  When
it holds for a semidefinite pair, a joint diagonalizing basis exists: q
is definite on a complement of its kernel, and a symmetric eigenproblem
finishes the job there.  Both come from q's one congruence
diagonalization B^T Q B = diag(d): the columns of B at the zeros of d
span the kernel, and on the other columns Q is diag(d).  The yes/no
decision and a refutation's witness are exact; only the eigen step, a
cyclic Jacobi sweep in plain Python floats, and the basis built from it
are floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .containment import Counterexample, _decide_in_frame, _first_witness, decide_containment
from .errors import ContainmentFails, DimensionMismatch, NotSemidefinite, NumericalFailure
from .forms import CongruenceDiagonalization, QuadraticForm, classify, congruence_diagonalize
from .record import Record, _set

DEFAULT_TOL = 1e-9

# Cyclic Jacobi skips a rotation when |a_pq| <= _JACOBI_EPS * max(|a_pp|, |a_qq|),
# and stops after a sweep with no rotation.  It converges quadratically; a
# run that reaches the cap is caught by the residual check.
_JACOBI_EPS = 2.0**-53
_JACOBI_SWEEPS = 50


class SubspaceBasis(Record):
    """Linearly independent rational vectors in Q^dim_ambient."""

    __slots__ = ("dim_ambient", "vectors")


class SimDiagResult(Record):
    """Joint diagonalizing basis (n x n floats, columns are basis vectors)
    with both diagonals and the worst scaled off-diagonal residual.  On
    the indefinite route r_diag is alpha times q_diag, and _alpha, which
    is no field, holds that exact alpha with R = alpha Q for the CLI to
    re-check before it prints the result."""

    __slots__ = ("basis", "q_diag", "r_diag", "residual", "_alpha")

    def to_json(self):
        return {
            "basis": [list(row) for row in self.basis],
            "q_diag": list(self.q_diag),
            "r_diag": list(self.r_diag),
            "residual": self.residual,
        }


def _orientation(d: CongruenceDiagonalization, name: str) -> int:
    """+1 / -1 / 0 for a psd / nsd / zero form of frame d; raises on
    indefinite, naming the form, as soon as d's pass has a pivot of each
    sign (d.lead), and runs the pass to its end otherwise."""
    if d.lead:
        raise NotSemidefinite(f"{name} is indefinite")
    pos, neg, _ = d.inertia.blocks
    return 1 if pos else -1 if neg else 0


def kernel_basis(q: QuadraticForm) -> SubspaceBasis:
    """Exact basis of {x : Qx = 0}.  For semidefinite q this is exactly
    the zero set: q(x) = 0 forces x into the matrix kernel.

    The basis is read off q's frame: the columns of B in its zero block
    (see _simdiag_in_frame), each divided by its last nonzero entry; only
    those z columns are built.  A kernel of dimension 1 then gets the
    vector rref(Q) gives it, whose free column is its last nonzero
    coordinate, set to 1."""
    return _kernel_in_frame(congruence_diagonalize(q))


def _kernel_in_frame(dq: CongruenceDiagonalization) -> SubspaceBasis:
    """kernel_basis for a caller that already diagonalized q (dq)."""
    _orientation(dq, "q")  # rejects indefinite input
    kernel = [dq.column(f) for f in dq.inertia.blocks[2]]
    lasts = [next(e for e in reversed(col) if e) for col in kernel]
    vectors = tuple(tuple(Fraction(e, last) for e in col) for col, last in zip(kernel, lasts))
    return SubspaceBasis(dim_ambient=len(dq.diag), vectors=vectors)


def _check_tol(tol):
    """Raise ValueError unless tol is a finite number >= 0, the rule of
    the CLI's --tol: with nan the checks residual > tol and
    diag_error > tol never fire, and with inf they pass any value."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _float(num, den) -> float:
    """num / den for ints num and den > 0, correctly rounded as
    float(Fraction(num, den)) is; past the float range (about 1.8e308)
    the float step cannot run, a numerical failure rather than a fault."""
    try:
        return num / den
    except OverflowError as exc:
        raise NumericalFailure(f"an exact value is out of float range: {exc}") from exc


def _float_cols(dq: CongruenceDiagonalization):
    """The columns of dq's basis B as floats, cols[c] / scales[c]."""
    return [[_float(e, s) for e in col] for col, s in zip(dq.cols, dq.scales)]


def _offdiag_residual(mat, tol):
    n = len(mat)  # at least 1
    off = max((abs(mat[i][j]) for i in range(n) for j in range(n) if i != j), default=0.0)
    scale = max(abs(mat[i][i]) for i in range(n))
    if scale > tol:
        return off / scale
    return off


def _jacobi_eigh(a):
    """(eigenvalues ascending, eigenvectors as the columns of an orthogonal
    matrix) of the symmetric float matrix a, by cyclic Jacobi rotations
    (Golub & Van Loan, Matrix Computations, section 8.5)."""
    n = len(a)
    a = [list(row) for row in a]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq, app, aqq = a[p][q], a[p][p], a[q][q]
                if abs(apq) <= _JACOBI_EPS * max(abs(app), abs(aqq)):
                    continue
                rotated = True
                # J = [[c, s], [-s, c]] on (p, q) zeroes entry (p, q) of J^T A J
                tau = (aqq - app) / (2 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1 / math.hypot(1.0, t)
                s = t * c
                for row in a + v:  # A J and V J
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
                rp, rq = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(rp, rq)]
                a[q] = [s * x + c * y for x, y in zip(rp, rq)]
                a[p][p], a[q][q] = app - t * apq, aqq + t * apq
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    order = sorted(range(n), key=lambda i: a[i][i])
    return [a[i][i] for i in order], [[row[i] for i in order] for row in v]


def simdiag_psd(
    q: QuadraticForm, r: QuadraticForm, tol: float = DEFAULT_TOL
) -> SimDiagResult:
    """Joint diagonalization for a semidefinite pair with contained zero
    sets.  Kernel columns of q go in exactly; on the complement q is
    definite and a whitened symmetric eigenproblem diagonalizes both."""
    _check_tol(tol)
    return _simdiag_in_frame(q, r, congruence_diagonalize(q), congruence_diagonalize(r), tol)


def _simdiag_in_frame(q, r, dq, dr, tol) -> SimDiagResult:
    """simdiag_psd for a caller that already diagonalized q (dq) and r
    (dr); of r's frame only the orientation is read.

    B^T Q B = diag(d) with B invertible, so Q b = 0 exactly for b in the
    span of the columns b_z of B in the frame's zero block, those at the
    zeros of d (dq.inertia.blocks): they are an exact basis of ker Q, and
    Z_q is contained in Z_r exactly when R maps each of them to zero.

    That test is the witness family of containment.construct_witness.
    d has one sign off its zeros, and members (a), (c) and (e) each pair
    a positive with a negative index, so the only members are (b), b_z
    in frame order, then (d), b_z +- b_z'.  r is semidefinite, so
    R = +-C^T C and b^T R b = +-|C b|^2 is zero exactly when R b = 0.  So
    the first member that fires is the first kernel column that R does
    not map to zero, with r(b_z) != 0 and q(b_z) = 0.  When no (b) member
    fires, R b_z = 0 for every z, so every (d) member has
    r = (b_z +- b_z')^T R (b_z +- b_z') = 0 and does not fire either: the
    scan comes back empty exactly when Z_q is contained in Z_r.  In that
    case it also tries the z(z - 1) (d) members, whose only new entries
    are the z(z - 1)/2 products b_z^T (R b_z'), R b_z' cached.

    q is semidefinite, so its positive or its negative block is empty,
    and the other is its definite block.  Scaled by 1/sqrt|d_i|, the
    columns there make W^T Q W = +-I, so the eigenvectors X of W^T R W
    finish the basis as W X.  R is signed to be positive semidefinite for
    the eigen step, since r and -r have the same zero set; a psd q may
    pair with an nsd r.
    """
    oq = _orientation(dq, "q")
    orr = _orientation(dr, "r")
    if q.dim != r.dim:
        raise DimensionMismatch(f"dims differ: {q.dim} vs {r.dim}")
    witness = _first_witness(dq, r)
    if witness is not None:
        raise ContainmentFails(
            "zero set of q is not contained in zero set of r", witness=witness
        )

    n, diag, scales = q.dim, dq.diag, dq.scales
    pos, neg, zero = dq.inertia.blocks
    definite = pos or neg  # q is semidefinite, so the other block is empty
    r_unit = -1 if orr < 0 else 1
    # column i of W is g_i b_i for i in the definite block, g_i = 1 / sqrt|d_i|, and
    # W^T R W is built from the exact b_i^T R b_j = column(i) . (R_int column(j)) / (s_i s_j den)
    g = [math.sqrt(_float(diag[i].denominator, abs(diag[i].numerator))) for i in definite]
    s = [scales[i] for i in definite]
    rbb = linalg.congruent(r.ints, linalg.transpose([dq.column(i) for i in definite]))
    a = [
        [r_unit * _float(e, si * sj * r.den) * gi * gj for e, sj, gj in zip(row, s, g)]
        for row, si, gi in zip(rbb, s, g)
    ]
    eigvals, x = _jacobi_eigh(a)
    b = _float_cols(dq)
    w = [[e * gi for e in b[i]] for i, gi in zip(definite, g)]
    bcols = linalg.mat_mul(linalg.transpose(x), w) + tuple(b[f] for f in zero)
    qf = [[_float(e, q.den) for e in row] for row in q.ints]
    rf = [[_float(e, r.den) for e in row] for row in r.ints]
    bmat = linalg.transpose(bcols)
    tq = linalg.congruent(qf, bmat)
    tr = linalg.congruent(rf, bmat)
    if not all(math.isfinite(e) for m in (tq, tr) for row in m for e in row):
        raise NumericalFailure("B^T Q B or B^T R B is out of float range")
    residual = max(_offdiag_residual(tq, tol), _offdiag_residual(tr, tol))
    if residual > tol:
        raise NumericalFailure(f"residual {residual} exceeds tolerance {tol}")

    q_diag = (float(oq),) * len(definite) + (0.0,) * len(zero)
    diag_error = max(abs(tq[i][i] - q_diag[i]) for i in range(n))
    if diag_error > tol:
        raise NumericalFailure(
            f"diagonal of B^T Q B is off the reported q_diag by {diag_error}, "
            f"over tolerance {tol}"
        )
    return SimDiagResult(
        basis=tuple(tuple(col[k] for col in bcols) for k in range(n)),
        q_diag=q_diag,
        r_diag=tuple(r_unit * v for v in eigvals) + (0.0,) * len(zero),
        residual=residual,
    )


def simdiag_general(
    q: QuadraticForm, r: QuadraticForm, tol: float = DEFAULT_TOL
) -> SimDiagResult:
    """Dispatch over both theorems: indefinite q goes through the
    proportionality decision (any diagonalizing basis of q then works for
    both); semidefinite pairs go through the kernel route."""
    _check_tol(tol)
    if q.dim != r.dim:
        raise DimensionMismatch(f"dims differ: {q.dim} vs {r.dim}")
    dq = congruence_diagonalize(q)
    if dq.lead:
        verdict = _decide_in_frame(q, r, dq)
        if isinstance(verdict, Counterexample):
            raise ContainmentFails(
                "q has a null-cone point where r is nonzero",
                witness=verdict.witness,
            )
        an, ad = verdict.alpha.as_integer_ratio()
        basis = tuple(zip(*_float_cols(dq)))
        q_diag = tuple(_float(d.numerator, d.denominator) for d in dq.diag)
        r_diag = tuple(_float(an * d.numerator, ad * d.denominator) for d in dq.diag)
        result = SimDiagResult(basis=basis, q_diag=q_diag, r_diag=r_diag, residual=0.0)
        _set(result, "_alpha", verdict.alpha)
        return result
    return _simdiag_in_frame(q, r, dq, congruence_diagonalize(r), tol)
