"""Simultaneous diagonalization of semidefinite pairs.

For semidefinite q the zero set is the kernel of its matrix, a subspace,
so containment of zero sets is exact rational kernel containment.  When
it holds for a semidefinite pair, a joint diagonalizing basis exists: q
is positive definite on a complement of its kernel, and the classical
generalized symmetric eigenproblem finishes the job there.  The yes/no
decision is exact; only the basis construction is floating point, and
numpy is imported only there, so every exact path runs without it.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .containment import Counterexample, _decide_in_frame, decide_containment
from .errors import (
    ContainmentFails,
    DimensionMismatch,
    NotSemidefinite,
    NumericalFailure,
    Unsupported,
)
from .forms import (
    INDEFINITE,
    Inertia,
    QuadraticForm,
    classify,
    classify_inertia,
    congruence_diagonalize,
)
from .record import Record

DEFAULT_TOL = 1e-9


class SubspaceBasis(Record):
    """Linearly independent rational vectors in Q^dim_ambient."""

    __slots__ = ("dim_ambient", "vectors")


class SimDiagResult(Record):
    """Joint diagonalizing basis (n x n floats, columns are basis vectors)
    with both diagonals and the worst scaled off-diagonal residual."""

    __slots__ = ("basis", "q_diag", "r_diag", "residual")

    def to_json(self):
        return {
            "basis": [list(row) for row in self.basis],
            "q_diag": list(self.q_diag),
            "r_diag": list(self.r_diag),
            "residual": self.residual,
        }


def _orientation(ine: Inertia) -> int:
    """+1 / -1 / 0 for a psd / nsd / zero form of inertia ine; raises on
    indefinite."""
    if ine.k and ine.m:
        raise NotSemidefinite("form is indefinite")
    return 1 if ine.k else -1 if ine.m else 0


def kernel_basis(q: QuadraticForm) -> SubspaceBasis:
    """Exact basis of {x : Qx = 0}.  For semidefinite q this is exactly
    the zero set: q(x) = 0 forces x into the matrix kernel."""
    _orientation(congruence_diagonalize(q).inertia)  # rejects indefinite input
    vectors, _ = linalg.kernel(q.matrix)
    return SubspaceBasis(dim_ambient=q.dim, vectors=vectors)


def _annihilates(r: QuadraticForm, vectors) -> bool:
    zero = (Fraction(0),) * r.dim
    return all(linalg.mat_vec(r.matrix, v) == zero for v in vectors)


def _float(x) -> float:
    """float(x) for an exact value; past the float range (about 1.8e308)
    the float step cannot run, a numerical failure rather than a fault."""
    try:
        return float(x)
    except OverflowError as exc:
        raise NumericalFailure(f"an exact value is out of float range: {exc}") from exc


def _offdiag_residual(mat, tol):
    import numpy as np

    n = mat.shape[0]  # at least 1: a zero q returns before the float step
    off = float(np.max(np.abs(mat - np.diag(np.diag(mat))))) if n > 1 else 0.0
    scale = float(np.max(np.abs(np.diag(mat))))
    if scale > tol:
        return off / scale
    return off


def simdiag_psd(
    q: QuadraticForm, r: QuadraticForm, tol: float = DEFAULT_TOL
) -> SimDiagResult:
    """Joint diagonalization for a semidefinite pair with contained zero
    sets.  Kernel columns of q go in exactly; on the complement q is
    positive definite and a Cholesky-whitened symmetric eigenproblem
    diagonalizes both."""
    return _simdiag_in_frame(q, r, congruence_diagonalize(q).inertia, tol)


def _simdiag_in_frame(
    q: QuadraticForm, r: QuadraticForm, q_inertia: Inertia, tol: float
) -> SimDiagResult:
    """simdiag_psd for a caller that already diagonalized q.

    One rref of Q gives its kernel and its pivot columns.  rref(-Q) =
    rref(Q), so a negative semidefinite q needs no second one.  The
    standard vectors at the pivots complete the kernel to a basis: those
    columns of Q are its lexicographically first column basis, so they
    are the standard vectors a greedy extension, lowest index first,
    would pick.  On them the restrictions of Q and R are submatrices.
    """
    oq = _orientation(q_inertia)
    orr = _orientation(congruence_diagonalize(r).inertia)
    if oq != 0 and orr != 0 and oq != orr:
        raise Unsupported("mixed semidefinite orientations")
    if q.dim != r.dim:
        raise DimensionMismatch(f"dims differ: {q.dim} vs {r.dim}")
    kern, pivots = linalg.kernel(q.matrix)
    if not _annihilates(r, kern):
        raise ContainmentFails("zero set of q is not contained in zero set of r")
    import numpy as np  # first float step: exact paths never load numpy

    n = q.dim
    z = len(kern)
    nm = len(pivots)
    kern_f = np.array([[_float(v[i]) for v in kern] for i in range(n)])
    if nm == 0:  # q = 0, so r = 0: the kernel, all of Q^n, is the basis
        zeros = (0.0,) * n
        return SimDiagResult(
            basis=tuple(map(tuple, kern_f)), q_diag=zeros, r_diag=zeros, residual=0.0
        )

    # both restrictions, each form signed to be positive semidefinite
    r_unit = -1 if orr < 0 else 1
    qmf = np.array([[_float(oq * q.matrix[i][j]) for j in pivots] for i in pivots])
    rmf = np.array([[_float(r_unit * r.matrix[i][j]) for j in pivots] for i in pivots])
    try:
        chol = np.linalg.cholesky(qmf)  # qmf = chol @ chol.T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Cholesky factorization failed: {exc}") from exc
    inv_chol = np.linalg.inv(chol)
    a = inv_chol @ rmf @ inv_chol.T
    a = (a + a.T) / 2
    eigvals, eigvecs = np.linalg.eigh(a)
    x = inv_chol.T @ eigvecs  # x.T qmf x = I, x.T rmf x = diag(eigvals)

    comp_f = np.array([[float(i == p) for p in pivots] for i in range(n)])
    basis = np.hstack([comp_f @ x, kern_f])

    qf = np.array([[_float(e) for e in row] for row in q.matrix])
    rf = np.array([[_float(e) for e in row] for row in r.matrix])
    tq = basis.T @ qf @ basis
    tr = basis.T @ rf @ basis
    residual = max(_offdiag_residual(tq, tol), _offdiag_residual(tr, tol))
    if residual > tol:
        raise NumericalFailure(f"residual {residual} exceeds tolerance {tol}")

    q_diag = tuple([float(oq)] * nm + [0.0] * z)
    diag_error = float(np.max(np.abs(np.diag(tq) - q_diag)))
    if diag_error > tol:
        raise NumericalFailure(
            f"diagonal of B^T Q B is off the reported q_diag by {diag_error}, "
            f"over tolerance {tol}"
        )
    r_diag = tuple([r_unit * float(v) for v in eigvals] + [0.0] * z)
    return SimDiagResult(
        basis=tuple(map(tuple, basis)),
        q_diag=q_diag,
        r_diag=r_diag,
        residual=float(residual),
    )


def simdiag_general(
    q: QuadraticForm, r: QuadraticForm, tol: float = DEFAULT_TOL
) -> SimDiagResult:
    """Dispatch over both theorems: indefinite q goes through the
    proportionality decision (any diagonalizing basis of q then works for
    both); semidefinite pairs go through the kernel route."""
    if q.dim != r.dim:
        raise DimensionMismatch(f"dims differ: {q.dim} vs {r.dim}")
    dq = congruence_diagonalize(q)
    if classify_inertia(dq.inertia) == INDEFINITE:
        verdict = _decide_in_frame(q, r, dq)
        if isinstance(verdict, Counterexample):
            raise ContainmentFails(
                "q has a null-cone point where r is nonzero",
                witness=verdict.witness,
            )
        basis = tuple(tuple(_float(e) for e in row) for row in dq.basis)
        q_diag = tuple(_float(d) for d in dq.diag)
        r_diag = tuple(_float(verdict.alpha * d) for d in dq.diag)
        return SimDiagResult(basis=basis, q_diag=q_diag, r_diag=r_diag, residual=0.0)
    return _simdiag_in_frame(q, r, dq.inertia, tol)
