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

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .containment import (  # noqa: F401 -- decide_containment stays bound for perfbench/spans.py
    Counterexample,
    _decide_in_frame,
    decide_containment,
)
from .errors import (
    ContainmentFails,
    DimensionMismatch,
    NotSemidefinite,
    NumericalFailure,
    Unsupported,
)
from .forms import (
    INDEFINITE,
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE_DEGENERATE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE_DEGENERATE,
    ZERO,
    QuadraticForm,
    classify,
    classify_inertia,
    congruence_diagonalize,
)
from .scalars import render_rational

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SubspaceBasis:
    dim_ambient: int
    vectors: tuple  # linearly independent rational vectors

    def to_json(self):
        return {
            "dim_ambient": self.dim_ambient,
            "vectors": [[render_rational(e) for e in v] for v in self.vectors],
        }


@dataclass(frozen=True)
class SimDiagResult:
    """Joint diagonalizing basis (float columns) with both diagonals and
    the worst scaled off-diagonal residual."""

    basis: tuple  # n x n floats, columns are basis vectors
    q_diag: tuple
    r_diag: tuple
    residual: float

    def to_json(self):
        return {
            "basis": [list(row) for row in self.basis],
            "q_diag": list(self.q_diag),
            "r_diag": list(self.r_diag),
            "residual": self.residual,
        }


def _orientation(q: QuadraticForm) -> int:
    """+1 / -1 / 0 for psd / nsd / zero; raises on indefinite."""
    cls = classify(q)
    if cls == INDEFINITE:
        raise NotSemidefinite("form is indefinite")
    if cls in (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE_DEGENERATE):
        return 1
    if cls in (NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE_DEGENERATE):
        return -1
    return 0


def _negated(q: QuadraticForm) -> QuadraticForm:
    return QuadraticForm([[-e for e in row] for row in q.matrix])


def kernel_basis(q: QuadraticForm) -> SubspaceBasis:
    """Exact basis of {x : Qx = 0}.  For semidefinite q this is exactly
    the zero set: q(x) = 0 forces x into the matrix kernel."""
    _orientation(q)  # rejects indefinite input
    vectors = linalg.kernel(q.matrix)
    return SubspaceBasis(dim_ambient=q.dim, vectors=vectors)


def containment_psd(q: QuadraticForm, r: QuadraticForm) -> bool:
    """Z_q subset-of Z_r for a semidefinite pair: exact kernel containment."""
    if q.dim != r.dim:
        raise DimensionMismatch(f"dims differ: {q.dim} vs {r.dim}")
    _orientation(q)
    _orientation(r)
    kq = linalg.kernel(q.matrix)
    zero = (Fraction(0),) * q.dim
    return all(linalg.mat_vec(r.matrix, v) == zero for v in kq)


def _extend_to_basis(kernel_vectors, n):
    """Greedy complement: standard basis vectors, lowest index first,
    keeping exact full rank against the kernel block."""
    chosen = []
    current = [list(v) for v in kernel_vectors]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        candidate = current + [e]
        if linalg.rank(tuple(tuple(row) for row in candidate)) == len(candidate):
            chosen.append(tuple(e))
            current = candidate
        if len(current) == n:
            break
    return tuple(chosen)


def _restrict(q: QuadraticForm, vectors):
    return tuple(tuple(_bilin(q, u, v) for v in vectors) for u in vectors)


def _bilin(q, u, v):
    qv = linalg.mat_vec(q.matrix, v)
    return sum(a * b for a, b in zip(u, qv))


def _offdiag_residual(mat, tol):
    import numpy as np

    n = mat.shape[0]
    if n == 0:
        return 0.0
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
    oq = _orientation(q)
    orr = _orientation(r)
    if oq != 0 and orr != 0 and oq != orr:
        raise Unsupported("mixed semidefinite orientations")
    qn = _negated(q) if oq < 0 else q
    rn = _negated(r) if orr < 0 else r
    if not containment_psd(q, r):
        raise ContainmentFails("zero set of q is not contained in zero set of r")
    import numpy as np  # first float step: exact paths never load numpy

    n = q.dim
    kern = linalg.kernel(qn.matrix)
    z = len(kern)
    comp = _extend_to_basis(kern, n)
    nm = len(comp)

    if nm == 0:
        basis = np.array([[float(v[i]) for v in kern] for i in range(n)])
        q_diag = (0.0,) * n
        r_diag = (0.0,) * n
        result = SimDiagResult(
            basis=tuple(map(tuple, basis)), q_diag=q_diag, r_diag=r_diag, residual=0.0
        )
        return result

    qm = _restrict(qn, comp)
    rm = _restrict(rn, comp)
    qmf = np.array([[float(e) for e in row] for row in qm])
    rmf = np.array([[float(e) for e in row] for row in rm])
    try:
        chol = np.linalg.cholesky(qmf)  # qm = chol @ chol.T
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Cholesky factorization failed: {exc}") from exc
    inv_chol = np.linalg.inv(chol)
    a = inv_chol @ rmf @ inv_chol.T
    a = (a + a.T) / 2
    eigvals, eigvecs = np.linalg.eigh(a)
    x = inv_chol.T @ eigvecs  # x.T qm x = I, x.T rm x = diag(eigvals)

    comp_f = np.array([[float(v[i]) for v in comp] for i in range(n)])
    cols = [comp_f @ x]
    if z:
        cols.append(np.array([[float(v[i]) for v in kern] for i in range(n)]))
    basis = np.hstack(cols)

    qf = np.array([[float(e) for e in row] for row in q.matrix])
    rf = np.array([[float(e) for e in row] for row in r.matrix])
    tq = basis.T @ qf @ basis
    tr = basis.T @ rf @ basis
    residual = max(_offdiag_residual(tq, tol), _offdiag_residual(tr, tol))
    if residual > tol:
        raise NumericalFailure(f"residual {residual} exceeds tolerance {tol}")

    q_unit = -1.0 if oq < 0 else 1.0
    r_sign = -1.0 if orr < 0 else 1.0
    q_diag = tuple([q_unit] * nm + [0.0] * z)
    diag_error = float(np.max(np.abs(np.diag(tq) - q_diag)))
    if diag_error > tol:
        raise NumericalFailure(
            f"diagonal of B^T Q B is off the reported q_diag by {diag_error}, "
            f"over tolerance {tol}"
        )
    r_diag = tuple([r_sign * float(v) for v in eigvals] + [0.0] * z)
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
        basis = tuple(tuple(float(e) for e in row) for row in dq.basis)
        q_diag = tuple(float(d) for d in dq.diag)
        r_diag = tuple(float(verdict.alpha * d) for d in dq.diag)
        return SimDiagResult(basis=basis, q_diag=q_diag, r_diag=r_diag, residual=0.0)
    return simdiag_psd(q, r, tol)
