"""Quadratic forms over the rationals: evaluation, congruence
diagonalization, inertia, classification, and pullback by a linear map."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DimensionMismatch, FormatError, NonSymmetricMatrix
from .scalars import QuadExt, parse_rational, render_rational

INDEFINITE = "indefinite"
POSITIVE_DEFINITE = "positive-definite"
NEGATIVE_DEFINITE = "negative-definite"
POSITIVE_SEMIDEFINITE_DEGENERATE = "positive-semidefinite-degenerate"
NEGATIVE_SEMIDEFINITE_DEGENERATE = "negative-semidefinite-degenerate"
ZERO = "zero"


class QuadraticForm:
    """Symmetric rational matrix Q with q(x) = sum_ij Q_ij x_i x_j."""

    __slots__ = ("matrix", "dim")

    def __init__(self, rows):
        m = linalg.mat(rows)
        n = len(m)
        if any(len(row) != n for row in m):
            raise FormatError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise NonSymmetricMatrix(
                        f"entry ({i},{j}) = {m[i][j]} differs from ({j},{i}) = {m[j][i]}"
                    )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", n)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticForm is immutable")

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"QuadraticForm({[list(r) for r in self.matrix]!r})"

    @staticmethod
    def diagonal(entries):
        entries = [Fraction(e) for e in entries]
        n = len(entries)
        return QuadraticForm(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )


@dataclass(frozen=True)
class Inertia:
    """Counts of positive (k), negative (m), and zero (z) diagonal entries
    of any congruence diagonalization; invariant by Sylvester's law."""

    k: int
    m: int
    z: int

    @property
    def dim(self):
        return self.k + self.m + self.z


@dataclass(frozen=True)
class CongruenceDiagonalization:
    """Invertible basis B (columns) with B^T Q B = diag(diag)."""

    basis: tuple  # n x n rational matrix, columns are basis vectors
    diag: tuple  # n rational diagonal values, ordered +, -, 0
    inertia: Inertia


class LinearTransform:
    """Arbitrary square rational matrix; singular inputs are allowed."""

    __slots__ = ("matrix", "dim")

    def __init__(self, rows):
        m = linalg.mat(rows)
        n = len(m)
        if any(len(row) != n for row in m):
            raise FormatError("matrix is not square")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", n)

    def __setattr__(self, name, value):
        raise AttributeError("LinearTransform is immutable")

    def __eq__(self, other):
        return isinstance(other, LinearTransform) and self.matrix == other.matrix

    def __repr__(self):
        return f"LinearTransform({[list(r) for r in self.matrix]!r})"

    def compose(self, other: "LinearTransform") -> "LinearTransform":
        """self . other, i.e. apply other first."""
        return LinearTransform(linalg.mat_mul(self.matrix, other.matrix))

    @staticmethod
    def identity(n):
        return LinearTransform(linalg.identity(n))

    @staticmethod
    def scaling(n, c):
        c = Fraction(c)
        return LinearTransform(linalg.mat_scale(linalg.identity(n), c))

    @staticmethod
    def diagonal(entries):
        entries = [Fraction(e) for e in entries]
        n = len(entries)
        return LinearTransform(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )


def evaluate(q: QuadraticForm, x):
    """q(x) for a vector of Fractions or QuadExt values (shared radicand).

    A QuadExt vector a + b*sqrt(t) with one radicand t is evaluated as
    the rational forms a^T Q a + t * b^T Q b and 2 * a^T Q b.
    """
    if len(x) != q.dim:
        raise DimensionMismatch(f"vector length {len(x)} != dim {q.dim}")
    t = x[0].t if x and isinstance(x[0], QuadExt) else None
    if t is not None and all(isinstance(c, QuadExt) and c.t == t for c in x):
        return _evaluate_split(q.matrix, x, t)
    total = 0
    for i in range(q.dim):
        for j in range(q.dim):
            total = total + q.matrix[i][j] * x[i] * x[j]
    return total


def _evaluate_split(m, x, t):
    a = [(i, c.rat) for i, c in enumerate(x) if c.rat]
    b = [(i, c.rad) for i, c in enumerate(x) if c.rad]
    qa = {i: sum(m[i][j] * v for j, v in a) for i, _ in a}
    qb = {i: sum(m[i][j] * v for j, v in b) for i in {i for i, _ in a + b}}
    aqa = sum(v * qa[i] for i, v in a)
    bqb = sum(v * qb[i] for i, v in b)
    aqb = sum(v * qb[i] for i, v in a)
    return QuadExt(aqa + t * bqb, 2 * aqb, t)


def bilinear_eval(q: QuadraticForm, x, y):
    """Symmetric bilinear companion: q~(x, y) = sum Q_ij x_i y_j."""
    if len(x) != q.dim or len(y) != q.dim:
        raise DimensionMismatch("vector length does not match form dimension")
    total = 0
    for i in range(q.dim):
        for j in range(q.dim):
            total = total + q.matrix[i][j] * x[i] * y[j]
    return total


def congruence_diagonalize(q: QuadraticForm) -> CongruenceDiagonalization:
    """Symmetric elimination producing invertible B with B^T Q B diagonal.

    Diagonal values stay rational (not normalized to +-1, which would need
    square roots); the diagonal is permuted to the order positives,
    negatives, zeros and the inertia is read off the signs.
    """
    n = q.dim
    a = [list(row) for row in q.matrix]
    b = [list(row) for row in linalg.identity(n)]  # columns are basis vectors

    def col_addmul(j, i, c):
        # basis col j += c * col i; congruence update of A
        # skipping zero multiplicands changes no value: B starts as the
        # identity and eliminated rows and columns of A are zero
        for r in range(n):
            if x := b[r][i]:
                b[r][j] += c * x
        for r in range(n):
            if x := a[r][i]:
                a[r][j] += c * x
        for r in range(n):
            if x := a[i][r]:
                a[j][r] += c * x

    def col_swap(i, j):
        for r in range(n):
            b[r][i], b[r][j] = b[r][j], b[r][i]
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]

    for i in range(n):
        while True:
            if a[i][i] != 0:
                inv = 1 / a[i][i]
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        col_addmul(j, i, -a[i][j] * inv)
                break
            swap_at = next((l for l in range(i + 1, n) if a[l][l] != 0), None)
            if swap_at is not None:
                col_swap(i, swap_at)
                continue
            off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if off is None:
                break  # whole trailing row is zero
            col_addmul(off, i, 1)
            if a[off][off] == 0:
                # pivot repair cancelled; retry with b_off - b_i instead
                col_addmul(off, i, -2)
            # loop back: some later diagonal entry is now nonzero

    diag = [a[i][i] for i in range(n)]
    order = (
        [i for i in range(n) if diag[i] > 0]
        + [i for i in range(n) if diag[i] < 0]
        + [i for i in range(n) if diag[i] == 0]
    )
    basis = tuple(tuple(b[r][c] for c in order) for r in range(n))
    sorted_diag = tuple(diag[c] for c in order)
    k = sum(1 for d in sorted_diag if d > 0)
    m = sum(1 for d in sorted_diag if d < 0)
    return CongruenceDiagonalization(
        basis=basis, diag=sorted_diag, inertia=Inertia(k, m, n - k - m)
    )


def inertia(q: QuadraticForm) -> Inertia:
    return congruence_diagonalize(q).inertia


def classify(q: QuadraticForm) -> str:
    return classify_inertia(inertia(q))


def classify_inertia(ine: Inertia) -> str:
    """Classification of any form with inertia ine (k, m, z)."""
    n = ine.dim
    if ine.k > 0 and ine.m > 0:
        return INDEFINITE
    if ine.k == n:
        return POSITIVE_DEFINITE
    if ine.m == n:
        return NEGATIVE_DEFINITE
    if ine.k == 0 and ine.m == 0:
        return ZERO
    if ine.m == 0:
        return POSITIVE_SEMIDEFINITE_DEGENERATE
    return NEGATIVE_SEMIDEFINITE_DEGENERATE


def apply_transform(q: QuadraticForm, L: LinearTransform) -> QuadraticForm:
    """Pullback L^T Q L: evaluates the original form on transformed
    coordinates, evaluate(result, x) = evaluate(q, Lx)."""
    if q.dim != L.dim:
        raise DimensionMismatch(f"form dim {q.dim} != transform dim {L.dim}")
    lt = linalg.transpose(L.matrix)
    return QuadraticForm(linalg.mat_mul(linalg.mat_mul(lt, q.matrix), L.matrix))


# --- matrix exchange format (shared with the CLI) ---------------------------


def matrix_rows_from_json(obj):
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object with 'dim' and 'rows'")
    try:
        n = obj["dim"]
        rows = obj["rows"]
    except KeyError as exc:
        raise FormatError(f"missing key {exc}") from exc
    if not isinstance(n, int) or n < 1:
        raise FormatError(f"'dim' must be a positive integer, got {n!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise FormatError(f"'rows' must be a list of {n} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"row {i} must be a list of {n} entries")
        parsed = []
        for j, e in enumerate(row):
            try:
                parsed.append(parse_rational(e))
            except FormatError as exc:
                raise FormatError(f"entry ({i},{j}): {exc}") from exc
        out.append(parsed)
    return out


def form_from_json(obj) -> QuadraticForm:
    return QuadraticForm(matrix_rows_from_json(obj))


def transform_from_json(obj) -> LinearTransform:
    return LinearTransform(matrix_rows_from_json(obj))


def matrix_to_json(rows):
    return {
        "dim": len(rows),
        "rows": [[render_rational(e) for e in row] for row in rows],
    }


def load_form(path) -> QuadraticForm:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise FormatError(f"{path}: {exc}") from exc
    return form_from_json(obj)


def load_transform(path) -> LinearTransform:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise FormatError(f"{path}: {exc}") from exc
    return transform_from_json(obj)
