"""Quadratic forms over the rationals: evaluation, congruence
diagonalization, inertia, classification, and pullback by a linear map."""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction

from . import linalg
from .errors import DimensionMismatch, FormatError, NonSymmetricMatrix
from .record import Record, _set, lazy
from .scalars import QuadExt, _read_entry, exact_sqrt, render_ratio

INDEFINITE = "indefinite"
POSITIVE_DEFINITE = "positive-definite"
NEGATIVE_DEFINITE = "negative-definite"
POSITIVE_SEMIDEFINITE_DEGENERATE = "positive-semidefinite-degenerate"
NEGATIVE_SEMIDEFINITE_DEGENERATE = "negative-semidefinite-degenerate"
ZERO = "zero"


def _common_denominator(ratios):
    """(den, ints) of the ratios {d: {key: x}}, each key's value x / d
    with ints x and d > 0: ints[key] / den = x / d, den > 0 and
    gcd(den, *ints.values()) = 1, so equal values give equal (den, ints).
    den is the lcm of the d over that common factor, which is not 1 when a
    ratio is not in lowest terms.  A group whose d is the lcm is taken as
    it is, so ints over one denominator cost one gcd."""
    den = math.lcm(*ratios)
    ints = {}
    for d, nums in ratios.items():
        f = den // d
        ints.update(nums if f == 1 else {e: x * f for e, x in nums.items()})
    g = math.gcd(den, *ints.values())
    if g != 1:
        den //= g
        ints = {e: x // g for e, x in ints.items()}
    return den, ints


class _IntMatrix:
    """A nonempty square rational matrix held as Python ints over one
    positive denominator: entry (i, j) is ints[i][j] / den, with den the
    lcm of the entries' reduced denominators, so equal matrices hold equal
    (den, ints).  The Fraction rows `matrix` are built the first time they
    are read, by repr; no command reads them.

    The constructor is the one matrix reader, for library callers and
    matrix files alike (form_from_json, transform_from_json): it refuses
    an empty or ragged matrix before it reads an entry, then reads the
    entries with _read_entries, so an error names its entry."""

    __slots__ = ()

    def __init__(self, rows):
        rows = [*map(tuple, rows)]
        n = len(rows)
        if not n:
            raise FormatError("matrix is empty")
        if {*map(len, rows)} != {n}:
            raise FormatError("matrix is not square")
        self._fill(rows, _read_entries(rows, n))

    def _fill(self, rows, ratios):
        """Entry (i, j) is ratios' value of key rows[i][j], written over
        one denominator by _common_denominator."""
        den, ints = _common_denominator(ratios)
        _set(self, "den", den)
        _set(self, "ints", tuple(tuple(map(ints.__getitem__, row)) for row in rows))
        _set(self, "dim", len(rows))

    @classmethod
    def _of(cls, rows, ratios):
        """The matrix _fill makes of rows and ratios, for a product of
        matrices already read; no validation."""
        m = cls.__new__(cls)
        m._fill(rows, ratios)
        return m

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @lazy
    def matrix(self) -> tuple:
        """n x n tuple of Fraction rows, built the first time it is read."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.ints)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self.matrix]!r})"


def _check_symmetric(m: _IntMatrix):
    """Raise NonSymmetricMatrix at the first entry (i, j), i < j, that
    differs from (j, i)."""
    ints = m.ints
    if ints != tuple(zip(*ints)):
        n, den = m.dim, m.den
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if ints[i][j] != ints[j][i])
        raise NonSymmetricMatrix(
            f"entry ({i},{j}) = {render_ratio(ints[i][j], den)} differs from "
            f"({j},{i}) = {render_ratio(ints[j][i], den)}"
        )


class QuadraticForm(_IntMatrix, Record):
    """Symmetric rational matrix Q with q(x) = sum_ij Q_ij x_i x_j."""

    __slots__ = ("dim", "den", "ints", "_matrix")
    _fields = ("matrix",)

    def __init__(self, rows):
        super().__init__(rows)
        _check_symmetric(self)


class Inertia(Record):
    """Counts of positive (k), negative (m), and zero (z) diagonal entries
    of any congruence diagonalization; invariant by Sylvester's law.

    blocks is the sign layout of a frame of this inertia: the ranges of
    frame indices of its positive, negative and zero d_i, in that order,
    which is the order CongruenceDiagonalization.order puts them in.
    Every reader of a frame's +, -, 0 blocks reads them here."""

    __slots__ = ("k", "m", "z")

    @property
    def dim(self):
        return self.k + self.m + self.z

    blocks = property(lambda self: (
        range(self.k), range(self.k, self.k + self.m), range(self.k + self.m, self.dim)))


# the inertia of every lead frame (see CongruenceDiagonalization.lead)
_LEAD_INERTIA = Inertia(1, 1, 0)


class CongruenceDiagonalization(Record):
    """Invertible basis B (columns) with B^T Q B = diag(diag).

    diag holds the n rational diagonal values, ordered +, -, 0, whose
    ranges of frame indices are inertia.blocks; frame index f is step
    order[f] of congruence_diagonalize's pass.  B comes out of the
    elimination in ints: column f is column(f) / scales[f], with
    scales[f] a positive int.

    The pass is resumable: it keeps its state and runs only as far as a
    reader asks.  On the frame congruence_diagonalize returns, reading
    order, diag, inertia, scales, cols or column(f) runs it to the end.
    lead runs it only until it has a pivot of each sign, and is a
    two-entry frame over the same pass, whose inertia (1, 1, 0) is given,
    or None when q is not indefinite.  The pass brings a row of Q up to
    date only when a step reads it (see _eliminate), so the s steps lead
    runs cost O(s n), not O(s n^2).  Every frame over one pass shares its
    log of pivot rows and repairs, and column(f) is built from the log
    the first time any of them reads it, and kept; cols is all n of them,
    and the rational matrix basis is built from cols the first time it
    is read, by no command.  So a verdict that needs only diag and
    inertia never builds B, and a witness builds the 1 or 2 columns its
    support reads.

    _run is the pass's state: (the elimination, its log, (d_i, |scale_i|)
    for each step i run so far, the columns built so far by step, n).  A
    frame built from its fields is one whose pass has ended, with the
    steps in frame order, so diag and scales are read back as tuples.
    """

    __slots__ = ("_run", "_order", "_inertia", "_cols", "_basis", "_lead")
    _fields = ("diag", "inertia", "cols", "scales")

    def __init__(self, diag, inertia, cols, scales):
        _set(self, "_run", (iter(()), [], list(zip(diag, scales)), dict(enumerate(cols)), len(diag)))
        _set(self, "_inertia", inertia)

    @lazy
    def order(self) -> tuple:
        """The pass step of each frame index: the steps of positive, then
        negative, then zero d_i, each in pass order."""
        any(self._run[0])  # the pass yields None after each step: this runs it to its end
        signs = [_sign(d) for d, _ in self._run[2]]
        return tuple(c for s in (1, -1, 0) for c, x in enumerate(signs) if x == s)

    dim = property(lambda self: self._run[4], doc="n, read without running the pass")
    diag = property(lambda self: tuple(self._run[2][c][0] for c in self.order), doc="d_i in frame order")
    scales = property(lambda self: tuple(self._run[2][c][1] for c in self.order), doc="|scale_i| in frame order")

    @lazy
    def inertia(self) -> Inertia:
        signs = [_sign(d) for d in self.diag]
        return Inertia(signs.count(1), signs.count(-1), signs.count(0))

    @lazy
    def lead(self):
        """The frame of the first positive and the first negative step in
        pass order, diag (d_p, d_n) and inertia (1, 1, 0), or None when
        the pass ends without both signs, that is when q is not
        indefinite.  d_i and scale_i are fixed once step i has run, and
        column c depends on steps of index <= c alone (see _column), so
        each entry and column is that of the frame run to the end: frame
        indices 0 and k there."""
        run, _, rec, _, _ = self._run
        signs = [_sign(d) for d, _ in rec]
        while not (1 in signs and -1 in signs):
            if next(run, True):  # None after each step, True once the pass has ended
                return None
            signs.append(_sign(rec[-1][0]))
        return _frame(self._run, order=(signs.index(1), signs.index(-1)), inertia=_LEAD_INERTIA)

    def column(self, f) -> tuple:
        """The n ints of column f of B times scales[f], built by _column
        the first time a frame over the pass reads it, and kept."""
        _, steps, rec, built, n = self._run
        c = self.order[f]
        if c not in built:
            built[c] = _column(steps, c, rec[c][1], n)
        return built[c]

    @lazy
    def cols(self) -> tuple:
        """column(f) for each f; the log is let go once all n columns of
        the pass are built."""
        cols = tuple(map(self.column, range(len(self.order))))
        if len(self._run[3]) == self.dim:
            self._run[1].clear()
        return cols

    @lazy
    def basis(self) -> tuple:
        """n x n rational matrix, columns are basis vectors."""
        cols, scales = self.cols, self.scales
        return tuple(
            tuple(Fraction(col[r], s) for col, s in zip(cols, scales))
            for r in range(self.dim)
        )

    def pullback(self, support, t) -> Point:
        """B v as a Point, the input coordinates of the frame vector v
        with v_a = x + y*sqrt(t) for each (a, x, y) in support, x and y
        ints or Fractions, and v_a = 0 elsewhere.  When t is the square of
        a rational, sqrt(t) is folded into x, and B v is rational over
        t = 1.

        Column a of B is column(a) / scales[a], so coordinate i of B v is
        a sum over the support of column(a)[i] (x + y sqrt t) / scales[a];
        it runs in ints over one common denominator D, which is the
        point's, and no QuadExt is made.  Only the support's columns are
        built, and neither cols nor basis is read."""
        root = exact_sqrt(t)
        if root is not None:
            support, t = [(a, x + y * root if y else x, 0) for a, x, y in support], Fraction(1)
        scales = self.scales
        # column a times x is column(a) * xn / (scales[a] * xd)
        terms = [
            (self.column(a), *x.as_integer_ratio(), *y.as_integer_ratio(), scales[a])
            for a, x, y in support
        ]
        den = math.lcm(*[s * d for _, _, xd, _, yd, s in terms for d in (xd, yd)])
        rat = rad = [0] * self.dim
        for col, xn, xd, yn, yd, s in terms:
            if xn:
                x = xn * den // (s * xd)
                rat = [acc + c * x for acc, c in zip(rat, col)]
            if yn:
                y = yn * den // (s * yd)
                rad = [acc + c * y for acc, c in zip(rad, col)]
        return Point(t, den, tuple(rat), tuple(rad))


class LinearTransform(_IntMatrix, Record):
    """Arbitrary square rational matrix; singular inputs are allowed."""

    __slots__ = ("dim", "den", "ints", "_matrix")
    _fields = ("matrix",)

    # Record would otherwise make an __init__ taking the fields
    __init__ = _IntMatrix.__init__

    @staticmethod
    def identity(n):
        return LinearTransform.diagonal([1] * n)

    @staticmethod
    def scaling(n, c):
        return LinearTransform.diagonal([c] * n)


class Point(Record):
    """A point of n coordinates (a_i + b_i*sqrt(t)) / D, held in ints: the
    n-tuples a and b of ints, D > 0, and t a positive Fraction, or None
    when the point was read from rational entries alone.  It is the one
    form forms.evaluate and HomogeneousPoly.evaluate read a point in, and
    a witness's own: len() of it is n, and iterating it gives the n
    coordinates as QuadExt values over t (over 1 when t is None).  Two
    points are equal when they are written alike."""

    __slots__ = ("t", "d", "a", "b")

    def __len__(self):
        return len(self.a)

    def __iter__(self):
        d, t = self.d, self.t or 1
        return (QuadExt(Fraction(x, d), Fraction(y, d), t) for x, y in zip(self.a, self.b))


def _read_point(x):
    """The Point of x, a Point, which is returned as it is, or a vector of
    QuadExt values and rationals, written as entries
    (a_i + b_i*sqrt(t)) / D.  Each entry that is not a QuadExt is read by
    scalars._read_entry, so a coordinate is spelled as a matrix entry is,
    and a float or a bool raises FormatError.  t is the radicand of the
    first entry with a sqrt-part, or of the first QuadExt when none has
    one, and None when no entry is a QuadExt.  QuadExt._align writes the
    other entries over t, and raises MismatchedRadicand when no rational
    square joins the two radicands."""
    if type(x) is Point:
        return x
    ext = [c for c in x if isinstance(c, QuadExt)]
    lead = next((c for c in ext if c.rad), ext[0] if ext else None)
    # the coordinates a Point iterates share one t object: no comparison then
    x = [
        lead._align(c)[0] if isinstance(c, QuadExt) and c.rad and c.t is not lead.t else c
        for c in x
    ]
    parts = [(c.rat, c.rad) if isinstance(c, QuadExt) else (c, 0) for c in x]
    pairs = [(_read_entry(u), _read_entry(v)) for u, v in parts]
    d = math.lcm(*[d for (_, ad), (_, bd) in pairs for d in (ad, bd)])
    a = tuple([an * (d // ad) for (an, ad), _ in pairs])
    b = tuple([bn * (d // bd) for _, (bn, bd) in pairs])
    return Point(None if lead is None else lead.t, d, a, b)


def _apply(m, v) -> list:
    """M v for m the rows of a symmetric int matrix, a form's ints, and v
    a vector of n ints: the sum of the rows of m at the nonzero entries
    of v, row i of a symmetric M being its column i.  A zero entry of v
    costs nothing, so M v costs O(n nnz(v)).  It is the one int product
    every exact form value is read through, as dots of it with _dot;
    linalg.mat_vec is the dense product for any matrix."""
    out = [0] * len(m)
    for row, x in zip(m, v):
        if x:
            out = [acc + e * x for acc, e in zip(out, row)]
    return out


def _dot(u, v):
    """u . v for int vectors u and v; u^T M v is _dot(u, _apply(m, v))."""
    return sum(map(operator.mul, u, v))


def evaluate(q: QuadraticForm, x):
    """q(x) for a Point, or a vector of QuadExt values and rationals as
    _read_point reads them; a Fraction when x has no radicand t, that is
    when no entry is a QuadExt.

    _read_point writes x as (a + b*sqrt(t)) / D with int vectors a and b.
    With Q = Q_int / den, q(x) = (a^T Q_int a + t b^T Q_int b
    + 2 a^T Q_int b sqrt(t)) / (D^2 den), three dots over the products
    Q_int a and Q_int b that _apply makes.
    """
    if len(x) != q.dim:
        raise DimensionMismatch(f"vector length {len(x)} != dim {q.dim}")
    p = _read_point(x)
    qa, qb = _apply(q.ints, p.a), _apply(q.ints, p.b)
    aqa, bqb, aqb = _dot(p.a, qa), _dot(p.b, qb), _dot(p.a, qb)
    big = p.d * p.d * q.den
    tn, td = (1, 1) if p.t is None else p.t.as_integer_ratio()
    rat = Fraction(aqa * td + tn * bqb, big * td)
    return rat if p.t is None else QuadExt(rat, Fraction(2 * aqb, big), p.t)


def congruence_diagonalize(q: QuadraticForm) -> CongruenceDiagonalization:
    """Symmetric elimination producing invertible B with B^T Q B diagonal.

    Diagonal values stay rational (not normalized to +-1, which would need
    square roots); the diagonal is permuted to the order positives,
    negatives, zeros and the inertia is read off the signs.

    The pass runs in Python ints, on the form's own Q = A / den.  A pivot
    step is a Bareiss step (Bareiss 1968): the trailing block of A is held
    multiplied by the last nonzero pivot, prev, so every update divides
    exactly by it, and diag[c] = a_cc / (scale_c * den) with scale_c the
    prev of step c.  The steps' updates reach a row of A only when a
    step reads it (_eliminate gives the order), with the same arithmetic,
    so a pass stopped early has read only the rows its steps read.

    The pass updates A only.  B takes the same column operations, but no
    step reads B, and row a[i] is final once step i has run: later steps,
    swaps and repairs touch rows i + 1 onwards.  So the pass logs each
    repair (add, swap) and each pivot step (i, a[i]), whose pivot is
    a[i][i].  CongruenceDiagonalization.column builds a column of B from
    the log the first time it is read, by back-substitution on the pivot
    rows whose every division is exact (_column gives the argument).

    The pass is resumable (_eliminate runs it): this returns the frame
    over it before its first step, and each reader of the frame runs it
    as far as it needs.  d_c and scale_c are fixed once step c has run,
    since later steps touch rows c + 1 onwards only.
    """
    steps, rec = [], []
    return _frame((_eliminate(q, steps, rec), steps, rec, {}, q.dim))


def _frame(run, **known):
    """The frame over the pass state run (see CongruenceDiagonalization)
    with the lazy attributes known already given: with order, frame
    index f is step order[f]; with none, it is the whole frame, ordered
    when the pass ends."""
    d = CongruenceDiagonalization.__new__(CongruenceDiagonalization)
    _set(d, "_run", run)
    for name, value in known.items():
        _set(d, "_" + name, value)
    return d


def _sign(d):
    """The sign of the Fraction d, read off its int numerator."""
    return (d.numerator > 0) - (d.numerator < 0)


def _eliminate(q, steps, rec):
    """The pass of congruence_diagonalize, one step per resumption: step
    i logs its repairs and its pivot row to steps, appends
    (d_i, |scale_i|) to rec and yields.

    The pass is left-looking (Golub & Van Loan, Matrix Computations,
    4.1-4.2): a pivot step updates no row when it runs, and is added to
    the list of pivot steps run so far.  A row is brought up to date only
    when a step reads it, by the pivot steps it has not had yet, in
    order: the Bareiss update (p x - c y) // prev of row j by step k,
    with c = row_k[j], which the right-looking pass applies to every
    trailing row when step k runs.  The updates of one row are the same,
    in the same order, so the pivots and the logged rows are the same;
    but a pass stopped after s steps has updated s rows, O(s n) work,
    where the trailing block is O(n^2).  Until a step reads it, a row is
    q's own tuple of ints.  A zero pivot's repair reads the whole
    trailing block, so it brings every trailing row up to date first and
    then runs on them as they are."""
    n = q.dim
    den, a = q.den, list(q.ints)
    prev, pivots, applied = 1, [], [0] * n  # applied[j]: pivots[:applied[j]] are in row j

    def read(j):
        row = a[j]
        if row.__class__ is tuple:
            row = a[j] = list(row)
        for row_k, p_k, prev_k in pivots[applied[j] :]:
            c = row_k[j]
            if c:
                row[j:] = [(p_k * x - c * y) // prev_k for x, y in zip(row[j:], row_k[j:])]
            else:
                row[j:] = [p_k * x // prev_k for x in row[j:]]
        applied[j] = len(pivots)
        return row

    def col_add(j, i):
        # b_j += b_i, and the congruence update of the trailing block of A
        steps.append(("add", i, j))
        for r in range(i, n):
            a[r][j] += a[r][i]
        for r in range(i, n):
            a[j][r] += a[i][r]

    def col_swap(i, j):
        steps.append(("swap", i, j))
        for r in range(i, n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]

    for i in range(n):
        if read(i)[i] == 0:
            for r in range(i + 1, n):
                read(r)
            # pivot steps update only the upper triangle of the trailing
            # block; the swap and the repair below read both
            for r in range(i, n):
                for l in range(r + 1, n):
                    a[l][r] = a[r][l]
            swap_at = next((l for l in range(i + 1, n) if a[l][l]), None)
            if swap_at is None:
                swap_at = next((j for j in range(i + 1, n) if a[i][j]), None)
                if swap_at is not None:
                    # a_ii and every later diagonal entry are zero, so b_j + b_i
                    # has a_jj = a_ii + 2 a_ij + a_jj = 2 a_ij != 0: no retry
                    col_add(swap_at, i)
            if swap_at is not None:
                col_swap(i, swap_at)
        p, row_i = a[i][i], a[i]
        rec.append((Fraction(p, prev * den), abs(prev)))
        if p:
            steps.append(("pivot", i, row_i))
        yield
        if p:  # else the whole trailing row is zero, and updates nothing
            pivots.append((row_i, p, prev))
            prev = p


def _column(steps, c, s, n):
    """Column c of the pass's B times s = |scale_c|, as n ints, from the
    pass's steps alone.  B is the product of the steps' column operations
    in order, so B e_c is e_c with the steps applied from last to first:
    a repair (add, i, j), b_j += b_i, does z_i += z_j; (swap, i, j) swaps
    z_i and z_j; and a pivot step (i, row), b_j -= (row[j] / p) b_i for
    j > i with p = row[i], does z_i -= (sum_{j > i} row[j] z_j) / p.  A
    step of index i > c touches coordinates after c only, all zero until
    the walk reaches step c, so it is skipped; the rest cost O(n) each,
    and z is zero past hi.

    Every // p is exact.  Let A' be den Q in ints after all the pass's
    swaps and repairs, and P the indices before c that pivoted; the
    Bareiss prev at c, s up to sign, is det A'[P, P].  Once the walk has
    undone pivot i, z is s times column c of the basis that the pass's
    operations from pivot i on make of the identity, up to later repairs,
    which are unimodular int operations.  By Cramer's rule and Schur's
    determinant formula, each entry of that column is a minor of A' on
    the rows P over det A'[P, P].  So z stays an int vector, and the sum,
    p times the change in z_i, divides by p.
    """
    z = [0] * n
    z[c], hi = s, c + 1
    for op, i, x in reversed(steps):
        if i > c:
            continue
        if op == "pivot":
            z[i] -= sum(a * b for a, b in zip(x[i + 1 : hi], z[i + 1 : hi])) // x[i]
        elif op == "add":
            z[i] += z[x]
        else:
            z[i], z[x] = z[x], z[i]
            hi = max(hi, x + 1)
    return tuple(z)


def inertia(q: QuadraticForm) -> Inertia:
    return congruence_diagonalize(q).inertia


def classify(q: QuadraticForm) -> str:
    return classify_inertia(inertia(q))


def classify_inertia(ine: Inertia) -> str:
    """Classification of any form with inertia ine (k, m, z)."""
    n = ine.dim
    if ine.k and ine.m:
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
    coordinates, evaluate(result, x) = evaluate(q, Lx).

    With Q = Q_int / den_Q and L = L_int / den_L, the product runs in
    ints, L^T Q L = L_int^T Q_int L_int / (den_Q den_L^2), and one gcd
    reduces it to the result's own (den, ints)."""
    if q.dim != L.dim:
        raise DimensionMismatch(f"form dim {q.dim} != transform dim {L.dim}")
    m = linalg.congruent(q.ints, L.ints)
    return QuadraticForm._of(m, {q.den * L.den * L.den: {x: x for row in m for x in row}})


# --- matrix exchange format (shared with the CLI) ---------------------------


# the entry types _read_entries reads once per distinct value;
# True == 1 and 1.0 == 1, so bool and float must not share their keys
_INT_OR_TEXT = {int, str}


def matrix_rows_from_json(obj):
    """The rows of a JSON matrix document, for the QuadraticForm or
    LinearTransform constructor, which reads their entries: the document
    is an object whose 'dim' is a positive int n and whose 'rows' are n
    lists of n entries.  Entries before a bad row are read here, so an
    error there is named before the row's shape."""
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object with 'dim' and 'rows'")
    try:
        n = obj["dim"]
        rows = obj["rows"]
    except KeyError as exc:
        raise FormatError(f"missing key {exc}") from exc
    # type(), not isinstance(): JSON true and false are no dimension
    if type(n) is not int or n < 1:
        raise FormatError(f"'dim' must be a positive integer, got {n!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise FormatError(f"'rows' must be a list of {n} rows")
    bad = next((i for i, row in enumerate(rows) if not isinstance(row, list) or len(row) != n), n)
    if bad < n:
        _read_entries(rows[:bad], n)  # entries before a bad row fail first
        raise FormatError(f"row {bad} must be a list of {n} entries")
    return rows


def _read_entries(rows, n):
    """{den: {entry: num}} for the entries of rows of n entries each, den
    > 0, keyed by the entry as written; an error names the first bad
    entry, as (row,column).  A matrix repeats few values, so each
    distinct int or text entry is read once."""
    entries = [e for row in rows for e in row]
    if {*map(type, entries)} <= _INT_OR_TEXT:
        new = dict.fromkeys(entries)
    else:
        new = entries  # an entry of another type fails in _read_entry, in order
    ratios = {}
    for e in new:
        try:
            x, d = _read_entry(e)
        except FormatError as exc:
            k = next(k for k, x in enumerate(entries) if x is e)
            raise FormatError(f"entry ({k // n},{k % n}): {exc}") from exc
        ratios.setdefault(d, {})[e] = x
    return ratios


def form_from_json(obj) -> QuadraticForm:
    return QuadraticForm(matrix_rows_from_json(obj))


def transform_from_json(obj) -> LinearTransform:
    return LinearTransform(matrix_rows_from_json(obj))


def matrix_to_json(m: _IntMatrix):
    """The JSON matrix of a QuadraticForm or LinearTransform, rendered
    from its (den, ints)."""
    den = m.den
    return {"dim": m.dim, "rows": [[render_ratio(x, den) for x in row] for row in m.ints]}


def load_json(path):
    """The parsed JSON document in the file at path, for form_from_json,
    transform_from_json or poly_from_json."""
    with open(path) as fh:
        try:
            return json.load(fh)
        # bad JSON, bytes that are not UTF-8, or arrays nested past the
        # decoder's recursion limit
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
