"""Quadratic forms over the rationals: evaluation, congruence
diagonalization, inertia, classification, and pullback by a linear map."""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import linalg
from .errors import DimensionMismatch, FormatError, NonSymmetricMatrix
from .record import Record, _set, lazy
from .scalars import QuadExt, exact_sqrt, parse_rational, render_ratio

INDEFINITE = "indefinite"
POSITIVE_DEFINITE = "positive-definite"
NEGATIVE_DEFINITE = "negative-definite"
POSITIVE_SEMIDEFINITE_DEGENERATE = "positive-semidefinite-degenerate"
NEGATIVE_SEMIDEFINITE_DEGENERATE = "negative-semidefinite-degenerate"
ZERO = "zero"


def _pair(e):
    """(num, den) of a matrix entry in lowest terms, den > 0: an int as it
    is, anything else as Fraction(e) reads it."""
    if type(e) is int:
        return e, 1
    return (e if type(e) is Fraction else Fraction(e)).as_integer_ratio()


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
    """A square rational matrix held as Python ints over one positive
    denominator: entry (i, j) is ints[i][j] / den, with den the lcm of the
    entries' reduced denominators, so equal matrices hold equal (den, ints).
    The Fraction rows `matrix` are built the first time they are read, by
    repr; no command reads them."""

    __slots__ = ()

    def __init__(self, rows):
        rows = [[_pair(e) for e in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise FormatError("matrix is not square")
        ratios = {}
        for x, d in {p for row in rows for p in row}:
            ratios.setdefault(d, {})[x, d] = x
        self._fill(rows, ratios)

    def _fill(self, rows, ratios):
        """Entry (i, j) is ratios' value of key rows[i][j], written over
        one denominator by _common_denominator."""
        den, ints = _common_denominator(ratios)
        _set(self, "den", den)
        _set(self, "ints", tuple(tuple(map(ints.__getitem__, row)) for row in rows))
        _set(self, "dim", len(rows))

    @classmethod
    def _of(cls, rows, ratios):
        """The matrix _fill makes of rows and ratios; no validation."""
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
    of any congruence diagonalization; invariant by Sylvester's law."""

    __slots__ = ("k", "m", "z")

    @property
    def dim(self):
        return self.k + self.m + self.z


class CongruenceDiagonalization(Record):
    """Invertible basis B (columns) with B^T Q B = diag(diag).

    diag holds the n rational diagonal values, ordered +, -, 0.  B comes
    out of the elimination in ints: column c is cols[c] / scales[c], with
    scales[c] a positive int.  congruence_diagonalize keeps the pivot
    rows and repairs of its pass, and cols is replayed from them the
    first time it is read; the rational matrix basis is built from cols
    the first time it is read, and no command reads it.  So a verdict
    that needs only diag and inertia never builds B.
    """

    __slots__ = ("diag", "inertia", "_cols", "scales", "_log", "_basis")
    _fields = ("diag", "inertia", "cols", "scales")

    def __init__(self, diag, inertia, cols, scales):
        _set(self, "diag", diag)
        _set(self, "inertia", inertia)
        _set(self, "_cols", cols)
        _set(self, "scales", scales)

    @classmethod
    def _lazy(cls, diag, inertia, scales, log):
        """A diagonalization whose cols are replayed from log when read."""
        d = cls.__new__(cls)
        _set(d, "diag", diag)
        _set(d, "inertia", inertia)
        _set(d, "scales", scales)
        _set(d, "_log", log)
        return d

    @lazy
    def cols(self) -> tuple:
        """n int columns, column c of B times scales[c]."""
        cols = _replay(*self._log)
        _set(self, "_log", None)
        return cols

    @lazy
    def basis(self) -> tuple:
        """n x n rational matrix, columns are basis vectors."""
        cols = self.cols
        return tuple(
            tuple(Fraction(col[r], s) for col, s in zip(cols, self.scales))
            for r in range(len(cols))
        )

    def pullback(self, support, t) -> tuple:
        """B v, the input coordinates of the frame vector v with
        v_a = x + y*sqrt(t) for each (a, x, y) in support, x and y ints or
        Fractions, and v_a = 0 elsewhere.  When t is the square of a
        rational, sqrt(t) is folded into x, and B v is rational over t = 1.

        Column a of B is cols[a] / scales[a], so coordinate i of B v is a
        sum over the support of cols[a][i] (x + y sqrt t) / scales[a]; it
        runs in ints over one common denominator, and one QuadExt is made
        per coordinate.  basis is not read."""
        root = exact_sqrt(t)
        if root is not None:
            support, t = [(a, x + y * root if y else x, 0) for a, x, y in support], Fraction(1)
        cols, scales = self.cols, self.scales
        # column a times x is cols[a] * xn / (scales[a] * xd)
        terms = [
            (cols[a], *x.as_integer_ratio(), *y.as_integer_ratio(), scales[a])
            for a, x, y in support
        ]
        den = math.lcm(*[s * d for _, _, xd, _, yd, s in terms for d in (xd, yd)])
        rat = rad = [0] * len(cols)
        for col, xn, xd, yn, yd, s in terms:
            if xn:
                x = xn * den // (s * xd)
                rat = [acc + c * x for acc, c in zip(rat, col)]
            if yn:
                y = yn * den // (s * yd)
                rad = [acc + c * y for acc, c in zip(rad, col)]
        return tuple(QuadExt(Fraction(a, den), Fraction(b, den), t) for a, b in zip(rat, rad))


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


def evaluate(q: QuadraticForm, x):
    """q(x) for a vector of ints, Fractions or QuadExt values; a Fraction
    when no entry is a QuadExt.

    Each entry is read as a + b*sqrt(t), t the radicand of the first entry
    with a sqrt-part: QuadExt._align writes the others over it, and raises
    MismatchedRadicand when no rational square joins the two radicands.
    With a = a_int / D and b = b_int / D over one common denominator D,
    and Q = Q_int / den, q(x) = a^T Q a + t b^T Q b + 2 a^T Q b sqrt(t) is
    read off the int products a_int^T Q_int a_int, b_int^T Q_int b_int and
    a_int^T Q_int b_int over D^2 den.
    """
    if len(x) != q.dim:
        raise DimensionMismatch(f"vector length {len(x)} != dim {q.dim}")
    ext = [c for c in x if isinstance(c, QuadExt)]
    lead = next((c for c in ext if c.rad), ext[0] if ext else None)
    # pullback gives every coordinate the same t object: no comparison then
    x = [
        lead._align(c)[0] if isinstance(c, QuadExt) and c.rad and c.t is not lead.t else c
        for c in x
    ]
    parts = [(c.rat, c.rad) if isinstance(c, QuadExt) else (c, 0) for c in x]
    pairs = [(u.as_integer_ratio(), v.as_integer_ratio()) for u, v in parts]
    d = math.lcm(*[d for (_, ad), (_, bd) in pairs for d in (ad, bd)])
    a = [(i, an * (d // ad)) for i, ((an, ad), _) in enumerate(pairs) if an]
    b = [(i, bn * (d // bd)) for i, (_, (bn, bd)) in enumerate(pairs) if bn]
    m = q.ints
    qa = {i: sum(m[i][j] * v for j, v in a) for i, _ in a}
    qb = {i: sum(m[i][j] * v for j, v in b) for i in {i for i, _ in a + b}}
    aqa = sum(v * qa[i] for i, v in a)
    bqb = sum(v * qb[i] for i, v in b)
    aqb = sum(v * qb[i] for i, v in a)
    big = d * d * q.den
    tn, td = (1, 1) if lead is None else lead.t.as_integer_ratio()
    rat = Fraction(aqa * td + tn * bqb, big * td)
    return rat if lead is None else QuadExt(rat, Fraction(2 * aqb, big), lead.t)


def congruence_diagonalize(q: QuadraticForm) -> CongruenceDiagonalization:
    """Symmetric elimination producing invertible B with B^T Q B diagonal.

    Diagonal values stay rational (not normalized to +-1, which would need
    square roots); the diagonal is permuted to the order positives,
    negatives, zeros and the inertia is read off the signs.

    The pass runs in Python ints, on the form's own Q = A / den.  A pivot
    step is a Bareiss step (Bareiss 1968): the trailing block of A is held
    multiplied by the last nonzero pivot, prev, so every update divides
    exactly by it, and diag[c] = a_cc / (scale_c * den) with scale_c the
    prev of step c.

    The pass updates A only.  B takes the same column operations, but no
    step reads B, and row a[i] is final once step i has run: later steps,
    swaps and repairs touch rows i + 1 onwards.  So the pass logs each
    repair (add, swap) and each pivot step (i, p, prev, a[i]) in order,
    and CongruenceDiagonalization.cols replays the log on the identity
    (_replay) the first time it is read.
    """
    n = q.dim
    den, a = q.den, [list(row) for row in q.ints]
    scales = [1] * n
    steps = []
    prev = 1

    def col_add(j, i):
        # b_j += b_i, and the congruence update of the trailing block of A
        steps.append(("add", j, i))
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
        if a[i][i] == 0:
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
        scales[i] = prev
        p = a[i][i]
        if p == 0:
            continue  # whole trailing row is zero
        row_i = a[i]
        steps.append(("pivot", i, p, prev, row_i))
        for j in range(i + 1, n):
            c = row_i[j]
            if c:
                a[j][j:] = [(p * x - c * y) // prev for x, y in zip(a[j][j:], row_i[j:])]
            else:
                a[j][j:] = [p * x // prev for x in a[j][j:]]
        prev = p

    sign = [(d > 0) - (d < 0) for d in (a[i][i] * scales[i] for i in range(n))]
    order = (
        [i for i in range(n) if sign[i] > 0]
        + [i for i in range(n) if sign[i] < 0]
        + [i for i in range(n) if sign[i] == 0]
    )
    k = sign.count(1)
    m = sign.count(-1)
    return CongruenceDiagonalization._lazy(
        diag=tuple(Fraction(a[c][c], scales[c] * den) for c in order),
        inertia=Inertia(k, m, n - k - m),
        scales=tuple(abs(scales[c]) for c in order),
        log=(n, steps, [(c, scales[c] < 0) for c in order]),
    )


def _replay(n, steps, order):
    """The int columns of B from congruence_diagonalize's log: its steps
    applied to the identity, then its order, negating the columns of a
    negative scale.  As in the pass, a pivot step is a Bareiss step, so
    each unfinished column is held multiplied by the last pivot and every
    update divides exactly by it."""
    w = [[int(r == c) for r in range(n)] for c in range(n)]  # w[c]: column c of B
    for op, *args in steps:
        if op == "add":
            j, i = args
            w[j] = [x + y for x, y in zip(w[j], w[i])]
        elif op == "swap":
            i, j = args
            w[i], w[j] = w[j], w[i]
        else:
            i, p, prev, row_i = args
            w_i = w[i]
            for j in range(i + 1, n):
                c = row_i[j]
                if c:
                    w[j] = [(p * x - c * y) // prev for x, y in zip(w[j], w_i)]
                else:
                    w[j] = [p * x // prev for x in w[j]]
    return tuple(tuple([-x for x in w[c]] if negate else w[c]) for c, negate in order)


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


# the entry types matrix_rows_from_json reads once per distinct value;
# True == 1 and 1.0 == 1, so bool and float must not share their keys
_INT_OR_TEXT = {int, str}


def _read_entry(e):
    """(num, den) of a JSON matrix entry or polynomial coefficient,
    den > 0.  An int is read as it is, and text as int() reads it, or as
    "n/d" with int() on each side of the slash; int() also takes a space
    or a sign beside the slash, and Fraction() does not, so a digit must
    stand on either side of it.  Every other spelling (decimals,
    exponents) and every error goes through parse_rational."""
    if type(e) is int:
        return e, 1
    if type(e) is str:
        try:
            if "/" not in e:
                return int(e), 1
            num, den = e.split("/", 1)
            if num[-1:].isdigit() and den[:1].isdigit():
                d = int(den)
                if d:
                    return int(num), d
        except ValueError:
            pass
    return parse_rational(e).as_integer_ratio()


def matrix_rows_from_json(obj):
    """(rows, ratios) of a JSON matrix, for _IntMatrix._of: the rows of
    entries as written, and {d: {entry: x}} with each distinct entry's
    value x / d, d > 0."""
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
    ratios = _read_entries(rows[:bad], n)  # entries before a bad row fail first
    if bad < n:
        raise FormatError(f"row {bad} must be a list of {n} entries")
    return rows, ratios


def _read_entries(rows, n):
    """{den: {entry: num}} for the entries of rows of n entries each, den
    > 0; an error names the first bad entry.  A matrix file repeats few
    values, so each distinct entry is read once."""
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
    q = QuadraticForm._of(*matrix_rows_from_json(obj))
    _check_symmetric(q)
    return q


def transform_from_json(obj) -> LinearTransform:
    return LinearTransform._of(*matrix_rows_from_json(obj))


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
