import copy
import json
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from qformkit import (
    CongruenceDiagonalization,
    DimensionMismatch,
    HomogeneousPoly,
    Inertia,
    LinearTransform,
    NonSymmetricMatrix,
    QuadExt,
    QuadraticForm,
    WitnessVector,
    apply_transform,
    classify,
    congruence_diagonalize,
    evaluate,
    forms,
    inertia,
    linalg,
    minkowski_form,
)
from qformkit.cli import main
from qformkit.errors import FormatError
from qformkit.forms import Point, form_from_json, matrix_to_json, transform_from_json
from qformkit.polys import poly_from_json
from qformkit.scalars import parse_rational

from conftest import (
    bilinear_eval,
    clear_denominators,
    compose,
    det,
    eager_diagonalize,
    mat_scale,
    pass_log,
    perfbench_module,
    random_indefinite,
    random_invertible,
    random_symmetric,
    random_vector,
    reference_diagonalize,
    reference_mat_vec,
    reference_replay,
    right_looking_diagonalize,
    sparse_diagonal_form,
)

S2 = QuadraticForm([[2, 0, -1], [0, 2, -1], [-1, -1, 1]])  # 2x^2+2y^2+z^2-2xz-2yz


def test_symmetry_enforced():
    with pytest.raises(NonSymmetricMatrix):
        QuadraticForm([[1, 2], [3, 4]])


def test_square_matrix_enforced():
    with pytest.raises(FormatError, match="matrix is not square"):
        QuadraticForm([[1, 2]])
    # a ragged matrix is refused before any of its entries is read
    for build in (QuadraticForm, LinearTransform):
        with pytest.raises(FormatError) as got:
            build([["x", 1], [1]])
        assert str(got.value) == "matrix is not square"


@pytest.mark.parametrize("build", [QuadraticForm, LinearTransform], ids=["form", "transform"])
def test_rows_of_any_iterable_build_an_equal_matrix(build):
    rows = [[2, "1/2"], [Fraction(1, 2), -1]]
    want = build(rows)
    assert build(tuple(map(tuple, rows))) == want
    assert build(tuple(row) for row in rows) == want


def test_repr_evaluates_back_to_an_equal_value():
    names = {"Fraction": Fraction, "QuadraticForm": QuadraticForm,
             "LinearTransform": LinearTransform, "HomogeneousPoly": HomogeneousPoly}
    values = [
        QuadraticForm([[1, "1/2"], ["1/2", -3]]),
        LinearTransform([[0, "2/3"], [5, 1]]),
        HomogeneousPoly(2, 2, {(2, 0): Fraction(1, 2), (1, 1): -3}),
    ]
    for value in values:
        assert eval(repr(value), names) == value


def test_equality_with_another_type_is_false():
    assert (QuadraticForm([[1]]) == "x") is False
    assert (LinearTransform([[1]]) == "x") is False


class TestEvaluate:
    def test_light_cone_event(self):
        q = minkowski_form(1)
        assert evaluate(q, [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]) == 0

    def test_shared_zero_line(self):
        # on the line x = y, z = x + y the sum-of-squares form vanishes
        assert evaluate(S2, [Fraction(1), Fraction(1), Fraction(2)]) == 0

    def test_zero_vector(self):
        q = random_symmetric(random.Random(1), 4)
        assert evaluate(q, [Fraction(0)] * 4) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(S2, [Fraction(1), Fraction(2)])


class TestBilinear:
    def test_orthogonal_unit_vectors(self):
        q = QuadraticForm([[1, 0], [0, 1]])
        assert bilinear_eval(q, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) == 0

    def test_hyperbolic_cross_term(self):
        q = QuadraticForm([[0, 1], [1, 0]])
        assert bilinear_eval(q, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))) == 1

    def test_polarization_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 5)
            q = random_symmetric(rng, n)
            x = random_vector(rng, n)
            y = random_vector(rng, n)
            xy = tuple(a + b for a, b in zip(x, y))
            lhs = bilinear_eval(q, x, y)
            rhs = (evaluate(q, xy) - evaluate(q, x) - evaluate(q, y)) / 2
            assert lhs == rhs
            assert bilinear_eval(q, x, y) == bilinear_eval(q, y, x)
            assert bilinear_eval(q, x, x) == evaluate(q, x)


def _check_diag_soundness(q):
    d = congruence_diagonalize(q)
    n = q.dim
    bt = linalg.transpose(d.basis)
    prod = linalg.mat_mul(linalg.mat_mul(bt, q.matrix), d.basis)
    for i in range(n):
        for j in range(n):
            expected = d.diag[i] if i == j else Fraction(0)
            assert prod[i][j] == expected
    assert det(d.basis) != 0
    # canonical ordering and sign pattern
    signs = [1 if v > 0 else (-1 if v < 0 else 0) for v in d.diag]
    assert signs == sorted(signs, key=lambda s: {1: 0, -1: 1, 0: 2}[s])
    assert d.inertia.k == sum(1 for s in signs if s == 1)
    assert d.inertia.m == sum(1 for s in signs if s == -1)
    return d


class TestCongruenceDiagonalize:
    def test_already_diagonal(self):
        d = _check_diag_soundness(minkowski_form(1))
        assert d.diag == (Fraction(1), Fraction(1), Fraction(1), Fraction(-1))
        assert d.inertia == Inertia(3, 1, 0)

    def test_hyperbolic_plane(self):
        d = _check_diag_soundness(QuadraticForm([[0, 1], [1, 0]]))
        assert d.diag == (Fraction(2), Fraction(-1, 2))
        assert d.inertia == Inertia(1, 1, 0)

    def test_rank_one_square(self):
        d = _check_diag_soundness(QuadraticForm([[1, -1], [-1, 1]]))
        assert d.diag == (Fraction(1), Fraction(0))
        assert d.inertia == Inertia(1, 0, 1)

    def test_random_soundness(self):
        rng = random.Random(13)
        for _ in range(100):
            _check_diag_soundness(random_symmetric(rng, rng.randint(1, 6)))


def _mixed_form(rng, n):
    """Random symmetric form of one of four shapes: small integers, a zero
    diagonal, denominators such as 1/6 and 5/4, or zero rows and blocks."""
    shape = rng.choice(("integer", "zero-diagonal", "mixed", "zero-block"))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if shape == "mixed":
                v = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 6)))
            else:
                v = Fraction(rng.randint(-3, 3))
            rows[i][j] = rows[j][i] = v
    if shape == "zero-diagonal":
        for i in range(n):
            rows[i][i] = Fraction(0)
    if shape == "zero-block":
        for i in rng.sample(range(n), rng.randint(1, n)):
            for j in range(n):
                rows[i][j] = rows[j][i] = Fraction(0)
    return QuadraticForm(rows)


class TestIntegerPassMatchesReference:
    """congruence_diagonalize eliminates in ints; basis, diag and inertia
    must equal the Fraction elimination in conftest exactly."""

    @staticmethod
    def assert_matches(q):
        d = congruence_diagonalize(q)
        assert (d.basis, d.diag, d.inertia) == reference_diagonalize(q)
        prod = linalg.mat_mul(linalg.mat_mul(linalg.transpose(d.basis), q.matrix), d.basis)
        n = q.dim
        assert prod == tuple(tuple(d.diag[i] if i == j else 0 for j in range(n)) for i in range(n))

    def test_random_forms(self):
        rng = random.Random(2024)
        for _ in range(300):
            self.assert_matches(_mixed_form(rng, rng.randint(1, 12)))

    def test_zero_matrix_and_dimension_one(self):
        for q in (
            QuadraticForm([[0] * 4] * 4),
            QuadraticForm([[0]]),
            QuadraticForm([[Fraction(-3, 7)]]),
        ):
            self.assert_matches(q)

    def test_zero_diagonal_repair(self):
        # every diagonal entry is zero: b_1 + b_0 becomes the first pivot column
        q = QuadraticForm([[0, 1], [1, 0]])
        self.assert_matches(q)
        d = congruence_diagonalize(q)
        assert d.basis == ((1, Fraction(1, 2)), (1, Fraction(-1, 2)))
        self.assert_matches(QuadraticForm([[0, 2, 1], [2, 0, 3], [1, 3, 0]]))

    def test_huge_entries(self):
        self.assert_matches(form_from_json({"dim": 2, "rows": [["1e3000", 1], [1, "-1e3000"]]}))


class TestLazyBasisMatchesEagerPass:
    """congruence_diagonalize keeps its pivot rows and repairs and replays
    B from them when cols is first read; diag, inertia, scales and the
    replayed cols must equal the pass in conftest that builds B beside A,
    bit for bit."""

    def test_random_forms(self):
        rng = random.Random(14)
        degenerate = repaired = 0
        for _ in range(1200):
            q = _mixed_form(rng, rng.randint(1, 9))
            d, e = congruence_diagonalize(q), eager_diagonalize(q)
            assert (d.diag, d.inertia, d.scales, d.cols) == (e.diag, e.inertia, e.scales, e.cols)
            degenerate += d.inertia.z >= 1
            repaired += any(q.matrix[i][i] == 0 for i in range(q.dim))
        assert degenerate >= 200 and repaired >= 200

    def test_unread_cols_behave_as_read(self, monkeypatch):
        q = QuadraticForm([[0, 2, 1], [2, 0, 3], [1, 3, 0]])
        read = congruence_diagonalize(q)
        builds = []
        column = forms._column
        monkeypatch.setattr(forms, "_column", lambda *args: builds.append(args) or column(*args))
        assert read.cols is read.cols  # each column built once, before the comparisons below
        assert len(builds) == q.dim
        assert all(read.column(f) is read.cols[f] for f in range(q.dim))
        assert len(builds) == q.dim
        with pytest.raises(AttributeError):
            read.cols = read.cols
        for copied in (
            pickle.loads(pickle.dumps(congruence_diagonalize(q))),
            copy.copy(congruence_diagonalize(q)),
            copy.deepcopy(congruence_diagonalize(q)),
            congruence_diagonalize(q),
        ):
            assert copied == read
            assert hash(copied) == hash(read)
            assert repr(copied) == repr(read)
            assert copied.basis == read.basis

    def test_public_constructor(self):
        d = congruence_diagonalize(S2)
        rebuilt = CongruenceDiagonalization(d.diag, d.inertia, d.cols, d.scales)
        assert rebuilt == d
        assert rebuilt.basis == d.basis


class TestLazyPassMatchesRightLooking:
    """forms._eliminate brings a row up to date only when a step reads
    it; the right-looking pass in conftest updates the whole trailing
    block at each pivot step.  Run as far as lead runs them, and then to
    the end, both log the same repairs and pivot rows and the same
    (d_i, |scale_i|), so the lead frames and the whole frames are the
    same, columns included."""

    @staticmethod
    def assert_matches(q):
        lazy, right = congruence_diagonalize(q), right_looking_diagonalize(q)
        lead, expected = lazy.lead, right.lead
        assert lazy._run[1:3] == right._run[1:3]
        if expected is None:
            assert lead is None
        else:
            assert lead.inertia is expected.inertia == Inertia(1, 1, 0)
            assert [(d > 0) - (d < 0) for d in lead.diag] == [1, -1]
            assert (lead.order, lead.diag, lead.scales) == (expected.order, expected.diag, expected.scales)
        assert (lazy.order, lazy.diag, lazy.inertia, lazy.scales) == (
            right.order, right.diag, right.inertia, right.scales)
        steps = list(lazy._run[1])
        assert steps == right._run[1] and lazy._run[2] == right._run[2]
        if expected is not None:
            assert lead.cols == expected.cols
        assert lazy.cols == right.cols
        return [op for op, _, _ in steps]

    def test_random_forms(self):
        rng = random.Random(46)
        pending = indefinite = 0
        for k in range(600):
            n = k % 12 + 1
            q = sparse_diagonal_form(rng, n) if k % 3 == 0 else _mixed_form(rng, n)
            ops = self.assert_matches(q)
            # a repair (each swaps) after a pivot step finds rows that step has not updated
            pending += "pivot" in ops and "swap" in ops[ops.index("pivot") :]
            indefinite += congruence_diagonalize(q).lead is not None
        assert pending >= 150 and indefinite >= 300

    def test_repair_finds_rows_still_pending(self):
        # step 0 pivots on a_00 = 1; a_11 is then 0, and the repair at
        # step 1 reads row 2, which step 0's update has not reached yet
        q = QuadraticForm([[1, 1, 1], [1, 1, 2], [1, 2, 1]])
        assert self.assert_matches(q) == ["pivot", "add", "swap", "pivot", "pivot"]


def _contain_sweep_forms():
    """Every q and r of the benchmark's contain-sweep corpus, seeds 0-3;
    perfbench/corpus.py is loaded read-only."""
    corpus = perfbench_module("corpus")
    return [
        form_from_json(obj)
        for seed in range(4)
        for item in corpus.build("contain-sweep", seed)
        if item["kind"] == "contain"
        for _, obj in item["inputs"].values()
    ]


class TestColumnMatchesReplay:
    """CongruenceDiagonalization.column(f) back-substitutes one column of
    B from the pass's log; each column, read alone, in any order or all at
    once through cols, equals the forward replay of the whole log in
    conftest, int for int."""

    @staticmethod
    def assert_matches(q, rng):
        expected = reference_replay(congruence_diagonalize(q))
        one = congruence_diagonalize(q)
        order = list(range(q.dim))
        rng.shuffle(order)
        assert all(one.column(f) == expected[f] for f in order)
        assert congruence_diagonalize(q).cols == expected

    def test_random_forms_with_mostly_zero_diagonals(self):
        rng = random.Random(40)
        swapped = added = 0
        for k in range(1500):
            q = sparse_diagonal_form(rng, k % 10 + 1)
            self.assert_matches(q, rng)
            ops = {op for op, _, _ in pass_log(congruence_diagonalize(q))[0]}
            swapped += "swap" in ops
            added += "add" in ops
        assert swapped >= 500 and added >= 200

    def test_contain_sweep_forms(self):
        rng = random.Random(41)
        forms_ = _contain_sweep_forms()
        assert {q.dim for q in forms_} >= {3, 24, 32}
        for q in forms_:
            self.assert_matches(q, rng)

    def test_n48(self):
        rng = random.Random(42)
        q = sparse_diagonal_form(rng, 48)
        self.assert_matches(q, rng)
        self.assert_matches(random_symmetric(rng, 48, -3, 3), rng)


def test_frame_pullback_matches_basis_product():
    """CongruenceDiagonalization.pullback(support, t) sums B v in ints and
    returns it as an int Point of n coordinates; the Point's values, read
    through a witness's coords view, equal the Fraction product basis . v
    (conftest.reference_mat_vec) exactly, on degenerate and rational
    forms, for int and Fraction supports, and for square and non-square
    radicands, a square one folded into the rational part."""
    rng = random.Random(16)
    for k in range(1000):
        n = k % 8 + 1
        d = congruence_diagonalize(_mixed_form(rng, n))
        t = rng.choice((Fraction(1), Fraction(9, 4), Fraction(2), Fraction(5, 3)))
        if k % 2:
            def value():
                return rng.randint(-4, 4)
        else:
            def value():
                return Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        support = [(a, value(), value()) for a in rng.sample(range(n), rng.randint(1, n))]
        v = [QuadExt(0, 0, t)] * n
        for a, x, y in support:
            v[a] = QuadExt(x, y, t)
        expected = reference_mat_vec(d.basis, v)
        root = {Fraction(1): 1, Fraction(9, 4): Fraction(3, 2)}.get(t)
        if root is not None:
            expected = [QuadExt(c.rat + c.rad * root) for c in expected]
        point = d.pullback(support, t)
        assert type(point) is Point and len(point) == n and point.d > 0
        got = WitnessVector(point, QuadExt(0), QuadExt(1)).coords
        assert [(c.rat, c.rad, c.t) for c in got] == [(c.rat, c.rad, c.t) for c in expected]


def test_int_pullback_matches_fraction_product():
    """apply_transform multiplies cleared integer matrices; the result
    equals L^T Q L taken in Fractions."""
    rng = random.Random(15)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 9)))

    for _ in range(1000):
        n = rng.randint(1, 5)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = entry()
        q = QuadraticForm(rows)
        L = LinearTransform([[entry() for _ in range(n)] for _ in range(n)])
        lt = linalg.transpose(L.matrix)
        expected = QuadraticForm(linalg.mat_mul(linalg.mat_mul(lt, q.matrix), L.matrix))
        pulled = apply_transform(q, L)
        assert pulled == expected
        # the product's ints over den_Q den_L^2 are seldom in lowest terms
        assert pulled.den > 0 and math.gcd(pulled.den, *[x for row in pulled.ints for x in row]) == 1


class TestInertia:
    def test_minkowski(self):
        assert inertia(minkowski_form(1)) == Inertia(3, 1, 0)

    def test_sum_of_two_squares(self):
        assert inertia(S2) == Inertia(2, 0, 1)

    def test_zero_form(self):
        assert inertia(QuadraticForm([[0] * 3] * 3)) == Inertia(0, 0, 3)

    def test_sylvester_invariance(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 6)
            q = random_symmetric(rng, n)
            L = random_invertible(rng, n)
            assert inertia(apply_transform(q, L)) == inertia(q)


class TestClassify:
    def test_minkowski_indefinite(self):
        assert classify(minkowski_form(1)) == "indefinite"

    def test_square_is_psd_degenerate(self):
        assert classify(QuadraticForm([[1, -1], [-1, 1]])) == "positive-semidefinite-degenerate"

    def test_identity_positive_definite(self):
        assert classify(QuadraticForm([[1, 0], [0, 1]])) == "positive-definite"

    def test_negative_definite(self):
        assert classify(QuadraticForm([[-1, 0], [0, -2]])) == "negative-definite"

    def test_negative_semidefinite(self):
        assert classify(QuadraticForm([[-1, 1], [1, -1]])) == "negative-semidefinite-degenerate"

    def test_zero(self):
        assert classify(QuadraticForm([[0, 0], [0, 0]])) == "zero"


@pytest.mark.parametrize("kind", ["int", "float"])
def test_congruent_matches_explicit_product(kind):
    """linalg.congruent runs the same products in the same order as the
    explicit chain, so int results agree and float results agree bit for
    bit; C may be n x k."""
    rng = random.Random(f"congruent-{kind}")
    draw = (lambda: rng.randint(-9, 9)) if kind == "int" else (lambda: rng.uniform(-1e3, 1e3))
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        m = [[draw() for _ in range(n)] for _ in range(n)]
        c = [[draw() for _ in range(k)] for _ in range(n)]
        expected = linalg.mat_mul(linalg.mat_mul(linalg.transpose(c), m), c)
        assert linalg.congruent(m, c) == expected


class TestApplyTransform:
    def test_scalar_transform(self):
        q = minkowski_form(1)
        r = apply_transform(q, LinearTransform.scaling(4, 2))
        assert r.matrix == mat_scale(q.matrix, 4)

    def test_textbook_substitution(self):
        # x' = -2x - 2y + z, y' = 2y - 2z, z' = -2z applied to the
        # sum-of-squares form yields 8x^2+16y^2+10z^2+16xy-16xz-24yz
        L = LinearTransform([[-2, -2, 1], [0, 2, -2], [0, 0, -2]])
        r = apply_transform(S2, L)
        expected = QuadraticForm([[8, 8, -8], [8, 16, -12], [-8, -12, 10]])
        assert r == expected

    def test_identity(self):
        q = random_symmetric(random.Random(3), 4)
        assert apply_transform(q, LinearTransform.identity(4)) == q

    def test_pullback_composition(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(1, 5)
            q = random_symmetric(rng, n)
            l1 = random_invertible(rng, n)
            l2 = random_invertible(rng, n)
            lhs = apply_transform(apply_transform(q, l1), l2)
            rhs = apply_transform(q, compose(l1, l2))
            assert lhs == rhs

    def test_evaluation_agreement(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            q = random_symmetric(rng, n)
            L = random_invertible(rng, n)
            x = random_vector(rng, n)
            lx = linalg.mat_vec(L.matrix, x)
            assert evaluate(apply_transform(q, L), x) == evaluate(q, lx)


class TestJsonFormat:
    def test_round_trip(self):
        obj = matrix_to_json(S2)
        assert form_from_json(obj) == S2

    def test_fraction_entries(self):
        q = form_from_json({"dim": 2, "rows": [["1/2", 0], [0, "-3/4"]]})
        assert q.matrix[0][0] == Fraction(1, 2)

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricMatrix):
            form_from_json({"dim": 2, "rows": [[1, 2], [3, 4]]})

    @pytest.mark.parametrize("load", [form_from_json, transform_from_json], ids=["form", "transform"])
    @pytest.mark.parametrize("dim", [True, False])
    def test_rejects_bool_dim(self, load, dim):
        from qformkit import FormatError

        with pytest.raises(FormatError, match="'dim' must be a positive integer"):
            load({"dim": dim, "rows": [[1]]})

    def test_rejects_bad_entry(self):
        from qformkit import FormatError

        with pytest.raises(FormatError, match=r"\(0,1\)"):
            form_from_json({"dim": 2, "rows": [[1, "x"], ["x", 1]]})


# matrix entries whose int-first reading must agree with parse_rational: the
# same value, or the same FormatError message and exit code 2
ENTRIES = (
    3, "-0", "+5", " 5 ", "1_000", "\u0665",
    "7/3", "14/6", "-3/4", "3/-4", "3 / 4", "-3/-4", "5/0",
    "3 /4", "3/ 4", "3/+4", "+3/4", " -7/14 ",
    "0x10", "1e3", "1.5", "1e99999", "7" * 4301,
    1.5, True, None,
)


@pytest.mark.parametrize(
    "load, command", [(form_from_json, "analyze"), (transform_from_json, "lorentz")], ids=["form", "transform"]
)
@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: repr(e)[:12])
def test_entry_reading_matches_parse_rational(tmp_path, capsys, load, command, entry):
    """A file and the class constructor read an entry alike: the same
    value, or the same message, which names the entry."""
    build = {form_from_json: QuadraticForm, transform_from_json: LinearTransform}[load]
    obj = {"dim": 2, "rows": [[entry, "1/2"], ["1/2", entry]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    try:
        want = parse_rational(entry)
    except FormatError as exc:
        message = f"entry (0,0): {exc}"
        for read in (lambda: load(obj), lambda: build(obj["rows"])):
            with pytest.raises(FormatError) as got:
                read()
            assert str(got.value) == message
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"
    else:
        half = Fraction(1, 2)
        assert load(obj).matrix == ((want, half), (half, want))
        assert build(obj["rows"]) == load(obj)
        assert main([command, str(path)]) in (0, 1)


# a library constructor of each kind, on one rational value v
CONSTRUCTORS = {
    "QuadraticForm": lambda v: QuadraticForm([[v, 1], [1, 0]]),
    "LinearTransform": lambda v: LinearTransform([[v, 1], [0, v]]),
    "QuadraticForm.diagonal": lambda v: QuadraticForm.diagonal([v, -1]),
    "HomogeneousPoly": lambda v: HomogeneousPoly(2, 2, {(2, 0): v, (0, 2): -1}),
    "minkowski_form": minkowski_form,
}


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
@pytest.mark.parametrize("value", [0.5, True, Decimal("0.5")], ids=repr)
def test_constructors_refuse_what_json_refuses(build, value):
    with pytest.raises(FormatError, match="not a rational"):
        build(value)


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
@pytest.mark.parametrize(
    "value, want",
    [
        (3, Fraction(3)),
        (Fraction(2, 3), Fraction(2, 3)),
        ("7/14", Fraction(1, 2)),
        ("1.5e-3", Fraction(3, 2000)),
    ],
    ids=repr,
)
def test_constructors_read_values_as_json_does(build, value, want):
    """A constructor reads a value as a JSON file's entry is read, a
    Fraction as its "n/d" spelling."""
    spelled = str(value) if isinstance(value, Fraction) else value
    assert form_from_json({"dim": 1, "rows": [[spelled]]}).matrix == ((want,),)
    assert build(value) == build(want)


@pytest.mark.parametrize(
    "build",
    [lambda: QuadraticForm([]), lambda: LinearTransform([]), lambda: QuadraticForm.diagonal([])],
    ids=["QuadraticForm", "LinearTransform", "QuadraticForm.diagonal"],
)
def test_constructors_refuse_an_empty_matrix(build):
    """A matrix file of dim 0 is refused, and so is an empty matrix: no
    form is called positive-definite for having no entries."""
    with pytest.raises(FormatError, match="matrix is empty"):
        build()


@pytest.mark.parametrize(
    "nvars, degree, terms, message",
    [
        (True, 2, {(2,): 1}, "'nvars' must be a positive integer, got True"),
        (0, 0, {(): 1}, "'nvars' must be a positive integer, got 0"),
        (2, 2.0, {(2, 0): 1}, r"'degree' must be an integer in 0\.\.100, got 2\.0"),
        (2, 500, {(500, 0): 1}, r"'degree' must be an integer in 0\.\.100, got 500"),
        (4, 75, {(75, 0, 0, 0): 1}, "76076 monomials, more than 75000"),
    ],
    ids=["bool-nvars", "no-variables", "float-degree", "degree-above-bound", "too-many-monomials"],
)
def test_poly_constructor_applies_the_file_rules(nvars, degree, terms, message):
    """HomogeneousPoly(...) refuses the nvars and degree a polynomial file
    may not have, with the file's message."""
    with pytest.raises(FormatError, match=message):
        HomogeneousPoly(nvars, degree, terms)
    obj = {"nvars": nvars, "degree": degree, "terms": [{"exp": list(e), "coef": c} for e, c in terms.items()]}
    with pytest.raises(FormatError, match=message):
        poly_from_json(obj)


def test_non_symmetric_ratio_message(tmp_path, capsys):
    obj = {"dim": 2, "rows": [[1, "14/6"], ["7/4", 1]]}
    message = "entry (0,1) = 7/3 differs from (1,0) = 7/4"
    with pytest.raises(NonSymmetricMatrix) as got:
        form_from_json(obj)
    assert str(got.value) == message
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err == f"non-symmetric input: {message}\n"


def _spelling(rng, v):
    """One JSON spelling of the Fraction v: an int, "n/d" (not always in
    lowest terms) or a decimal, plain or with an exponent."""
    p, q = v.as_integer_ratio()
    k = rng.randint(2, 6)
    choices = [f"{p}/{q}", f"{p * k}/{q * k}"]
    if q == 1:
        choices += [p, str(p), f"{p}.0"]
    m = next((m for m in range(4) if 10**m % q == 0), None)
    if m is not None:
        scaled = p * 10**m // q
        choices += [f"{scaled}e-{m}", str(Decimal(scaled).scaleb(-m))]
    return rng.choice(choices)


def test_int_form_matches_reference_and_spelling():
    """A form read from JSON holds (den, ints) equal to clear_denominators
    of its Fraction matrix, whatever the spelling of each entry: equal
    matrices written differently give equal forms with equal hashes, and
    matrix reads back the values written."""
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 6)
        values = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                values[i][j] = values[j][i] = Fraction(
                    rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4, 5, 8, 10, 12, 25))
                )
        want = tuple(map(tuple, values))
        forms_read = []
        for load in (form_from_json, transform_from_json):
            spelled = [{"dim": n, "rows": [[_spelling(rng, v) for v in row] for row in values]} for _ in range(3)]
            read = [load(json.loads(json.dumps(obj))) for obj in spelled]
            for m in read:
                den, ints = clear_denominators(m.matrix)
                assert (m.den, [list(row) for row in m.ints]) == (den, ints)
                assert m.matrix == want
                assert m == read[0] and hash(m) == hash(read[0])
            forms_read.append(read[0])
        assert forms_read[0] == QuadraticForm(values)
        assert forms_read[1] == LinearTransform(values)
    two = [form_from_json({"dim": 1, "rows": [[e]]}) for e in (2, "4/2", "2.0")]
    assert two[0] == two[1] == two[2] and len({hash(q) for q in two}) == 1


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, "1/2"], ["1/2", "x"]], "entry (1,1): not a rational: 'x'"),
        ([[1, True], [True, 1]], "entry (0,1): not a rational: True"),
        ([[1, 1.0], [1.0, 1]], "entry (0,1): not a rational: 1.0"),
        ([["x", 1], [1]], "entry (0,0): not a rational: 'x'"),
        ([[1, 2], [1]], "row 1 must be a list of 2 entries"),
        ([["1/0", None], [1, 1]], "entry (0,0): not a rational: '1/0'"),
        ([[1, 2, 3], [2, 1, "y"], [3, "y", 1]], "entry (1,2): not a rational: 'y'"),
    ],
)
def test_error_names_the_first_bad_entry(rows, message):
    """Entries are read once per distinct value, and an error still names
    the first bad entry in row order, before a later row's shape."""
    for load in (form_from_json, transform_from_json):
        with pytest.raises(FormatError) as got:
            load({"dim": len(rows), "rows": rows})
        assert str(got.value) == message
