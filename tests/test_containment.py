import json
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from qformkit import (
    ConePointWitness,
    ContainmentFails,
    Counterexample,
    DimensionMismatch,
    HomogeneousPoly,
    NotIndefinite,
    Proportional,
    QuadExt,
    QuadraticForm,
    SimDiagResult,
    apply_transform,
    classify,
    congruence_diagonalize,
    construct_witness,
    decide_containment,
    decide_containment_homogeneous,
    evaluate,
    inertia,
    linalg,
    minkowski_form,
    poly_from_form,
    reduce_by_quadratic,
    sample_cone_point,
    simdiag_general,
    simdiag_psd,
    verify_poly_witness,
    verify_witness,
)
from qformkit.cli import _point
from qformkit.containment import WitnessVector, _holds, _witness_family
from qformkit.errors import FormatError, MismatchedRadicand, NoWitnessFound
from qformkit.forms import INDEFINITE, Inertia, LinearTransform

from conftest import (
    assert_witness_holds,
    inverse,
    mat_scale,
    random_indefinite,
    random_invertible,
    random_symmetric,
    reference_decide,
    reference_form_value,
    reference_mat_vec,
    reference_witness_family,
    sparse_diagonal_form,
)

HYP = QuadraticForm([[1, 0], [0, -1]])  # x^2 - y^2


class TestDecideContainment:
    def test_scaled_minkowski(self):
        q = minkowski_form(1)
        r = apply_transform(q, LinearTransform.scaling(4, 2))
        verdict = decide_containment(q, r)
        assert verdict == Proportional(Fraction(4))

    def test_identity_case(self):
        assert decide_containment(HYP, HYP) == Proportional(Fraction(1))

    def test_zero_r(self):
        r = QuadraticForm([[0, 0], [0, 0]])
        assert decide_containment(HYP, r) == Proportional(Fraction(0))

    def test_circle_counterexample(self):
        r = QuadraticForm([[1, 0], [0, 1]])
        verdict = decide_containment(HYP, r)
        assert isinstance(verdict, Counterexample)
        w = verdict.witness
        # rational witness on the cone x = +-y with r = 2 there
        assert [c == 1 or c == -1 for c in w.coords] == [True, True]
        assert w.q_value.is_zero()
        assert w.r_value == 2
        assert verify_witness(HYP, r, w)

    def test_square_counterexample(self):
        r = QuadraticForm([[1, -1], [-1, 1]])  # (x-y)^2
        verdict = decide_containment(HYP, r)
        assert isinstance(verdict, Counterexample)
        w = verdict.witness
        assert verify_witness(HYP, r, w)
        # witness lies on the x = -y branch, where (x-y)^2 = 4
        assert evaluate(r, w.coords) == 4

    def test_semidefinite_base_rejected(self):
        # (x-y)^2 vanishes only where x^2-y^2 does, yet the theorem's
        # hypothesis excludes the semidefinite base form
        q = QuadraticForm([[1, -1], [-1, 1]])
        with pytest.raises(NotIndefinite):
            decide_containment(q, HYP)


@pytest.mark.parametrize(
    "q, simdiag_ok",
    [
        (QuadraticForm([[0, 0], [0, 0]]), False),
        (QuadraticForm([[1, 0], [0, 2]]), True),
        (QuadraticForm([[1, -1], [-1, 1]]), False),
        (HYP, False),
    ],
    ids=["zero", "definite", "semidefinite", "indefinite"],
)
def test_one_indefiniteness_test(q, simdiag_ok):
    """Containment, poly-contain and the cone-point sampler take exactly
    the q with both signs in its inertia; simdiag takes any q, and r =
    x^2 + 2xy + 3y^2 is refuted on the zero set of all but the definite
    q."""
    r = QuadraticForm([[1, 1], [1, 3]])
    dq = congruence_diagonalize(q)
    calls = [
        lambda: decide_containment(q, r),
        lambda: decide_containment_homogeneous(q, poly_from_form(r)),
        lambda: sample_cone_point(dq, (1, 2), 1),
    ]
    if dq.inertia.k and dq.inertia.m:
        verdict, cone, point = [call() for call in calls]
        assert isinstance(verdict, Counterexample)
        assert isinstance(cone, ConePointWitness)
        assert evaluate(q, point).is_zero() and any(point)
    else:
        for call in calls:
            with pytest.raises(NotIndefinite):
                call()
    if simdiag_ok:
        assert isinstance(simdiag_general(q, r), SimDiagResult)
    else:
        with pytest.raises(ContainmentFails):
            simdiag_general(q, r)


class TestConstructWitness:
    def test_semidefinite_q_is_read_off_its_kernel(self):
        # q = x^2 has no lead frame: its family is the kernel's, e_1 and
        # e_2 (b), then e_1 +- e_2 (d); r = 2yz is zero on e_1 and e_2
        q = QuadraticForm.diagonal([1, 0, 0])
        r = QuadraticForm([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        w = construct_witness(congruence_diagonalize(q), r, q)
        assert w.to_json() == {"t": "1", "coords": [["0", "0"], ["1", "0"], ["1", "0"]]}
        assert verify_witness(q, r, w)
        with pytest.raises(NoWitnessFound):
            construct_witness(congruence_diagonalize(q), QuadraticForm.diagonal([3, 0, 0]), q)

    def test_diagonal_positive_pair(self):
        q = QuadraticForm([[1, 0], [0, -1]])
        r = QuadraticForm([[1, 0], [0, 1]])
        w = construct_witness(congruence_diagonalize(q), r, q)
        assert w.r_value == 2

    def test_perfect_square_radicand(self):
        q = QuadraticForm([[0, 1], [1, 0]])  # diagonalizes to (2, -1/2)
        d = congruence_diagonalize(q)
        assert d.diag == (Fraction(2), Fraction(-1, 2))
        r_prime = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1, 2)]]
        # realize r with B^T R B = r_prime: R = B^-T r' B^-1
        binv = inverse(d.basis)
        r_mat = linalg.mat_mul(
            linalg.mat_mul(linalg.transpose(binv), r_prime), binv
        )
        r = QuadraticForm(r_mat)
        w = construct_witness(d, r, q)
        # s = sqrt(d1 / -d2) = sqrt(4) = 2 is folded into the rational part
        assert w.t == 1
        assert all(c.rad == 0 for c in (*w.coords, w.q_value, w.r_value))
        assert verify_witness(q, r, w)
        assert w.r_value == 4

    def test_zero_block_diagonal_deviation(self):
        q = QuadraticForm.diagonal([1, -1, 0])
        d = congruence_diagonalize(q)
        r = QuadraticForm.diagonal([1, -1, 5])
        w = construct_witness(d, r, q)
        # r = q on the lead plane, and R_22 = 5 is the first entry off it:
        # e_2 is null and Q-orthogonal to the plane, so the plane route
        # returns it, as family member (b) did
        assert w.coords == (QuadExt(0), QuadExt(0), QuadExt(1))
        assert w.r_value == 5


def _perturbed(rng, q, alpha):
    """alpha*q plus a symmetric single-entry bump, never proportional to q."""
    n = q.dim
    while True:
        i = rng.randrange(n)
        j = rng.randrange(n)
        delta = Fraction(rng.choice([-2, -1, 1, 2]))
        rows = [list(row) for row in mat_scale(q.matrix, alpha)]
        rows[i][j] += delta
        if i != j:
            rows[j][i] += delta
        r = QuadraticForm(rows)
        ratios = {
            r.matrix[a][b] / q.matrix[a][b]
            for a in range(n)
            for b in range(n)
            if q.matrix[a][b] != 0
        }
        zeros_match = all(
            r.matrix[a][b] == 0
            for a in range(n)
            for b in range(n)
            if q.matrix[a][b] == 0
        )
        if not (len(ratios) == 1 and zeros_match):
            return r


class TestRandomizedProperties:
    def test_proportional_round_trip(self):
        rng = random.Random(42)
        for _ in range(150):
            n = rng.randint(2, 6)
            q = random_indefinite(rng, n)
            alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            r = QuadraticForm(mat_scale(q.matrix, alpha))
            assert decide_containment(q, r) == Proportional(alpha)

    def test_perturbations_yield_verified_counterexamples(self):
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(2, 6)
            q = random_indefinite(rng, n)
            alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            r = _perturbed(rng, q, alpha)
            verdict = decide_containment(q, r)
            assert isinstance(verdict, Counterexample)
            assert verify_witness(q, r, verdict.witness)

    def test_reciprocal_alpha(self):
        rng = random.Random(44)
        for _ in range(50):
            n = rng.randint(2, 5)
            q = random_indefinite(rng, n)
            alpha = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3))
            r = QuadraticForm(mat_scale(q.matrix, alpha))
            assert decide_containment(q, r) == Proportional(alpha)
            # nonzero alpha keeps r indefinite with the same zero set
            assert decide_containment(r, q) == Proportional(1 / alpha)


class TestBruteForceAgreement:
    """For tiny forms, check the verdict against a direct proportionality
    scan of the transformed matrix, and check every witness-family member
    really lies on the cone."""

    def test_small_integer_forms(self):
        rng = random.Random(45)

        for _ in range(200):
            n = rng.choice([2, 3])
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[j][i] = rows[i][j]
            q = QuadraticForm(rows)
            ine = inertia(q)
            if ine.k < 1 or ine.m < 1:
                continue
            r_rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    r_rows[j][i] = r_rows[i][j]
            r = QuadraticForm(r_rows)
            d = congruence_diagonalize(q)
            rp = _congruent_matrix(r, d.basis)
            alpha = rp[0][0] / d.diag[0]
            brute_prop = all(
                rp[i][j] == (alpha * d.diag[i] if i == j else 0)
                for i in range(n)
                for j in range(n)
            )
            verdict = decide_containment(q, r)
            assert isinstance(verdict, Proportional) == brute_prop
            # every family member is exactly null for q
            for member in _witness_family(d.diag, d.inertia):
                coords = reference_mat_vec(d.basis, _dense(member, n))
                assert evaluate(q, coords).is_zero()


class TestJsonRendering:
    def test_proportional(self):
        payload = Proportional(Fraction(-3, 2)).to_json()
        assert payload == {"verdict": "proportional", "alpha": "-3/2"}
        json.dumps(payload)

    def test_counterexample(self):
        r = QuadraticForm([[1, 0], [0, 1]])
        verdict = decide_containment(HYP, r)
        payload = verdict.to_json()
        assert payload["verdict"] == "counterexample"
        assert payload["q_value"] == "0"
        assert payload["r_value"] == "2"
        assert payload["witness"]["coords"] == [["1", "0"], ["1", "0"]]
        json.dumps(payload)

    def test_coordinates_are_written_over_one_radicand(self):
        # sqrt(8) = 2*sqrt(2): written over t = 2, it reads back as itself
        w = WitnessVector((QuadExt(0, 1, 2), QuadExt(1, 1, 8)), QuadExt(0), QuadExt(1))
        assert w.to_json() == {"t": "2", "coords": [["0", "1"], ["1", "2"]]}

    def test_unrelated_radicands_are_not_written(self):
        w = WitnessVector((QuadExt(0, 1, 2), QuadExt(0, 1, 3)), QuadExt(0), QuadExt(1))
        with pytest.raises(MismatchedRadicand):
            w.to_json()


# --- reference: the brute-force scan of TestBruteForceAgreement, and the
# full-family reference of conftest.reference_decide
#
# B^T R B in full, and every witness-family member built as a dense
# n-vector of QuadExt and mapped through B.


def _congruent_matrix(r, basis):
    bt = linalg.transpose(basis)
    return linalg.mat_mul(linalg.mat_mul(bt, r.matrix), basis)


def _dense(member, n):
    tn, td, support = member
    t = Fraction(tn, td)
    v = [QuadExt(0, 0, t)] * n
    for i, x, y in support:
        v[i] = QuadExt(x, y, t)
    return tuple(v)


def _exact(x):
    return (x.rat, x.rad, x.t)


def _assert_same_verdict(got, want):
    assert type(got) is type(want)
    if isinstance(want, Proportional):
        assert got.alpha == want.alpha
        assert type(got.alpha) is Fraction
        return
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    gw, ww = got.witness, want.witness
    assert [_exact(c) for c in gw.coords] == [_exact(c) for c in ww.coords]
    assert _exact(gw.q_value) == _exact(ww.q_value)
    assert _exact(gw.r_value) == _exact(ww.r_value)
    assert str(gw.q_value) == str(ww.q_value)
    assert str(gw.r_value) == str(ww.r_value)


def _assert_matches_reference(q, r, got):
    """got against the full-family reference: the same verdict and alpha;
    the same witness, byte for byte, where one of the lead frame's two
    members fires (reference members 0 and 1); and otherwise a witness of
    the plane route that verify_witness and the Fraction evaluation of q
    and r both accept.  Returns the reference's member index."""
    want, member = reference_decide(q, r)
    if member is None or member < 2:
        _assert_same_verdict(got, want)
    else:
        assert type(got) is Counterexample
        assert_witness_holds(q, r, got.witness)
    return member


def _zero_diagonal_indefinite(rng, n):
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-3, 3))
        q = QuadraticForm(rows)
        if classify(q) == INDEFINITE:
            return q


def _in_frame(q, bumps, alpha):
    """r with B^T R B = alpha*diag(d) + bumps, B the basis of q: each
    bump (a, b, c) adds c at (a, b) and (b, a) of the diagonal frame."""
    d = congruence_diagonalize(q)
    n = q.dim
    rp = [[alpha * d.diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for a, b, c in bumps:
        rp[a][b] += c
        if a != b:
            rp[b][a] += c
    binv = inverse(d.basis)
    return QuadraticForm(linalg.mat_mul(linalg.mat_mul(linalg.transpose(binv), rp), binv))


def _degenerate(rng, n, z):
    """An indefinite form of rank n - z, congruent to q' (+) 0_z."""
    rows = [list(row) + [Fraction(0)] * z for row in random_indefinite(rng, n - z).matrix]
    rows += [[Fraction(0)] * n for _ in range(z)]
    L = random_invertible(rng, n).matrix
    return QuadraticForm(linalg.mat_mul(linalg.mat_mul(linalg.transpose(L), rows), L))


class TestDiagonalFrameEquivalence:
    """decide_containment against the full-family reference: same verdict
    class and alpha, and where the lead frame's members fire, identical
    to_json bytes, q_value and r_value (see _assert_matches_reference)."""

    def test_anchored_and_random_perturbations(self):
        rng = random.Random(46)
        for k in range(120):
            n = rng.randint(2, 7)
            q = random_indefinite(rng, n)
            alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            r = QuadraticForm(mat_scale(q.matrix, alpha))
            _assert_matches_reference(q, r, decide_containment(q, r))
            anchored = k % 2 == 0
            rows = [list(row) for row in r.matrix]
            i, j = (0, 0) if anchored else (rng.randrange(n), rng.randrange(n))
            eps = Fraction(rng.choice([-1, 1]), rng.randint(1, 3))
            rows[i][j] += eps
            if i != j:
                rows[j][i] += eps
            r_bad = QuadraticForm(rows)
            _assert_matches_reference(q, r_bad, decide_containment(q, r_bad))

    def test_zero_diagonal_forms(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(2, 7)
            q = _zero_diagonal_indefinite(rng, n)
            r = QuadraticForm(mat_scale(q.matrix, Fraction(rng.randint(-3, 3))))
            _assert_matches_reference(q, r, decide_containment(q, r))
            rows = [list(row) for row in r.matrix]
            rows[0][0] += 1
            r_bad = QuadraticForm(rows)
            _assert_matches_reference(q, r_bad, decide_containment(q, r_bad))

    def test_degenerate_forms_reach_every_family(self):
        rng = random.Random(48)
        reached = set()
        for _ in range(80):
            n = rng.randint(3, 6)
            z = rng.randint(0, min(2, n - 2))
            q = _degenerate(rng, n, z) if z else random_indefinite(rng, n)
            d = congruence_diagonalize(q)
            if d.inertia.k == 0 or d.inertia.m == 0:
                continue
            a, b = rng.randrange(n), rng.randrange(n)
            r = _in_frame(q, [(a, b, Fraction(rng.choice([-2, -1, 1, 2])))], Fraction(rng.randint(-2, 2)))
            got = decide_containment(q, r)
            _assert_matches_reference(q, r, got)
            if isinstance(got, Counterexample):
                k, m = d.inertia.k, d.inertia.m
                lo, hi = sorted((a, b))
                if lo >= k + m:
                    reached.add("b" if lo == hi else "d")
                elif hi >= k + m:
                    reached.add("c")
                elif (lo < k) == (hi < k) and lo != hi:
                    reached.add("e")
                else:
                    reached.add("a")
        assert reached == {"a", "b", "c", "d", "e"}

    def test_perfect_square_radicand(self):
        q = QuadraticForm([[0, 1], [1, 0]])  # diagonalizes to (2, -1/2): t = 4
        for bumps in ([(0, 0, Fraction(1))], [(0, 1, Fraction(1))], [(1, 1, Fraction(-3))]):
            r = _in_frame(q, bumps, Fraction(1))
            got = decide_containment(q, r)
            _assert_matches_reference(q, r, got)
            assert got.witness.t == 1  # sqrt(4) is folded into the rational part


# Bytes recorded from the dense-member implementation: one case per
# witness family, so a change in family order or sign order shows here.
# The four witnesses of a square radicand (t = 1 or 4) were recorded again
# when sqrt(t) came to be folded into the rational part.  Rows 2 and 4,
# which the lead frame's members miss, were recorded again when such a
# refutation came to take the plane route of containment._plane_witness
# in place of family members (c) and (e); rows 1, 3 and 5 take it too,
# and their witnesses kept their bytes.
_GOLDEN = [
    (
        [[1, 0], [0, -1]],
        [[1, 0], [0, 1]],
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["1","0"],["1","0"]]},'
        '"q_value":"0","r_value":"2"}',
    ),
    (
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 5]],
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["0","0"],["0","0"],["1","0"]]},'
        '"q_value":"0","r_value":"5"}',
    ),
    (
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[1, 0, 3], [0, -1, 0], [3, 0, 0]],
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["-1","0"],["1","0"],["-1","0"]]},'
        '"q_value":"0","r_value":"6"}',
    ),
    (
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["0","0"],["0","0"],["1","0"],["1","0"]]},'
        '"q_value":"0","r_value":"2"}',
    ),
    (
        [[1, 0, 0], [0, 2, 0], [0, 0, -1]],
        [[1, 1, 0], [1, 2, 0], [0, 0, -1]],
        '{"verdict":"counterexample","witness":{"t":"12","coords":[["-2","0"],["-2","0"],["0","1"]]},'
        '"q_value":"0","r_value":"8"}',
    ),
    (
        [[3, 0, 0], [0, -1, 0], [0, 0, -2]],
        [[3, 0, 0], [0, -1, -1], [0, -1, -2]],
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["1","0"],["1","0"],["1","0"]]},'
        '"q_value":"0","r_value":"-2"}',
    ),
    (
        [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
        [[0, 1, 2], [1, 1, 3], [2, 3, 0]],
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["0","0"],["2","0"],["0","0"]]},'
        '"q_value":"0","r_value":"4"}',
    ),
]


@pytest.mark.parametrize("q_rows, r_rows, expected", _GOLDEN)
def test_witness_bytes_match_recorded(q_rows, r_rows, expected):
    verdict = decide_containment(QuadraticForm(q_rows), QuadraticForm(r_rows))
    assert json.dumps(verdict.to_json(), separators=(",", ":")) == expected


def _witness(t, *coords):
    return {"t": t, "coords": [list(c) for c in coords]}


# One witness per family member kind, the member named by the id: q, r,
# and the certificate the first member that fires gives.  Kinds (b), (c),
# (d) and (e) are missed by the lead frame's members and take the plane
# route of containment._plane_witness: (b) and (d) kept their bytes, and
# (c) and (e) were recorded again (they were (1, 1, 1) with r = 2, and
# (1, 1, sqrt(2)) over t = 2 with r = 2).
_MEMBER_KINDS = {
    # q = diag(1, -1), r = x^2: t = 1 is a square, folded into the rational part
    "a-square-radicand": (
        [[1, 0], [0, -1]], [[1, 0], [0, 0]],
        _witness("1", ("1", "0"), ("1", "0")), "1",
    ),
    # q = diag(1, -2), r = x^2
    "a-non-square-radicand": (
        [[1, 0], [0, -2]], [[1, 0], [0, 0]],
        _witness("1/2", ("1", "0"), ("0", "1")), "1",
    ),
    # q = diag(1, -2), r = 2xy: r(v) has a sqrt part
    "a-sqrt-part-in-r": (
        [[1, 0], [0, -2]], [[0, 1], [1, 0]],
        _witness("1/2", ("1", "0"), ("0", "1")), "0 + 2*sqrt(1/2)",
    ),
    # q = diag(1, -1, 0), r = x^2 - y^2 + z^2
    "b": (
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
        _witness("1", ("0", "0"), ("0", "0"), ("1", "0")), "1",
    ),
    # q = diag(1, -1, 0), r = 2xz
    "c": (
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        _witness("1", ("-1", "0"), ("1", "0"), ("-1", "0")), "2",
    ),
    # q = diag(1, -1, 0, 0), r = 2 x3 x4
    "d": (
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        _witness("1", ("0", "0"), ("0", "0"), ("1", "0"), ("1", "0")), "2",
    ),
    # q = diag(1, 1, -1), r = 2xy
    "e": (
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        _witness("2", ("-1", "0"), ("-1", "0"), ("0", "1")), "2",
    ),
}


@pytest.mark.parametrize("q_rows, r_rows, witness, r_value", _MEMBER_KINDS.values(), ids=_MEMBER_KINDS.keys())
def test_witness_bytes_per_member_kind(q_rows, r_rows, witness, r_value):
    verdict = decide_containment(QuadraticForm(q_rows), QuadraticForm(r_rows))
    assert verdict.to_json() == {
        "verdict": "counterexample", "witness": witness, "q_value": "0", "r_value": r_value,
    }


def _random_quadext_vector(rng, n, t):
    return tuple(
        QuadExt(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * rng.choice([0, 1]),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * rng.choice([0, 1]),
            t,
        )
        for _ in range(n)
    )


class TestEvaluateSplit:
    def test_split_equals_generic_loop(self):
        rng = random.Random(49)
        for _ in range(200):
            n = rng.randint(1, 7)
            q = random_indefinite(rng, n) if n > 1 else QuadraticForm([[rng.randint(-3, 3)]])
            t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            x = _random_quadext_vector(rng, n, t)
            got = evaluate(q, x)
            want = reference_form_value(q.matrix, x)
            assert _exact(got) == _exact(want)

    def test_rational_vectors_keep_the_generic_loop(self):
        q = QuadraticForm([[1, 2], [2, -3]])
        x = (Fraction(1, 2), Fraction(-3))
        assert evaluate(q, x) == reference_form_value(q.matrix, x)
        assert type(evaluate(q, x)) is Fraction

    def test_mixed_radicands_take_the_fallback(self):
        q = QuadraticForm([[1, 1, 1], [1, -1, 0], [1, 0, 2]])
        # sqrt(8) = 2*sqrt(2): radicands differ, values combine
        x = (QuadExt(1, 1, 2), QuadExt(0, 1, 8), QuadExt(3, 0, 5))
        assert _exact(evaluate(q, x)) == _exact(reference_form_value(q.matrix, x))
        y = (QuadExt(1, 1, 2), QuadExt(0, 1, 3), QuadExt(1))
        with pytest.raises(MismatchedRadicand):
            evaluate(q, y)

    @pytest.mark.parametrize("kind", ["rational", "one-radicand", "square-factor", "mixed-entries"])
    def test_every_kind_of_vector_equals_generic_loop(self, kind):
        """Rational vectors, one radicand, radicands that differ by a
        rational square (sqrt(8) beside sqrt(2)), and a mix of ints,
        Fractions and QuadExts: the value is the Fraction reference's, and
        a Fraction exactly when no entry is a QuadExt."""
        rng = random.Random(f"evaluate-{kind}")

        def entry(t):
            rat = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * rng.choice([0, 1])
            rad = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * rng.choice([0, 1])
            if kind == "rational":
                return rat
            if kind == "one-radicand":
                return QuadExt(rat, rad, t)
            square = rng.choice([Fraction(1), Fraction(4), Fraction(9, 4), Fraction(1, 16)])
            if kind == "square-factor" or rng.random() < 0.4:
                return QuadExt(rat, rad, t * square)
            return rng.choice([rat, rat.numerator])

        for _ in range(150):
            n = rng.randint(1, 6)
            q = random_indefinite(rng, n) if n > 1 else QuadraticForm([[rng.randint(-3, 3)]])
            t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            x = tuple(entry(t) for _ in range(n))
            got = evaluate(q, x)
            want = reference_form_value(q.matrix, x)
            assert type(got) is (QuadExt if any(isinstance(c, QuadExt) for c in x) else Fraction)
            assert got == want

    def test_unrelated_radicands_raise(self):
        # both evaluators; verify_witness and verify_poly_witness reject
        # the point (TestVerifyWitnessValues)
        q = QuadraticForm([[1, 1], [1, -1]])
        point = (QuadExt(0, 1, 2), QuadExt(0, 1, 3))
        with pytest.raises(MismatchedRadicand):
            evaluate(q, point)
        with pytest.raises(MismatchedRadicand):
            poly_from_form(q).evaluate(point)

    def test_tampered_witness_with_mixed_radicands(self):
        r = QuadraticForm([[1, 0], [0, 1]])
        w = decide_containment(HYP, r).witness
        assert verify_witness(HYP, r, w)
        # rescale one coordinate's radicand: same value, so still a witness
        same = WitnessVector(
            coords=(w.coords[0], QuadExt(w.coords[1].rat, w.coords[1].rad / 2, w.coords[1].t * 4)),
            q_value=w.q_value,
            r_value=w.r_value,
        )
        assert verify_witness(HYP, r, same)
        # a different value under a different radicand: off the cone
        off = WitnessVector(
            coords=(QuadExt(1, 0, 7), QuadExt(0, 1, 2)),
            q_value=w.q_value,
            r_value=w.r_value,
        )
        assert not verify_witness(HYP, r, off)


class TestVerifyWitnessValues:
    """verify_witness also requires the q(v) and r(v) a witness carries
    to be the values at v."""

    R = QuadraticForm([[1, 0], [0, 1]])

    def test_tampered_value_fails(self):
        w = decide_containment(HYP, self.R).witness
        assert verify_witness(HYP, self.R, w)
        q, r = w.q_value, w.r_value
        assert not verify_witness(HYP, self.R, WitnessVector(w.coords, q, QuadExt(r.rat + 1, r.rad, r.t)))
        assert not verify_witness(HYP, self.R, WitnessVector(w.coords, QuadExt(q.rat + 1, q.rad, q.t), r))

    def test_equal_value_written_another_way(self):
        w = decide_containment(HYP, self.R).witness
        assert w.r_value == QuadExt(2)
        # 2 as a plain rational, and as sqrt(4)
        for value in (Fraction(2), QuadExt(0, 1, 4)):
            assert verify_witness(HYP, self.R, WitnessVector(w.coords, 0, value))

    def test_unrelated_radicands_fail_closed(self):
        # no rational square joins sqrt(2) and sqrt(3): rejected, not raised on
        w = WitnessVector((QuadExt(0, 1, 2), QuadExt(0, 1, 3)), 0, 1)
        assert not verify_witness(HYP, self.R, w)
        assert not verify_poly_witness(HYP, poly_from_form(self.R), w)

    @pytest.mark.parametrize("coords", [(1.0, 1), (1, True), (Decimal(1), 1)])
    def test_inexact_coordinate_fails_closed(self, coords):
        # (1, 1) is a witness; a float, bool or Decimal coordinate is no
        # exact value, so the re-check rejects it rather than reading it
        assert verify_witness(HYP, self.R, WitnessVector((1, 1), 0, 2))
        w = WitnessVector(coords, 0, 2)
        assert not verify_witness(HYP, self.R, w)
        assert not verify_poly_witness(HYP, poly_from_form(self.R), w)

    def test_rational_values_are_held_as_quadext(self):
        w = WitnessVector((1, 1), 0, Fraction(2))
        assert verify_witness(HYP, self.R, w)
        assert (type(w.q_value), type(w.r_value)) == (QuadExt, QuadExt)
        assert Counterexample(w).to_json() == {
            "verdict": "counterexample",
            "witness": {"t": "1", "coords": [["1", "0"], ["1", "0"]]},
            "q_value": "0",
            "r_value": "2",
        }
        with pytest.raises(FormatError, match="not a rational: 2.0"):
            WitnessVector((1, 1), 0, 2.0)


# q = x^2 - 2y^2 + 3z^2 + 2xz is refuted over t = 1/2 (the CI package job's pair)
_IRRATIONAL = (
    QuadraticForm([[1, 0, 1], [0, -2, 0], [1, 0, 3]]),
    QuadraticForm([[1, 1, 0], [1, 0, 0], [0, 0, 1]]),
)

THREE4 = QuadraticForm([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
X1_4 = HomogeneousPoly(2, 4, {(4, 0): 1})


def _decision_witnesses():
    """(q, the witness's re-check, witness) for refutations with a
    rational and an irrational radicand, from both decisions."""
    out = []
    for q, r in ((HYP, QuadraticForm([[1, 0], [0, 1]])), _IRRATIONAL, (minkowski_form(1), THREE4)):
        out.append((q, lambda x, r=r: evaluate(r, x), decide_containment(q, r).witness))
    for q, r in ((HYP, HomogeneousPoly(2, 2, {(1, 1): 1})), (QuadraticForm([[1, 0], [0, -2]]), X1_4)):
        out.append((q, r.evaluate, decide_containment_homogeneous(q, r).witness))
    return out


class TestWitnessConstructors:
    """A decision's witness holds pullback's int point and builds coords
    from it; one rebuilt from coords by the public constructor reads its
    point from them.  The two are one value."""

    @pytest.mark.parametrize("k", range(5))
    def test_rebuilt_witness_is_the_same_value(self, k):
        q, r_at, w = _decision_witnesses()[k]
        rebuilt = WitnessVector(w.coords, w.q_value, w.r_value)
        assert rebuilt == w and hash(rebuilt) == hash(w)
        for value in (w, rebuilt):
            back = pickle.loads(pickle.dumps(value))
            assert back == w and hash(back) == hash(w)
            assert back.to_json() == w.to_json() and _point(back) == _point(w)
        assert rebuilt.to_json() == w.to_json()
        assert _point(rebuilt) == _point(w)
        assert rebuilt.t == w.t
        assert _holds(q, w, r_at) and _holds(q, rebuilt, r_at)

    def test_decision_witness_over_an_irrational_radicand(self):
        q, r = _IRRATIONAL
        w = decide_containment(q, r).witness
        assert w.t == Fraction(1, 2)
        assert w.coords == (QuadExt(1, 0, Fraction(1, 2)), QuadExt(0, 1, Fraction(1, 2)), QuadExt(0))
        assert verify_witness(q, r, w)
        assert verify_witness(q, r, WitnessVector(w.coords, w.q_value, w.r_value))

    @pytest.mark.parametrize("k", range(5))
    def test_rebuilt_witness_with_unrelated_radicands_fails_closed(self, k):
        q, r_at, w = _decision_witnesses()[k]
        coords = (QuadExt(0, 1, 2), QuadExt(0, 1, 3)) + w.coords[2:]
        forged = WitnessVector(coords, w.q_value, w.r_value)
        assert _holds(q, forged, r_at) is False


THREE = QuadraticForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
QUAD3 = HomogeneousPoly(3, 2, {(2, 0, 0): 1})
CIRCLE_WITNESS = decide_containment(HYP, QuadraticForm([[1, 0], [0, 1]])).witness
MISMATCHED = {
    "decide_containment": lambda: decide_containment(HYP, THREE),
    "verify_witness": lambda: verify_witness(HYP, THREE, CIRCLE_WITNESS),
    "apply_transform": lambda: apply_transform(HYP, LinearTransform.identity(3)),
    "reduce_by_quadratic": lambda: reduce_by_quadratic(QUAD3, poly_from_form(HYP)),
    "decide_containment_homogeneous": lambda: decide_containment_homogeneous(HYP, QUAD3),
    "verify_poly_witness": lambda: verify_poly_witness(HYP, QUAD3, CIRCLE_WITNESS),
    "HomogeneousPoly.evaluate": lambda: QUAD3.evaluate((Fraction(1), Fraction(2))),
    "simdiag_general": lambda: simdiag_general(HYP, THREE),
    "simdiag_psd": lambda: simdiag_psd(QuadraticForm([[1, 0], [0, 0]]), THREE),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize(
    "q, r, frame_of",
    [
        (HYP, QuadraticForm.diagonal([1, 2, 3]), HYP),
        (HYP, QuadraticForm([[1]]), HYP),
        (HYP, QuadraticForm([[1, 0], [0, 1]]), QuadraticForm.diagonal([1, -1, 1])),
    ],
    ids=["r-larger", "r-smaller", "frame-of-another-dim"],
)
def test_construct_witness_refuses_mismatched_dimensions(q, r, frame_of):
    """q, r and the frame must share one dimension: with q = diag(1, -1)
    and r = diag(1, 2, 3), construct_witness once returned (1, 1) with
    r_value 3, read off r's top-left block, which verify_witness refused,
    and a 1 x 1 r raised IndexError.  The frame's dimension is read
    without running its pass."""
    with pytest.raises(DimensionMismatch, match="dims differ"):
        construct_witness(congruence_diagonalize(frame_of), r, q)


def test_construct_witness_on_proportional_r():
    # r = 2q: no family member separates them
    with pytest.raises(NoWitnessFound):
        construct_witness(congruence_diagonalize(HYP), QuadraticForm([[2, 0], [0, -2]]), HYP)


def test_witness_family_matches_reference():
    """The witness family yields the reference's (tn, td, support)
    sequence with its 3-index members (c) and (e) left out, member for
    member, for random diagonals of every inertia with k, m, z <= 4; on
    the frames it is read on, a lead frame's (1, 1, 0) and a semidefinite
    one's, that is the whole reference family."""
    rng = random.Random(71)
    for k in range(5):
        for m in range(5):
            for z in range(5):
                if k + m + z == 0:
                    continue
                for _ in range(3):
                    diag = tuple(
                        [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(k)]
                        + [-Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(m)]
                        + [Fraction(0)] * z
                    )
                    ine = Inertia(k, m, z)
                    family, reference = list(_witness_family(diag, ine)), list(reference_witness_family(diag, ine))
                    assert family == [member for member in reference if len(member[2]) < 3]
                    if not (k and m) or (k, m, z) == (1, 1, 0):
                        assert family == reference


def test_stopped_pass_matches_the_full_scan():
    """decide_containment reads q's pass only as far as its first pivot of
    each sign, for every verdict.  On random q of n <= 9 with mostly zero
    diagonals, so that the pass repairs and swaps, each against alpha*q
    and against a one-entry perturbation of it, every verdict is the
    full-family reference's (conftest.reference_decide, a frame run to
    its end), with its bytes where the lead frame's members fire, and
    every witness passes verify_witness and the Fraction evaluation."""
    rng = random.Random(41)
    seen = {"NotIndefinite": 0, "proportional": 0, "lead": 0, "plane": 0}
    for k in range(1500):
        q = sparse_diagonal_form(rng, k % 9 + 1)
        alpha = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
        rows = [[alpha * e for e in row] for row in q.matrix]
        i, j = rng.randrange(q.dim), rng.randrange(q.dim)
        bumped = [list(row) for row in rows]
        bumped[i][j] += 1
        bumped[j][i] = bumped[i][j]
        for r in (QuadraticForm(rows), QuadraticForm(bumped)):
            try:
                verdict = decide_containment(q, r)
            except NotIndefinite:
                with pytest.raises(NotIndefinite):
                    reference_decide(q, r)
                seen["NotIndefinite"] += 1
                continue
            member = _assert_matches_reference(q, r, verdict)
            seen["proportional" if member is None else "lead" if member < 2 else "plane"] += 1
    assert min(seen.values()) >= 200


def _plane_route_pair(rng, n, shape, relation):
    """(q, r) for the plane route's property test: q indefinite of one of
    four shapes, and r proportional to q, q perturbed at one entry, or a
    random form unrelated to q."""
    while True:
        if shape == "anchored":
            q = random_symmetric(rng, n, -3, 3)
            rows = [list(row) for row in q.matrix]
            rows[0][0], rows[1][1] = Fraction(2), Fraction(-1)
            q = QuadraticForm(rows)
        elif shape == "zero-diagonal":
            q = _zero_diagonal_indefinite(rng, n)
        elif shape == "singular-PtDP":
            d = [rng.choice((-2, -1, 1, 3)) for _ in range(n)]
            d[0], d[1], d[rng.randrange(2, n)] = 1, -1, 0
            p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            q = QuadraticForm([[sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)])
        else:
            q = random_symmetric(rng, n, -3, 3)
        if classify(q) == INDEFINITE:
            break
    if relation == "unrelated":
        return q, random_symmetric(rng, n, -3, 3)
    alpha = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    rows = [list(row) for row in mat_scale(q.matrix, alpha)]
    if relation == "perturbed":
        i, j = rng.randrange(n), rng.randrange(n)
        eps = Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
        rows[i][j] += eps
        if i != j:
            rows[j][i] += eps
    return q, QuadraticForm(rows)


def test_plane_route_matches_the_full_family_reference():
    """Over 2400 seeded pairs, n = 2..8, of every shape of q (anchored,
    zero-diagonal, P^T D P with D singular, random) against r
    proportional to q, perturbed or unrelated: each verdict and alpha is
    the full-family reference's, each witness passes verify_witness and
    conftest's Fraction evaluation of q and r, and where the reference's
    lead members fire the witness has the reference's bytes.  Both routes
    of a refutation are taken many times."""
    rng = random.Random(51)
    routes = {"proportional": 0, "lead": 0, "plane": 0}
    for k in range(2400):
        shape = ("anchored", "zero-diagonal", "singular-PtDP", "random")[k % 4]
        relation = ("proportional", "perturbed", "unrelated")[k // 4 % 3]
        # an indefinite P^T D P with D singular needs n >= 3
        n = rng.randint(3 if shape == "singular-PtDP" else 2, 8)
        q, r = _plane_route_pair(rng, n, shape, relation)
        member = _assert_matches_reference(q, r, decide_containment(q, r))
        routes["proportional" if member is None else "lead" if member < 2 else "plane"] += 1
    assert min(routes.values()) >= 400
