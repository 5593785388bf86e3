import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qformkit import (
    ContainmentFails,
    NotSemidefinite,
    NumericalFailure,
    QuadraticForm,
    apply_transform,
    evaluate,
    kernel_basis,
    linalg,
    minkowski_form,
    simdiag_general,
    simdiag_psd,
    verify_witness,
)
from qformkit import semidefinite
from qformkit.forms import LinearTransform, congruence_diagonalize

from conftest import containment_psd, det, kernel_break_witness, rank

S2 = QuadraticForm([[2, 0, -1], [0, 2, -1], [-1, -1, 1]])
S2P = QuadraticForm([[8, 8, -8], [8, 16, -12], [-8, -12, 10]])
SQUARE = QuadraticForm([[1, -1], [-1, 1]])  # (x-y)^2
HYP = QuadraticForm([[1, 0], [0, -1]])
# a psd pair whose float step lands far off q's diagonal
FAR_Q = QuadraticForm(
    [
        [Fraction(50625000000000001, 62500), Fraction(-202499999999999999, 250000000)],
        [Fraction(-202499999999999999, 250000000), Fraction(810000000000000001, 1000000000000)],
    ]
)
FAR_R = QuadraticForm(
    [
        [Fraction(30625000000000004, 625), Fraction(37, 1250)],
        [Fraction(37, 1250), Fraction(25000000000001, 62500000000000000)],
    ]
)


def brute_eigs_2x2(a, b, d):
    """Quadratic-formula eigenvalues of [[a, b], [b, d]], ascending."""
    tr, det = a + d, a * d - b * b
    disc = math.sqrt(tr * tr - 4 * det)
    return ((tr - disc) / 2, (tr + disc) / 2)


def random_psd(rng, n):
    """G^T G for a random rational G with fewer rows than columns gives a
    degenerate psd form; square G usually gives a definite one."""
    rows = rng.randint(1, n)
    g = tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rows)
    )
    return QuadraticForm(linalg.mat_mul(linalg.transpose(g), g))


def negated(q):
    return QuadraticForm([[-e for e in row] for row in q.matrix])


class TestKernelBasis:
    def test_square_form(self):
        k = kernel_basis(SQUARE)
        assert len(k.vectors) == 1
        v = k.vectors[0]
        assert v[0] == v[1] != 0

    def test_sum_of_squares_form(self):
        k = kernel_basis(S2)
        assert len(k.vectors) == 1
        v = k.vectors[0]
        # the zero line is (t, t, 2t)
        assert v[1] == v[0] and v[2] == 2 * v[0] and v[0] != 0

    def test_definite_has_empty_kernel(self):
        assert kernel_basis(QuadraticForm([[1, 0], [0, 1]])).vectors == ()

    def test_rejects_indefinite(self):
        with pytest.raises(NotSemidefinite):
            kernel_basis(HYP)

    def test_kernel_vectors_are_null(self):
        rng = random.Random(51)
        for _ in range(100):
            q = random_psd(rng, rng.randint(1, 6))
            for v in kernel_basis(q).vectors:
                assert linalg.mat_vec(q.matrix, v) == (Fraction(0),) * q.dim
                assert evaluate(q, v) == 0

    def test_null_points_lie_in_kernel_span(self):
        rng = random.Random(52)
        for _ in range(100):
            n = rng.randint(2, 6)
            q = random_psd(rng, n)
            kern = kernel_basis(q).vectors
            if not kern:
                continue
            # random combinations of kernel vectors are null and must stay
            # inside the span (rank unchanged after appending)
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in kern]
            x = tuple(
                sum(c * v[i] for c, v in zip(coeffs, kern)) for i in range(n)
            )
            assert evaluate(q, x) == 0
            aug = kern + (x,)
            assert rank(aug) == len(kern)


    def test_matches_the_rref_reference(self):
        # read off q's frame: the rref basis whenever the kernel is a line
        # or nothing, the same span otherwise, each vector's last nonzero
        # entry 1
        rng = random.Random(56)
        wider = 0
        for _ in range(400):
            q = random_psd(rng, rng.randint(1, 7))
            if rng.random() < 0.5:
                q = negated(q)
            kern = kernel_basis(q).vectors
            ref = linalg.kernel(q.matrix)[0]
            assert all(type(e) is Fraction for v in kern for e in v)
            assert all([e for e in v if e][-1] == 1 for v in kern)
            if len(ref) <= 1:
                assert kern == ref
            else:
                wider += 1
                assert len(kern) == len(ref) == rank(kern) == rank(kern + ref)
        assert wider >= 50


class TestContainmentPsd:
    def test_textbook_pair(self):
        assert containment_psd(S2, S2P) is True

    def test_definite_r_does_not_contain(self):
        r = QuadraticForm([[1, 0], [0, 1]])
        assert containment_psd(SQUARE, r) is False

    def test_reflexive(self):
        assert containment_psd(S2, S2) is True

    def test_rejects_indefinite(self):
        with pytest.raises(NotSemidefinite):
            containment_psd(SQUARE, HYP)

    def test_negative_orientation_normalized(self):
        neg = QuadraticForm([[-e for e in row] for row in S2.matrix])
        neg_p = QuadraticForm([[-e for e in row] for row in S2P.matrix])
        assert containment_psd(neg, neg_p) is True


class TestSimdiagPsd:
    def test_textbook_pair_eigenvalues(self):
        res = simdiag_psd(S2, S2P)
        assert res.residual <= 1e-9
        # restricted pair is q = u^2 + w^2, r = 10u^2 + 2w^2 - 4uw in the
        # coordinates u = x+y-z, w = x-y; oracle: brute 2x2 eigen solve
        lo, hi = brute_eigs_2x2(10.0, -2.0, 2.0)
        nonzero = sorted(v for v in res.r_diag if v != 0.0)
        assert nonzero == pytest.approx([lo, hi], abs=1e-9)
        assert res.q_diag == (1.0, 1.0, 0.0)
        assert res.r_diag[-1] == 0.0

    def test_identity_pair(self):
        q = QuadraticForm([[1, 0], [0, 1]])
        res = simdiag_psd(q, q)
        assert res.residual == 0.0
        assert res.q_diag == (1.0, 1.0)

    def test_off_diagonal_of_q_raises(self, monkeypatch):
        # eigenvectors scaled by 2 keep both transformed matrices diagonal,
        # so the off-diagonal residual passes, but diag(B^T Q B) reads 4, not 1
        eigh = semidefinite._jacobi_eigh

        def scaled_eigh(a):
            vals, vecs = eigh(a)
            return vals, [[2.0 * e for e in row] for row in vecs]

        monkeypatch.setattr(semidefinite, "_jacobi_eigh", scaled_eigh)
        with pytest.raises(NumericalFailure, match="diagonal"):
            simdiag_psd(S2, S2P)

    def test_unconverged_eigen_step_raises(self, monkeypatch):
        # a Jacobi run cut off before it converges leaves W^T R W off-diagonal
        monkeypatch.setattr(semidefinite, "_JACOBI_SWEEPS", 0)
        with pytest.raises(NumericalFailure, match="residual"):
            simdiag_psd(S2, S2P)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("simdiag", [simdiag_psd, simdiag_general])
    def test_tolerance_must_be_finite_and_non_negative(self, simdiag, tol):
        # the cli's --tol rule: with nan no check can fail, so this pair,
        # whose diagonal check fails at the default tol, came back a result
        with pytest.raises(NumericalFailure, match="diagonal"):
            simdiag(FAR_Q, FAR_R)
        with pytest.raises(ValueError, match="finite number >= 0"):
            simdiag(FAR_Q, FAR_R, tol=tol)
        with pytest.raises(ValueError, match="finite number >= 0"):
            simdiag(S2, S2P, tol=tol)

    @pytest.mark.parametrize("simdiag", [simdiag_psd, simdiag_general])
    def test_zero_tolerance_is_accepted(self, simdiag):
        res = simdiag(QuadraticForm([[1, 0], [0, 1]]), QuadraticForm([[1, 0], [0, 2]]), tol=0.0)
        assert res.residual == 0.0
        assert res.r_diag == (1.0, 2.0)

    def test_rejects_indefinite_r(self):
        # the non-simultaneously-diagonalizable pair
        with pytest.raises(NotSemidefinite):
            simdiag_psd(SQUARE, HYP)

    def test_containment_failure(self):
        r = QuadraticForm([[1, 0], [0, 1]])
        with pytest.raises(ContainmentFails) as info:
            simdiag_psd(SQUARE, r)
        # the kernel column of q that r does not annihilate, rational (t = 1)
        w = info.value.witness
        assert verify_witness(SQUARE, r, w)
        assert w.t == 1 and all(c.rad == 0 for c in w.coords)
        assert w.coords[0] == w.coords[1] != 0
        assert w.q_value == 0 and w.r_value == 2 * w.coords[0].rat ** 2

    def test_kernel_break_witness_on_random_pairs(self):
        rng = random.Random(56)
        refuted = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            q, r = random_psd(rng, n), random_psd(rng, n)
            if rng.random() < 0.5:
                r = negated(r)
            if containment_psd(q, r):
                continue
            with pytest.raises(ContainmentFails) as info:
                simdiag_general(q, r)
            assert verify_witness(q, r, info.value.witness)
            refuted += 1
        assert refuted > 50

    def test_kernel_test_matches_the_reference_loop(self):
        """simdiag's kernel test is containment's witness family: on random
        semidefinite pairs it raises the same witness as the loop over the
        frame's kernel columns (conftest.kernel_break_witness), and passes
        exactly when that loop finds none."""
        rng = random.Random(58)

        def matrix(rows, cols):
            return tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(cols)) for _ in range(rows))

        def gram(g):
            return QuadraticForm(linalg.mat_mul(linalg.transpose(g), g))

        outcomes = set()
        for _ in range(320):
            n = rng.randint(2, 7)
            g = matrix(rng.randint(1, n), n)
            q = gram(g)
            if rng.random() < 0.5:  # ker q = ker G lies in ker MG: Z_q in Z_r
                r = gram(linalg.mat_mul(matrix(rng.randint(1, n), len(g)), g))
            else:
                r = gram(matrix(rng.randint(1, n), n))
            q = negated(q) if rng.random() < 0.3 else q
            r = negated(r) if rng.random() < 0.3 else r
            expected = kernel_break_witness(q, r)
            if expected is None:
                simdiag_general(q, r)
            else:
                with pytest.raises(ContainmentFails) as info:
                    simdiag_general(q, r)
                assert repr(info.value.witness) == repr(expected)
            outcomes.add((min(congruence_diagonalize(q).inertia.z, 2), expected is None))
        # (kernel size up to 2, contained): every pair with a kernel both ways
        assert outcomes == {(0, True), (1, True), (1, False), (2, True), (2, False)}

    def test_soundness_on_random_pairs(self):
        rng = random.Random(53)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 5)
            q = random_psd(rng, n)
            s = random_psd(rng, n)
            # r = q + s has a kernel containing ker q intersect ker s;
            # use r = q + s only when containment holds
            r = QuadraticForm(
                [
                    [q.matrix[i][j] + s.matrix[i][j] for j in range(n)]
                    for i in range(n)
                ]
            )
            if not containment_psd(q, r):
                continue
            res = simdiag_psd(q, r)
            assert res.residual <= 1e-9
            b = np.array(res.basis)
            qf = np.array([[float(e) for e in row] for row in q.matrix])
            rf = np.array([[float(e) for e in row] for row in r.matrix])
            assert np.allclose(b.T @ qf @ b, np.diag(res.q_diag), atol=1e-8)
            assert np.allclose(b.T @ rf @ b, np.diag(res.r_diag), atol=1e-7)
            checked += 1

    def test_negative_pair_relabelled(self):
        neg_q = QuadraticForm([[-e for e in row] for row in S2.matrix])
        neg_r = QuadraticForm([[-e for e in row] for row in S2P.matrix])
        res = simdiag_psd(neg_q, neg_r)
        assert res.q_diag == (-1.0, -1.0, 0.0)
        assert all(v <= 0 for v in res.r_diag)

    def test_frame_kernel_columns_span_the_kernel(self):
        # the columns of B at the zeros of d span ker Q, for psd and nsd
        # forms alike, and with the other columns they make a basis
        rng = random.Random(54)
        for _ in range(200):
            n = rng.randint(1, 7)
            q = random_psd(rng, n)
            if rng.random() < 0.5:
                q = negated(q)
            dq = congruence_diagonalize(q)
            basis_cols = linalg.transpose(dq.basis)
            frame_kern = basis_cols[dq.inertia.k + dq.inertia.m :]
            kern = kernel_basis(q).vectors
            assert len(frame_kern) == len(kern) == dq.inertia.z
            for v in frame_kern:
                assert linalg.mat_vec(q.matrix, v) == (Fraction(0),) * n
            if kern:
                assert rank(frame_kern) == rank(kern) == rank(frame_kern + kern) == len(kern)
            assert det(basis_cols) != 0

    def test_psd_pair_closure(self):
        # null vectors of a psd form span a subspace: combinations stay null
        rng = random.Random(55)
        for _ in range(100):
            n = rng.randint(2, 5)
            q = random_psd(rng, n)
            kern = kernel_basis(q).vectors
            if len(kern) < 2:
                continue
            x, y = kern[0], kern[1]
            a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            comb = tuple(a * xi + b * yi for xi, yi in zip(x, y))
            assert evaluate(q, comb) == 0


def _random_symmetric_floats(rng, n, kind):
    """A symmetric n x n float matrix: entries drawn at random, repeated
    eigenvalues (Q diag(l) Q^T with l from {1, -2, 0}), a diagonal matrix,
    or zero."""
    if kind == "random":
        m = np.array([[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)])
        return m + m.T
    if kind == "repeated":
        orth, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]))
        m = orth @ np.diag([rng.choice((1.0, -2.0, 0.0)) for _ in range(n)]) @ orth.T
        return (m + m.T) / 2
    if kind == "diagonal":
        return np.diag([float(rng.randint(-3, 3)) for _ in range(n)])
    return np.zeros((n, n))


class TestJacobiEigh:
    """The float finish of simdiag against numpy.linalg.eigh as an oracle."""

    @pytest.mark.parametrize("kind", ["random", "repeated", "diagonal", "zero"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_eigh(self, n, kind):
        rng = random.Random(f"{n}-{kind}")
        for _ in range(5):
            m = _random_symmetric_floats(rng, n, kind)
            vals, vecs = semidefinite._jacobi_eigh(m.tolist())
            ref = np.linalg.eigh(m)[0]
            scale = max(1.0, float(np.abs(m).max()))
            # ascending, as eigh returns them
            assert vals == sorted(vals)
            assert np.allclose(vals, ref, rtol=0, atol=1e-13 * scale)
            v = np.array(vecs)
            assert np.allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-13)
            assert np.allclose(v.T @ m @ v, np.diag(vals), rtol=0, atol=1e-13 * scale)

    def test_diagonal_and_zero_inputs_are_not_rotated(self):
        vals, vecs = semidefinite._jacobi_eigh([[3.0, 0.0], [0.0, -1.0]])
        assert vals == [-1.0, 3.0]
        assert vecs == [[0.0, 1.0], [1.0, 0.0]]
        assert semidefinite._jacobi_eigh([[0.0] * 3 for _ in range(3)]) == (
            [0.0] * 3,
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        )


class TestSimdiagGeneral:
    def test_indefinite_proportional_route(self):
        q = minkowski_form(1)
        r = apply_transform(q, LinearTransform.scaling(4, 2))
        res = simdiag_general(q, r)
        assert res.residual == 0.0
        assert res.r_diag == tuple(4 * v for v in res.q_diag)

    def test_psd_route(self):
        res = simdiag_general(S2, S2P)
        ref = simdiag_psd(S2, S2P)
        assert res.r_diag == ref.r_diag

    def test_indefinite_containment_failure_carries_witness(self):
        r = QuadraticForm([[1, 0], [0, 1]])
        with pytest.raises(ContainmentFails) as info:
            simdiag_general(HYP, r)
        assert info.value.witness is not None

    def test_mixed_orientation_decided(self):
        # r and -r have the same zero set, so a psd q pairs with an nsd r
        q = QuadraticForm([[1, 0], [0, 0]])  # psd
        r = QuadraticForm([[-1, 0], [0, 0]])  # nsd, same kernel
        res = simdiag_general(q, r)
        assert res.q_diag == (1.0, 0.0)
        assert res.r_diag == (-1.0, 0.0)
        assert res.residual == 0.0
        b = np.array(res.basis)
        assert abs(np.linalg.det(b)) > 0.5
        qf = np.array([[float(e) for e in row] for row in q.matrix])
        rf = np.array([[float(e) for e in row] for row in r.matrix])
        assert np.allclose(b.T @ qf @ b, np.diag(res.q_diag))
        assert np.allclose(b.T @ rf @ b, np.diag(res.r_diag))

    def test_mixed_orientation_on_random_pairs(self):
        rng = random.Random(57)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 5)
            q, s = random_psd(rng, n), random_psd(rng, n)
            r = QuadraticForm(
                [[-q.matrix[i][j] - s.matrix[i][j] for j in range(n)] for i in range(n)]
            )
            if not containment_psd(q, r):
                continue
            res = simdiag_general(q, r)
            b = np.array(res.basis)
            qf = np.array([[float(e) for e in row] for row in q.matrix])
            rf = np.array([[float(e) for e in row] for row in r.matrix])
            assert np.allclose(b.T @ qf @ b, np.diag(res.q_diag), atol=1e-8)
            assert np.allclose(b.T @ rf @ b, np.diag(res.r_diag), atol=1e-7)
            assert all(v >= 0 for v in res.q_diag) and all(v <= 0 for v in res.r_diag)
            checked += 1

    def test_zero_form_pairs_with_anything_semidefinite(self):
        zero = QuadraticForm([[0, 0], [0, 0]])
        r = QuadraticForm([[1, 0], [0, 1]])
        # Z_zero is everything, so containment needs r = 0
        with pytest.raises(ContainmentFails):
            simdiag_general(zero, r)
        res = simdiag_general(zero, zero)
        assert res.q_diag == (0.0, 0.0)
