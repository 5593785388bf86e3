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
    Unsupported,
    apply_transform,
    containment_psd,
    evaluate,
    kernel_basis,
    linalg,
    minkowski_form,
    simdiag_general,
    simdiag_psd,
)
from qformkit.forms import LinearTransform

S2 = QuadraticForm([[2, 0, -1], [0, 2, -1], [-1, -1, 1]])
S2P = QuadraticForm([[8, 8, -8], [8, 16, -12], [-8, -12, 10]])
SQUARE = QuadraticForm([[1, -1], [-1, 1]])  # (x-y)^2
HYP = QuadraticForm([[1, 0], [0, -1]])


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
            assert linalg.rank(aug) == len(kern)


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
        eigh = np.linalg.eigh

        def scaled_eigh(a):
            vals, vecs = eigh(a)
            return vals, 2.0 * vecs

        monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)
        with pytest.raises(NumericalFailure, match="diagonal"):
            simdiag_psd(S2, S2P)

    def test_rejects_indefinite_r(self):
        # the non-simultaneously-diagonalizable pair
        with pytest.raises(NotSemidefinite):
            simdiag_psd(SQUARE, HYP)

    def test_containment_failure(self):
        r = QuadraticForm([[1, 0], [0, 1]])
        with pytest.raises(ContainmentFails):
            simdiag_psd(SQUARE, r)

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

    def test_direct_sum_decomposition(self):
        rng = random.Random(54)
        from qformkit.semidefinite import _extend_to_basis

        for _ in range(50):
            n = rng.randint(2, 6)
            q = random_psd(rng, n)
            kern = kernel_basis(q).vectors
            comp = _extend_to_basis(kern, n)
            full = comp + kern
            assert len(full) == n
            assert linalg.det(tuple(full)) != 0

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

    def test_mixed_orientation_unsupported(self):
        q = QuadraticForm([[1, 0], [0, 0]])  # psd
        r = QuadraticForm([[-1, 0], [0, 0]])  # nsd, same kernel
        with pytest.raises(Unsupported):
            simdiag_general(q, r)

    def test_zero_form_pairs_with_anything_semidefinite(self):
        zero = QuadraticForm([[0, 0], [0, 0]])
        r = QuadraticForm([[1, 0], [0, 1]])
        # Z_zero is everything, so containment needs r = 0
        with pytest.raises(ContainmentFails):
            simdiag_general(zero, r)
        res = simdiag_general(zero, zero)
        assert res.q_diag == (0.0, 0.0)
