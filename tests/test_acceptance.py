"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import contextlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from qformkit import (
    ConePointWitness,
    Counterexample,
    Divisible,
    LinearTransform,
    NotIndefinite,
    NotSemidefinite,
    Proportional,
    QuadraticForm,
    apply_transform,
    boost_from_triple,
    check_interval_invariance,
    decide_containment,
    decide_containment_homogeneous,
    inertia,
    kernel_basis,
    minkowski_form,
    poly_from_form,
    reduce_by_quadratic,
    simdiag_psd,
    verify_poly_witness,
    verify_witness,
)
from qformkit.cli import main as cli_main

from conftest import (
    compose,
    mat_scale,
    poly_add,
    poly_mul,
    random_homogeneous,
    random_indefinite,
    random_invertible,
    random_symmetric,
    rotation_from_triple,
)


@contextlib.contextmanager
def criterion(num, description, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > seconds:
        print(f"ACCEPTANCE {num} FAIL: {description} (took {elapsed:.1f}s > {seconds}s)")
        pytest.fail(f"criterion {num} exceeded time budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {num} PASS: {description} ({elapsed:.1f}s)")


def test_criterion_1_substitution_fixture():
    with criterion(1, "linear-substitution fixture, exact coefficients", 1.0):
        s2 = QuadraticForm([[2, 0, -1], [0, 2, -1], [-1, -1, 1]])
        L = LinearTransform([[-2, -2, 1], [0, 2, -2], [0, 0, -2]])
        pulled = apply_transform(s2, L)
        # 8x^2 + 16y^2 + 10z^2 + 16xy - 16xz - 24yz
        assert pulled == QuadraticForm([[8, 8, -8], [8, 16, -12], [-8, -12, 10]])
        for q in (s2, pulled):
            ine = inertia(q)
            assert (ine.k, ine.m, ine.z) == (2, 0, 1)
        kq = kernel_basis(s2).vectors
        kr = kernel_basis(pulled).vectors
        assert kq == kr and len(kq) == 1
        scale = kq[0][2] / 2
        assert kq[0] == (scale, scale, 2 * scale) and scale != 0
        with pytest.raises(NotIndefinite):
            decide_containment(s2, pulled)


def _perturb_nonproportional(rng, q, alpha):
    n = q.dim
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        delta = Fraction(rng.choice([-2, -1, 1, 2]))
        rows = [list(row) for row in mat_scale(q.matrix, alpha)]
        rows[i][j] += delta
        if i != j:
            rows[j][i] += delta
        ratios = set()
        proportional = True
        beta = None
        for a in range(n):
            for b in range(n):
                if q.matrix[a][b] == 0:
                    if rows[a][b] != 0:
                        proportional = False
                else:
                    ratios.add(rows[a][b] / q.matrix[a][b])
        if proportional and len(ratios) <= 1:
            continue
        return QuadraticForm(rows)


def test_criterion_2_theorem1_round_trip():
    with criterion(2, "1000x proportional round trip + perturbed counterexamples", 30.0):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randint(2, 6)
            q = random_indefinite(rng, n)
            alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            r = QuadraticForm(mat_scale(q.matrix, alpha))
            assert decide_containment(q, r) == Proportional(alpha)
            r2 = _perturb_nonproportional(rng, q, alpha)
            verdict = decide_containment(q, r2)
            assert isinstance(verdict, Counterexample)  # NoWitnessFound never raised
            assert verify_witness(q, r2, verdict.witness)


def test_criterion_3_sylvester_invariance():
    with criterion(3, "1000x inertia invariance under invertible congruence", 30.0):
        rng = random.Random(3033)
        for _ in range(1000):
            n = rng.randint(1, 6)
            q = random_symmetric(rng, n)
            L = random_invertible(rng, n)
            assert inertia(apply_transform(q, L)) == inertia(q)


def test_criterion_4_theorem1a_round_trip():
    with criterion(4, "500x divisibility round trip + 500x verified non-multiples", 60.0):
        rng = random.Random(4044)
        for _ in range(500):
            n = rng.randint(2, 4)
            q = random_indefinite(rng, n)
            s = random_homogeneous(rng, n, rng.randint(0, 3))
            r = poly_mul(poly_from_form(q), s)
            assert decide_containment_homogeneous(q, r) == Divisible(s)

        witnesses = 0
        false_divisible = 0
        for _ in range(500):
            n = rng.randint(2, 4)
            q = random_indefinite(rng, n)
            qp = poly_from_form(q)
            while True:
                s = random_homogeneous(rng, n, rng.randint(0, 3))
                bump = random_homogeneous(rng, n, s.degree + 2, max_terms=2)
                r = poly_add(poly_mul(qp, s), bump)
                if not reduce_by_quadratic(r, qp).remainder.is_zero():
                    break
            verdict = decide_containment_homogeneous(q, r)
            if isinstance(verdict, Divisible):
                false_divisible += 1
            elif isinstance(verdict, ConePointWitness):
                assert verify_poly_witness(q, r, verdict.witness)
                witnesses += 1
        assert false_divisible == 0
        assert witnesses == 500  # the cone-point sweep is complete


def test_criterion_5_minkowski():
    with criterion(5, "boosts/rotations kappa=1, scaling kappa=4, cone-breaker", 5.0):
        assert check_interval_invariance(boost_from_triple(3, 4, 5, "x")).kappa == 1
        assert check_interval_invariance(boost_from_triple(5, 12, 13, "y")).kappa == 1
        assert check_interval_invariance(rotation_from_triple(3, 4, 5, "xy")).kappa == 1
        assert check_interval_invariance(rotation_from_triple(5, 12, 13, "yz")).kappa == 1

        triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)]
        rng = random.Random(5055)
        for _ in range(200):
            L = LinearTransform.identity(4)
            for _ in range(rng.randint(1, 4)):
                a, b, h = rng.choice(triples)
                if rng.random() < 0.5:
                    L = compose(L, boost_from_triple(a, b, h, rng.choice("xyz")))
                else:
                    L = compose(L, rotation_from_triple(a, b, h, rng.choice(["xy", "xz", "yz"])))
            assert check_interval_invariance(L).kappa == 1

        assert check_interval_invariance(LinearTransform.scaling(4, 2)).kappa == 4

        rep = check_interval_invariance(LinearTransform.diagonal([1, 2, 1, 1]))
        assert rep.classification == "cone-breaking"
        assert verify_witness(minkowski_form(1), rep.pulled_back_form, rep.witness_event)
        assert [x == v for x, v in zip(rep.witness_event.coords, (1, 1, 0, 0))] == [True] * 4


def test_criterion_6_theorem2_fixture():
    with criterion(6, "psd pair simdiag (eigenvalues 6 +- 2 sqrt 5) and psd trap rejected", 1.0):
        s2 = QuadraticForm([[2, 0, -1], [0, 2, -1], [-1, -1, 1]])
        s2p = QuadraticForm([[8, 8, -8], [8, 16, -12], [-8, -12, 10]])
        res = simdiag_psd(s2, s2p, tol=1e-9)
        assert res.residual <= 1e-9
        # oracle: brute-force 2x2 symmetric eigen solve of [[10, -2], [-2, 2]]
        tr, det = 10.0 + 2.0, 10.0 * 2.0 - (-2.0) * (-2.0)
        disc = math.sqrt(tr * tr - 4 * det)
        expected = sorted(((tr - disc) / 2, (tr + disc) / 2))
        got = sorted(v for v in res.r_diag if v != 0.0)
        assert got == pytest.approx(expected, abs=1e-9)
        with pytest.raises(NotSemidefinite):
            simdiag_psd(QuadraticForm([[1, -1], [-1, 1]]), QuadraticForm([[1, 0], [0, -1]]))


def test_criterion_7_cli_demo(capsys):
    with criterion(7, "demo exits 0 with byte-identical JSON across runs", 10.0):
        assert cli_main(["demo"]) == 0
        capsys.readouterr()
        assert cli_main(["demo", "--json"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["demo", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["ok"] is True
