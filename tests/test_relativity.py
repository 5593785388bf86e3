import random
import re
from fractions import Fraction

import pytest

from qformkit import (
    DimensionMismatch,
    FormatError,
    Inertia,
    InvalidSpeed,
    LinearTransform,
    NotPythagorean,
    QuadraticForm,
    boost_from_triple,
    check_interval_invariance,
    classify,
    inertia,
    minkowski_form,
    verify_witness,
)

from qformkit.scalars import parse_rational

from conftest import compose, identity, rotation_from_triple

TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]


class TestMinkowskiForm:
    def test_unit_speed(self):
        q = minkowski_form(1)
        assert q == QuadraticForm.diagonal([-1, 1, 1, 1])
        assert inertia(q) == Inertia(3, 1, 0)
        assert classify(q) == "indefinite"

    def test_general_speed(self):
        assert minkowski_form(3) == QuadraticForm.diagonal([-9, 1, 1, 1])

    def test_toy_spacetime(self):
        assert minkowski_form(1, dim_space=1) == QuadraticForm.diagonal([-1, 1])

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(InvalidSpeed):
            minkowski_form(0)
        with pytest.raises(InvalidSpeed):
            minkowski_form(Fraction(-1, 2))

    def test_rejects_zero_space_dimensions_as_a_dimension_fault(self):
        with pytest.raises(DimensionMismatch):
            minkowski_form(1, dim_space=0)
        with pytest.raises(DimensionMismatch):
            check_interval_invariance(LinearTransform([[1]]))

    @pytest.mark.parametrize("c", [1, Fraction(3, 2), "5/7", 299792458, "1e3"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_int_form_matches_the_matrix_reader(self, c, k):
        """minkowski_form writes (den, ints) itself; they are those the
        matrix reader makes of diag(-c^2, 1, ..., 1)."""
        expected = QuadraticForm.diagonal([-parse_rational(c) ** 2] + [1] * k)
        got = minkowski_form(c, dim_space=k)
        assert (got.dim, got.den, got.ints) == (expected.dim, expected.den, expected.ints)
        assert got == expected and hash(got) == hash(expected)

    @pytest.mark.parametrize("c, dim_space, error", [
        (0, 3, InvalidSpeed),
        (-1, 3, InvalidSpeed),
        ("-5/7", 1, InvalidSpeed),
        (1, 0, DimensionMismatch),
        (1.5, 3, FormatError),
    ], ids=["zero", "negative", "negative-text", "no-space", "float"])
    def test_rejections(self, c, dim_space, error):
        with pytest.raises(error):
            minkowski_form(c, dim_space=dim_space)


class TestBoost:
    def test_345_entries(self):
        L = boost_from_triple(3, 4, 5, "x")
        # t' = (5/4) t - (3/4) x, x' = -(3/4) t + (5/4) x
        assert L.matrix[0][0] == Fraction(5, 4)
        assert L.matrix[0][1] == Fraction(-3, 4)
        assert L.matrix[1][0] == Fraction(-3, 4)
        assert L.matrix[1][1] == Fraction(5, 4)
        assert check_interval_invariance(L).kappa == 1

    def test_51213_y_axis(self):
        L = boost_from_triple(5, 12, 13, "y")
        assert L.matrix[0][2] == Fraction(-5, 12)
        assert L.matrix[2][2] == Fraction(13, 12)
        assert check_interval_invariance(L).kappa == 1

    def test_not_pythagorean(self):
        with pytest.raises(NotPythagorean):
            boost_from_triple(1, 1, 1, "x")

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis must be one of"):
            boost_from_triple(3, 4, 5, "w")

    @pytest.mark.parametrize(
        "triple, message",
        [
            ((3.0, 4, 5), "not a rational: 3.0"),
            ((3, 4.0, 5.0), "not a rational: 4.0"),
            ((True, 4, 5), "not a rational: True"),
            ((3, 4, Fraction(11, 2)), "not an integer: Fraction(11, 2)"),
        ],
    )
    def test_triple_is_read_by_the_one_rational_reader(self, triple, message):
        """a, b and h are read as matrix entries are, and must be integers:
        any other value is a FormatError that names it."""
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            boost_from_triple(*triple)

    def test_triple_text_reads_as_a_matrix_entry_does(self):
        assert boost_from_triple("3", 4, Fraction(5)) == boost_from_triple(3, 4, 5)


class TestRotation:
    def test_345_xy(self):
        R = rotation_from_triple(3, 4, 5, "xy")
        assert R.matrix[1][1] == Fraction(4, 5)
        assert R.matrix[2][1] == Fraction(3, 5)
        # exact orthogonality on the spatial block
        from qformkit import linalg

        rt = linalg.transpose(R.matrix)
        assert linalg.mat_mul(rt, R.matrix) == identity(4)

    def test_identity_rotation(self):
        assert rotation_from_triple(0, 1, 1, "xy") == LinearTransform.identity(4)

    def test_boost_rotation_composition(self):
        L = compose(boost_from_triple(3, 4, 5, "x"), rotation_from_triple(3, 4, 5, "xy"))
        rep = check_interval_invariance(L)
        assert rep.kappa == 1
        assert rep.classification == "interval-preserving"


class TestCheckIntervalInvariance:
    def test_scaling_is_conformal(self):
        rep = check_interval_invariance(LinearTransform.scaling(4, 2))
        assert rep.kappa == 4
        assert rep.classification == "conformal-scaling"

    def test_anisotropic_stretch_breaks_cone(self):
        rep = check_interval_invariance(LinearTransform.diagonal([1, 2, 1, 1]))
        assert rep.classification == "cone-breaking"
        assert rep.kappa is None
        w = rep.witness_event
        q = minkowski_form(1)
        assert verify_witness(q, rep.pulled_back_form, w)
        # the light-like event (1, 1, 0, 0) is mapped off the cone: r = 3
        assert [x == v for x, v in zip(w.coords, (1, 1, 0, 0))] == [True] * 4
        assert w.r_value == 3

    def test_singular_collapse_is_degenerate(self):
        rep = check_interval_invariance(LinearTransform([[0] * 4] * 4))
        assert rep.kappa == 0
        assert rep.classification == "degenerate"

    def test_identity_pullback_is_minkowski(self):
        rep = check_interval_invariance(LinearTransform.identity(4))
        assert rep.pulled_back_form == minkowski_form(1)
        assert rep.classification == "interval-preserving"

    def test_nonunit_speed(self):
        L = LinearTransform.scaling(4, 3)
        rep = check_interval_invariance(L, c=Fraction(1, 2))
        assert rep.kappa == 9

    def test_random_compositions_preserve_interval(self):
        rng = random.Random(77)
        for _ in range(60):
            L = LinearTransform.identity(4)
            for _ in range(rng.randint(1, 5)):
                a, b, h = rng.choice(TRIPLES)
                if rng.random() < 0.5:
                    L = compose(L, boost_from_triple(a, b, h, rng.choice("xyz")))
                else:
                    L = compose(
                        L, rotation_from_triple(a, b, h, rng.choice(["xy", "xz", "yz"]))
                    )
            rep = check_interval_invariance(L)
            assert rep.kappa == 1

    def test_kappa_multiplicativity(self):
        rng = random.Random(78)
        for _ in range(20):
            c1 = Fraction(rng.randint(1, 5))
            c2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            a, b, h = rng.choice(TRIPLES)
            l1 = compose(LinearTransform.scaling(4, c1), boost_from_triple(a, b, h, "x"))
            l2 = LinearTransform.scaling(4, c2)
            k1 = check_interval_invariance(l1).kappa
            k2 = check_interval_invariance(l2).kappa
            k12 = check_interval_invariance(compose(l1, l2)).kappa
            assert k12 == k1 * k2
