import json
import math
import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from qformkit import (
    ConePointWitness,
    DegreeMismatch,
    Divisible,
    FormatError,
    HomogeneousPoly,
    NotIndefinite,
    QuadExt,
    QuadraticForm,
    congruence_diagonalize,
    decide_containment_homogeneous,
    decide_containment,
    evaluate,
    poly_from_form,
    reduce_by_quadratic,
    sample_cone_point,
    verify_poly_witness,
)
from qformkit.containment import Counterexample, Proportional
from qformkit.forms import load_json
from qformkit.polys import MAX_DEGREE, MAX_MONOMIALS, poly_from_json, poly_to_json
from qformkit.scalars import parse_rational

from conftest import poly_add, poly_constant, poly_mul, random_homogeneous, random_indefinite

HYP = QuadraticForm([[1, 0], [0, -1]])


def to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, exp):
            term *= s**e
        expr += term
    return sympy.expand(expr)


def leading(p):
    exp = max(p.terms, key=lambda e: (sum(e), e))  # graded lex, x1 > x2 > ...
    return exp, p.terms[exp]


class TestPolyFromForm:
    def test_diagonal(self):
        p = poly_from_form(HYP)
        assert p.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}

    def test_off_diagonal_doubling(self):
        p = poly_from_form(QuadraticForm([[0, 1], [1, 0]]))
        assert p.terms == {(1, 1): Fraction(2)}

    def test_sum_of_squares_form(self):
        q = QuadraticForm([[2, 0, -1], [0, 2, -1], [-1, -1, 1]])
        p = poly_from_form(q)
        assert p.terms == {
            (2, 0, 0): Fraction(2),
            (0, 2, 0): Fraction(2),
            (0, 0, 2): Fraction(1),
            (1, 0, 1): Fraction(-2),
            (0, 1, 1): Fraction(-2),
        }

    def test_evaluates_like_the_form(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            q = random_indefinite(rng, max(n, 2))
            p = poly_from_form(q)
            x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(q.dim))
            assert p.evaluate(x) == evaluate(q, x)


class TestReduceByQuadratic:
    def test_product_of_conjugates(self):
        q = poly_from_form(HYP)
        s = HomogeneousPoly(2, 2, {(2, 0): 1, (0, 2): 1})
        r = poly_mul(q, s)  # (x^2-y^2)(x^2+y^2) = x^4 - y^4
        assert r.terms == {(4, 0): Fraction(1), (0, 4): Fraction(-1)}
        res = reduce_by_quadratic(r, q)
        assert res.remainder.is_zero()
        assert res.quotient == s

    def test_odd_degree(self):
        q = poly_from_form(HYP)
        r = HomogeneousPoly(2, 3, {(3, 0): 1, (1, 2): -1})  # x^3 - x y^2
        res = reduce_by_quadratic(r, q)
        assert res.remainder.is_zero()
        assert res.quotient == HomogeneousPoly(2, 1, {(1, 0): 1})

    def test_non_divisible(self):
        q = poly_from_form(HYP)
        r = HomogeneousPoly(2, 4, {(4, 0): 1, (0, 4): 1})
        res = reduce_by_quadratic(r, q)
        # x^4 + y^4 is 2 at (1,1) where q vanishes, so it cannot divide
        assert not res.remainder.is_zero()

    def test_self_division(self):
        q = poly_from_form(HYP)
        res = reduce_by_quadratic(q, q)
        assert res.remainder.is_zero()
        assert res.quotient == poly_constant(2, 1)

    def test_rejects_non_quadratic_divisor(self):
        with pytest.raises(DegreeMismatch):
            reduce_by_quadratic(
                poly_from_form(HYP), HomogeneousPoly(2, 3, {(3, 0): 1})
            )

    def test_division_identity_and_order_condition(self):
        rng = random.Random(17)
        xs = sympy.symbols("x1:5")
        for _ in range(60):
            n = rng.randint(2, 4)
            q = poly_from_form(random_indefinite(rng, n))
            r = random_homogeneous(rng, n, rng.randint(2, 5))
            res = reduce_by_quadratic(r, q)
            # exact identity r = q*quotient + remainder
            assert poly_add(poly_mul(q, res.quotient), res.remainder) == r
            # cross-check against sympy's expansion arithmetic
            syms = xs[:n]
            lhs = to_sympy(q, syms) * to_sympy(res.quotient, syms) + to_sympy(
                res.remainder, syms
            )
            assert sympy.expand(lhs - to_sympy(r, syms)) == 0
            # no remainder monomial is divisible by the leading monomial of q
            lead, _ = leading(q)
            for exp in res.remainder.terms:
                assert not all(a <= b for a, b in zip(lead, exp))


def reference_division(r, q):
    """Division that rescans the whole work dict for its graded-lex
    maximum at every step: the plain textbook algorithm."""

    def grlex(e):
        return (sum(e), e)

    lead_exp = max(q.terms, key=grlex)
    lead_coef = q.terms[lead_exp]
    quotient, remainder, work = {}, {}, dict(r.terms)
    while work:
        exp = max(work, key=grlex)
        coef = work.pop(exp)
        if all(a <= b for a, b in zip(lead_exp, exp)):
            qexp = tuple(a - b for a, b in zip(exp, lead_exp))
            qcoef = coef / lead_coef
            quotient[qexp] = quotient.get(qexp, Fraction(0)) + qcoef
            for e2, c2 in q.terms.items():
                if e2 != lead_exp:
                    e = tuple(a + b for a, b in zip(qexp, e2))
                    work[e] = work.get(e, Fraction(0)) - qcoef * c2
                    if work[e] == 0:
                        del work[e]
        else:
            remainder[exp] = remainder.get(exp, Fraction(0)) + coef
    n = r.nvars
    return (
        HomogeneousPoly(n, max(r.degree - 2, 0), quotient),
        HomogeneousPoly(n, r.degree, remainder),
    )


def assert_matches_reference(r, q):
    res = reduce_by_quadratic(r, q)
    quotient, remainder = reference_division(r, q)
    assert res.quotient.terms == quotient.terms
    assert res.remainder.terms == remainder.terms
    for got, want in ((res.quotient, quotient), (res.remainder, remainder)):
        assert json.dumps(poly_to_json(got)) == json.dumps(poly_to_json(want))
    return quotient


# divisors whose leading integer coefficient is not 1, so that the integer
# division has to rescale: leading 2, 3 and -5, rational coefficients, and
# a leading monomial x1*x2
SCALED_DIVISORS = (
    {(2, 0, 0): 2, (0, 2, 0): -1, (0, 1, 1): 3, (0, 0, 2): 1},
    {(2, 0, 0): 3, (1, 1, 0): 1, (0, 0, 2): -2},
    {(2, 0, 0): -5, (1, 0, 1): 2, (0, 2, 0): 7, (0, 1, 1): -1},
    {(2, 0, 0): Fraction(2, 3), (1, 1, 0): Fraction(-1, 2), (0, 2, 0): Fraction(5, 7), (0, 0, 2): -1},
    {(1, 1, 0): 3, (0, 2, 0): 1, (0, 1, 1): -2, (0, 0, 2): 5},
)


def test_heap_division_matches_rescan_reference():
    rng = random.Random(2007)
    for k in range(120):
        n = rng.randint(1, 5)
        if k % 3 == 0:
            q = poly_from_form(random_indefinite(rng, max(n, 2)))
            n = q.nvars
        else:  # any quadratic, e.g. with leading term x1*x2
            q = random_homogeneous(rng, n, 2, max_terms=5)
        r = random_homogeneous(rng, n, rng.randint(2, 7), max_terms=40)
        if k % 2 == 0:  # divisible, with cancellations along the way
            r = poly_mul(q, random_homogeneous(rng, n, r.degree - 2, max_terms=20))
        assert_matches_reference(r, q)
    for terms in SCALED_DIVISORS:
        q = HomogeneousPoly(3, 2, terms)
        for degree in range(2, 8):
            r = random_homogeneous(rng, 3, degree, max_terms=40)
            assert_matches_reference(r, q)
            assert_matches_reference(poly_mul(q, r), q)
            rational = {e: c / rng.randint(1, 6) for e, c in r.terms.items()}
            assert_matches_reference(HomogeneousPoly(3, degree, rational), q)
        # the fourth power of q's leading monomial: each step divides by the
        # leading coefficient c again, so the quotient's denominators reach
        # c^3 and the integer division rescales several times
        lead, lead_coef = leading(q)
        r = HomogeneousPoly(3, 8, {tuple(4 * e for e in lead): 1})
        quotient = assert_matches_reference(r, q)
        if abs(lead_coef) != 1:
            top = max(c.denominator for c in quotient.terms.values())
            assert top % lead_coef.numerator**3 == 0


class TestDecideContainmentHomogeneous:
    def test_divisible_quartic(self):
        r = HomogeneousPoly(2, 4, {(4, 0): 1, (0, 4): -1})
        verdict = decide_containment_homogeneous(HYP, r)
        assert verdict == Divisible(HomogeneousPoly(2, 2, {(2, 0): 1, (0, 2): 1}))

    def test_witness_quartic(self):
        r = HomogeneousPoly(2, 4, {(4, 0): 1, (0, 4): 1})
        verdict = decide_containment_homogeneous(HYP, r)
        assert isinstance(verdict, ConePointWitness)
        assert verify_poly_witness(HYP, r, verdict.witness)

    def test_self_is_divisible_by_one(self):
        verdict = decide_containment_homogeneous(HYP, poly_from_form(HYP))
        assert verdict == Divisible(poly_constant(2, 1))

    def test_requires_indefinite(self):
        psd = QuadraticForm([[1, -1], [-1, 1]])
        with pytest.raises(NotIndefinite):
            decide_containment_homogeneous(psd, poly_from_form(psd))

    def test_round_trip_with_random_quotients(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 4)
            q = random_indefinite(rng, n)
            s = random_homogeneous(rng, n, rng.randint(0, 3))
            r = poly_mul(poly_from_form(q), s)
            verdict = decide_containment_homogeneous(q, r)
            assert verdict == Divisible(s)

    def test_degree_two_agrees_with_form_decision(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(2, 4)
            q = random_indefinite(rng, n)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[j][i] = rows[i][j]
            r_form = QuadraticForm(rows)
            form_verdict = decide_containment(q, r_form)
            poly_verdict = decide_containment_homogeneous(q, poly_from_form(r_form))
            if isinstance(form_verdict, Proportional):
                assert poly_verdict == Divisible(
                    poly_constant(n, form_verdict.alpha)
                )
            else:
                assert isinstance(form_verdict, Counterexample)
                assert isinstance(poly_verdict, ConePointWitness)
                assert verify_poly_witness(
                    q, poly_from_form(r_form), poly_verdict.witness
                )

    def test_deterministic(self):
        r = HomogeneousPoly(2, 4, {(4, 0): 1, (0, 4): 1})
        v1 = decide_containment_homogeneous(HYP, r)
        v2 = decide_containment_homogeneous(HYP, r)
        assert v1 == v2
        assert v1.to_json() == v2.to_json()


def assert_verified_witness(q, r):
    verdict = decide_containment_homogeneous(q, r)
    assert isinstance(verdict, ConePointWitness)
    assert verify_poly_witness(q, r, verdict.witness)
    return verdict.witness


class TestSampleConePoint:
    def test_sampled_points_are_exactly_null(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 5)
            q = random_indefinite(rng, n)
            d = congruence_diagonalize(q)
            for _ in range(10):
                h = tuple(rng.randint(1, 7) for _ in range(n))
                for sign in (1, -1):
                    v = sample_cone_point(d, h, sign)
                    assert evaluate(q, v).is_zero()

    def test_irrational_coordinate_example(self):
        q = QuadraticForm.diagonal([1, -2])
        d = congruence_diagonalize(q)
        v = sample_cone_point(d, (1, 1), 1)
        assert evaluate(q, v).is_zero()
        assert {c.t for c in v} == {Fraction(1, 2)}
        assert any(c.rad for c in v)

    def test_requires_indefinite(self):
        q = QuadraticForm.diagonal([1, 1])
        d = congruence_diagonalize(q)
        with pytest.raises(NotIndefinite):
            sample_cone_point(d, (1, 1), 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_r_vanishing_on_one_line_of_a_rank_two_cone(self, sign):
        # x + sign*y vanishes on one line of x^2 - y^2 = 0, the one each
        # sweep direction does not reach for the other sign
        w = assert_verified_witness(HYP, HomogeneousPoly(2, 1, {(1, 0): 1, (0, 1): sign}))
        assert w.coords[0] == sign * w.coords[1]

    def test_product_of_all_variables_with_a_kernel(self):
        q = QuadraticForm.diagonal([1, 2, -1, -3, 0, 0])
        assert_verified_witness(q, HomogeneousPoly(6, 6, {(1,) * 6: 1}))

    def test_former_sampler_fault(self):
        # the rejection sampler gave up on this input: one positive index
        # against five negative ones of weight 1000
        q = QuadraticForm.diagonal([1] + [-1000] * 5)
        assert_verified_witness(q, HomogeneousPoly(6, 2, {(1, 1, 0, 0, 0, 0): 1}))

    def test_constant_r(self):
        w = assert_verified_witness(HYP, poly_constant(2, 3))
        assert w.r_value == 3
        assert any(w.coords)


class TestEvaluate:
    def test_matches_sympy_at_quadext_points(self):
        rng = random.Random(37)
        xs = sympy.symbols("x1:5")
        root = sympy.sqrt(sympy.Rational(2, 3))
        for _ in range(40):
            n = rng.randint(1, 4)
            p = random_homogeneous(rng, n, rng.randint(0, 6), max_terms=10)
            x = tuple(
                QuadExt(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2), Fraction(2, 3))
                for _ in range(n)
            )
            got = p.evaluate(x)
            assert isinstance(got, QuadExt)
            want = to_sympy(p, xs[:n]).subs(
                {s: sympy.Rational(c.rat.numerator, c.rat.denominator)
                 + sympy.Rational(c.rad.numerator, c.rad.denominator) * root
                 for s, c in zip(xs, x)}
            )
            value = sympy.Rational(got.rat.numerator, got.rat.denominator) + sympy.Rational(
                got.rad.numerator, got.rad.denominator
            ) * root
            assert sympy.expand(value - want) == 0

    def test_value_has_the_points_kind(self):
        point = (QuadExt(1, 1, 2), QuadExt(0, 1, 2))
        for p in (poly_constant(2, 3), HomogeneousPoly(2, 1, {})):
            assert isinstance(p.evaluate(point), QuadExt)
            assert isinstance(p.evaluate((Fraction(1), Fraction(2))), Fraction)
        assert poly_constant(2, 3).evaluate(point) == 3


class TestJsonFormat:
    def test_round_trip(self):
        p = HomogeneousPoly(3, 3, {(1, 1, 1): Fraction(-5, 3), (3, 0, 0): 2})
        assert poly_from_json(poly_to_json(p)) == p

    def test_rejects_degree_mismatch(self):
        with pytest.raises(FormatError, match="sum to"):
            poly_from_json(
                {"nvars": 2, "degree": 3, "terms": [{"exp": [1, 1], "coef": "1"}]}
            )

    def test_degree_bound(self):
        def poly(degree):
            return {"nvars": 2, "degree": degree, "terms": [{"exp": [degree, 0], "coef": 1}]}

        assert poly_from_json(poly(MAX_DEGREE)).degree == MAX_DEGREE
        for degree in (MAX_DEGREE + 1, 10**12):
            with pytest.raises(FormatError, match="'degree'"):
                poly_from_json(poly(degree))

    def test_load(self, tmp_path):
        p = HomogeneousPoly(2, 2, {(2, 0): 1})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(poly_to_json(p)))
        assert poly_from_json(load_json(path)) == p


# coefficients whose int-first reading must agree with parse_rational: a value
# or the same FormatError message
COEFFICIENTS = (
    "1_000", " 5 ", "+5", "٥", "-0", "1e3", "7/3", "5/0", "5/-2", "7" * 4301,
    "14/6", "-3/4", "3/-4", "3 / 4", "-3/-4", "3 /4", "3/ 4", "3/+4", "+3/4",
    " -7/14 ", "0x10", "1.5", "1e99999",
    1.5, True, None,
)


def test_every_constructor_gives_one_normal_form():
    """Fractions, a JSON file with coefficients not in lowest terms, and
    ints over a denominator that shares a factor with them all give the
    same (_den, _ints): den > 0 and gcd(den, *ints) = 1."""
    rng = random.Random(29)
    for _ in range(200):
        n, degree = rng.randint(1, 4), rng.randint(0, 5)
        exps = random_homogeneous(rng, n, degree, max_terms=8).terms
        values = {e: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 9, 10))) for e in exps}
        k = rng.randint(1, 6)
        spelled = [{"exp": list(e), "coef": f"{v.numerator * k}/{v.denominator * k}"} for e, v in values.items()]
        den = k * math.lcm(*[v.denominator for v in values.values()])
        ints = {e: int(v * den) for e, v in values.items() if v}
        built = [
            HomogeneousPoly(n, degree, values),
            poly_from_json({"nvars": n, "degree": degree, "terms": spelled}),
            HomogeneousPoly._from_ints(n, degree, {den: ints}),
        ]
        for p in built:
            assert (p._den, p._ints) == (built[0]._den, built[0]._ints)
        assert built[0]._den > 0 and math.gcd(built[0]._den, *built[0]._ints.values()) == 1
        assert built[0].terms == {e: v for e, v in values.items() if v}


@pytest.mark.parametrize("coef", COEFFICIENTS, ids=lambda c: repr(c)[:12])
def test_coefficient_fast_path_matches_parse_rational(coef):
    obj = {"nvars": 1, "degree": 1, "terms": [{"exp": [1], "coef": coef}]}
    try:
        want = parse_rational(coef)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            poly_from_json(obj)
        assert str(got.value) == str(exc)
    else:
        assert poly_from_json(obj).terms.get((1,), Fraction(0)) == want


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"nvars": True, "degree": 1, "terms": [{"exp": [1], "coef": 1}]}, "'nvars'"),
        ({"nvars": 1, "degree": True, "terms": [{"exp": [1], "coef": 1}]}, "'degree'"),
        ({"nvars": 2, "degree": 2, "terms": [{"exp": [True, 1], "coef": 1}]}, "bad exponent vector"),
    ],
)
def test_rejects_booleans_as_integers(obj, message):
    with pytest.raises(FormatError, match=message):
        poly_from_json(obj)


def test_monomial_bound():
    # x1^d in 4 variables: C(d + 3, 3) monomials of degree d
    def poly(degree):
        return {"nvars": 4, "degree": degree, "terms": [{"exp": [degree, 0, 0, 0], "coef": 1}]}

    assert comb(74 + 3, 3) <= MAX_MONOMIALS < comb(75 + 3, 3)
    assert poly_from_json(poly(74)).degree == 74
    with pytest.raises(FormatError, match="76076 monomials, more than 75000"):
        poly_from_json(poly(75))
