"""Homogeneous polynomials with exact rational coefficients.

Divisibility of a homogeneous polynomial by an indefinite quadratic is a
complete decision for real zero-set containment: the quotient certifies
containment, and a nonzero remainder guarantees a real null-cone point
where the polynomial does not vanish.  A seeded sampler hunts for such a
point in Q(sqrt(t)) to attach a concrete witness to the refutation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from . import linalg
from .errors import (
    CertificateRejected,
    DegreeMismatch,
    DimensionMismatch,
    FormatError,
    NotIndefinite,
)
from .containment import WitnessVector
from .forms import (  # noqa: F401 -- classify stays bound for perfbench/spans.py
    INDEFINITE,
    CongruenceDiagonalization,
    QuadraticForm,
    classify,
    classify_inertia,
    congruence_diagonalize,
)
from .forms import evaluate as form_eval
from .scalars import QuadExt, parse_rational, render_rational


def _grlex_key(exp):
    return (sum(exp), exp)


def _heap_entry(exp):
    """Min-heap entry that pops the graded-lex largest exponent first."""
    return (-sum(exp), tuple([-e for e in exp]), exp)


class HomogeneousPoly:
    """Exponent-vector -> coefficient map, all terms of one total degree."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars, degree, terms):
        terms = {
            tuple(int(e) for e in exp): Fraction(c)
            for exp, c in dict(terms).items()
            if Fraction(c) != 0
        }
        for exp in terms:
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise FormatError(f"bad exponent vector {exp} for {nvars} variables")
            if sum(exp) != degree:
                raise FormatError(
                    f"exponent vector {exp} has degree {sum(exp)}, expected {degree}"
                )
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousPoly is immutable")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
            and (self.is_zero() or self.degree == other.degree)
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable counts differ")
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise DegreeMismatch("cannot add homogeneous polynomials of unequal degree")
        degree = other.degree if self.is_zero() else self.degree
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return HomogeneousPoly(self.nvars, degree, terms)

    def __neg__(self):
        return HomogeneousPoly(
            self.nvars, self.degree, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return HomogeneousPoly(
                self.nvars,
                self.degree,
                {e: c * other for e, c in self.terms.items()},
            )
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable counts differ")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return HomogeneousPoly(self.nvars, self.degree + other.degree, terms)

    __rmul__ = __mul__

    def leading(self):
        """(exponent, coefficient) under graded lex, x1 > x2 > ..."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def evaluate(self, x):
        """Value at a point of Fractions or QuadExt entries."""
        if len(x) != self.nvars:
            raise DimensionMismatch(
                f"point length {len(x)} != nvars {self.nvars}"
            )
        total = 0
        for exp, c in sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0])):
            term = c
            for xi, e in zip(x, exp):
                for _ in range(e):
                    term = term * xi
            total = total + term
        return total

    @staticmethod
    def zero(nvars, degree=0):
        return HomogeneousPoly(nvars, degree, {})

    @staticmethod
    def constant(nvars, value):
        return HomogeneousPoly(nvars, 0, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def monomial(nvars, exp, coef=1):
        return HomogeneousPoly(nvars, sum(exp), {tuple(exp): Fraction(coef)})

    def __repr__(self):
        return f"HomogeneousPoly({self.nvars}, {self.degree}, {self.terms!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e
            )
            if mono:
                parts.append(f"{render_rational(c)}*{mono}")
            else:
                parts.append(render_rational(c))
        return " + ".join(parts)


@dataclass(frozen=True)
class DivisionResult:
    """r = q*quotient + remainder, with no remainder monomial divisible by
    the leading monomial of q."""

    quotient: HomogeneousPoly
    remainder: HomogeneousPoly


def poly_from_form(q: QuadraticForm) -> HomogeneousPoly:
    """Degree-2 polynomial evaluating identically to the form: Q_ii on
    x_i^2 and 2*Q_ij on x_i x_j for i < j."""
    n = q.dim
    terms = {}
    for i in range(n):
        for j in range(i, n):
            exp = [0] * n
            exp[i] += 1
            exp[j] += 1
            coef = q.matrix[i][j] if i == j else 2 * q.matrix[i][j]
            if coef != 0:
                terms[tuple(exp)] = coef
    return HomogeneousPoly(n, 2, terms)


def _exp_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reduce_by_quadratic(r: HomogeneousPoly, q: HomogeneousPoly) -> DivisionResult:
    """Single-divisor multivariate division under graded lex order.

    The remainder is zero iff q divides r: a single polynomial is its own
    normal-form basis for the principal ideal it generates, so this is a
    complete divisibility decision.

    The leading term of the work polynomial comes off a heap (Monagan &
    Pearce 2007) instead of a rescan of every term, so a division costs
    O(T log T) rather than O(T^2) in the term count T.  An exponent is
    pushed each time it enters the work dict; a popped exponent that has
    since cancelled out of it is skipped.  Every term a step adds lies
    below the term it removes, so no exponent is processed twice.
    """
    if q.is_zero() or q.degree != 2:
        raise DegreeMismatch("divisor must be a nonzero quadratic")
    if r.nvars != q.nvars:
        raise DimensionMismatch("variable counts differ")
    n = r.nvars
    lead_exp, lead_coef = q.leading()
    tail = [(e, c) for e, c in q.terms.items() if e != lead_exp]
    quotient = {}
    remainder = {}
    work = dict(r.terms)
    heap = [_heap_entry(exp) for exp in work]
    heapify(heap)
    while heap:
        exp = heappop(heap)[2]
        coef = work.pop(exp, None)
        if coef is None:
            continue  # cancelled since it was pushed
        if _exp_divides(lead_exp, exp):
            qexp = tuple([a - b for a, b in zip(exp, lead_exp)])
            qcoef = coef / lead_coef
            quotient[qexp] = qcoef
            for e2, c2 in tail:
                e = tuple([a + b for a, b in zip(qexp, e2)])
                old = work.get(e)
                if old is None:
                    work[e] = -qcoef * c2
                    heappush(heap, _heap_entry(e))
                else:
                    new = old - qcoef * c2
                    if new:
                        work[e] = new
                    else:
                        del work[e]
        else:
            remainder[exp] = coef
    qdeg = max(r.degree - 2, 0)
    return DivisionResult(
        quotient=HomogeneousPoly(n, qdeg, quotient),
        remainder=HomogeneousPoly(n, r.degree, remainder),
    )


@dataclass(frozen=True)
class Divisible:
    quotient: HomogeneousPoly

    def to_json(self):
        return {"verdict": "divisible", "quotient": poly_to_json(self.quotient)}


@dataclass(frozen=True)
class ConePointWitness:
    witness: WitnessVector

    def to_json(self):
        from .scalars import render_quadext

        return {
            "verdict": "witness",
            "witness": self.witness.to_json(),
            "q_value": render_quadext(self.witness.q_value),
            "r_value": render_quadext(self.witness.r_value),
        }


@dataclass(frozen=True)
class BudgetExhausted:
    """Non-divisible (remainder is nonzero) but no sampled cone point hit a
    nonzero value within the budget; still certifies non-containment."""

    remainder: HomogeneousPoly

    def to_json(self):
        return {
            "verdict": "non-divisible-budget-exhausted",
            "remainder": poly_to_json(self.remainder),
        }


def sample_cone_point(diag_q: CongruenceDiagonalization, rng: random.Random):
    """Random exact point on the null cone of q, in original coordinates.

    Works in diagonalizing coordinates: draw small rationals everywhere
    except one negative index, whose value is forced to sqrt of the
    balancing radicand; redraw while the radicand is negative or all
    positive-index draws are zero.
    """
    diag = diag_q.diag
    ine = diag_q.inertia
    if ine.k < 1 or ine.m < 1:
        raise NotIndefinite("cone sampling needs an indefinite form")
    n = len(diag)
    pos = list(range(ine.k))
    neg = list(range(ine.k, ine.k + ine.m))
    for _ in range(1000):
        j = rng.choice(neg)
        y = [Fraction(0)] * n
        for i in range(n):
            if i != j:
                y[i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if all(y[p] == 0 for p in pos):
            continue
        radicand = sum(diag[i] * y[i] * y[i] for i in range(n) if i != j) / (-diag[j])
        if radicand < 0:
            continue
        t = radicand if radicand > 0 else Fraction(1)
        coords = [QuadExt(y[i], 0, t) for i in range(n)]
        if radicand > 0:
            coords[j] = QuadExt(0, 1, t)
        return tuple(linalg.mat_vec(diag_q.basis, coords))
    raise RuntimeError("cone sampler failed to draw an admissible point")


def decide_containment_homogeneous(
    q: QuadraticForm,
    r: HomogeneousPoly,
    budget: int = 1000,
    seed: int = 0,
):
    """Divisible(s) with r = q*s, or a real cone-point witness of
    non-containment, or BudgetExhausted (still a non-divisibility
    certificate via the remainder)."""
    if q.dim != r.nvars:
        raise DimensionMismatch(f"form dim {q.dim} != poly nvars {r.nvars}")
    dq = congruence_diagonalize(q)
    if classify_inertia(dq.inertia) != INDEFINITE:
        raise NotIndefinite("the quadratic divisor must be indefinite")
    qp = poly_from_form(q)
    division = reduce_by_quadratic(r, qp)
    if division.remainder.is_zero():
        return Divisible(division.quotient)
    rng = random.Random(seed)
    for _ in range(budget):
        coords = sample_cone_point(dq, rng)
        r_val = r.evaluate(coords)
        if not r_val.is_zero():
            q_val = form_eval(q, coords)
            if not q_val.is_zero():
                raise CertificateRejected("sampled point is off the null cone of q")
            return ConePointWitness(
                WitnessVector(coords=coords, q_value=q_val, r_value=r_val)
            )
    return BudgetExhausted(division.remainder)


def verify_poly_witness(q: QuadraticForm, r: HomogeneousPoly, w: WitnessVector) -> bool:
    """Independent recheck: q vanishes at the witness, r does not."""
    if q.dim != r.nvars or len(w.coords) != q.dim:
        raise DimensionMismatch("witness length does not match")
    return form_eval(q, w.coords).is_zero() and not r.evaluate(w.coords).is_zero()


# --- polynomial exchange format ----------------------------------------------


def poly_from_json(obj) -> HomogeneousPoly:
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object with 'nvars', 'degree', 'terms'")
    try:
        nvars, degree, terms = obj["nvars"], obj["degree"], obj["terms"]
    except KeyError as exc:
        raise FormatError(f"missing key {exc}") from exc
    if not isinstance(nvars, int) or nvars < 1:
        raise FormatError(f"'nvars' must be a positive integer, got {nvars!r}")
    if not isinstance(degree, int) or degree < 0:
        raise FormatError(f"'degree' must be a nonnegative integer, got {degree!r}")
    if not isinstance(terms, list):
        raise FormatError("'terms' must be a list")
    parsed = {}
    for i, term in enumerate(terms):
        if not isinstance(term, dict) or "exp" not in term or "coef" not in term:
            raise FormatError(f"term {i} must have 'exp' and 'coef'")
        exp = term["exp"]
        if (
            not isinstance(exp, list)
            or len(exp) != nvars
            or any(not isinstance(e, int) or e < 0 for e in exp)
        ):
            raise FormatError(f"term {i}: bad exponent vector {exp!r}")
        if sum(exp) != degree:
            raise FormatError(
                f"term {i}: exponents sum to {sum(exp)}, expected degree {degree}"
            )
        key = tuple(exp)
        if key in parsed:
            raise FormatError(f"term {i}: duplicate exponent vector {exp!r}")
        parsed[key] = parse_rational(term["coef"])
    return HomogeneousPoly(nvars, degree, parsed)


def poly_to_json(p: HomogeneousPoly):
    return {
        "nvars": p.nvars,
        "degree": p.degree,
        "terms": [
            {"exp": list(exp), "coef": render_rational(p.terms[exp])}
            for exp in sorted(p.terms, key=_grlex_key, reverse=True)
        ],
    }


def load_poly(path) -> HomogeneousPoly:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise FormatError(f"{path}: {exc}") from exc
    return poly_from_json(obj)
