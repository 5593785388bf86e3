import random
from fractions import Fraction

from qformkit import (
    HomogeneousPoly,
    LinearTransform,
    QuadraticForm,
    inertia,
)
from qformkit import linalg


def random_symmetric(rng: random.Random, n: int, lo=-5, hi=5) -> QuadraticForm:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(lo, hi))
            rows[i][j] = v
            rows[j][i] = v
    return QuadraticForm(rows)


def random_indefinite(rng: random.Random, n: int) -> QuadraticForm:
    while True:
        q = random_symmetric(rng, n)
        ine = inertia(q)
        if ine.k >= 1 and ine.m >= 1:
            return q


def random_invertible(rng: random.Random, n: int) -> LinearTransform:
    while True:
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if det(tuple(tuple(r) for r in rows)) != 0:
            return LinearTransform(rows)


def random_vector(rng: random.Random, n: int, lo=-5, hi=5):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def random_homogeneous(
    rng: random.Random, nvars: int, degree: int, max_terms: int = 6
) -> HomogeneousPoly:
    """Random nonzero homogeneous polynomial with small integer coefficients."""
    exps = _exponents(nvars, degree)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exp = rng.choice(exps)
            terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
        p = HomogeneousPoly(nvars, degree, terms)
        if not p.is_zero():
            return p


def _exponents(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    out = []
    for head in range(degree + 1):
        for tail in _exponents(nvars - 1, degree - head):
            out.append((head,) + tail)
    return out


# --- exact reference helpers: plain elimination, used only by tests -----------


def det(a):
    n = len(a)
    m = [list(row) for row in a]
    d = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            d = -d
        d *= m[i][i]
        inv = 1 / m[i][i]
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] * inv
                for c in range(i, n):
                    m[r][c] -= f * m[i][c]
    return d


def rank(a):
    return len(linalg.rref(a)[1])


def inverse(a):
    n = len(a)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(a, linalg.identity(n))]
    rows, pivots = linalg.rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows[:n])
