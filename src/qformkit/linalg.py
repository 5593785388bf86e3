"""Small exact linear-algebra helpers.

Matrices are tuples of row tuples, of ints or Fractions.  rref and
kernel are plain Gaussian elimination in rational arithmetic; nothing
is numeric.
"""

from __future__ import annotations

from fractions import Fraction


def transpose(a):
    return tuple(zip(*a))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def congruent(m, c):
    """C^T M C, in the scalars of m and c (ints, Fractions or floats)."""
    return mat_mul(mat_mul(transpose(c), m), c)


def mat_vec(a, v):
    """Matrix times vector, in the scalars of a and v (ints, Fractions or
    floats); QuadExt has no arithmetic, so a vector of them is no input."""
    return tuple(sum(e * x for e, x in zip(row, v)) for row in a)


def rref(a):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [e - f * p for e, p in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), tuple(pivots)


def kernel(a):
    """Deterministic basis of the right null space {x : Ax = 0}, one
    vector per non-pivot column of rref(a), and the pivot columns."""
    ncols = len(a[0]) if a else 0
    rows, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return tuple(basis), pivots
