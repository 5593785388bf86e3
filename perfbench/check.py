"""Independent checks of qformkit's certificates.

Nothing here imports qformkit.  A certificate is re-checked with a few
lines of exact a + b*sqrt(t) arithmetic over ``Fraction``, with a
polynomial product written out over exponent dicts, or (for the float
simultaneous-diagonalization basis) with plain float matrix products.
Each check returns None when the certificate holds and a short reason
when it does not.
"""

from __future__ import annotations

from fractions import Fraction

from corpus import form_poly, poly_mul

# --- a + b*sqrt(t) -------------------------------------------------------------


def surd_is_zero(a, b, t):
    """Exact zero test of a + b*sqrt(t), t > 0, also for square t."""
    if b == 0 or a == 0:
        return a == 0 and b == 0
    return (a > 0) != (b > 0) and a * a == b * b * t


def surd_mul(x, y, t):
    return (x[0] * y[0] + x[1] * y[1] * t, x[0] * y[1] + x[1] * y[0])


def witness_coords(coords):
    """[(rat, rad, t)] -> ([(rat, rad)], t), or a reason when the
    coordinates do not share one radicand."""
    radicands = {t for _, rad, t in coords if rad != 0}
    if len(radicands) > 1:
        return None, f"coordinates use several radicands {sorted(radicands)}"
    t = radicands.pop() if radicands else Fraction(1)
    if t <= 0:
        return None, f"radicand {t} is not positive"
    return [(Fraction(a), Fraction(b)) for a, b, _ in coords], t


def form_value(rows, v, t):
    """v^T Q v for v with entries a + b*sqrt(t): (A, B) with value A + B*sqrt(t)."""
    a_part = [x[0] for x in v]
    b_part = [x[1] for x in v]

    def bil(x, y):
        return sum(
            x[i] * sum(rows[i][j] * y[j] for j in range(len(y)) if y[j])
            for i in range(len(x)) if x[i]
        )

    return bil(a_part, a_part) + t * bil(b_part, b_part), 2 * bil(a_part, b_part)


def poly_value(terms, v, t):
    """r(v) for a polynomial {exp: coef} at a point with entries a + b*sqrt(t)."""
    degree = max((sum(e) for e in terms), default=0)
    powers = []
    for x in v:
        row = [(Fraction(1), Fraction(0))]
        for _ in range(degree):
            row.append(surd_mul(row[-1], x, t))
        powers.append(row)
    total_a = total_b = Fraction(0)
    for exp, c in terms.items():
        term = (c, Fraction(0))
        for i, e in enumerate(exp):
            if e:
                term = surd_mul(term, powers[i][e], t)
        total_a += term[0]
        total_b += term[1]
    return total_a, total_b


def check_form_witness(q, r, coords):
    """q(v) = 0 and r(v) != 0 for quadratic forms q, r."""
    v, t = witness_coords(coords)
    if v is None:
        return t
    if len(v) != len(q):
        return f"witness has {len(v)} coordinates, forms have dimension {len(q)}"
    if not surd_is_zero(*form_value(q, v, t), t):
        return "q does not vanish at the witness"
    if surd_is_zero(*form_value(r, v, t), t):
        return "r vanishes at the witness"
    return None


def check_poly_witness(q, r_terms, coords):
    """q(v) = 0 and r(v) != 0 for a quadratic form q and a polynomial r."""
    v, t = witness_coords(coords)
    if v is None:
        return t
    if len(v) != len(q):
        return f"witness has {len(v)} coordinates, q has dimension {len(q)}"
    if not surd_is_zero(*form_value(q, v, t), t):
        return "q does not vanish at the witness"
    if surd_is_zero(*poly_value(r_terms, v, t), t):
        return "r vanishes at the witness"
    return None


def check_quotient(q, r_terms, quotient_terms):
    """q * quotient == r, multiplied out over exponent dicts."""
    product = poly_mul(form_poly(q), quotient_terms)
    want = {e: c for e, c in r_terms.items() if c}
    if product != want:
        return "q * quotient differs from r"
    return None


def check_alpha(expected, got):
    if got != expected:
        return f"alpha {got} differs from the constructed {expected}"
    return None


# --- exact congruence check (canon) -------------------------------------------


def exact_det(m):
    m = [list(row) for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def check_congruence(q, basis, diag):
    """basis invertible and basis^T Q basis == diag(diag), exactly."""
    n = len(q)
    if len(basis) != n or any(len(row) != n for row in basis) or len(diag) != n:
        return "basis or diagonal has the wrong shape"
    if exact_det(basis) == 0:
        return "basis is singular"
    cols = [[basis[r][c] for r in range(n)] for c in range(n)]
    for i in range(n):
        qi = [sum(q[r][s] * cols[i][s] for s in range(n)) for r in range(n)]
        for j in range(i, n):
            value = sum(cols[j][r] * qi[r] for r in range(n))
            want = diag[i] if i == j else 0
            if value != want:
                return f"(B^T Q B)[{i}][{j}] = {value}, expected {want}"
    return None


def check_inertia(diag, inertia):
    signs = [sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0), sum(1 for d in diag if d == 0)]
    if signs != list(inertia):
        return f"diagonal signs {signs} differ from the constructed inertia {list(inertia)}"
    return None


# --- float simultaneous-diagonalization check ----------------------------------

REL_TOL = 1e-7


def _fmat(rows):
    return [[float(e) for e in row] for row in rows]


def _congruent_float(m, b):
    n = len(m)
    mb = [[sum(m[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(b[k][i] * mb[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _float_rank(b):
    m = [list(row) for row in b]
    n = len(m)
    scale = max((abs(x) for row in m for x in row), default=0.0) or 1.0
    rank = 0
    for c in range(n):
        piv = max(range(rank, n), key=lambda r: abs(m[r][c]), default=None)
        if piv is None or abs(m[piv][c]) <= 1e-9 * scale:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(n):
            if r != rank:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def check_simdiag(q, r, basis, ratios=None, z=None, alpha=None):
    """basis invertible, basis^T Q basis and basis^T R basis diagonal up to
    a relative tolerance, and their diagonal ratios equal to the
    constructed ones: the multiset `ratios` on the complement of ker q
    (with z kernel columns), or alpha on every column outside ker q."""
    n = len(q)
    if len(basis) != n or any(len(row) != n for row in basis):
        return "basis has the wrong shape"
    if _float_rank(basis) != n:
        return "basis is singular"
    tq = _congruent_float(_fmat(q), basis)
    tr = _congruent_float(_fmat(r), basis)
    scale = max(abs(tq[i][j]) for i in range(n) for j in range(n)) or 1.0
    rscale = max(abs(tr[i][j]) for i in range(n) for j in range(n)) or 1.0
    for i in range(n):
        for j in range(n):
            if i != j and (abs(tq[i][j]) > REL_TOL * scale or abs(tr[i][j]) > REL_TOL * rscale):
                return f"off-diagonal entry ({i},{j}) is not zero"
    got, kernel = [], 0
    for i in range(n):
        if abs(tq[i][i]) <= REL_TOL * scale:
            kernel += 1
            if abs(tr[i][i]) > REL_TOL * rscale:
                return f"column {i} is in ker q but r is nonzero on it"
        else:
            got.append(tr[i][i] / tq[i][i])
    if alpha is not None:  # r = alpha*q: q may be degenerate, every other column has ratio alpha
        ratios, z = [Fraction(alpha)] * len(got), kernel
    if kernel != z:
        return f"{kernel} kernel columns, expected {z}"
    want = sorted(float(x) for x in ratios)
    for g, w in zip(sorted(got), want):
        if abs(g - w) > REL_TOL * max(1.0, abs(w)):
            return f"diagonal ratio {g} differs from the constructed {w}"
    return None
