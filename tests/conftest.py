import importlib.util
import math
import os
import random
from fractions import Fraction

from qformkit import (
    CongruenceDiagonalization,
    Counterexample,
    DegreeMismatch,
    DimensionMismatch,
    FormatError,
    HomogeneousPoly,
    Inertia,
    LinearTransform,
    MismatchedRadicand,
    NotIndefinite,
    NoWitnessFound,
    NotPythagorean,
    NotSemidefinite,
    Proportional,
    QuadExt,
    QuadraticForm,
    WitnessVector,
    congruence_diagonalize,
    evaluate,
    inertia,
    parse_rational,
    verify_witness,
)
from qformkit import forms, linalg


def perfbench_module(name):
    """perfbench/<name>.py of this checkout, loaded read-only as a module
    apart from the benchmark's own imports."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(root, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def sparse_diagonal_form(rng, n):
    """Random symmetric form whose diagonal is mostly zero, so the pass
    repairs and swaps: off-diagonal entries in -3..3, some of them 1/2 or
    -5/3, and a few zero rows."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j:
                v = Fraction(rng.choice((-2, 1, 3))) if rng.random() < 0.2 else Fraction(0)
            else:
                v = rng.choice((Fraction(rng.randint(-3, 3)),) * 4 + (Fraction(1, 2), Fraction(-5, 3)))
            rows[i][j] = rows[j][i] = v
    for i in rng.sample(range(n), n // 4):
        for j in range(n):
            rows[i][j] = rows[j][i] = Fraction(0)
    return QuadraticForm(rows)


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


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_scale(a, c):
    c = Fraction(c)
    return tuple(tuple(c * e for e in row) for row in a)


def clear_denominators(a):
    """(den, rows) with a = rows / den: den is the lcm of the entry
    denominators and rows are Python ints.  A form's own (den, ints) must
    equal this applied to its Fraction matrix."""
    pairs = [[Fraction(e).as_integer_ratio() for e in row] for row in a]
    den = math.lcm(*[d for row in pairs for _, d in row])
    return den, [[x * (den // d) for x, d in row] for row in pairs]


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


def bilinear_eval(q, x, y):
    """Symmetric bilinear companion: q~(x, y) = sum Q_ij x_i y_j."""
    if len(x) != q.dim or len(y) != q.dim:
        raise DimensionMismatch("vector length does not match form dimension")
    total = 0
    for i in range(q.dim):
        for j in range(q.dim):
            total = total + q.matrix[i][j] * x[i] * y[j]
    return total


def compose(l1, l2):
    """l1 . l2, i.e. apply l2 first."""
    return LinearTransform(linalg.mat_mul(l1.matrix, l2.matrix))


def containment_psd(q, r):
    """Z_q subset-of Z_r for a semidefinite pair: exact kernel containment."""
    if q.dim != r.dim:
        raise DimensionMismatch(f"dims differ: {q.dim} vs {r.dim}")
    for form in (q, r):
        ine = inertia(form)
        if ine.k and ine.m:
            raise NotSemidefinite("form is indefinite")
    zero = (Fraction(0),) * r.dim
    return all(linalg.mat_vec(r.matrix, v) == zero for v in linalg.kernel(q.matrix)[0])


def kernel_break_witness(q, r):
    """The kernel test simdiag ran before it became the witness family:
    the first kernel column b of q's frame with R b != 0, as the rational
    witness simdiag raises (q(b) = 0, r(b) = b^T R b), or None when R maps
    every kernel column to zero."""
    dq = congruence_diagonalize(q)
    nm = dq.inertia.k + dq.inertia.m
    den, r_int = clear_denominators(r.matrix)
    for col, s in zip(dq.cols[nm:], dq.scales[nm:]):
        rb = [sum(x * y for x, y in zip(row, col)) for row in r_int]
        if any(rb):
            r_b = QuadExt(Fraction(sum(x * y for x, y in zip(col, rb)), s * s * den))
            return WitnessVector(tuple(QuadExt(Fraction(x, s)) for x in col), QuadExt(0), r_b)
    return None


# --- a + b*sqrt(t) reference: Fraction pairs, apart from qformkit's int evaluators


def surds(x):
    """(t, pairs): the entries of x, ints, Fractions or QuadExt values, as
    Fraction pairs (a, b) meaning a + b*sqrt(t).  t is the radicand of the
    first QuadExt with a sqrt-part, else of the first QuadExt, else 1.  An
    entry over t*r^2, r rational, has its sqrt-part scaled by r
    (sqrt(8) = 2*sqrt(2)); one over any other radicand raises
    MismatchedRadicand."""
    ext = [c for c in x if isinstance(c, QuadExt)]
    t = next((c.t for c in ext if c.rad), ext[0].t if ext else Fraction(1))
    pairs = []
    for c in x:
        if not isinstance(c, QuadExt):
            pairs.append((Fraction(c), Fraction(0)))
            continue
        ratio = c.t / t
        root = Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
        if c.rad and root * root != ratio:
            raise MismatchedRadicand(f"sqrt({c.t}) beside sqrt({t})")
        pairs.append((c.rat, c.rad * root))
    return t, pairs


def reference_mat_vec(m, x):
    """M x for a vector x of QuadExt values, in Fractions: one QuadExt per
    entry, over x's radicand."""
    t, v = surds(x)
    return tuple(
        QuadExt(sum(e * a for e, (a, _) in zip(row, v)), sum(e * b for e, (_, b) in zip(row, v)), t)
        for row in m
    )


def reference_form_value(m, x):
    """sum_ij M_ij x_i x_j in Fractions, term by term, with
    (a + b sqrt t)(c + d sqrt t) = (ac + bd t) + (ad + bc) sqrt t: a QuadExt
    over x's radicand, or a Fraction when no entry of x is a QuadExt."""
    t, v = surds(x)
    rat = rad = Fraction(0)
    for row, (a, b) in zip(m, v):
        for e, (c, d) in zip(row, v):
            rat, rad = rat + e * (a * c + b * d * t), rad + e * (a * d + b * c)
    return QuadExt(rat, rad, t) if any(isinstance(c, QuadExt) for c in x) else rat


def rank(a):
    return len(linalg.rref(a)[1])


def inverse(a):
    n = len(a)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(a, identity(n))]
    rows, pivots = linalg.rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows[:n])


def reference_diagonalize(q):
    """(basis, diag, inertia) from the plain Fraction elimination that
    congruence_diagonalize's integer pass must reproduce exactly: the same
    pivots, swaps and zero-pivot repairs, with every entry a Fraction."""
    n = q.dim
    a = [list(row) for row in q.matrix]
    b = [list(row) for row in identity(n)]  # columns are basis vectors

    def col_addmul(j, i, c):
        # basis col j += c * col i; congruence update of A
        for r in range(n):
            b[r][j] += c * b[r][i]
        for r in range(n):
            a[r][j] += c * a[r][i]
        for r in range(n):
            a[j][r] += c * a[i][r]

    def col_swap(i, j):
        for r in range(n):
            b[r][i], b[r][j] = b[r][j], b[r][i]
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]

    for i in range(n):
        while True:
            if a[i][i] != 0:
                inv = 1 / a[i][i]
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        col_addmul(j, i, -a[i][j] * inv)
                break
            swap_at = next((l for l in range(i + 1, n) if a[l][l] != 0), None)
            if swap_at is not None:
                col_swap(i, swap_at)
                continue
            off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if off is None:
                break  # whole trailing row is zero
            col_addmul(off, i, 1)
            # loop back: a_off,off is now 2 a_i,off, a nonzero diagonal entry

    diag = [a[i][i] for i in range(n)]
    order = (
        [i for i in range(n) if diag[i] > 0]
        + [i for i in range(n) if diag[i] < 0]
        + [i for i in range(n) if diag[i] == 0]
    )
    basis = tuple(tuple(b[r][c] for c in order) for r in range(n))
    sorted_diag = tuple(diag[c] for c in order)
    k = sum(1 for d in sorted_diag if d > 0)
    m = sum(1 for d in sorted_diag if d < 0)
    return basis, sorted_diag, Inertia(k, m, n - k - m)


def eager_diagonalize(q):
    """congruence_diagonalize as one pass that builds B beside A: every
    column operation is applied to the int columns w of B as it is made.
    The lazy diagonalization's replayed cols, and its diag, inertia and
    scales, must equal these bit for bit."""
    n = q.dim
    den, a = clear_denominators(q.matrix)
    w = [[int(r == c) for r in range(n)] for c in range(n)]  # w[c]: column c of B, times prev
    scales = [1] * n
    prev = 1

    def col_add(j, i):
        w[j] = [x + y for x, y in zip(w[j], w[i])]
        for r in range(i, n):
            a[r][j] += a[r][i]
        for r in range(i, n):
            a[j][r] += a[i][r]

    def col_swap(i, j):
        w[i], w[j] = w[j], w[i]
        for r in range(i, n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]

    for i in range(n):
        if a[i][i] == 0:
            for r in range(i, n):
                for l in range(r + 1, n):
                    a[l][r] = a[r][l]
            swap_at = next((l for l in range(i + 1, n) if a[l][l]), None)
            if swap_at is None:
                swap_at = next((j for j in range(i + 1, n) if a[i][j]), None)
                if swap_at is not None:
                    col_add(swap_at, i)
            if swap_at is not None:
                col_swap(i, swap_at)
        scales[i] = prev
        p = a[i][i]
        if p == 0:
            continue
        row_i, w_i = a[i], w[i]
        for j in range(i + 1, n):
            c = row_i[j]
            a[j][j:] = [(p * x - c * y) // prev for x, y in zip(a[j][j:], row_i[j:])]
            w[j] = [(p * x - c * y) // prev for x, y in zip(w[j], w_i)]
        prev = p

    sign = [(d > 0) - (d < 0) for d in (a[i][i] * scales[i] for i in range(n))]
    order = (
        [i for i in range(n) if sign[i] > 0]
        + [i for i in range(n) if sign[i] < 0]
        + [i for i in range(n) if sign[i] == 0]
    )
    k = sign.count(1)
    m = sign.count(-1)
    return CongruenceDiagonalization(
        diag=tuple(Fraction(a[c][c], scales[c] * den) for c in order),
        inertia=Inertia(k, m, n - k - m),
        cols=tuple(tuple(w[c] if scales[c] > 0 else [-x for x in w[c]]) for c in order),
        scales=tuple(abs(scales[c]) for c in order),
    )


def right_looking_eliminate(q, steps, rec):
    """forms._eliminate as the right-looking pass: each pivot step applies
    its Bareiss update to the whole trailing block when the pass resumes,
    where the left-looking pass updates a row only when a step reads it.
    Both must log the same steps and the same int record
    (num_i, den_i, |scale_i|), d_i = num_i / den_i, step for step."""
    n = q.dim
    den, a = q.den, [list(row) for row in q.ints]
    prev = 1

    def col_add(j, i):
        steps.append(("add", i, j))
        for r in range(i, n):
            a[r][j] += a[r][i]
        for r in range(i, n):
            a[j][r] += a[i][r]

    def col_swap(i, j):
        steps.append(("swap", i, j))
        for r in range(i, n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]

    for i in range(n):
        if a[i][i] == 0:
            for r in range(i, n):
                for l in range(r + 1, n):
                    a[l][r] = a[r][l]
            swap_at = next((l for l in range(i + 1, n) if a[l][l]), None)
            if swap_at is None:
                swap_at = next((j for j in range(i + 1, n) if a[i][j]), None)
                if swap_at is not None:
                    col_add(swap_at, i)
            if swap_at is not None:
                col_swap(i, swap_at)
        p, row_i, s = a[i][i], a[i], abs(prev)
        rec.append((p if prev > 0 else -p, s * den, s))
        if p:
            steps.append(("pivot", i, row_i))
        yield
        if p == 0:
            continue
        for j in range(i + 1, n):
            c = row_i[j]
            if c:
                a[j][j:] = [(p * x - c * y) // prev for x, y in zip(a[j][j:], row_i[j:])]
            else:
                a[j][j:] = [p * x // prev for x in a[j][j:]]
        prev = p


def right_looking_diagonalize(q):
    """congruence_diagonalize(q) with its pass run by
    right_looking_eliminate: an unread frame over that pass."""
    steps, rec = [], []
    return forms._frame((right_looking_eliminate(q, steps, rec), steps, rec, {}, q.dim))


def pass_log(d):
    """(steps, order) of the pass of an unread congruence_diagonalize
    result d: its log of repairs and pivot rows, and the pass step of each
    frame index.  Reading order runs the pass to its end, so the log is
    whole."""
    order = d.order
    return d._run[1], order


def reference_replay(d):
    """The int columns of B of an unread congruence_diagonalize result d,
    replayed forward from its log on the identity: each step applied in
    order, a pivot step as a Bareiss step, so each unfinished column is
    held multiplied by the last pivot and every update divides exactly by
    it.  Column c then carries the signed scale of step c, so a column of
    negative scale is negated, as in the frame's cols."""
    steps, order = pass_log(d)
    n = len(order)
    w = [[int(r == c) for r in range(n)] for c in range(n)]  # w[c]: column c of B
    prev, pivots = 1, {}
    for op, i, x in steps:
        if op == "add":  # b_x += b_i
            w[x] = [u + v for u, v in zip(w[x], w[i])]
        elif op == "swap":
            w[i], w[x] = w[x], w[i]
        else:
            p, w_i = x[i], w[i]
            for j in range(i + 1, n):
                w[j] = [(p * u - x[j] * v) // prev for u, v in zip(w[j], w_i)]
            pivots[i] = prev = p

    def negative(c):  # the signed scale of step c is the last pivot before it
        return next((pivots[i] for i in range(c - 1, -1, -1) if i in pivots), 1) < 0

    return tuple(tuple(-u for u in w[c]) if negative(c) else tuple(w[c]) for c in order)


# --- reference constructors and arithmetic that only tests use ----------------


def poly_constant(nvars, value):
    return HomogeneousPoly(nvars, 0, {(0,) * nvars: Fraction(value)})


def poly_add(a, b):
    """a + b for homogeneous polynomials of one degree; a zero summand
    takes the other's degree."""
    if a.nvars != b.nvars:
        raise DimensionMismatch("variable counts differ")
    if not a.is_zero() and not b.is_zero() and a.degree != b.degree:
        raise DegreeMismatch("cannot add homogeneous polynomials of unequal degree")
    degree = b.degree if a.is_zero() else a.degree
    terms = dict(a.terms)
    for exp, c in b.terms.items():
        terms[exp] = terms.get(exp, Fraction(0)) + c
    return HomogeneousPoly(a.nvars, degree, terms)


def poly_mul(a, b):
    """a * b, term by term."""
    if a.nvars != b.nvars:
        raise DimensionMismatch("variable counts differ")
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return HomogeneousPoly(a.nvars, a.degree + b.degree, terms)


def parse_quadext(text):
    """Inverse of render_quadext (bit-exact for rendered values)."""
    text = text.strip()
    if "sqrt(" not in text:
        return QuadExt(parse_rational(text))
    try:
        rat_part, rest = text.split(" + ", 1)
        rad_part, t_part = rest.split("*sqrt(", 1)
        if not t_part.endswith(")"):
            raise ValueError(text)
        return QuadExt(
            parse_rational(rat_part),
            parse_rational(rad_part),
            parse_rational(t_part[:-1]),
        )
    except (ValueError, FormatError) as exc:
        raise FormatError(f"not a quadratic-extension value: {text!r}") from exc


_PLANES = {"xy": (1, 2), "xz": (1, 3), "yz": (2, 3)}


def rotation_from_triple(a, b, h, plane="xy"):
    """Exact-rational spatial rotation: cos = b/h, sin = a/h."""
    if plane not in _PLANES:
        raise ValueError(f"plane must be one of {sorted(_PLANES)}, got {plane!r}")
    if h == 0 or a * a + b * b != h * h:
        raise NotPythagorean(f"({a}, {b}, {h}) does not satisfy a^2 + b^2 = h^2")
    i, j = _PLANES[plane]
    cos = Fraction(b, h)
    sin = Fraction(a, h)
    rows = [[Fraction(int(r == c)) for c in range(4)] for r in range(4)]
    rows[i][i] = cos
    rows[j][j] = cos
    rows[i][j] = -sin
    rows[j][i] = sin
    return LinearTransform(rows)


def reference_witness_family(diag, inertia):
    """The whole witness family of a diagonal frame, (tn, td, support) for
    (a)..(e) in order, each construction written out on its own: a
    member is null for diag(d), t = tn / td, and coordinate i is
    x + y*sqrt(t) for each (i, x, y) in support, zero elsewhere.  The
    package reads two slices of it in closed form: a lead frame's two (a)
    members e_p +- sqrt(d_p / -d_n) e_n (containment._lead_witness), and
    a semidefinite frame's (b) e_z and (d) e_z +- e_z', the only members
    when one sign is missing (containment._kernel_witness).  (c)
    +-e_p + sqrt(d_p / -d_n) e_n + e_z and (e)
    sigma1 e_p + sigma2 e_p' + sqrt((d_p + d_p') / -d_n) e_n (and its
    mirror) are scanned only by reference_scan."""
    n = len(diag)
    k, m = inertia.k, inertia.m
    pos = range(k)
    neg = range(k, k + m)
    zero = range(k + m, n)
    nd = [d.as_integer_ratio() for d in diag]

    # (a) e_p +- sqrt(d_p / -d_n) e_n
    for p in pos:
        for ng in neg:
            tn, td = nd[p][0] * nd[ng][1], -nd[ng][0] * nd[p][1]
            for sign in (1, -1):
                yield tn, td, ((p, 1, 0), (ng, 0, sign))
    # (b) e_z
    for zi in zero:
        yield 1, 1, ((zi, 1, 0),)
    # (c) +-e_p + sqrt(d_p / -d_n) e_n + e_z
    for p in pos:
        for ng in neg:
            tn, td = nd[p][0] * nd[ng][1], -nd[ng][0] * nd[p][1]
            for zi in zero:
                for sign in (1, -1):
                    yield tn, td, ((p, sign, 0), (ng, 0, 1), (zi, 1, 0))
    # (d) e_z +- e_z'
    for i, zi in enumerate(zero):
        for zj in zero[i + 1 :]:
            for sign in (1, -1):
                yield 1, 1, ((zi, 1, 0), (zj, sign, 0))
    # (e) sigma1 e_p + sigma2 e_p' + sqrt((d_p + d_p') / -d_n) e_n,
    #     and the mirror construction for pairs of negative indices
    for i, p in enumerate(pos):
        for p2 in pos[i + 1 :]:
            (a, b), (c, d) = nd[p], nd[p2]
            for ng in neg:
                tn, td = (a * d + c * b) * nd[ng][1], -nd[ng][0] * b * d
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        yield tn, td, ((p, s1, 0), (p2, s2, 0), (ng, 0, 1))
    for i, ng in enumerate(neg):
        for ng2 in neg[i + 1 :]:
            (a, b), (c, d) = nd[ng], nd[ng2]
            for p in pos:
                tn, td = -(a * d + c * b) * nd[p][1], nd[p][0] * b * d
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        yield tn, td, ((ng, s1, 0), (ng2, s2, 0), (p, 0, 1))


def reference_decide(q, r):
    """(verdict, member): decide_containment as it was when a refutation
    that q's lead frame missed resumed q's pass and scanned the whole
    witness family (a)..(e) of the frame run to its end, and the index of
    the member that fired, None for a proportional verdict.  Members 0
    and 1 are the lead frame's two, so the decision gives the same bytes
    exactly when member < 2.

    In Fractions throughout: alpha read off the first nonzero entry of Q
    and tested entrywise, and a refutation scanned by reference_scan."""
    d = congruence_diagonalize(q)
    if not (d.inertia.k and d.inertia.m):
        raise NotIndefinite("q is not indefinite")
    pairs = [(x, y) for q_row, r_row in zip(q.matrix, r.matrix) for x, y in zip(q_row, r_row)]
    x0, y0 = next((x, y) for x, y in pairs if x)
    alpha = y0 / x0
    if all(y == alpha * x for x, y in pairs):
        return Proportional(alpha), None
    return reference_scan(q, r, d)


def reference_scan(q, r, d):
    """(Counterexample, member): the first member of
    reference_witness_family on q's frame d, run to its end, at which r
    is nonzero, and its index; NoWitnessFound when none is.  For a
    semidefinite q the family is its kernel's, (b) then (d).

    In Fractions throughout: r at a member v as v^T (B^T R B) v over its
    support, each entry of B^T R B computed when first read, and the
    member that fires mapped through the rational basis B, with sqrt(t)
    folded into the rational part when t is a rational square."""
    cols = list(zip(*d.basis))
    r_cols, entries = {}, {}

    def entry(a, b):
        if (a, b) not in entries:
            if b not in r_cols:
                r_cols[b] = [sum(e * c for e, c in zip(row, cols[b])) for row in r.matrix]
            entries[a, b] = entries[b, a] = sum(c * e for c, e in zip(cols[a], r_cols[b]))
        return entries[a, b]

    for k, (tn, td, support) in enumerate(reference_witness_family(d.diag, d.inertia)):
        t = Fraction(tn, td)
        terms = [(entry(a, b), xa, ya, xb, yb) for a, xa, ya in support for b, xb, yb in support]
        r_val = QuadExt(
            sum(e * (xa * xb + ya * yb * t) for e, xa, ya, xb, yb in terms),
            sum(e * (xa * yb + ya * xb) for e, xa, ya, xb, yb in terms),
            t,
        )
        if r_val:
            v = [QuadExt(0, 0, t)] * q.dim
            for a, x, y in support:
                v[a] = QuadExt(x, y, t)
            coords = tuple(map(folded, reference_mat_vec(d.basis, v)))
            witness = WitnessVector(coords, folded(QuadExt(0, 0, t)), folded(r_val))
            return Counterexample(witness), k
    raise NoWitnessFound("the reference family has no member that fires")


def folded(x):
    """The QuadExt x over t = 1 when its radicand is a rational square, as
    witnesses are printed."""
    num, den = x.t.as_integer_ratio()
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return QuadExt(x.rat + x.rad * Fraction(rn, rd))
    return x


def assert_witness_holds(q, r, w):
    """w is a refutation of r against q: verify_witness accepts it, and so
    does the Fraction evaluation of q and r at its coordinates."""
    assert verify_witness(q, r, w)
    assert reference_form_value(q.matrix, w.coords) == 0
    r_val = reference_form_value(r.matrix, w.coords)
    assert r_val and r_val == w.r_value


def reference_holds(q, w, r_at):
    """containment._holds as it was before the re-check ran in ints, for
    the public evaluator r_at of r (forms.evaluate or
    HomogeneousPoly.evaluate): q and r are evaluated as Fraction or
    QuadExt values and compared with the witness's values by
    QuadExt.__eq__.  Radicands that no rational square joins, and a
    coordinate that is no exact rational, give False; a length that is
    not q's or r's raises DimensionMismatch."""
    try:
        q_val, r_val = evaluate(q, w._point), r_at(w._point)
    except (MismatchedRadicand, FormatError):
        return False
    return not q_val and bool(r_val) and w.q_value == q_val and w.r_value == r_val
