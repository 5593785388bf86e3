"""Seeded input corpora for the four workloads.

Every input is built together with its right answer, from how it was
made and without calling qformkit: a proportionality constant alpha, a
scale factor kappa, an inertia, a quotient, or the fact that a witness
must exist (Theorem 1 for quadratic r, Theorem 2 for homogeneous r,
kernel containment for semidefinite pairs).  Inputs are JSON objects in
qformkit's exchange format, so set-up parses them through its loaders.

An item is a dict:
  name     stable label, unique within the corpus
  kind     the call the item exercises ("contain", "lorentz", "poly",
           "simdiag", or a CLI subcommand)
  outcome  "confirm" (contained / proportional / divisible / success)
           or "refute"
  inputs   {role: (loader, json_obj)} with loader "form", "transform"
           or "poly"
  expect   the answer known by construction
  fault    True only for the sampler-fault input (see README)
"""

from __future__ import annotations

import random
from fractions import Fraction

# --- small exact helpers (independent of qformkit) ---------------------------


def ident(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def congruent(p, d):
    """P^T diag(d) P."""
    n = len(d)
    dp = [[d[i] * p[i][j] for j in range(n)] for i in range(n)]
    return matmul(transpose(p), dp)


def scaled(rows, c):
    return [[c * e for e in row] for row in rows]


def matrix_json(rows):
    return {"dim": len(rows), "rows": [[str(Fraction(e)) for e in row] for row in rows]}


def unimodular(rng, n, density=0.3):
    """Integer matrix of determinant 1: a unit upper-triangular factor times
    a unit lower-triangular one, with sparse entries in {-1, 1}."""
    u = ident(n)
    low = ident(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                u[i][j] = Fraction(rng.choice((-1, 1)))
            if rng.random() < density:
                low[j][i] = Fraction(rng.choice((-1, 1)))
    return matmul(u, low)


def random_symmetric(rng, n, lo=-3, hi=3):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(lo, hi))
    return rows


def anchored_indefinite(rng, n):
    """Random symmetric matrix with a positive and a negative diagonal
    entry, so q(e_i) > 0 > q(e_j): indefinite by construction."""
    rows = random_symmetric(rng, n)
    i, j = rng.sample(range(n), 2)
    rows[i][i] = Fraction(rng.randint(1, 3))
    rows[j][j] = Fraction(-rng.randint(1, 3))
    return rows


def zero_diagonal_indefinite(rng, n):
    """Zero diagonal and a nonzero off-diagonal entry: q(e_i + e_j) and
    q(e_i - e_j) have opposite signs.  Elimination starts with a pivot
    repair, since every diagonal entry is zero."""
    rows = random_symmetric(rng, n)
    for i in range(n):
        rows[i][i] = Fraction(0)
    rows[0][1] = rows[1][0] = Fraction(rng.choice((-2, -1, 1, 2)))
    return rows


def permuted(rows, perm):
    return [[rows[perm[i]][perm[j]] for j in range(len(rows))] for i in range(len(rows))]


def random_alpha(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


def perturb_one(rows, i, j, eps):
    out = [list(r) for r in rows]
    out[i][j] += eps
    if i != j:
        out[j][i] += eps
    return out


# --- polynomials as {exponent tuple: Fraction} -------------------------------


def exponents(n, d):
    if n == 1:
        return [(d,)]
    return [(i,) + e for i in range(d, -1, -1) for e in exponents(n - 1, d - i)]


def form_poly(rows):
    n = len(rows)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            c = rows[i][j] if i == j else 2 * rows[i][j]
            if c:
                e = [0] * n
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    return terms


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_json(n, d, terms):
    return {
        "nvars": n,
        "degree": d,
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in sorted(terms.items())],
    }


def one_negative_form(rng, n):
    """P^T diag(d) P with one negative entry: inertia (n-1, 1, 0).  With a
    single negative index the cone sampler never has to reject a draw for
    a negative radicand, so these inputs keep it out of its known fault."""
    d = [Fraction(rng.randint(1, 3)) for _ in range(n - 1)] + [Fraction(-rng.randint(1, 3))]
    rng.shuffle(d)
    return congruent(unimodular(rng, n, density=0.25), d)


def divisible_pair(rng, n, d):
    """(q, s, r = q*s) with s dense of degree d - 2."""
    q = one_negative_form(rng, n)
    s = {}
    for e in exponents(n, d - 2):
        s[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5))
    return q, s, poly_mul(form_poly(q), s)


# --- contain-sweep -----------------------------------------------------------

# (n, construction) for each base form q; every q is used twice, with
# r = alpha*q (confirm) and with a one-entry perturbation of alpha*q
# (refute).  Mostly small n, three inputs of each small size, so that the
# medians fall among many inputs of similar cost whatever the seed; one zero-diagonal class, one degenerate class whose
# perturbations reach witness families (b), (c) and (d), and a large class
# n >= 24 that holds more samples than the tail percentile leaves beyond it.
CONTAIN_FORMS = (
    3 * [(n, "anchored") for n in range(3, 15)]
    + [(n, "zero-diagonal") for n in range(4, 13)]
    + 3 * [(5, "degenerate-b"), (7, "degenerate-c"), (6, "degenerate-d")]
    + [(24, "anchored"), (24, "anchored"), (24, "zero-diagonal"), (32, "anchored")]
)

BOOST_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
AXES = ("x", "y", "z")
PLANES = ("xy", "xz", "yz")


def _contain_pair(rng, n, how):
    # A perturbation at (0, 0) shows on the first witness-family member:
    # row 0 of qformkit's diagonalizing basis is dense.  At a random entry
    # the number of members tried, and so the cost, swings with the seed
    # (one n = 24 input took 17 s against about 1 s), which no run of
    # fixed length could absorb; the degenerate classes below are the ones
    # that walk the family, a fixed distance on every seed.
    if how == "anchored":
        q = anchored_indefinite(rng, n)
        i = j = 0
    elif how == "zero-diagonal":
        q = zero_diagonal_indefinite(rng, n)
        i = j = 0
    else:
        # q' (+) 0_z with indices shuffled: the zero block stays on standard
        # basis vectors, so a perturbation inside it is invisible to family
        # (a) and only the family named in `how` can expose it.
        z = 2 if how == "degenerate-d" else 1
        inner = anchored_indefinite(rng, n - z)
        block = [row + [Fraction(0)] * z for row in inner] + [
            [Fraction(0)] * n for _ in range(z)
        ]
        perm = list(range(n))
        rng.shuffle(perm)
        q = permuted(block, perm)
        where = {p: k for k, p in enumerate(perm)}
        zeros = [where[n - z + k] for k in range(z)]
        if how == "degenerate-b":
            i = j = zeros[0]
        elif how == "degenerate-c":
            i, j = zeros[0], where[rng.randrange(n - z)]
        else:
            i, j = zeros
    alpha = random_alpha(rng)
    r = scaled(q, alpha)
    eps = Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
    return q, alpha, r, perturb_one(r, i, j, eps)


def _lorentz_group_element(rng, factors=3):
    """A product of rational boosts and rotations: preserves the interval."""
    m = ident(4)
    for _ in range(factors):
        a, b, h = rng.choice(BOOST_TRIPLES)
        if rng.random() < 0.5:
            g = boost(a, b, h, rng.choice(AXES))
        else:
            g = rotation(a, b, h, rng.choice(PLANES))
        m = matmul(m, g)
    return m


def boost(a, b, h, axis):
    ax = {"x": 1, "y": 2, "z": 3}[axis]
    m = ident(4)
    m[0][0] = m[ax][ax] = Fraction(h, b)
    m[0][ax] = m[ax][0] = Fraction(-a, b)
    return m


def rotation(a, b, h, plane):
    i, j = {"xy": (1, 2), "xz": (1, 3), "yz": (2, 3)}[plane]
    m = ident(4)
    m[i][i] = m[j][j] = Fraction(b, h)
    m[i][j] = Fraction(-a, h)
    m[j][i] = Fraction(a, h)
    return m


def minkowski():
    return [[Fraction(-1 if i == j == 0 else int(i == j)) for j in range(4)] for i in range(4)]


def lorentz_items(rng):
    """Twelve 4x4 frame transforms with c = 1: three of each kind."""
    items = []
    for k in range(3):
        g = _lorentz_group_element(rng)
        items.append(("preserving", g, Fraction(1)))
        s = Fraction(rng.randint(2, 5), rng.randint(1, 3))
        items.append(("scaling", scaled(_lorentz_group_element(rng), s), s * s))
        # rank one onto a light-like line: L^T eta L = w (u^T eta u) w^T = 0
        u = [Fraction(1), Fraction(rng.choice((-1, 1)))] + [Fraction(0)] * 2
        rng.shuffle(u[1:])
        w = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        w[rng.randrange(4)] = Fraction(rng.randint(1, 3))
        collapse = [[ui * wj for wj in w] for ui in u]
        items.append(("singular", matmul(_lorentz_group_element(rng, 2), collapse), Fraction(0)))
        stretch = ident(4)
        stretch[rng.randint(1, 3)][rng.randint(1, 3)] = Fraction(rng.randint(2, 4))
        g1, g2 = _lorentz_group_element(rng, 2), _lorentz_group_element(rng, 2)
        items.append(("stretch", matmul(matmul(g1, stretch), g2), None))
    out = []
    for k, (how, L, kappa) in enumerate(items):
        out.append({
            "name": f"lorentz-{how}-{k}",
            "kind": "lorentz",
            "outcome": "refute" if kappa is None else "confirm",
            "inputs": {"L": ("transform", matrix_json(L))},
            "expect": {"kappa": kappa, "pulled": pullback(L, minkowski())},
            "fault": False,
        })
    return out


def pullback(L, q):
    """L^T Q L."""
    return matmul(matmul(transpose(L), q), L)


def contain_sweep(rng):
    items = []
    for k, (n, how) in enumerate(CONTAIN_FORMS):
        q, alpha, r, r_bad = _contain_pair(rng, n, how)
        base = f"contain-{how}-n{n}-{k}"
        items.append({
            "name": base + "-prop", "kind": "contain", "outcome": "confirm",
            "inputs": {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r))},
            "expect": {"alpha": alpha}, "fault": False,
        })
        items.append({
            "name": base + "-perturbed", "kind": "contain", "outcome": "refute",
            "inputs": {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r_bad))},
            "expect": {"q": q, "r": r_bad}, "fault": False,
        })
    return items + lorentz_items(rng)


# --- poly-divide -------------------------------------------------------------

# (nvars, degree of r): dense r = q*s has C(d + n - 1, n - 1) terms, from
# 10 up to 2002; three inputs of each size up to 286 terms, and eight at
# 2002 terms, so that the tail percentile falls inside one size class
# rather than between two.  Every size appears as a divisible r; the
# refuted r = q*s + bump is kept to r up to 800 terms: a refutation's cost
# is the evaluation at the cone point, not the division, and above that it
# would take seconds per input.
POLY_SIZES = (
    3 * ((3, 3), (3, 4), (4, 4), (3, 8), (5, 4), (4, 6), (6, 4), (4, 8), (5, 6), (4, 10))
    + ((6, 6), (5, 8), (6, 7), (6, 8)) + 8 * ((6, 9),)
)
POLY_REFUTE_MAX_TERMS = 800

# q = diag(1, -1000 x5), r = x1*x2.  The right answer is a cone-point
# witness such as x1 = sqrt(1000), x2 = 1, x3..x6 = 0; the sampler fails
# to draw an admissible point (see README).  Fixed, not drawn from the seed.
SAMPLER_FAULT_Q = [[Fraction(1 if i == j == 0 else (-1000 if i == j else 0)) for j in range(6)] for i in range(6)]
SAMPLER_FAULT_R = {(1, 1, 0, 0, 0, 0): Fraction(1)}


def sampler_fault_item(prefix="poly"):
    return {
        "name": f"{prefix}-sampler-fault",
        "kind": "poly",
        "outcome": "refute",
        "inputs": {
            "q": ("form", matrix_json(SAMPLER_FAULT_Q)),
            "r": ("poly", poly_json(6, 2, SAMPLER_FAULT_R)),
        },
        "expect": {"q": SAMPLER_FAULT_Q, "r": SAMPLER_FAULT_R},
        "fault": True,
    }


def _bump(rng, n, d):
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return tuple(e), Fraction(rng.choice((-1, 1)) * rng.randint(1, 4))


def poly_items(rng, n, d, with_refute, prefix):
    q, s, r = divisible_pair(rng, n, d)
    items = [{
        "name": f"{prefix}-div-n{n}-d{d}-t{len(r)}", "kind": "poly", "outcome": "confirm",
        "inputs": {"q": ("form", matrix_json(q)), "r": ("poly", poly_json(n, d, r))},
        "expect": {"q": q, "r": r}, "fault": False,
    }]
    if with_refute:
        e, c = _bump(rng, n, d)
        r2 = dict(r)
        r2[e] = r2.get(e, Fraction(0)) + c
        r2 = {k: v for k, v in r2.items() if v}
        items.append({
            "name": f"{prefix}-bump-n{n}-d{d}-t{len(r2)}", "kind": "poly", "outcome": "refute",
            "inputs": {"q": ("form", matrix_json(q)), "r": ("poly", poly_json(n, d, r2))},
            "expect": {"q": q, "r": r2}, "fault": False,
        })
    return items


def poly_divide(rng):
    items = []
    for k, (n, d) in enumerate(POLY_SIZES):
        dense_terms = len(exponents(n, d))
        items += poly_items(rng, n, d, dense_terms <= POLY_REFUTE_MAX_TERMS, f"poly-{k}")
    return items + [sampler_fault_item()]


# --- simdiag-pairs -----------------------------------------------------------

# (n, kernel dimension of q) for the semidefinite pairs.
# Three inputs of each size up to n = 10; five n = 16 inputs of one shape,
# so that the tail percentile falls inside one size class.
PSD_SHAPES = (
    3 * ((3, 0), (4, 1), (5, 0), (6, 2), (7, 1), (8, 0), (9, 2), (10, 1))
    + ((12, 2), (14, 1)) + 5 * ((16, 2),)
)
KERNEL_BREAK_SIZES = 3 * (4, 7, 10) + (13,)
INDEFINITE_SIZES = 3 * (3, 5, 8) + (11,)


def psd_pair(rng, n, z, sign):
    """q = sign * P^T D P, r = sign * P^T E P with supp E inside supp D, so
    B^T R B / B^T Q B has ratios E_i / D_i on the complement of ker q."""
    p = unimodular(rng, n, density=0.2)
    d = [Fraction(rng.randint(1, 4)) for _ in range(n - z)] + [Fraction(0)] * z
    e = [Fraction(rng.randint(0, 5)) for _ in range(n - z)] + [Fraction(0)] * z
    ratios = sorted(ei / di for ei, di in zip(e, d) if di)
    q = scaled(congruent(p, d), sign)
    r = scaled(congruent(p, e), sign)
    return q, r, ratios


def kernel_break_pair(rng, n):
    """Semidefinite q, r with r positive on ker q = span(P^-1 e_last)."""
    p = unimodular(rng, n, density=0.2)
    d = [Fraction(rng.randint(1, 4)) for _ in range(n - 1)] + [Fraction(0)]
    e = [Fraction(rng.randint(0, 3)) for _ in range(n - 1)] + [Fraction(rng.randint(1, 3))]
    return congruent(p, d), congruent(p, e)


def simdiag_pairs(rng):
    items = []
    for k, (n, z) in enumerate(PSD_SHAPES):
        sign = Fraction(-1 if k % 3 == 2 else 1)
        q, r, ratios = psd_pair(rng, n, z, sign)
        items.append({
            "name": f"simdiag-{'nsd' if sign < 0 else 'psd'}-n{n}-z{z}-{k}", "kind": "simdiag",
            "outcome": "confirm",
            "inputs": {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r))},
            "expect": {"q": q, "r": r, "ratios": ratios, "z": z}, "fault": False,
        })
    for k, n in enumerate(KERNEL_BREAK_SIZES):
        q, r = kernel_break_pair(rng, n)
        items.append({
            "name": f"simdiag-kernel-break-n{n}-{k}", "kind": "simdiag", "outcome": "refute",
            "inputs": {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r))},
            "expect": {}, "fault": False,
        })
    for k, n in enumerate(INDEFINITE_SIZES):
        q, alpha, r, r_bad = _contain_pair(rng, n, "anchored")
        items.append({
            "name": f"simdiag-indefinite-n{n}-{k}-prop", "kind": "simdiag", "outcome": "confirm",
            "inputs": {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r))},
            "expect": {"q": q, "r": r, "alpha": alpha}, "fault": False,
        })
        items.append({
            "name": f"simdiag-indefinite-n{n}-{k}-perturbed", "kind": "simdiag", "outcome": "refute",
            "inputs": {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r_bad))},
            "expect": {"q": q, "r": r_bad}, "fault": False,
        })
    return items


# --- cli-oneshot -------------------------------------------------------------


# (n, degree) of the large poly-contain inputs: 1287 monomials, so a dense
# r = q*s has about 1270 terms and one process takes about twice a small command.
CLI_LARGE_SHAPE = (6, 8)
CLI_LARGE_COUNT = 3


def cli_oneshot(rng):
    """One item per command line; every input has n <= 6."""
    items = []
    n = rng.randint(4, 6)
    k = rng.randint(1, n - 1)
    d = [Fraction(rng.randint(1, 4)) for _ in range(k)] + [Fraction(-rng.randint(1, 4)) for _ in range(n - k - 1)] + [Fraction(0)]
    rng.shuffle(d)
    q_an = congruent(unimodular(rng, n), d)
    inertia = [k, n - k - 1, 1]
    items.append(_cli("analyze", "confirm", {"form": ("form", matrix_json(q_an))}, {"inertia": inertia}))
    q_canon = anchored_indefinite(rng, rng.randint(4, 6))
    items.append(_cli("canon", "confirm", {"form": ("form", matrix_json(q_canon))}, {"q": q_canon}))
    q, alpha, r, r_bad = _contain_pair(rng, rng.randint(4, 6), "anchored")
    items.append(_cli("contain", "confirm", {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r))},
                      {"alpha": alpha}, tag="prop"))
    items.append(_cli("contain", "refute", {"q": ("form", matrix_json(q)), "r": ("form", matrix_json(r_bad))},
                      {"q": q, "r": r_bad}, tag="perturbed"))
    pn = rng.randint(3, 5)
    for item in poly_items(rng, pn, rng.randint(3, 5), True, "cli-poly"):
        items.append(_cli("poly-contain", item["outcome"],
                          {"q": item["inputs"]["q"], "r": item["inputs"]["r"]},
                          item["expect"], tag=item["outcome"]))
    fault = sampler_fault_item("cli-poly")
    items.append(_cli("poly-contain", "refute", fault["inputs"], fault["expect"], tag="sampler-fault",
                      fault=True))
    sn = rng.randint(3, 6)
    q_s, r_s, ratios = psd_pair(rng, sn, rng.randint(0, 1), Fraction(1))
    z = sn - len(ratios)
    items.append(_cli("simdiag", "confirm", {"q": ("form", matrix_json(q_s)), "r": ("form", matrix_json(r_s))},
                      {"q": q_s, "r": r_s, "ratios": ratios, "z": z}))
    q_k, r_k = kernel_break_pair(rng, sn)
    items.append(_cli("simdiag", "refute", {"q": ("form", matrix_json(q_k)), "r": ("form", matrix_json(r_k))},
                      {}, tag="kernel-break"))
    lor = lorentz_items(rng)
    for how in ("preserving", "stretch"):
        item = next(i for i in lor if f"-{how}-" in i["name"])
        items.append(_cli("lorentz", item["outcome"], item["inputs"], item["expect"], tag=how))
    items.append(_cli("demo", "confirm", {}, {}))
    # The large class: three divisions of the same shape, a fifth of a
    # round's samples, so that the tail percentile falls inside it rather
    # than on the slowest of many near-equal small commands.
    for k in range(CLI_LARGE_COUNT):
        item = poly_items(rng, *CLI_LARGE_SHAPE, False, "cli-poly")[0]
        items.append(_cli("poly-contain", "confirm", item["inputs"], item["expect"], tag=f"large-{k}"))
    return items


def _cli(command, outcome, inputs, expect, tag=None, fault=False):
    return {
        "name": f"cli-{command}" + (f"-{tag}" if tag else ""),
        "kind": command,
        "outcome": outcome,
        "inputs": inputs,
        "expect": expect,
        "fault": fault,
    }


BUILDERS = {
    "contain-sweep": contain_sweep,
    "poly-divide": poly_divide,
    "simdiag-pairs": simdiag_pairs,
    "cli-oneshot": cli_oneshot,
}


def build(workload, seed):
    """The corpus of one workload; the same seed gives the same inputs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
