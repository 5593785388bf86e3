"""Guards on how the package is built rather than on what it decides:
nothing in the package imports numpy and no subcommand loads it, each
subcommand loads only the qformkit modules it runs and never
`dataclasses`, no check in src/ is an `assert` that `python -O` would
strip, each decision diagonalizes each form once and makes Fractions
only where its verdict reads them, no command prints through a Fraction
view, and every qformkit name the benchmark binds to exists."""

import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
import textwrap
import time
import types
from fractions import Fraction

import pytest
from conftest import perfbench_module, poly_mul, random_homogeneous

import qformkit
from qformkit import containment, demo, forms, linalg, polys, semidefinite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qformkit")

_NUMPY_PROBE = textwrap.dedent(
    """
    import contextlib, io, os, sys, tempfile

    import qformkit.cli as cli

    assert "numpy" not in sys.modules, "import qformkit.cli loaded numpy"
    inputs = {
        "hyp": '{"dim": 2, "rows": [[1,0],[0,-1]]}',
        "circle": '{"dim": 2, "rows": [[1,0],[0,1]]}',
        "square": '{"dim": 2, "rows": [[1,-1],[-1,1]]}',
        "s2": '{"dim": 3, "rows": [[2,0,-1],[0,2,-1],[-1,-1,1]]}',
        "s2p": '{"dim": 3, "rows": [[8,8,-8],[8,16,-12],[-8,-12,10]]}',
        "stretch": '{"dim": 2, "rows": [[1,0],[0,2]]}',
        "quartic": '{"nvars": 2, "degree": 4, "terms": ['
                   '{"exp": [4,0], "coef": 1}, {"exp": [0,4], "coef": -1}]}',
    }
    d = tempfile.mkdtemp()
    f = {}
    for name, text in inputs.items():
        f[name] = os.path.join(d, name + ".json")
        with open(f[name], "w") as fh:
            fh.write(text)

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv) + ["--json"])

    commands = [
        (("analyze", f["hyp"]), 0),
        (("canon", f["s2"]), 0),
        (("contain", f["hyp"], f["circle"]), 1),
        (("poly-contain", f["hyp"], f["quartic"]), 0),
        (("lorentz", f["stretch"]), 1),
        (("demo",), 0),
        (("simdiag", f["square"], f["circle"]), 1),  # kernel containment fails
        (("simdiag", f["s2"], f["s2p"]), 0),  # psd pair: runs the float step
    ]
    for argv, code in commands:
        assert run(*argv) == code, argv
        assert "numpy" not in sys.modules, f"{argv[0]} loaded numpy"
    print("ok")
    """
)


def test_no_subcommand_loads_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# Each probe runs in a fresh interpreter and prints the qformkit modules,
# and dataclasses if it was loaded, that sys.modules then holds.
_FOOTPRINT_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, os, sys, tempfile

    argv = json.loads(sys.argv[1])
    if argv is None:
        import qformkit
    else:
        import qformkit.cli as cli

        d = tempfile.mkdtemp()
        files = []
        for k, text in enumerate(json.loads(sys.argv[2])):
            files.append(os.path.join(d, f"{k}.json"))
            with open(files[-1], "w") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + files)
        assert code in (0, 1), code
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("qformkit") or m == "dataclasses")))
    """
)

_HYP_JSON = '{"dim": 2, "rows": [[1,0],[0,-1]]}'
_S2_JSON = '{"dim": 3, "rows": [[2,0,-1],[0,2,-1],[-1,-1,1]]}'
_S2P_JSON = '{"dim": 3, "rows": [[8,8,-8],[8,16,-12],[-8,-12,10]]}'
_QUARTIC_JSON = '{"nvars": 2, "degree": 4, "terms": [{"exp": [4,0], "coef": 1}, {"exp": [0,4], "coef": -1}]}'
_STRETCH_JSON = '{"dim": 4, "rows": [[1,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1]]}'

# the modules every subcommand needs: its parser, the form loader and the exact scalars
_CLI_BASE = ["cli", "errors", "forms", "record", "scalars"]


# case -> (subcommand, or None for a bare `import qformkit`; its input
# files; the qformkit modules it loads past the CLI's base)
_FOOTPRINTS = {
    "import-qformkit": (None, [], []),
    "analyze": ("analyze", [_HYP_JSON], []),
    "canon": ("canon", [_S2_JSON], []),
    "contain": ("contain", [_HYP_JSON, _HYP_JSON], ["containment"]),
    "poly-contain": ("poly-contain", [_HYP_JSON, _QUARTIC_JSON], ["containment", "polys"]),
    "simdiag": ("simdiag", [_S2_JSON, _S2P_JSON], ["containment", "linalg", "semidefinite"]),  # runs the float step
    "lorentz": ("lorentz", [_STRETCH_JSON], ["containment", "relativity"]),
    "demo": ("demo", [], ["containment", "demo", "linalg", "relativity", "semidefinite"]),
}


@pytest.mark.parametrize("case", _FOOTPRINTS)
def test_each_subcommand_loads_only_its_modules(case):
    """import qformkit loads no submodule; a subcommand loads its own
    modules and the CLI's base, and nothing loads dataclasses."""
    command, inputs, extra = _FOOTPRINTS[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = None if command is None else [command]
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(argv), json.dumps(inputs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = ["qformkit"]
    if command is not None:
        expected += [f"qformkit.{m}" for m in _CLI_BASE + extra]
    assert json.loads(proc.stdout) == sorted(expected)


def _package_trees():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                yield name, ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_package():
    found = []
    for name, tree in _package_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def _imports_of(top):
    """name:line of each import of the top-level module top in the package."""
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == top for m in modules):
                found.append(f"{name}:{node.lineno}")
    return found


def test_no_dataclasses_import_in_package():
    """Importing dataclasses and building frozen dataclasses cost a
    one-shot CLI process about 20 ms; the value types use record.Record."""
    found = _imports_of("dataclasses")
    assert not found, f"dataclasses imported at {found}"


def test_no_numpy_import_in_package():
    """numpy is a test oracle only; importing it cost a simdiag process
    about 180 ms and 10 MB."""
    found = _imports_of("numpy")
    assert not found, f"numpy imported at {found}"


# every module binding through which qformkit reaches congruence_diagonalize
_DIAGONALIZE_BINDINGS = (forms, containment, polys, semidefinite)

_HYP = qformkit.QuadraticForm([[1, 0, 0], [0, -1, 0], [0, 0, 2]])
_CIRCLE = qformkit.QuadraticForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
_STRETCH = qformkit.LinearTransform([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
_X1X2 = qformkit.HomogeneousPoly(3, 2, {(1, 1, 0): Fraction(1)})
_S2 = qformkit.QuadraticForm([[2, 0, -1], [0, 2, -1], [-1, -1, 1]])
_S2P = qformkit.QuadraticForm([[8, 8, -8], [8, 16, -12], [-8, -12, 10]])
_SQUARE = qformkit.QuadraticForm([[1, -1], [-1, 1]])
_HYP2 = qformkit.QuadraticForm([[1, 0], [0, -1]])


@pytest.fixture
def diagonalize_calls(monkeypatch):
    calls = []
    original = forms.congruence_diagonalize

    def counted(q):
        calls.append(q)
        return original(q)

    for module in _DIAGONALIZE_BINDINGS:
        monkeypatch.setattr(module, "congruence_diagonalize", counted)
    return calls


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    original = linalg.rref

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


@pytest.mark.parametrize(
    "decide, diagonalized, rrefs",
    [
        (lambda: qformkit.decide_containment(_HYP, _CIRCLE), [_HYP], 0),
        (lambda: qformkit.decide_containment(_HYP, _HYP), [_HYP], 0),
        (lambda: qformkit.check_interval_invariance(_STRETCH), [qformkit.minkowski_form(1)], 0),
        (lambda: qformkit.simdiag_general(_HYP, _HYP), [_HYP], 0),
        (lambda: qformkit.decide_containment_homogeneous(_HYP, _X1X2), [_HYP], 0),
        # kernel and complement of q from its frame; r only for its orientation
        (lambda: qformkit.simdiag_general(_S2, _S2P), [_S2, _S2P], 0),
        # the kernel is read off q's frame, with no second elimination
        (lambda: qformkit.kernel_basis(_S2), [_S2], 0),
        # the inertia, the kernel and the NotIndefinite rejection read one
        # frame of each form
        (demo.substitution, [_S2, _S2P], 0),
        # both rejections and both classifications read one frame of each
        # form
        (demo.semidefinite_trap, [_SQUARE, _HYP2], 0),
    ],
    ids=[
        "contain-refute",
        "contain-proportional",
        "lorentz",
        "simdiag-indefinite",
        "poly-non-divisible",
        "simdiag-semidefinite",
        "kernel-basis",
        "demo-substitution",
        "demo-trap",
    ],
)
def test_one_diagonalization_per_decision(diagonalize_calls, rref_calls, decide, diagonalized, rrefs):
    decide()
    assert diagonalize_calls == diagonalized
    assert len(rref_calls) == rrefs


def _anchored_pair(n, seed):
    """q: random small integers with a positive and a negative diagonal
    entry, so indefinite; r = -5/3 q."""
    rng = random.Random(seed)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-3, 3))
    rows[0][0], rows[1][1] = Fraction(2), Fraction(-1)
    return rows, [[Fraction(-5, 3) * e for e in row] for row in rows]


def _steps_run(monkeypatch):
    """One list per pass started from now on, of (d_i, |scale_i|) for
    each step it has run: its length counts the pass's pivot steps."""
    recs = []
    eliminate = forms._eliminate

    def kept(q, steps, rec):
        recs.append(rec)
        return eliminate(q, steps, rec)

    monkeypatch.setattr(forms, "_eliminate", kept)
    return recs


def _degenerate_b_pair(n, seed):
    """q: an anchored form on the first n - 1 coordinates and 0 on the
    last, whose zero pivot only family member (b), e_z, reaches; r: -5/3 q
    with 1 added at the zero pivot."""
    q_rows, r_rows = _anchored_pair(n - 1, seed)
    q_rows = [row + [0] for row in q_rows] + [[0] * n]
    r_rows = [row + [0] for row in r_rows] + [[0] * (n - 1) + [1]]
    return qformkit.QuadraticForm(q_rows), qformkit.QuadraticForm(r_rows)


def test_contain_stops_at_the_first_pivot_of_each_sign(monkeypatch):
    """decide_containment runs q's pass only until it has a pivot of each
    sign when that settles the verdict, and not at all when Q's diagonal
    proves q indefinite on a proportional verdict: the anchored n = 32
    pair has Q_00 = 2 > 0 > -1 = Q_11, so its proportional twin runs none
    of the 32 steps.  Its perturbation at (0, 0), which a null line of
    _lead_witness exposes, runs 2, the steps of d_0 = 2 and
    d_1 = -1 - a_01^2 / 2 < 0.  A degenerate-b refutation, which neither
    null line exposes, is read off the plane route and runs the same 2
    of its 8 steps."""
    recs = _steps_run(monkeypatch)
    q_rows, r_rows = _anchored_pair(32, 5)
    q = qformkit.QuadraticForm(q_rows)
    assert isinstance(qformkit.decide_containment(q, qformkit.QuadraticForm(r_rows)), qformkit.Proportional)
    r_rows[0][0] += 1
    r = qformkit.QuadraticForm(r_rows)
    verdict = qformkit.decide_containment(q, r)
    assert isinstance(verdict, qformkit.Counterexample) and qformkit.verify_witness(q, r, verdict.witness)
    assert [len(rec) for rec in recs] == [0, 2]
    recs.clear()
    q, r = _degenerate_b_pair(8, 5)
    verdict = qformkit.decide_containment(q, r)
    assert isinstance(verdict, qformkit.Counterexample) and qformkit.verify_witness(q, r, verdict.witness)
    assert verdict.witness.coords == (0,) * 7 + (1,)
    assert [len(rec) for rec in recs] == [2]


def test_diagonal_proof_runs_no_pass_step(monkeypatch):
    """A proportional verdict runs none of q's pass steps when Q's own
    diagonal proves q indefinite: the interval check of a boost, whose
    eta = diag(-1, 1, 1, 1), and a divisible poly-contain of q =
    diag(1, -1, 2).  The diagonals of [[1, 2], [2, 1]] and of the pending
    repair form [[1, 1, 1], [1, 1, 2], [1, 2, 1]] are positive and prove
    nothing, so a proportional contain reads q's lead frame there, and
    its pass stops at lead's steps: 2 of 2, and 3 of 3 after a repair
    and a swap."""
    recs = _steps_run(monkeypatch)
    assert qformkit.check_interval_invariance(qformkit.boost_from_triple(3, 4, 5)).kappa == 1
    hyp = polys.poly_from_form(_HYP)
    assert isinstance(qformkit.decide_containment_homogeneous(_HYP, poly_mul(hyp, hyp)), polys.Divisible)
    assert [len(rec) for rec in recs] == [0, 0]
    for rows, steps in (([[1, 2], [2, 1]], 2), ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], 3)):
        recs.clear()
        q = qformkit.QuadraticForm(rows)
        verdict = qformkit.decide_containment(q, qformkit.QuadraticForm([[2 * e for e in row] for row in rows]))
        assert verdict.alpha == 2
        assert forms.congruence_diagonalize(q).lead is not None
        # the decision's pass, then the pass of a fresh frame's lead
        assert [len(rec) for rec in recs] == [steps, steps]


def test_off_anchor_refutation_reads_only_the_lead_frame(monkeypatch):
    """A refutation the lead frame's members miss is read off the lead
    frame alone: on the anchored n = 128 pair with r perturbed at
    (n - 1, n - 2), q's pass runs the lead frame's 2 steps of 128, only
    its 2 columns of B are built, and the decision with its re-check
    takes under 10 ms in-process (best of 3)."""
    n = 128
    q_rows, r_rows = _anchored_pair(n, 5)
    r_rows[n - 1][n - 2] += 1
    r_rows[n - 2][n - 1] += 1
    q, r = qformkit.QuadraticForm(q_rows), qformkit.QuadraticForm(r_rows)
    lead = forms.congruence_diagonalize(q).lead
    # r is zero on both null lines of the lead plane, so _lead_witness takes the plane route
    t = lead.diag[0] / -lead.diag[1]
    for sign in (1, -1):
        assert not qformkit.evaluate(r, lead.pullback(((0, 1, 0), (1, 0, sign)), t))
    assert qformkit.verify_witness(q, r, containment._lead_witness(lead, r, q))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        verdict, rechecked = _refute_and_recheck(q, r)
        times.append(time.perf_counter() - start)
        assert rechecked
    assert min(times) < 0.010
    recs = _steps_run(monkeypatch)
    built = _count_column_builds(monkeypatch)
    assert isinstance(qformkit.decide_containment(q, r), qformkit.Counterexample)
    assert [len(rec) for rec in recs] == [2]
    assert sorted(built) == [0, 1]


def test_simdiag_rejects_an_indefinite_r_early(monkeypatch):
    """simdiag on a semidefinite q rejects an indefinite r, as before, once
    r's pass has a pivot of each sign: 2 of the anchored n = 32 form's
    steps, after all 32 of q's.  A semidefinite r runs to the end."""
    recs = _steps_run(monkeypatch)
    n = 32
    q = qformkit.QuadraticForm([[int(i == j) for j in range(n)] for i in range(n)])
    r = qformkit.QuadraticForm(_anchored_pair(n, 5)[0])
    with pytest.raises(qformkit.NotSemidefinite, match="^r is indefinite$"):
        qformkit.simdiag_general(q, r)
    assert [len(rec) for rec in recs] == [n, 2]
    recs.clear()
    assert isinstance(qformkit.simdiag_general(q, q), qformkit.SimDiagResult)
    assert [len(rec) for rec in recs] == [n, n]


def test_contain_reads_only_the_rows_its_steps_read(monkeypatch):
    """q's pass brings a row up to date only when a step reads it: after a
    refuting decide_containment on the anchored n = 128 pair perturbed at
    (0, 0), whose pass stops after 2 steps, the suspended pass's working
    rows from step 2 on are still q's own tuples of ints, untouched."""
    passes = []
    eliminate = forms._eliminate

    def kept(q, steps, rec):
        passes.append(eliminate(q, steps, rec))
        return passes[-1]

    monkeypatch.setattr(forms, "_eliminate", kept)
    q_rows, r_rows = _anchored_pair(128, 5)
    r_rows[0][0] += 1
    q = qformkit.QuadraticForm(q_rows)
    assert isinstance(qformkit.decide_containment(q, qformkit.QuadraticForm(r_rows)), qformkit.Counterexample)
    (run,) = passes
    rows, rec = run.gi_frame.f_locals["a"], run.gi_frame.f_locals["rec"]
    assert len(rec) == 2
    assert all(row is q_row for row, q_row in zip(rows[2:], q.ints[2:]))


class _Stop(Exception):
    pass


def _first_rows(m, k):
    """m as containment._ratio reads it, with only its first k rows:
    reading row k raises _Stop."""

    def rows():
        yield from m.ints[:k]
        raise _Stop

    return types.SimpleNamespace(den=m.den, ints=rows())


def test_ratio_stops_at_the_first_mismatch():
    """containment._ratio is one int loop over the upper triangle: it
    returns None at the first entry where R is not alpha*Q, reading no
    row past it, and where R is nonzero ahead of Q's first nonzero entry;
    alpha, negative here, is read off Q's first nonzero entry."""
    n = 6
    q_rows, r_rows = _anchored_pair(n, 5)
    q, r = qformkit.QuadraticForm(q_rows), qformkit.QuadraticForm(r_rows)
    ratio = containment._ratio
    assert ratio(q, r) == Fraction(-5, 3)
    with pytest.raises(_Stop):
        ratio(_first_rows(q, 2), _first_rows(r, 2))
    r_rows[1][2] = r_rows[2][1] = r_rows[1][2] + 1
    assert ratio(_first_rows(q, 2), _first_rows(qformkit.QuadraticForm(r_rows), 2)) is None
    r_rows[1][2] = r_rows[2][1] = r_rows[1][2] - 1
    r_rows[n - 1][n - 1] += 1
    assert ratio(q, qformkit.QuadraticForm(r_rows)) is None
    zero_lead = qformkit.QuadraticForm([[0, 0, 1], [0, 2, 0], [1, 0, -1]])
    assert ratio(zero_lead, qformkit.QuadraticForm([[0, 0, -7], [0, -14, 0], [-7, 0, 7]])) == -7
    assert ratio(zero_lead, qformkit.QuadraticForm([[0, 1, -7], [1, -14, 0], [-7, 0, 7]])) is None
    assert ratio(zero_lead, qformkit.QuadraticForm([[1, 0, -7], [0, -14, 0], [-7, 0, 7]])) is None


def _fractions_made(fn, *args):
    new = Fraction.__new__.__code__
    count = [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is new:
            count[0] += 1

    sys.setprofile(hook)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, count[0]


def _refute_and_recheck(q, r):
    verdict = qformkit.decide_containment(q, r)
    return verdict, qformkit.verify_witness(q, r, verdict.witness)


@pytest.mark.parametrize("seed", [1, 2])
def test_fractions_made_per_decision(seed):
    """The diagonal frame, the proportionality test, the witness scan and
    the re-check run in ints: Fractions are made where a verdict reads
    them.  At n = 16 a confirmation makes alpha alone: Q's diagonal
    proves q indefinite, and the pass, which records d_i as int pairs,
    does not run (it made the lead frame's 2 diagonal values).  A
    refutation runs q's pass only to its first pivot of each sign and
    keeps its witness as pullback's int point, so with its re-check it
    makes at most 3, however large n is: t and the two parts of r's
    value; q's value has the shared zero parts.  The pass's 2 diagonal
    values and q's value's 2 zero parts made 7, and the 2n parts of the
    witness's coordinates made 47 in all.  The re-check compares int
    cores with the witness's values and makes none."""
    n = 16
    q_rows, r_rows = _anchored_pair(n, seed)
    q = qformkit.QuadraticForm(q_rows)
    verdict, made = _fractions_made(qformkit.decide_containment, q, qformkit.QuadraticForm(r_rows))
    assert isinstance(verdict, qformkit.Proportional)
    assert made == 1
    r_rows[0][0] += 1
    r = qformkit.QuadraticForm(r_rows)
    (verdict, rechecked), made = _fractions_made(_refute_and_recheck, q, r)
    assert isinstance(verdict, qformkit.Counterexample)
    assert rechecked
    assert made <= 3
    rechecked, made = _fractions_made(qformkit.verify_witness, q, r, verdict.witness)
    assert rechecked
    assert made == 0


def test_fractions_made_per_interval_check():
    """The interval form is built in ints from c's ratio, and the
    pullback L^T eta L is multiplied in ints: a whole check of a 4x4
    boost makes kappa alone, since the diagonal of eta proves it
    indefinite.  The lead frame's 2 diagonal values made 2 more, and -c^2
    2 more again."""
    report, made = _fractions_made(qformkit.check_interval_invariance, qformkit.boost_from_triple(3, 4, 5))
    assert report.classification == "interval-preserving"
    assert made == 1


@pytest.mark.parametrize(
    "build",
    [
        # Fraction arguments are made here, outside the counted call
        lambda c=Fraction(-1): qformkit.QuadraticForm.diagonal([c, 1, 1, 1]),
        lambda c=Fraction(1, 2): qformkit.LinearTransform.diagonal([c, 1, 3, 1]),
        lambda: qformkit.LinearTransform.identity(4),
        lambda c=Fraction(1, 2): qformkit.LinearTransform.scaling(4, c),
    ],
    ids=["form-diagonal", "transform-diagonal", "identity", "scaling"],
)
def test_built_in_matrices_make_no_fractions(build):
    """The built-in matrices are held in ints: no Fraction, on the diagonal
    or off it."""
    assert _fractions_made(build)[1] == 0


def test_constructor_reads_each_distinct_entry_once(monkeypatch):
    """QuadraticForm.diagonal([1] * 64) has 4096 entries of two values, 1
    and 0, and the matrix reader reads each value once."""
    reads = []

    def counting(e):
        reads.append(e)
        return read(e)

    read = forms._read_entry
    monkeypatch.setattr(forms, "_read_entry", counting)
    q = qformkit.QuadraticForm.diagonal([1] * 64)
    assert q.dim == 64 and q.ints[5][5] == 1 and q.ints[5][6] == 0
    assert sorted(reads) == [0, 1]


@pytest.mark.parametrize(
    "entry", [lambda e: e, str, lambda e: f"{e}/6"], ids=["int", "text", "ratio-text"]
)
def test_fractions_made_per_form_parse(entry):
    """A form file is read into ints over one denominator: int, integer
    text and "n/d" text entries make no Fraction at n = 16."""
    n = 16
    obj = {"dim": n, "rows": [[entry(int(e)) for e in row] for row in _anchored_pair(n, 1)[0]]}
    q, made = _fractions_made(forms.form_from_json, obj)
    assert q.dim == n
    assert made == 0


def test_decisions_never_read_the_fraction_matrix(monkeypatch):
    """Containment with its re-check, the interval check, simdiag and
    kernel_basis read each form's (den, ints) only; the Fraction rows
    `matrix` are never built, to confirm or to refute."""
    q, r = _proportional_pair()
    q_rows, r_rows = _anchored_pair(8, 5)
    r_rows[0][0] += 1
    q_bad, r_bad = qformkit.QuadraticForm(q_rows), qformkit.QuadraticForm(r_rows)
    boost = qformkit.boost_from_triple(3, 4, 5)

    def refuse(self):
        raise AssertionError("the Fraction matrix was built")

    monkeypatch.setattr(forms._IntMatrix, "matrix", property(refuse))
    assert isinstance(qformkit.decide_containment(q, r), qformkit.Proportional)
    verdict, rechecked = _refute_and_recheck(q_bad, r_bad)
    assert isinstance(verdict, qformkit.Counterexample) and rechecked
    assert qformkit.check_interval_invariance(boost).classification == "interval-preserving"
    report = qformkit.check_interval_invariance(_STRETCH)
    assert report.classification == "cone-breaking"
    eta = qformkit.minkowski_form(1)
    assert qformkit.verify_witness(eta, report.pulled_back_form, report.witness_event)
    _run_simdiag_pairs()
    assert len(qformkit.kernel_basis(qformkit.QuadraticForm(_S2_ROWS)).vectors) == 1


_S2_ROWS = [[2, 0, -1], [0, 2, -1], [-1, -1, 1]]
_S2P_ROWS = [[8, 8, -8], [8, 16, -12], [-8, -12, 10]]


def _run_simdiag_pairs():
    """simdiag_general on a psd pair (S2/S2'), a psd q with an nsd r, an
    indefinite proportional pair and a refuting pair, each form built anew."""
    form = qformkit.QuadraticForm
    hyp_rows = [[1, 0, 0], [0, -1, 0], [0, 0, 2]]
    for q_rows, r_rows in [
        (_S2_ROWS, _S2P_ROWS),
        (_S2_ROWS, [[-e for e in row] for row in _S2P_ROWS]),
        (hyp_rows, [[3 * e for e in row] for row in hyp_rows]),
    ]:
        assert isinstance(qformkit.simdiag_general(form(q_rows), form(r_rows)), qformkit.SimDiagResult)
    with pytest.raises(qformkit.ContainmentFails):
        qformkit.simdiag_general(form(hyp_rows), form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def _proportional_pair():
    q = qformkit.QuadraticForm(_anchored_pair(8, 4)[0])
    return q, qformkit.QuadraticForm([[3 * e for e in row] for row in q.matrix])


@pytest.mark.parametrize(
    "decide",
    [
        lambda: qformkit.decide_containment(*_proportional_pair()),
        lambda: qformkit.inertia(_proportional_pair()[0]),
        lambda: qformkit.classify(_proportional_pair()[0]),
        lambda: qformkit.check_interval_invariance(qformkit.boost_from_triple(3, 4, 5)),
    ],
    ids=["contain-proportional", "inertia", "classify", "lorentz-preserving"],
)
def test_verdicts_without_a_witness_never_build_b(monkeypatch, decide):
    """A column of B is built from the pass's log only when it is read; a
    verdict that needs diag and inertia alone builds none."""

    def refuse(*args):
        raise AssertionError("a column of B was built")

    monkeypatch.setattr(forms, "_column", refuse)
    decide()


def _count_column_builds(monkeypatch):
    """The pass index of every column of B built from now on; reading
    cols raises."""
    built = []
    column = forms._column

    def counted(steps, c, s, n):
        built.append(c)
        return column(steps, c, s, n)

    def refuse(self):
        raise AssertionError("cols was read")

    monkeypatch.setattr(forms, "_column", counted)
    monkeypatch.setattr(forms.CongruenceDiagonalization, "cols", property(refuse))
    return built


def test_witness_builds_only_the_columns_it_reads(monkeypatch):
    """A refutation builds the columns of B its witness reads and no more:
    on an anchored n = 32 pair with r perturbed at (0, 0), a null line
    of _lead_witness fires, and its support is 2 indices.  A
    proportional verdict builds none."""
    q_rows, r_rows = _anchored_pair(32, 5)
    r_rows[0][0] += 1
    q, r = qformkit.QuadraticForm(q_rows), qformkit.QuadraticForm(r_rows)
    built = _count_column_builds(monkeypatch)
    verdict = qformkit.decide_containment(q, r)
    assert isinstance(verdict, qformkit.Counterexample)
    assert len(built) == len(set(built)) == 2
    assert qformkit.verify_witness(q, r, verdict.witness)
    built.clear()
    assert isinstance(qformkit.decide_containment(*_proportional_pair()), qformkit.Proportional)
    assert built == []


def _count_products(monkeypatch):
    """(m, v) for every product M v that forms._apply makes from now on,
    m the rows it multiplies and v the vector as a tuple."""
    made = []
    apply = forms._apply

    def counted(m, v):
        made.append((m, tuple(v)))
        return apply(m, v)

    monkeypatch.setattr(forms, "_apply", counted)
    monkeypatch.setattr(containment, "_apply", counted)
    return made


def test_lead_fired_refutation_makes_one_product_per_lead_column(monkeypatch):
    """The lead frame's member (a) reads the entries (0, 0), (0, 1) and
    (1, 1) of its B^T R B, dots over R y_p and R y_n: one product for
    each lead column, whichever sign fires."""
    q_rows, r_rows = _anchored_pair(32, 5)
    r_rows[0][0] += 1
    q, r = qformkit.QuadraticForm(q_rows), qformkit.QuadraticForm(r_rows)
    made = _count_products(monkeypatch)
    verdict = qformkit.decide_containment(q, r)
    assert isinstance(verdict, qformkit.Counterexample)
    lead = forms.congruence_diagonalize(q).lead
    assert [(m is r.ints, v) for m, v in made] == [(True, lead.column(0)), (True, lead.column(1))]


def test_plane_route_makes_one_product_per_form_and_lead_column(monkeypatch):
    """A refutation the lead frame's members miss (q = diag(1, -1, 0),
    r = diag(1, -1, 5)) reads Q y and R y once for each lead column y,
    four products in all: the plane route shares the null lines' R y, and
    reads q(x), r(x), q(x, y) and r(x, y) for its x = e_2 off the entries
    of Q and R and of those products, with no product of its own."""
    q, r = qformkit.QuadraticForm.diagonal([1, -1, 0]), qformkit.QuadraticForm.diagonal([1, -1, 5])
    made = _count_products(monkeypatch)
    verdict = qformkit.decide_containment(q, r)
    assert verdict.witness.coords == (0, 0, 1)
    lead = forms.congruence_diagonalize(q).lead
    for y in (lead.column(0), lead.column(1)):
        for m in (q.ints, r.ints):
            assert sum(n is m and v == y for n, v in made) == 1
    assert len(made) == 4


@pytest.mark.parametrize("x", [
    (Fraction(1), Fraction(2), Fraction(-1, 3)),
    (qformkit.QuadExt(1, 2, 3), Fraction(0), qformkit.QuadExt(0, -1, 3)),
], ids=["rational", "radicand"])
def test_evaluate_makes_one_product_per_part(monkeypatch, x):
    """evaluate reads q at (a + b sqrt(t)) / D through Q a and Q b alone."""
    q = qformkit.QuadraticForm([[1, 2, 0], [2, -1, 3], [0, 3, 5]])
    made = _count_products(monkeypatch)
    qformkit.evaluate(q, x)
    p = forms._read_point(x)
    assert made == [(q.ints, p.a), (q.ints, p.b)]


def test_semidefinite_refutation_builds_only_kernel_columns(monkeypatch):
    """simdiag on a semidefinite q scans the kernel columns of B in frame
    order: with q = diag(1, ..., 10, 0, 0) and r = x_11^2, the second one
    fires, so 2 of the 12 columns are built, and the float step, which
    reads cols, never runs."""
    n = 12
    q = qformkit.QuadraticForm([[i + 1 if i == j < n - 2 else 0 for j in range(n)] for i in range(n)])
    r = qformkit.QuadraticForm([[int(i == j == n - 1) for j in range(n)] for i in range(n)])
    built = _count_column_builds(monkeypatch)
    with pytest.raises(qformkit.ContainmentFails):
        qformkit.simdiag_general(q, r)
    assert len(built) == len(set(built)) == 2


@pytest.mark.parametrize("z", [0, 1, 2, 4])
def test_kernel_basis_builds_one_column_per_zero_pivot(monkeypatch, z):
    """kernel_basis of a semidefinite form with z zero pivots builds the z
    kernel columns of B and no other."""
    rng = random.Random(z)
    n = 7
    c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - z)]
    rows = [[sum(c[k][i] * c[k][j] for k in range(n - z)) for j in range(n)] for i in range(n)]
    q = qformkit.QuadraticForm(rows)
    assert qformkit.inertia(q).z == z
    built = _count_column_builds(monkeypatch)
    basis = semidefinite.kernel_basis(q)
    assert len(basis.vectors) == z
    assert len(built) == len(set(built)) == z


_SQUARE = qformkit.QuadraticForm([[1, -1], [-1, 1]])


def test_witness_paths_never_read_basis(monkeypatch):
    """Every refutation is built in q's frame and mapped back by
    CongruenceDiagonalization.pullback from the int columns of B; no
    witness path builds the rational basis."""

    def refuse(self):
        raise AssertionError("the rational basis was built")

    monkeypatch.setattr(forms.CongruenceDiagonalization, "basis", property(refuse))
    verdict = qformkit.decide_containment_homogeneous(_HYP, _X1X2)
    assert isinstance(verdict, qformkit.ConePointWitness)
    with pytest.raises(qformkit.ContainmentFails):
        qformkit.simdiag_general(_SQUARE, qformkit.QuadraticForm([[1, 0], [0, 1]]))
    report = qformkit.check_interval_invariance(_STRETCH)
    assert report.classification == "cone-breaking"
    _run_simdiag_pairs()


def _cli_oneshot_argvs(directory):
    """Every command line of the benchmark's cli-oneshot corpus of seeds 0
    and 3 (demo among them), human and --json, its inputs written to
    directory; each item's inputs are in the order the command takes."""
    corpus = perfbench_module("corpus")
    argvs = []
    for seed in (0, 3):
        for k, item in enumerate(corpus.build("cli-oneshot", seed)):
            files = []
            for role, (_, obj) in item["inputs"].items():
                path = os.path.join(directory, f"{seed}-{k}-{role}.json")
                with open(path, "w") as fh:
                    json.dump(obj, fh)
                files.append(path)
            argvs += [[item["kind"], *files], [item["kind"], *files, "--json"]]
    return argvs


def test_no_command_builds_a_fraction_view(monkeypatch, capsys, tmp_path):
    """Every command prints from the ints its decision used: with a form's
    Fraction rows `matrix`, the rational basis B and a polynomial's
    Fraction `terms` refusing to be built, each cli-oneshot command gives
    the same exit code and stdout."""
    from qformkit.cli import main

    argvs = _cli_oneshot_argvs(tmp_path)
    assert ["demo", "--json"] in argvs

    def run_all():
        runs = []
        for argv in argvs:
            code = main(argv)
            runs.append((code, capsys.readouterr().out))
        return runs

    plain = run_all()
    assert {code for code, _ in plain} == {0, 1}

    def refuse(self):
        raise AssertionError("a Fraction view was built")

    monkeypatch.setattr(forms._IntMatrix, "matrix", property(refuse))
    monkeypatch.setattr(forms.CongruenceDiagonalization, "basis", property(refuse))
    monkeypatch.setattr(polys.HomogeneousPoly, "terms", property(refuse))
    for argv, before, after in zip(argvs, plain, run_all()):
        assert after == before, argv


def test_fractions_made_per_simdiag():
    """simdiag reads its float step from the ints: on the S2/S2' pair it
    makes at most 10 Fractions (its diagonal values among them), where it
    made 41 when the float step read the Fraction views."""
    q, r = qformkit.QuadraticForm(_S2_ROWS), qformkit.QuadraticForm(_S2P_ROWS)
    result, made = _fractions_made(qformkit.simdiag_general, q, r)
    assert isinstance(result, qformkit.SimDiagResult)
    assert made <= 10


def test_fractions_made_per_kernel_basis():
    """kernel_basis reads q's frame: on S2 it makes the 3 diagonal values
    and the 3 entries of its one kernel vector, where the elimination on
    the Fraction matrix made 36."""
    q = qformkit.QuadraticForm(_S2_ROWS)
    basis, made = _fractions_made(qformkit.kernel_basis, q)
    assert len(basis.vectors) == 1
    assert made <= 6


def test_fractions_made_per_poly_division():
    """Polynomials are parsed and divided in ints: a file of integer
    coefficients makes no Fraction, and a divisible verdict at most 2n^2
    at n = 6, degree 8, however many terms r has."""
    n = 6
    rng = random.Random(13)
    q = qformkit.QuadraticForm(_anchored_pair(n, 3)[0])
    s = random_homogeneous(rng, n, 6, max_terms=600)
    r = poly_mul(polys.poly_from_form(q), s)
    obj = json.loads(json.dumps(polys.poly_to_json(r)))
    assert len(obj["terms"]) > 1000
    parsed, made = _fractions_made(polys.poly_from_json, obj)
    assert parsed == r
    assert made == 0
    verdict, made = _fractions_made(polys.decide_containment_homogeneous, q, parsed)
    assert verdict == polys.Divisible(s)
    assert made <= 2 * n * n


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_fractions_made_per_poly_refutation(degree):
    """The sweep evaluates the division's remainder, not r: q vanishes at
    every swept point, so r = q*s + rem has r(v) = rem(v) there.  For r =
    q*s plus one monomial that q's leading monomial does not divide, rem
    is that monomial, and a refuting decision at n = 4 makes at most 300
    Fractions, where evaluating r made 800 to 2100."""
    n = 4
    rng = random.Random(degree)
    q = qformkit.QuadraticForm(_anchored_pair(n, degree)[0])
    qs = poly_mul(polys.poly_from_form(q), random_homogeneous(rng, n, degree - 2, max_terms=40))
    bump = (0,) * (n - 1) + (degree,)
    r = polys.HomogeneousPoly(n, degree, {**qs.terms, bump: qs.terms.get(bump, 0) + 1})
    verdict, made = _fractions_made(polys.decide_containment_homogeneous, q, r)
    assert isinstance(verdict, polys.ConePointWitness)
    assert polys.verify_poly_witness(q, r, verdict.witness)
    assert made <= 300


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_quadexts_made_per_poly_refutation(degree):
    """HomogeneousPoly.evaluate runs in int pairs and makes one QuadExt,
    its value, and the swept point is pullback's int point: on the inputs
    of test_fractions_made_per_poly_refutation a refuting decision at
    n = 4 makes at most 2 QuadExts (q and r there), counted as
    perfbench/spans.py counts them.  Its re-check compares the int cores
    with the witness's values, and makes no QuadExt and no Fraction.  A
    point of QuadExt coordinates made n + 2 per decision, evaluating in
    QuadExt arithmetic made 153 to 394 per re-check, and comparing
    QuadExt values made 2."""
    count_constructions = perfbench_module("spans").count_constructions
    n = 4
    rng = random.Random(degree)
    q = qformkit.QuadraticForm(_anchored_pair(n, degree)[0])
    qs = poly_mul(polys.poly_from_form(q), random_homogeneous(rng, n, degree - 2, max_terms=40))
    bump = (0,) * (n - 1) + (degree,)
    r = polys.HomogeneousPoly(n, degree, {**qs.terms, bump: qs.terms.get(bump, 0) + 1})
    verdict, exc, _, made = count_constructions(polys.decide_containment_homogeneous, q, r)
    assert exc is None and isinstance(verdict, polys.ConePointWitness)
    assert made <= 2
    holds, exc, fractions, made = count_constructions(polys.verify_poly_witness, q, r, verdict.witness)
    assert exc is None and holds
    assert (fractions, made) == (0, 0)


@pytest.mark.parametrize("seed", range(4))
def test_quadexts_made_per_refutation(seed):
    """A refuting decide_containment keeps its witness as the int point
    CongruenceDiagonalization.pullback returns: at n = 16 it makes at
    most 2 QuadExts, the values of q and r at the witness, counted as
    perfbench/spans.py counts them.  verify_witness reads that point and
    compares its int cores with the witness's values, and makes no
    QuadExt and no Fraction.  A witness of QuadExt coordinates made n + 2
    per decision, and the re-check made 2 when it compared QuadExt
    values."""
    count_constructions = perfbench_module("spans").count_constructions
    n = 16
    q_rows, r_rows = _anchored_pair(n, seed)
    r_rows[0][0] += 1
    q, r = qformkit.QuadraticForm(q_rows), qformkit.QuadraticForm(r_rows)
    verdict, exc, _, made = count_constructions(qformkit.decide_containment, q, r)
    assert exc is None and isinstance(verdict, qformkit.Counterexample)
    assert made <= 2
    holds, exc, fractions, made = count_constructions(qformkit.verify_witness, q, r, verdict.witness)
    assert exc is None and holds
    assert (fractions, made) == (0, 0)


# qformkit names perfbench/workloads.py calls or tests with isinstance
_WORKLOAD_NAMES = {
    "cli": ("main",),
    "containment": ("Counterexample", "decide_containment", "verify_witness"),
    "errors": ("ContainmentFails",),
    "forms": ("form_from_json", "transform_from_json"),
    "polys": ("ConePointWitness", "decide_containment_homogeneous", "poly_from_json", "verify_poly_witness"),
    "relativity": ("check_interval_invariance", "minkowski_form"),
    "semidefinite": ("simdiag_general",),
}


def test_benchmark_bindings_resolve():
    """perfbench/spans.py wraps qformkit functions at every module binding
    its callers go through (semidefinite.classify, polys.form_eval, ...),
    so a binding the package no longer uses must still be there."""
    spans = perfbench_module("spans")
    original = forms.congruence_diagonalize
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert semidefinite.congruence_diagonalize is not original
    finally:
        tracer.remove()
    assert semidefinite.congruence_diagonalize is original
    for module, names in _WORKLOAD_NAMES.items():
        mod = importlib.import_module(f"qformkit.{module}")
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, f"qformkit.{module} lacks {missing}"
