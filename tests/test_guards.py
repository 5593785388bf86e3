"""Guards on how the package is built rather than on what it decides:
numpy stays unloaded outside simdiag's float step, no check in src/ is
an `assert` that `python -O` would strip, and each decision
diagonalizes its base form once."""

import ast
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import qformkit
from qformkit import containment, forms, polys, semidefinite

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
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

    exact = [
        (("analyze", f["hyp"]), 0),
        (("canon", f["s2"]), 0),
        (("contain", f["hyp"], f["circle"]), 1),
        (("poly-contain", f["hyp"], f["quartic"]), 0),
        (("lorentz", f["stretch"]), 1),
        (("demo",), 0),
        (("simdiag", f["square"], f["circle"]), 1),  # kernel containment fails
    ]
    for argv, code in exact:
        assert run(*argv) == code, argv
        assert "numpy" not in sys.modules, f"{argv[0]} loaded numpy"
    assert run("simdiag", f["s2"], f["s2p"]) == 0
    assert "numpy" in sys.modules, "a psd simdiag ran without its float step"
    print("ok")
    """
)


def test_numpy_is_loaded_only_by_simdiag_float_step():
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


def test_no_assert_statements_in_package():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


# every module binding through which qformkit reaches congruence_diagonalize
_DIAGONALIZE_BINDINGS = (forms, containment, polys, semidefinite)

_HYP = qformkit.QuadraticForm([[1, 0, 0], [0, -1, 0], [0, 0, 2]])
_CIRCLE = qformkit.QuadraticForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
_STRETCH = qformkit.LinearTransform([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
_X1X2 = qformkit.HomogeneousPoly(3, 2, {(1, 1, 0): Fraction(1)})


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


@pytest.mark.parametrize(
    "decide",
    [
        lambda: qformkit.decide_containment(_HYP, _CIRCLE),
        lambda: qformkit.decide_containment(_HYP, _HYP),
        lambda: qformkit.check_interval_invariance(_STRETCH),
        lambda: qformkit.simdiag_general(_HYP, _HYP),
        lambda: qformkit.decide_containment_homogeneous(_HYP, _X1X2),
    ],
    ids=["contain-refute", "contain-proportional", "lorentz", "simdiag-indefinite", "poly-non-divisible"],
)
def test_one_diagonalization_per_decision(diagonalize_calls, decide):
    decide()
    assert len(diagonalize_calls) == 1
