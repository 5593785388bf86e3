"""What one verdict is for each item kind, and how its output is checked.

A verdict is qformkit's public decision call plus qformkit's own re-check
of the certificate it returns, the same pair the CLI runs before it
prints.  Functions are looked up through their modules at call time, so
that the traced run's wrappers see every call.

``run_*`` functions are timed.  ``key`` reduces an output to a hashable
value, so a repeat of a verdict already checked is compared by key;
``check_output`` and ``check_cli`` run the independent checks of check.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import check
import corpus

# Filled in by load(): qformkit's modules, imported from the checkout.
Q = {}


def load():
    import qformkit.cli
    from qformkit import containment, errors, forms, polys, relativity, semidefinite

    Q.update(cli=qformkit.cli, containment=containment, errors=errors, forms=forms,
             polys=polys, relativity=relativity, semidefinite=semidefinite)


def parse_inputs(item):
    """The item's inputs through qformkit's JSON loaders."""
    forms, polys = Q["forms"], Q["polys"]
    loaders = {"form": forms.form_from_json, "transform": forms.transform_from_json,
               "poly": polys.poly_from_json}
    return {role: loaders[loader](obj) for role, (loader, obj) in item["inputs"].items()}


# --- in-process verdicts -------------------------------------------------------


def run_contain(p):
    c = Q["containment"]
    verdict = c.decide_containment(p["q"], p["r"])
    if isinstance(verdict, c.Counterexample):
        return verdict, c.verify_witness(p["q"], p["r"], verdict.witness)
    return verdict, True


def run_lorentz(p):
    rel, c = Q["relativity"], Q["containment"]
    report = rel.check_interval_invariance(p["L"])
    if report.witness_event is None:
        return report, True
    q = rel.minkowski_form(1, dim_space=p["L"].dim - 1)
    return report, c.verify_witness(q, report.pulled_back_form, report.witness_event)


def run_poly(p):
    polys = Q["polys"]
    verdict = polys.decide_containment_homogeneous(p["q"], p["r"])
    if isinstance(verdict, polys.ConePointWitness):
        return verdict, polys.verify_poly_witness(p["q"], p["r"], verdict.witness)
    return verdict, True


def run_simdiag(p):
    try:
        return Q["semidefinite"].simdiag_general(p["q"], p["r"]), True
    except Q["errors"].ContainmentFails as exc:
        if exc.witness is None:
            return exc, True
        return exc, Q["containment"].verify_witness(p["q"], p["r"], exc.witness)


RUNNERS = {"contain": run_contain, "lorentz": run_lorentz, "poly": run_poly, "simdiag": run_simdiag}


def _coords(witness):
    return tuple((c.rat, c.rad, c.t) for c in witness.coords)


def key(kind, out):
    value, rechecked = out
    if kind == "contain":
        if hasattr(value, "alpha"):
            return ("proportional", value.alpha)
        return ("counterexample", _coords(value.witness), rechecked)
    if kind == "lorentz":
        w = value.witness_event
        return (value.classification, value.kappa, value.pulled_back_form.matrix,
                None if w is None else _coords(w), rechecked)
    if kind == "poly":
        if hasattr(value, "quotient"):
            return ("divisible", frozenset(value.quotient.terms.items()))
        if hasattr(value, "witness"):
            return ("witness", _coords(value.witness), rechecked)
        return (type(value).__name__,)
    if kind == "simdiag":
        if hasattr(value, "basis"):
            return ("simdiag", value.basis, value.q_diag, value.r_diag)
        w = value.witness
        return ("fails", None if w is None else _coords(w), rechecked)
    raise ValueError(kind)


def check_output(item, out):
    """None when the output is the constructed answer with a valid
    certificate, else the reason it is not."""
    kind, exp, refute = item["kind"], item["expect"], item["outcome"] == "refute"
    value, rechecked = out
    if not rechecked:
        return "qformkit's own re-check rejected its certificate"
    if kind == "contain":
        if not refute:
            return check.check_alpha(exp["alpha"], getattr(value, "alpha", None))
        if not hasattr(value, "witness"):
            return f"expected a counterexample, got {type(value).__name__}"
        return check.check_form_witness(exp["q"], exp["r"], _coords(value.witness))
    if kind == "lorentz":
        if [list(r) for r in value.pulled_back_form.matrix] != exp["pulled"]:
            return "pulled-back form differs from L^T eta L"
        if not refute:
            want = {Fraction(1): "interval-preserving", Fraction(0): "degenerate"}.get(
                exp["kappa"], "conformal-scaling")
            if value.kappa != exp["kappa"] or value.classification != want:
                return f"got kappa {value.kappa} ({value.classification}), constructed {exp['kappa']}"
            return None
        if value.witness_event is None or value.classification != "cone-breaking":
            return f"expected cone-breaking, got {value.classification}"
        return check.check_form_witness(corpus.minkowski(), exp["pulled"], _coords(value.witness_event))
    if kind == "poly":
        if not refute:
            if not hasattr(value, "quotient"):
                return f"expected a quotient, got {type(value).__name__}"
            return check.check_quotient(exp["q"], exp["r"], value.quotient.terms)
        if not hasattr(value, "witness"):
            return f"expected a cone-point witness, got {type(value).__name__}"
        return check.check_poly_witness(exp["q"], exp["r"], _coords(value.witness))
    if kind == "simdiag":
        if not refute:
            if not hasattr(value, "basis"):
                return f"expected a joint basis, got {type(value).__name__}"
            return check.check_simdiag(exp["q"], exp["r"], value.basis, exp.get("ratios"),
                                       exp.get("z"), exp.get("alpha"))
        if hasattr(value, "basis"):
            return "expected ContainmentFails, got a joint basis"
        if "q" in exp:
            if value.witness is None:
                return "ContainmentFails carries no witness for an indefinite q"
            return check.check_form_witness(exp["q"], exp["r"], _coords(value.witness))
        return None
    raise ValueError(kind)


# --- CLI verdicts ----------------------------------------------------------------

EXIT = {"confirm": 0, "refute": 1}


def cli_argv(item, files):
    """Arguments after `qformkit`, in the order the subcommand takes them."""
    roles = {"analyze": ["form"], "canon": ["form"], "contain": ["q", "r"],
             "poly-contain": ["q", "r"], "simdiag": ["q", "r"], "lorentz": ["L"], "demo": []}
    return [item["kind"]] + [files[role] for role in roles[item["kind"]]] + ["--json"]


def write_cli_files(items, directory):
    """One JSON file per input; returns, per item, the argument list."""
    argvs = []
    for k, item in enumerate(items):
        files = {}
        for role, (_, obj) in item["inputs"].items():
            path = os.path.join(directory, f"{k}-{role}.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            files[role] = path
        argvs.append(cli_argv(item, files))
    return argvs


def spawn_cli(argv, root):
    """One `qformkit` process, from spawn to exit; returns (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "qformkit.cli"] + argv, cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout


def inprocess_cli(argv):
    """`qformkit.cli.main` in this process, stdout and stderr captured."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = Q["cli"].main(argv)
    return code, out.getvalue().encode()


def _frac(text):
    return Fraction(text)


def _witness_json(w):
    t = _frac(w["t"])
    return [(_frac(a), _frac(b), t) for a, b in w["coords"]]


def check_cli(item, out):
    """Exit code as constructed, and the --json output re-checked."""
    code, stdout = out
    kind, exp = item["kind"], item["expect"]
    if code != EXIT[item["outcome"]]:
        return f"exit code {code}, expected {EXIT[item['outcome']]}"
    if kind == "simdiag" and item["outcome"] == "refute":
        return None  # ContainmentFails is reported on stderr only
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"stdout is not one JSON document: {stdout[:80]!r}"
    if kind == "analyze":
        return check.check_inertia([_frac(d) for d in payload["diagonal"]], exp["inertia"]) or (
            None if payload["inertia"] == exp["inertia"] else f"inertia {payload['inertia']}")
    if kind == "canon":
        basis = [[_frac(e) for e in row] for row in payload["basis"]["rows"]]
        return check.check_congruence(exp["q"], basis, [_frac(d) for d in payload["diagonal"]])
    if kind == "contain":
        if item["outcome"] == "confirm":
            return check.check_alpha(exp["alpha"], _frac(payload["alpha"]))
        return check.check_form_witness(exp["q"], exp["r"], _witness_json(payload["witness"]))
    if kind == "poly-contain":
        if item["outcome"] == "confirm":
            quotient = {tuple(t["exp"]): _frac(t["coef"]) for t in payload["quotient"]["terms"]}
            return check.check_quotient(exp["q"], exp["r"], quotient)
        if payload.get("verdict") != "witness":
            return f"expected a witness, got {payload.get('verdict')}"
        return check.check_poly_witness(exp["q"], exp["r"], _witness_json(payload["witness"]))
    if kind == "simdiag":
        return check.check_simdiag(exp["q"], exp["r"], payload["basis"], exp["ratios"], exp["z"])
    if kind == "lorentz":
        if item["outcome"] == "confirm":
            return None if payload["kappa"] == str(exp["kappa"]) else f"kappa {payload['kappa']}"
        return check.check_form_witness(corpus.minkowski(), exp["pulled"],
                                        _witness_json(payload["witness_event"]))
    if kind == "demo":
        return None if payload.get("ok") is True else "demo reports a failed fixture"
    raise ValueError(kind)
