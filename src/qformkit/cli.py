"""qformkit command line: deterministic, machine-readable front end.

Exit codes: 0 proportional/divisible/success, 1 refuted (counterexample,
witness, failed containment), 2 input error (unreadable file, parse error,
wrong dimension), 3 non-symmetric matrix, 4 hypothesis violation (e.g.
base form not indefinite), 5 internal error (a certificate failed its
re-check, a complete witness search came back empty, or qformkit itself
raised); 5 prints one stderr line and nothing on stdout.

Each subcommand imports the modules it runs when it runs, so a process
loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import forms
from .errors import (
    CertificateRejected,
    ContainmentFails,
    FormatError,
    InvalidSpeed,
    NonSymmetricMatrix,
    NoWitnessFound,
    NotIndefinite,
    NotSemidefinite,
    NumericalFailure,
    QFormError,
)
from .scalars import parse_rational, render_ratio, render_rational

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_PARSE = 2
EXIT_NONSYMMETRIC = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5


def _recheck(ok, what):
    """Fail closed: a certificate that fails its independent re-check is
    never printed."""
    if not ok:
        raise CertificateRejected(f"{what} failed its independent re-check")


def _internal_error(exc) -> int:
    """One stderr line for a fault of qformkit itself (exit 5)."""
    message = " ".join(str(exc).splitlines())
    print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
    return EXIT_INTERNAL


def _point(w):
    """A witness vector as "(c1, c2, ...)" for the human output."""
    return "(" + ", ".join(str(c) for c in w.coords) + ")"


def _emit(payload, human_lines, as_json):
    """Print the output of one mode: payload() as one JSON line, or the
    lines of human_lines().  Each is a callable, so the other mode's
    output is never built."""
    if as_json:
        print(json.dumps(payload(), separators=(",", ":"), sort_keys=False))
    else:
        for line in human_lines():
            print(line)


def _counterexample(q, r, w, as_json):
    """Re-check a null-cone witness of q where r is nonzero, print it, and
    return the refuted exit code."""
    from . import containment

    _recheck(containment.verify_witness(q, r, w), "counterexample witness")
    _emit(
        containment.Counterexample(w).to_json,
        lambda: [
            "counterexample: q vanishes but r does not at",
            "  v = " + _point(w),
            f"  q(v) = {w.q_value}, r(v) = {w.r_value}",
        ],
        as_json,
    )
    return EXIT_REFUTED


def cmd_analyze(args):
    q = forms.form_from_json(forms.load_json(args.form))
    d = forms.congruence_diagonalize(q)
    ine = d.inertia
    cls = forms.classify_inertia(ine)
    _emit(
        lambda: {
            "inertia": [ine.k, ine.m, ine.z],
            "classification": cls,
            "diagonal": [render_rational(v) for v in d.diag],
        },
        lambda: [
            f"inertia ({ine.k},{ine.m},{ine.z}), {cls}",
            "diagonal: " + " ".join(render_rational(v) for v in d.diag),
        ],
        args.json,
    )
    return EXIT_OK


def cmd_canon(args):
    q = forms.form_from_json(forms.load_json(args.form))
    d = forms.congruence_diagonalize(q)

    # column c of B is cols[c] / scales[c]
    columns = [[render_ratio(x, s) for x in col] for col, s in zip(d.cols, d.scales)]

    def payload():
        return {
            "basis": {"dim": len(columns), "rows": [list(row) for row in zip(*columns)]},
            "diagonal": [render_rational(v) for v in d.diag],
            "inertia": [d.inertia.k, d.inertia.m, d.inertia.z],
        }

    def lines():
        return (
            ["basis columns (one per line):"]
            + ["  " + " ".join(col) for col in columns]
            + ["diagonal: " + " ".join(render_rational(v) for v in d.diag)]
        )

    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_contain(args):
    from . import containment

    q = forms.form_from_json(forms.load_json(args.q))
    r = forms.form_from_json(forms.load_json(args.r))
    verdict = containment.decide_containment(q, r)
    if isinstance(verdict, containment.Proportional):
        _emit(
            verdict.to_json,
            lambda: [f"proportional: r = {render_rational(verdict.alpha)} * q"],
            args.json,
        )
        return EXIT_OK
    return _counterexample(q, r, verdict.witness, args.json)


def cmd_poly_contain(args):
    from . import polys

    q = forms.form_from_json(forms.load_json(args.q))
    r = polys.poly_from_json(forms.load_json(args.r))
    verdict = polys.decide_containment_homogeneous(q, r)
    if isinstance(verdict, polys.Divisible):
        _emit(verdict.to_json, lambda: [f"divisible: quotient = {verdict.quotient}"], args.json)
        return EXIT_OK
    _recheck(polys.verify_poly_witness(q, r, verdict.witness), "cone-point witness")
    w = verdict.witness
    _emit(
        verdict.to_json,
        lambda: [
            "witness: q vanishes but r does not at",
            "  v = " + _point(w),
            f"  r(v) = {w.r_value}",
        ],
        args.json,
    )
    return EXIT_REFUTED


def cmd_simdiag(args):
    from . import semidefinite

    q = forms.form_from_json(forms.load_json(args.q))
    r = forms.form_from_json(forms.load_json(args.r))
    tol = semidefinite.DEFAULT_TOL if args.tol is None else args.tol
    try:
        result = semidefinite.simdiag_general(q, r, tol=tol)
    except ContainmentFails as exc:
        return _counterexample(q, r, exc.witness, args.json)
    _emit(
        result.to_json,
        lambda: [
            "simultaneously diagonalizable",
            "q_diag: " + " ".join(f"{v:.12g}" for v in result.q_diag),
            "r_diag: " + " ".join(f"{v:.12g}" for v in result.r_diag),
            f"residual: {result.residual:.3e}",
        ],
        args.json,
    )
    return EXIT_OK


def cmd_lorentz(args):
    from . import containment, relativity

    L = forms.transform_from_json(forms.load_json(args.transform))
    c = parse_rational(args.c)
    report = relativity.check_interval_invariance(L, c)
    if report.witness_event is not None:
        q = relativity.minkowski_form(c, dim_space=L.dim - 1)
        _recheck(
            containment.verify_witness(q, report.pulled_back_form, report.witness_event),
            "witness event",
        )

    def lines():
        out = [f"classification: {report.classification}"]
        if report.kappa is not None:
            out.append(f"kappa: {render_rational(report.kappa)}")
        if report.witness_event is not None:
            w = report.witness_event
            out.append("witness event: " + _point(w))
            out.append(f"  q = {w.q_value}, pulled-back = {w.r_value}")
        return out

    _emit(report.to_json, lines, args.json)
    return (
        EXIT_REFUTED
        if report.classification == relativity.CONE_BREAKING
        else EXIT_OK
    )


def cmd_demo(args):
    from . import demo

    results = []
    for fixture in demo.FIXTURES:
        ok, payload = fixture()
        results.append(payload)
        if not ok:
            break

    def lines():
        if not ok:
            return [f"FIXTURE FAILED: {payload['name']}"]
        return [f"[ok] {r['name']}" for r in results] + ["all demo fixtures behave as documented"]

    _emit(lambda: {"fixtures": results, "ok": ok}, lines, args.json)
    return EXIT_OK if ok else EXIT_REFUTED


def _tolerance(text):
    """--tol: a float that semidefinite's tol rule accepts, so a bad value
    exits 2 with argparse's message rather than 5."""
    from .semidefinite import _check_tol

    try:
        tol = float(text)
        _check_tol(tol)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None
    return tol


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qformkit",
        description="Exact certificates for quadratic-form zero-set "
        "containment and interval invariance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **files):
        p = sub.add_parser(name)
        for arg, help_text in files.items():
            p.add_argument(arg, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("analyze", cmd_analyze, form="form matrix JSON file")
    add("canon", cmd_canon, form="form matrix JSON file")
    add("contain", cmd_contain, q="indefinite base form", r="candidate form")
    add("poly-contain", cmd_poly_contain, q="indefinite quadratic", r="homogeneous polynomial JSON")
    p = add("simdiag", cmd_simdiag, q="first form", r="second form")
    p.add_argument("--tol", type=_tolerance, help="residual tolerance, a finite number >= 0")
    p = add("lorentz", cmd_lorentz, transform="candidate transform JSON file")
    p.add_argument("--c", default="1", help="speed of light (rational)")
    add("demo", cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonSymmetricMatrix as exc:
        print(f"non-symmetric input: {exc}", file=sys.stderr)
        return EXIT_NONSYMMETRIC
    except (NotIndefinite, NotSemidefinite, InvalidSpeed) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (CertificateRejected, NoWitnessFound) as exc:
        return _internal_error(exc)
    except QFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # a fault of qformkit, never a verdict
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
