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

# (error types, exit code, stderr prefix), the first row that matches
# wins; a prefix of None is a fault of qformkit, never a verdict
_EXITS = (
    (OSError, EXIT_PARSE, "error"),
    (FormatError, EXIT_PARSE, "parse error"),
    (NonSymmetricMatrix, EXIT_NONSYMMETRIC, "non-symmetric input"),
    ((NotIndefinite, NotSemidefinite, InvalidSpeed), EXIT_HYPOTHESIS, "hypothesis violation"),
    (NumericalFailure, EXIT_HYPOTHESIS, "numerical failure"),
    ((CertificateRejected, NoWitnessFound), EXIT_INTERNAL, None),
    (QFormError, EXIT_PARSE, "error"),
    (Exception, EXIT_INTERNAL, None),
)


def _recheck(ok, what):
    """Fail closed: a certificate that fails its independent re-check is
    never printed."""
    if not ok:
        raise CertificateRejected(f"{what} failed its independent re-check")


def _recheck_alpha(q, r, alpha):
    """Fail closed unless R = alpha Q entrywise, tested in ints:
    R_int ad den_Q = an Q_int den_R with alpha = an / ad."""
    an, ad = alpha.as_integer_ratio()
    same = (y * ad * q.den == an * x * r.den for u, v in zip(q.ints, r.ints) for x, y in zip(u, v))
    _recheck(q.dim == r.dim and all(same), "proportionality constant")


def _form(path):
    return forms.form_from_json(forms.load_json(path))


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


def _counterexample(q, r, w):
    """Re-check a null-cone witness of q where r is nonzero; the refuted
    exit code and its output."""
    from . import containment

    _recheck(containment.verify_witness(q, r, w), "counterexample witness")
    return (
        EXIT_REFUTED,
        containment.Counterexample(w).to_json,
        lambda: [
            "counterexample: q vanishes but r does not at",
            "  v = " + _point(w),
            f"  q(v) = {w.q_value}, r(v) = {w.r_value}",
        ],
    )


# Each cmd_* returns (exit code, payload, human_lines), the last two the
# callables main hands to _emit.


def cmd_analyze(args):
    d = forms.congruence_diagonalize(_form(args.form))
    ine = d.inertia
    cls = forms.classify_inertia(ine)
    diagonal = [render_rational(v) for v in d.diag]
    return (
        EXIT_OK,
        lambda: {"inertia": [ine.k, ine.m, ine.z], "classification": cls, "diagonal": diagonal},
        lambda: [f"inertia ({ine.k},{ine.m},{ine.z}), {cls}", "diagonal: " + " ".join(diagonal)],
    )


def cmd_canon(args):
    d = forms.congruence_diagonalize(_form(args.form))
    # column c of B is cols[c] / scales[c]
    columns = [[render_ratio(x, s) for x in col] for col, s in zip(d.cols, d.scales)]
    diagonal = [render_rational(v) for v in d.diag]
    return (
        EXIT_OK,
        lambda: {
            "basis": {"dim": len(columns), "rows": [list(row) for row in zip(*columns)]},
            "diagonal": diagonal,
            "inertia": [d.inertia.k, d.inertia.m, d.inertia.z],
        },
        lambda: (
            ["basis columns (one per line):"]
            + ["  " + " ".join(col) for col in columns]
            + ["diagonal: " + " ".join(diagonal)]
        ),
    )


def cmd_contain(args):
    from . import containment

    q, r = _form(args.q), _form(args.r)
    verdict = containment.decide_containment(q, r)
    if isinstance(verdict, containment.Proportional):
        _recheck_alpha(q, r, verdict.alpha)
        return (
            EXIT_OK,
            verdict.to_json,
            lambda: [f"proportional: r = {render_rational(verdict.alpha)} * q"],
        )
    return _counterexample(q, r, verdict.witness)


def cmd_poly_contain(args):
    from . import polys

    q = _form(args.q)
    r = polys.poly_from_json(forms.load_json(args.r))
    verdict = polys.decide_containment_homogeneous(q, r)
    if isinstance(verdict, polys.Divisible):
        return EXIT_OK, verdict.to_json, lambda: [f"divisible: quotient = {verdict.quotient}"]
    w = verdict.witness
    _recheck(polys.verify_poly_witness(q, r, w), "cone-point witness")
    return (
        EXIT_REFUTED,
        verdict.to_json,
        lambda: [
            "witness: q vanishes but r does not at",
            "  v = " + _point(w),
            f"  r(v) = {w.r_value}",
        ],
    )


def cmd_simdiag(args):
    from . import semidefinite

    q, r = _form(args.q), _form(args.r)
    tol = semidefinite.DEFAULT_TOL if args.tol is None else args.tol
    try:
        result = semidefinite.simdiag_general(q, r, tol=tol)
    except ContainmentFails as exc:
        return _counterexample(q, r, exc.witness)
    if hasattr(result, "_alpha"):  # the indefinite route: r_diag is alpha times q_diag
        _recheck_alpha(q, r, result._alpha)
    return (
        EXIT_OK,
        result.to_json,
        lambda: [
            "simultaneously diagonalizable",
            "q_diag: " + " ".join(f"{v:.12g}" for v in result.q_diag),
            "r_diag: " + " ".join(f"{v:.12g}" for v in result.r_diag),
            f"residual: {result.residual:.3e}",
        ],
    )


def cmd_lorentz(args):
    from . import containment, relativity

    L = forms.transform_from_json(forms.load_json(args.transform))
    c = parse_rational(args.c)
    report = relativity.check_interval_invariance(L, c)
    q = relativity.minkowski_form(c, dim_space=L.dim - 1)
    if report.kappa is not None:
        _recheck_alpha(q, report.pulled_back_form, report.kappa)
    if report.witness_event is not None:
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

    refuted = report.classification == relativity.CONE_BREAKING
    return EXIT_REFUTED if refuted else EXIT_OK, report.to_json, lines


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

    return EXIT_OK if ok else EXIT_REFUTED, lambda: {"fixtures": results, "ok": ok}, lines


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
    args = build_parser().parse_args(argv)
    try:
        code, payload, human_lines = args.func(args)
        _emit(payload, human_lines, args.json)
        return code
    except Exception as exc:
        code, prefix = next((c, p) for types, c, p in _EXITS if isinstance(exc, types))
        message = str(exc)
        if prefix is None:
            # one stderr line for a fault of qformkit itself
            prefix = f"internal error: {type(exc).__name__}"
            message = " ".join(message.splitlines())
        print(f"{prefix}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
