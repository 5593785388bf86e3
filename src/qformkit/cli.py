"""qformkit command line: deterministic, machine-readable front end.

Exit codes: 0 proportional/divisible/success, 1 refuted (counterexample,
witness, failed containment), 2 input error (unreadable file, parse error,
wrong dimension), 3 non-symmetric matrix, 4 hypothesis violation (e.g.
base form not indefinite), 5 internal error (a certificate failed its
re-check, or qformkit itself raised); 5 prints one stderr line and
nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import containment, forms, polys, relativity, semidefinite
from .errors import (
    CertificateRejected,
    ContainmentFails,
    FormatError,
    InvalidSpeed,
    NonSymmetricMatrix,
    NotIndefinite,
    NotSemidefinite,
    NumericalFailure,
    QFormError,
    Unsupported,
)
from .scalars import parse_rational, render_rational

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


def _emit(payload, human_lines, as_json):
    if as_json:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=False))
    else:
        for line in human_lines:
            print(line)


def cmd_analyze(args):
    q = forms.load_form(args.form)
    d = forms.congruence_diagonalize(q)
    ine = d.inertia
    cls = forms.classify_inertia(ine)
    payload = {
        "inertia": [ine.k, ine.m, ine.z],
        "classification": cls,
        "diagonal": [render_rational(v) for v in d.diag],
    }
    _emit(
        payload,
        [
            f"inertia ({ine.k},{ine.m},{ine.z}), {cls}",
            "diagonal: " + " ".join(render_rational(v) for v in d.diag),
        ],
        args.json,
    )
    return EXIT_OK


def cmd_canon(args):
    q = forms.load_form(args.form)
    d = forms.congruence_diagonalize(q)
    payload = {
        "basis": forms.matrix_to_json(d.basis),
        "diagonal": [render_rational(v) for v in d.diag],
        "inertia": [d.inertia.k, d.inertia.m, d.inertia.z],
    }
    lines = ["basis columns (one per line):"]
    n = len(d.diag)
    for c in range(n):
        lines.append("  " + " ".join(render_rational(d.basis[r][c]) for r in range(n)))
    lines.append("diagonal: " + " ".join(render_rational(v) for v in d.diag))
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_contain(args):
    q = forms.load_form(args.q)
    r = forms.load_form(args.r)
    verdict = containment.decide_containment(q, r)
    if isinstance(verdict, containment.Proportional):
        _emit(
            verdict.to_json(),
            [f"proportional: r = {render_rational(verdict.alpha)} * q"],
            args.json,
        )
        return EXIT_OK
    _recheck(containment.verify_witness(q, r, verdict.witness), "counterexample witness")
    w = verdict.witness
    _emit(
        verdict.to_json(),
        [
            "counterexample: q vanishes but r does not at",
            "  v = (" + ", ".join(str(c) for c in w.coords) + ")",
            f"  q(v) = {w.q_value}, r(v) = {w.r_value}",
        ],
        args.json,
    )
    return EXIT_REFUTED


def cmd_poly_contain(args):
    q = forms.load_form(args.q)
    r = polys.load_poly(args.r)
    verdict = polys.decide_containment_homogeneous(
        q, r, budget=args.budget, seed=args.seed
    )
    if isinstance(verdict, polys.Divisible):
        _emit(verdict.to_json(), [f"divisible: quotient = {verdict.quotient}"], args.json)
        return EXIT_OK
    if isinstance(verdict, polys.ConePointWitness):
        _recheck(polys.verify_poly_witness(q, r, verdict.witness), "cone-point witness")
        w = verdict.witness
        _emit(
            verdict.to_json(),
            [
                "witness: q vanishes but r does not at",
                "  v = (" + ", ".join(str(c) for c in w.coords) + ")",
                f"  r(v) = {w.r_value}",
            ],
            args.json,
        )
        return EXIT_REFUTED
    _emit(
        verdict.to_json(),
        [
            "non-divisible (remainder nonzero); no sampled cone point hit "
            "a nonzero value within the budget",
        ],
        args.json,
    )
    return EXIT_REFUTED


def cmd_simdiag(args):
    q = forms.load_form(args.q)
    r = forms.load_form(args.r)
    result = semidefinite.simdiag_general(q, r, tol=args.tol)
    _emit(
        result.to_json(),
        [
            "simultaneously diagonalizable",
            "q_diag: " + " ".join(f"{v:.12g}" for v in result.q_diag),
            "r_diag: " + " ".join(f"{v:.12g}" for v in result.r_diag),
            f"residual: {result.residual:.3e}",
        ],
        args.json,
    )
    return EXIT_OK


def cmd_lorentz(args):
    L = forms.load_transform(args.transform)
    c = parse_rational(args.c)
    report = relativity.check_interval_invariance(L, c)
    if report.witness_event is not None:
        q = relativity.minkowski_form(c, dim_space=L.dim - 1)
        _recheck(
            containment.verify_witness(q, report.pulled_back_form, report.witness_event),
            "witness event",
        )
    lines = [f"classification: {report.classification}"]
    if report.kappa is not None:
        lines.append(f"kappa: {render_rational(report.kappa)}")
    if report.witness_event is not None:
        w = report.witness_event
        lines.append(
            "witness event: (" + ", ".join(str(x) for x in w.coords) + ")"
        )
        lines.append(f"  q = {w.q_value}, pulled-back = {w.r_value}")
    _emit(report.to_json(), lines, args.json)
    return (
        EXIT_REFUTED
        if report.classification == relativity.CONE_BREAKING
        else EXIT_OK
    )


# --- demo fixtures ------------------------------------------------------------

# Textbook substitution example: two forms sharing the zero line
# span{(1,1,2)} without being proportional.
_S2_JSON = '{"dim": 3, "rows": [[2, 0, -1], [0, 2, -1], [-1, -1, 1]]}'
_SUBST_JSON = '{"dim": 3, "rows": [[-2, -2, 1], [0, 2, -2], [0, 0, -2]]}'
_S2_PRIME_EXPECTED = '{"dim": 3, "rows": [[8, 8, -8], [8, 16, -12], [-8, -12, 10]]}'
# The semidefinite trap: (x-y)^2 vanishes only on x = y, where x^2 - y^2
# also vanishes, yet the pair is not simultaneously diagonalizable.
_SQUARE_JSON = '{"dim": 2, "rows": [[1, -1], [-1, 1]]}'
_HYPERBOLIC_JSON = '{"dim": 2, "rows": [[1, 0], [0, -1]]}'
_ANISOTROPIC_JSON = '{"dim": 4, "rows": [[1,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1]]}'


def _demo_fixture_substitution():
    s2 = forms.form_from_json(json.loads(_S2_JSON))
    L = forms.transform_from_json(json.loads(_SUBST_JSON))
    expected = forms.form_from_json(json.loads(_S2_PRIME_EXPECTED))
    pulled = forms.apply_transform(s2, L)
    ok = pulled == expected
    ine_q = forms.inertia(s2)
    ine_r = forms.inertia(pulled)
    ok = ok and (ine_q.k, ine_q.m, ine_q.z) == (2, 0, 1)
    ok = ok and (ine_r.k, ine_r.m, ine_r.z) == (2, 0, 1)
    kq = semidefinite.kernel_basis(s2).vectors
    kr = semidefinite.kernel_basis(pulled).vectors
    # both kernels must be the single line through (1, 1, 2)
    line = (Fraction(1), Fraction(1), Fraction(2))
    ok = ok and kq == kr and len(kq) == 1
    scale = kq[0][2] / line[2] if kq else None
    ok = ok and scale and tuple(scale * e for e in line) == kq[0]
    not_indefinite = False
    try:
        containment.decide_containment(s2, pulled)
    except NotIndefinite:
        not_indefinite = True
    ok = ok and not_indefinite
    return ok, {
        "name": "linear-substitution",
        "pulled_back": forms.matrix_to_json(pulled.matrix),
        "inertia": [ine_q.k, ine_q.m, ine_q.z],
        "shared_kernel": [[render_rational(e) for e in v] for v in kq],
        "proportional": False,
        "containment_rejected": "NotIndefinite",
        "ok": ok,
    }


def _demo_fixture_semidefinite_trap():
    q = forms.form_from_json(json.loads(_SQUARE_JSON))
    r = forms.form_from_json(json.loads(_HYPERBOLIC_JSON))
    rejected = False
    try:
        semidefinite.simdiag_psd(q, r)
    except NotSemidefinite:
        rejected = True
    not_indef = False
    try:
        containment.decide_containment(q, r)
    except NotIndefinite:
        not_indef = True
    ok = rejected and not_indef
    return ok, {
        "name": "semidefinite-trap",
        "q_classification": forms.classify(q),
        "r_classification": forms.classify(r),
        "simdiag_rejected": "NotSemidefinite",
        "containment_rejected": "NotIndefinite",
        "ok": ok,
    }


def _demo_fixture_minkowski():
    boost = relativity.boost_from_triple(3, 4, 5, "x")
    rep_boost = relativity.check_interval_invariance(boost)
    scaling = forms.LinearTransform.scaling(4, 2)
    rep_scale = relativity.check_interval_invariance(scaling)
    aniso = forms.transform_from_json(json.loads(_ANISOTROPIC_JSON))
    rep_break = relativity.check_interval_invariance(aniso)
    ok = rep_boost.kappa == 1 and rep_scale.kappa == 4
    ok = ok and rep_break.classification == relativity.CONE_BREAKING
    q = relativity.minkowski_form(1)
    ok = ok and containment.verify_witness(
        q, rep_break.pulled_back_form, rep_break.witness_event
    )
    return ok, {
        "name": "minkowski",
        "boost_345": rep_boost.to_json(),
        "scaling_2I": rep_scale.to_json(),
        "anisotropic": rep_break.to_json(),
        "ok": ok,
    }


def cmd_demo(args):
    fixtures = [
        _demo_fixture_substitution,
        _demo_fixture_semidefinite_trap,
        _demo_fixture_minkowski,
    ]
    results = []
    for fixture in fixtures:
        ok, payload = fixture()
        results.append(payload)
        if not ok:
            _emit(
                {"fixtures": results, "ok": False},
                [f"FIXTURE FAILED: {payload['name']}"],
                args.json,
            )
            return EXIT_REFUTED
    lines = []
    for res in results:
        lines.append(f"[ok] {res['name']}")
    lines.append("all demo fixtures behave as documented")
    _emit({"fixtures": results, "ok": True}, lines, args.json)
    return EXIT_OK


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
    p = add("poly-contain", cmd_poly_contain, q="indefinite quadratic", r="homogeneous polynomial JSON")
    p.add_argument("--budget", type=int, default=1000, help="witness sampling budget")
    p.add_argument("--seed", type=int, default=0, help="sampler seed")
    p = add("simdiag", cmd_simdiag, q="first form", r="second form")
    p.add_argument("--tol", type=float, default=semidefinite.DEFAULT_TOL)
    p = add("lorentz", cmd_lorentz, transform="candidate transform JSON file")
    p.add_argument("--c", default="1", help="speed of light (rational)")
    p = sub.add_parser("demo")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_demo)
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
    except (NotIndefinite, NotSemidefinite, Unsupported, InvalidSpeed) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ContainmentFails as exc:
        print(f"containment fails: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except CertificateRejected as exc:
        return _internal_error(exc)
    except QFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # a fault of qformkit, never a verdict
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
