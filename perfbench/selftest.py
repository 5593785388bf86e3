"""Self-test of the benchmark's independent checks.

    python3 perfbench/selftest.py

For each checker, a genuine certificate produced by qformkit must pass
and a tampered copy must be rejected.  Exits 1 if any checker accepts a
tampered certificate or rejects a genuine one.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import corpus  # noqa: E402
import workloads as W  # noqa: E402

RESULTS = []
LOG = []


def expect(label, reason, should_pass):
    ok = (reason is None) == should_pass
    RESULTS.append(ok)
    LOG.append((label, reason, should_pass))
    verdict = "accepts" if reason is None else f"rejects ({reason})"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")


def bump_coord(coords, k=0):
    """Add 1 to the rational part of coordinate k."""
    out = list(coords)
    a, b, t = out[k]
    out[k] = (a + 1, b, t)
    return out


def sympy_witness_ok(q, r, coords):
    """q(v) = 0 and r(v) != 0 by sympy, a second opinion independent of
    check.py; r is a matrix or a {exponent: coefficient} dict."""
    import sympy

    v = [sympy.Rational(a.numerator, a.denominator)
         + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(sympy.Rational(t.numerator, t.denominator))
         for a, b, t in coords]

    def form(m):
        return sum(sympy.Rational(str(m[i][j])) * v[i] * v[j] for i in range(len(v)) for j in range(len(v)))

    r_value = form(r) if isinstance(r, list) else sum(
        sympy.Rational(str(c)) * sympy.Mul(*[x ** e for x, e in zip(v, exp)]) for exp, c in r.items())
    return sympy.simplify(form(q)) == 0 and sympy.simplify(r_value) != 0


def tampered_witnesses(q, r, coords):
    """Each coordinate bumped in turn; yields (label, tampered, sympy says valid)."""
    for k in range(len(coords)):
        bumped = bump_coord(coords, k)
        yield f"coordinate {k} + 1", bumped, sympy_witness_ok(q, r, bumped)


def main():
    W.load()
    rng = random.Random("selftest")

    # exact a + b*sqrt(t)
    expect("sqrt(4) - 2 is zero", None if check.surd_is_zero(Fraction(-2), Fraction(1), Fraction(4)) else "nonzero", True)
    expect("sqrt(4) - 3 is nonzero", None if check.surd_is_zero(Fraction(-3), Fraction(1), Fraction(4)) else "nonzero", False)

    # contain: counterexample witness and alpha
    contain = corpus.contain_sweep(rng)
    for label, prefix in (("random q", "contain-anchored-n6"), ("family (c)", "contain-degenerate-c"),
                          ("family (d)", "contain-degenerate-d")):
        item = next(i for i in contain if i["name"].startswith(prefix) and i["outcome"] == "refute")
        out = W.run_contain(W.parse_inputs(item))
        expect(f"contain witness, {label}", W.check_output(item, out), True)
        coords = [(c.rat, c.rad, c.t) for c in out[0].witness.coords]
        q, r = item["expect"]["q"], item["expect"]["r"]
        expect(f"contain witness, {label}, sympy agrees", None if sympy_witness_ok(q, r, coords) else "no", True)
        for how, bumped, valid in tampered_witnesses(q, r, coords):
            expect(f"contain witness, {label}, {how}", check.check_form_witness(q, r, bumped), valid)
        expect(f"contain witness, {label}, against r = q", check.check_form_witness(
            item["expect"]["q"], item["expect"]["q"], coords), False)
    prop = next(i for i in contain if i["outcome"] == "confirm" and i["kind"] == "contain")
    out = W.run_contain(W.parse_inputs(prop))
    expect("alpha", W.check_output(prop, out), True)
    expect("alpha, tampered", check.check_alpha(prop["expect"]["alpha"], out[0].alpha + 1), False)
    expect("contain, certificate that qformkit's re-check rejected", W.check_output(prop, (out[0], False)), False)

    # lorentz: kappa and cone-breaking event
    for item in (i for i in contain if i["kind"] == "lorentz" and i["name"].endswith(("-0", "-1", "-2", "-3"))):
        out = W.run_lorentz(W.parse_inputs(item))
        expect(f"{item['name']}", W.check_output(item, out), True)
        if item["outcome"] == "refute":
            coords = [(c.rat, c.rad, c.t) for c in out[0].witness_event.coords]
            q, r = corpus.minkowski(), item["expect"]["pulled"]
            for how, bumped, valid in tampered_witnesses(q, r, coords):
                expect(f"{item['name']} event, {how}", check.check_form_witness(q, r, bumped), valid)
        else:
            wrong = dict(item, expect=dict(item["expect"], kappa=item["expect"]["kappa"] + 1))
            expect(f"{item['name']}, wrong kappa", W.check_output(wrong, out), False)

    # poly: quotient and cone-point witness
    div, bump = corpus.poly_items(rng, 4, 5, True, "selftest")
    out = W.run_poly(W.parse_inputs(div))
    expect("quotient", W.check_output(div, out), True)
    terms = dict(out[0].quotient.terms)
    first = next(iter(terms))
    terms[first] += 1
    expect("quotient, tampered coefficient", check.check_quotient(div["expect"]["q"], div["expect"]["r"], terms), False)
    out = W.run_poly(W.parse_inputs(bump))
    expect("cone-point witness", W.check_output(bump, out), True)
    coords = [(c.rat, c.rad, c.t) for c in out[0].witness.coords]
    q, r = bump["expect"]["q"], bump["expect"]["r"]
    expect("cone-point witness, sympy agrees", None if sympy_witness_ok(q, r, coords) else "no", True)
    for how, bumped, valid in tampered_witnesses(q, r, coords):
        expect(f"cone-point witness, {how}", check.check_poly_witness(q, r, bumped), valid)
    expect("cone-point witness, against r = q*s", check.check_poly_witness(
        bump["expect"]["q"], div["expect"]["r"], coords), False)
    fault = corpus.sampler_fault_item()
    root = Fraction(1000)  # x1 = sqrt(1000), x2 = 1: a right answer for the sampler-fault input
    genuine = [(Fraction(0), Fraction(1), root), (Fraction(1), Fraction(0), root)] + [(Fraction(0), Fraction(0), root)] * 4
    expect("sampler-fault input, hand-made witness", check.check_poly_witness(
        fault["expect"]["q"], fault["expect"]["r"], genuine), True)

    # simdiag: float basis against constructed ratios
    pairs = corpus.simdiag_pairs(rng)
    for prefix in ("simdiag-psd-n6", "simdiag-nsd", "simdiag-indefinite-n5-"):
        item = next(i for i in pairs if i["name"].startswith(prefix) and i["outcome"] == "confirm")
        out = W.run_simdiag(W.parse_inputs(item))
        expect(f"{item['name']}", W.check_output(item, out), True)
        basis = [list(row) for row in out[0].basis]
        for row in basis:  # shear column 0 along column 1, which q does not annihilate
            row[0] += 0.5 * row[1]
        exp = item["expect"]
        expect(f"{item['name']}, tampered basis", check.check_simdiag(
            exp["q"], exp["r"], basis, exp.get("ratios"), exp.get("z"), exp.get("alpha")), False)
        if "ratios" in exp:
            wrong = [x + 1 for x in exp["ratios"]]
            expect(f"{item['name']}, wrong ratios", check.check_simdiag(
                exp["q"], exp["r"], out[0].basis, wrong, exp["z"]), False)
    refute = next(i for i in pairs if i["name"].startswith("simdiag-kernel-break"))
    confirm = next(i for i in pairs if i["name"].startswith("simdiag-psd"))
    expect("kernel break raises ContainmentFails", W.check_output(refute, W.run_simdiag(W.parse_inputs(refute))), True)
    expect("confirm pair reported as ContainmentFails", W.check_output(
        confirm, W.run_simdiag(W.parse_inputs(refute))), False)

    # canon: exact B^T Q B
    q = corpus.anchored_indefinite(rng, 5)
    d = W.Q["forms"].congruence_diagonalize(W.Q["forms"].form_from_json(corpus.matrix_json(q)))
    basis = [list(row) for row in d.basis]
    expect("canon", check.check_congruence(q, basis, list(d.diag)), True)
    expect("canon, tampered diagonal", check.check_congruence(q, basis, [x + 1 for x in d.diag]), False)
    singular = [list(row) for row in basis]
    for row in singular:
        row[1] = row[0]
    expect("canon, singular basis", check.check_congruence(q, singular, list(d.diag)), False)
    expect("inertia, tampered", check.check_inertia(list(d.diag), [d.inertia.k + 1, d.inertia.m - 1, d.inertia.z]), False)

    # cli: exit code and --json output, in-process
    import tempfile

    cli_items = corpus.cli_oneshot(rng)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        argvs = W.write_cli_files(cli_items, tmp)
        for item, argv in zip(cli_items, argvs):
            try:
                out = W.inprocess_cli(argv)
            except Exception as exc:  # the sampler fault escapes cli.main
                expect(item["name"], f"raised {type(exc).__name__}", not item["fault"])
                continue
            expect(item["name"], W.check_cli(item, out), not item["fault"])
            code, stdout = out
            expect(f"{item['name']}, wrong exit code", W.check_cli(item, (1 - code, stdout)), False)
            if stdout.strip() and not item["fault"]:
                expect(f"{item['name']}, truncated stdout", W.check_cli(item, (code, stdout[: len(stdout) // 2])), False)

    rejected = sum(1 for label, reason, should in LOG if not should)
    if not rejected:
        expect("some tampered certificate", "none of the tampered certificates was invalid", True)
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed}/{len(RESULTS)} self-test cases behave as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
