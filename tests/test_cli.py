import argparse
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from qformkit import (
    ContainmentFails,
    NoWitnessFound,
    QuadExt,
    WitnessVector,
    cli,
    containment,
    errors,
    polys,
    relativity,
    semidefinite,
)
from qformkit.cli import main
from qformkit.forms import Point, evaluate, form_from_json
from qformkit.scalars import parse_rational

MINKOWSKI = '{"dim": 4, "rows": [[-1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}'
MINKOWSKI_4X = '{"dim": 4, "rows": [[-4,0,0,0],[0,4,0,0],[0,0,4,0],[0,0,0,4]]}'
S2 = '{"dim": 3, "rows": [[2,0,-1],[0,2,-1],[-1,-1,1]]}'
S2P = '{"dim": 3, "rows": [[8,8,-8],[8,16,-12],[-8,-12,10]]}'
HYP = '{"dim": 2, "rows": [[1,0],[0,-1]]}'
CIRCLE = '{"dim": 2, "rows": [[1,0],[0,1]]}'
SQUARE = '{"dim": 2, "rows": [[1,-1],[-1,1]]}'
ZERO2 = '{"dim": 2, "rows": [[0,0],[0,0]]}'


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestAnalyze:
    def test_minkowski(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", MINKOWSKI)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "inertia (3,1,0), indefinite" in out

    def test_s2(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", S2)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "inertia (2,0,1), positive-semidefinite-degenerate" in out

    def test_zero(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", ZERO2)
        assert main(["analyze", path]) == 0
        assert "inertia (0,0,2), zero" in capsys.readouterr().out

    def test_parse_error_names_entry(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", '{"dim": 2, "rows": [[1,"oops"],["oops",1]]}')
        assert main(["analyze", path]) == 2
        assert "(0,1)" in capsys.readouterr().err

    def test_non_symmetric_exit_3(self, tmp_path):
        path = write(tmp_path, "q.json", '{"dim": 2, "rows": [[1,2],[3,4]]}')
        assert main(["analyze", path]) == 3

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("dim", ["true", "false"])
    def test_bool_dim_exit_2(self, tmp_path, capsys, dim):
        path = write(tmp_path, "q.json", f'{{"dim": {dim}, "rows": [[1]]}}')
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "expected a JSON object with 'dim' and 'rows'"),
            ('{"rows": [[1]]}', "missing key 'dim'"),
            ('{"dim": 1}', "missing key 'rows'"),
            ('{"dim": 2, "rows": [[1, 0]]}', "'rows' must be a list of 2 rows"),
            ('{"dim": 1, "rows": {"0": [1]}}', "'rows' must be a list of 1 rows"),
        ],
        ids=["not-an-object", "no-dim", "no-rows", "too-few-rows", "rows-not-a-list"],
    )
    def test_bad_matrix_file_exit_2(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "q.json", text)
        assert main(["analyze", path]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")


class TestContain:
    def test_proportional_exit_0(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", MINKOWSKI)
        r = write(tmp_path, "r.json", MINKOWSKI_4X)
        assert main(["contain", q, r, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"verdict": "proportional", "alpha": "4"}

    def test_counterexample_exit_1(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", CIRCLE)
        assert main(["contain", q, r, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "counterexample"
        assert payload["r_value"] == "2"

    def test_semidefinite_base_exit_4(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", SQUARE)
        r = write(tmp_path, "r.json", HYP)
        assert main(["contain", q, r]) == 4
        assert "indefinite" in capsys.readouterr().err


    @pytest.mark.parametrize("entry", ["1e5000", "1e-5000"])
    def test_huge_exponent_exit_2(self, tmp_path, capsys, entry):
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", '{"dim": 2, "rows": [["%s",0],[0,1]]}' % entry)
        assert main(["contain", q, r, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exponent" in captured.err


class TestCanon:
    def test_outputs_diagonal(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", S2)
        assert main(["canon", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inertia"] == [2, 0, 1]
        assert len(payload["diagonal"]) == 3


class TestPolyContain:
    def test_divisible(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", HYP)
        r = write(
            tmp_path,
            "r.json",
            json.dumps(
                {
                    "nvars": 2,
                    "degree": 4,
                    "terms": [
                        {"exp": [4, 0], "coef": "1"},
                        {"exp": [0, 4], "coef": "-1"},
                    ],
                }
            ),
        )
        assert main(["poly-contain", q, r, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "divisible"

    def test_json_renders_no_human_output(self, tmp_path, capsys, monkeypatch):
        """--json builds only the JSON payload: the human line, which
        renders the whole quotient, is never built."""

        def refuse(self):
            raise AssertionError("the human output was rendered")

        monkeypatch.setattr(polys.HomogeneousPoly, "__str__", refuse)
        q = write(tmp_path, "q.json", HYP)
        quartic = {"nvars": 2, "degree": 4, "terms": [{"exp": [4, 0], "coef": 1}, {"exp": [0, 4], "coef": -1}]}
        r = write(tmp_path, "r.json", json.dumps(quartic))
        assert main(["poly-contain", q, r, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "divisible"

    def test_zero_quartic_has_the_zero_quotient(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", '{"nvars": 2, "degree": 4, "terms": []}')
        assert main(["poly-contain", q, r]) == 0
        assert capsys.readouterr().out == "divisible: quotient = 0\n"
        assert main(["poly-contain", q, r, "--json"]) == 0
        out = capsys.readouterr().out
        assert out == '{"verdict":"divisible","quotient":{"nvars":2,"degree":2,"terms":[]}}\n'

    def test_witness(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", HYP)
        r = write(
            tmp_path,
            "r.json",
            json.dumps(
                {
                    "nvars": 2,
                    "degree": 4,
                    "terms": [
                        {"exp": [4, 0], "coef": "1"},
                        {"exp": [0, 4], "coef": "1"},
                    ],
                }
            ),
        )
        assert main(["poly-contain", q, r, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "witness"

    @pytest.mark.parametrize(
        "q_text, r_text",
        [
            # a constant r: evaluating it once returned a bare Fraction
            (HYP, '{"nvars": 2, "degree": 0, "terms": [{"exp": [0,0], "coef": 3}]}'),
            # the rejection sampler never drew an admissible point here
            (
                json.dumps({"dim": 6, "rows": [[1 if i == j == 0 else -1000 * (i == j)
                                                for j in range(6)] for i in range(6)]}),
                '{"nvars": 6, "degree": 2, "terms": [{"exp": [1,1,0,0,0,0], "coef": 1}]}',
            ),
        ],
        ids=["constant-r", "former-sampler-fault"],
    )
    def test_witness_is_verified(self, tmp_path, capsys, q_text, r_text):
        q = write(tmp_path, "q.json", q_text)
        r = write(tmp_path, "r.json", r_text)
        assert main(["poly-contain", q, r, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "witness"
        t = parse_rational(payload["witness"]["t"])
        coords = tuple(
            QuadExt(parse_rational(a), parse_rational(b), t)
            for a, b in payload["witness"]["coords"]
        )
        assert evaluate(form_from_json(json.loads(q_text)), coords).is_zero()
        assert not polys.poly_from_json(json.loads(r_text)).evaluate(coords).is_zero()

    @pytest.mark.parametrize("flag", ["--budget", "--seed"])
    def test_sampler_options_are_gone(self, tmp_path, capsys, flag):
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", QUARTIC_SUM)
        with pytest.raises(SystemExit) as exc:
            main(["poly-contain", q, r, flag, "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_degree_above_bound_exit_2(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", HYP)
        big = 10**12
        r = write(tmp_path, "r.json", json.dumps(
            {"nvars": 2, "degree": big, "terms": [{"exp": [big, 0], "coef": 1}]}))
        assert main(["poly-contain", q, r]) == 2
        assert "'degree'" in capsys.readouterr().err

    @pytest.mark.parametrize("coef", ["1.5", "1.0", "true", "false", "null"])
    def test_float_bool_or_null_coefficient_exit_2(self, tmp_path, capsys, coef):
        # int(1.0) is 1: a JSON float must not be read as an integer
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json",
                  '{"nvars": 2, "degree": 2, "terms": [{"exp": [2, 0], "coef": %s}]}' % coef)
        assert main(["poly-contain", q, r]) == 2
        captured = capsys.readouterr()
        assert "not a rational" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "expected a JSON object with 'nvars', 'degree', 'terms'"),
            ('{"nvars": 2, "degree": 2}', "missing key 'terms'"),
            ('{"nvars": 2, "degree": 2, "terms": {}}', "'terms' must be a list"),
            ('{"nvars": 2, "degree": 2, "terms": [{"coef": 1}]}', "term 0 must have 'exp' and 'coef'"),
            ('{"nvars": 2, "degree": 2, "terms": [{"exp": [2, 0]}]}', "term 0 must have 'exp' and 'coef'"),
            (
                '{"nvars": 2, "degree": 2, "terms": [{"exp": [1, 1], "coef": 1}, {"exp": [1, 1], "coef": 2}]}',
                "term 1: duplicate exponent vector [1, 1]",
            ),
        ],
        ids=["not-an-object", "no-terms", "terms-not-a-list", "no-exp", "no-coef", "repeated-exp"],
    )
    def test_bad_poly_file_exit_2(self, tmp_path, capsys, text, message):
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", text)
        assert main(["poly-contain", q, r]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")

    def test_rejects_bad_poly_file(self, tmp_path):
        q = write(tmp_path, "q.json", HYP)
        r = write(
            tmp_path,
            "r.json",
            '{"nvars": 2, "degree": 3, "terms": [{"exp": [1, 1], "coef": "1"}]}',
        )
        assert main(["poly-contain", q, r]) == 2


class TestSimdiag:
    def test_psd_pair(self, tmp_path, capsys):
        q = write(tmp_path, "q.json", S2)
        r = write(tmp_path, "r.json", S2P)
        assert main(["simdiag", q, r, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] <= 1e-9

    def test_non_diagonalizable_pair_exit_4(self, tmp_path, capsys):
        # a semidefinite q with an indefinite r: the message names r
        for q_text, r_text in [(SQUARE, HYP), (S2, '{"dim": 3, "rows": [[1,0,0],[0,-1,0],[0,0,0]]}')]:
            q = write(tmp_path, "q.json", q_text)
            r = write(tmp_path, "r.json", r_text)
            assert main(["simdiag", q, r]) == 4
            assert capsys.readouterr() == ("", "hypothesis violation: r is indefinite\n")

    def test_kernel_break_prints_rational_witness(self, tmp_path, capsys):
        # (1, 1) spans ker q, and r = x^2 + y^2 is 2 there
        q = write(tmp_path, "q.json", SQUARE)
        r = write(tmp_path, "r.json", CIRCLE)
        assert main(["simdiag", q, r, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "counterexample",
            "witness": {"t": "1", "coords": [["1", "0"], ["1", "0"]]},
            "q_value": "0",
            "r_value": "2",
        }
        assert main(["simdiag", q, r]) == 1
        assert capsys.readouterr().out == (
            "counterexample: q vanishes but r does not at\n"
            "  v = (1, 1)\n"
            "  q(v) = 0, r(v) = 2\n"
        )

    @pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["human", "json"])
    def test_indefinite_refutation_prints_contains_witness(self, tmp_path, capsys, as_json):
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", CIRCLE)
        assert main(["contain", q, r, *as_json]) == 1
        contain_out = capsys.readouterr().out
        assert main(["simdiag", q, r, *as_json]) == 1
        assert capsys.readouterr().out == contain_out

    def test_mixed_orientations_exit_0(self, tmp_path, capsys):
        # r and -r have the same zero set: a psd q pairs with an nsd r
        q = write(tmp_path, "q.json", '{"dim": 2, "rows": [[1,0],[0,0]]}')
        r = write(tmp_path, "r.json", '{"dim": 2, "rows": [[-1,0],[0,0]]}')
        assert main(["simdiag", q, r, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q_diag"] == [1.0, 0.0]
        assert payload["r_diag"] == [-1.0, 0.0]
        assert payload["residual"] == 0.0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "x"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        # nan and inf would switch the residual check off without a word
        q = write(tmp_path, "q.json", S2)
        r = write(tmp_path, "r.json", S2P)
        with pytest.raises(SystemExit) as exc:
            main(["simdiag", q, r, "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: must be a finite number >= 0" in captured.err

    @pytest.mark.parametrize("text", ["0", "-0.0", "1e-30", "1e400", "nan", "inf", "-1", "x"])
    def test_tolerance_follows_the_library_rule(self, text):
        from qformkit.cli import _tolerance

        try:
            tol = float(text)
            semidefinite._check_tol(tol)
        except ValueError:
            with pytest.raises(argparse.ArgumentTypeError):
                _tolerance(text)
        else:
            assert _tolerance(text) == tol

    def test_tolerance_zero_and_tighter_than_default(self, tmp_path, capsys):
        hyp = write(tmp_path, "hyp.json", HYP)  # an exact basis: residual 0
        assert main(["simdiag", hyp, hyp, "--tol", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] == 0.0
        q = write(tmp_path, "q.json", S2)
        r = write(tmp_path, "r.json", S2P)
        assert main(["simdiag", q, r, "--tol", "1e-30"]) == 4  # below the default 1e-9
        assert "exceeds tolerance 1e-30" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["1", "-1"], ids=["definite", "indefinite"])
    def test_entry_past_float_range_exit_4(self, tmp_path, capsys, second):
        # 1e400 is exact, but the float step cannot hold it
        q = write(tmp_path, "q.json", f'{{"dim": 2, "rows": [["1e400", 0], [0, {second}]]}}')
        assert main(["simdiag", q, q]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: an exact value is out of float range")

    def test_float_overflow_in_the_products_exit_4(self, tmp_path, capsys):
        # every entry is in float range, but r's eigenvalue 3e308 and the
        # entries of B^T R B are not; a NaN basis must not pass as exit 0
        big = '"1.5e308"'
        q = write(tmp_path, "q.json", CIRCLE)
        r = write(tmp_path, "r.json", f'{{"dim": 2, "rows": [[{big}, {big}], [{big}, {big}]]}}')
        assert main(["simdiag", q, r, "--json"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: B^T Q B or B^T R B is out of float range\n"


class TestLorentz:
    BOOST = (
        '{"dim": 4, "rows": [["5/4","-3/4",0,0],["-3/4","5/4",0,0],'
        "[0,0,1,0],[0,0,0,1]]}"
    )
    STRETCH = '{"dim": 4, "rows": [[1,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1]]}'

    def test_boost_preserves(self, tmp_path, capsys):
        path = write(tmp_path, "L.json", self.BOOST)
        assert main(["lorentz", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] == "1"
        assert payload["classification"] == "interval-preserving"

    def test_stretch_breaks(self, tmp_path, capsys):
        path = write(tmp_path, "L.json", self.STRETCH)
        assert main(["lorentz", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "cone-breaking"

    def test_custom_speed(self, tmp_path, capsys):
        path = write(tmp_path, "L.json", self.STRETCH)
        # with c = 2 the same stretch still breaks the cone
        assert main(["lorentz", path, "--c", "2", "--json"]) == 1

    def test_one_by_one_transform_is_a_dimension_error(self, tmp_path, capsys):
        path = write(tmp_path, "L.json", '{"dim": 1, "rows": [[1]]}')
        assert main(["lorentz", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "space dimension" in captured.err
        assert "speed" not in captured.err


class TestDemo:
    def test_exit_zero(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "all demo fixtures behave as documented" in out

    def test_json_byte_identical(self, capsys):
        assert main(["demo", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["demo", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is True
        assert [f["name"] for f in payload["fixtures"]] == [
            "linear-substitution",
            "semidefinite-trap",
            "minkowski",
        ]

    def test_help_describes_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--help"])
        assert exc.value.code == 0
        assert "machine-readable output" in capsys.readouterr().out

    def test_missing_rejection_fails_the_fixture(self, monkeypatch, capsys):
        # S2 against its pullback must raise NotIndefinite, decided in
        # S2's one frame; a decision that returns instead fails the first
        # fixture
        monkeypatch.setattr(containment, "_decide_in_frame", lambda q, r, dq: None)
        assert main(["demo"]) == 1
        assert capsys.readouterr().out == "FIXTURE FAILED: linear-substitution\n"

    def test_other_exceptions_propagate(self, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("unexpected")

        # the second fixture's simdiag rejection, after the first fixture held
        monkeypatch.setattr(semidefinite, "_simdiag_in_frame", fail)
        assert main(["demo"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: unexpected\n"

    def test_stops_at_the_first_failed_fixture(self, monkeypatch, capsys):
        from qformkit import demo

        def fixture(name, ok):
            return lambda: (ok, {"name": name, "ok": ok})

        monkeypatch.setattr(
            demo, "FIXTURES", (fixture("a", True), fixture("b", False), fixture("c", True))
        )
        assert main(["demo"]) == 1
        assert capsys.readouterr().out == "FIXTURE FAILED: b\n"
        assert main(["demo", "--json"]) == 1
        assert capsys.readouterr().out == (
            '{"fixtures":[{"name":"a","ok":true},{"name":"b","ok":false}],"ok":false}\n'
        )


QUARTIC_SUM = json.dumps(
    {
        "nvars": 2,
        "degree": 4,
        "terms": [{"exp": [4, 0], "coef": "1"}, {"exp": [0, 4], "coef": "1"}],
    }
)


class TestInternalError:
    """Exit 5: a fault of qformkit itself, one stderr line, empty stdout."""

    @staticmethod
    def assert_internal(capsys, code, first_words):
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("internal error: " + first_words)

    @pytest.mark.parametrize(
        "kind, files, module, checker",
        [
            ("contain", {"q": HYP, "r": CIRCLE}, containment, "verify_witness"),
            ("poly-contain", {"q": HYP, "r": QUARTIC_SUM}, polys, "verify_poly_witness"),
            ("lorentz", {"L": TestLorentz.STRETCH}, containment, "verify_witness"),
            ("simdiag", {"q": HYP, "r": CIRCLE}, containment, "verify_witness"),
            ("simdiag", {"q": SQUARE, "r": CIRCLE}, containment, "verify_witness"),
        ],
    )
    def test_rejected_witness_exit_5(
        self, tmp_path, capsys, monkeypatch, kind, files, module, checker
    ):
        monkeypatch.setattr(module, checker, lambda *args: False)
        paths = [write(tmp_path, f"{role}.json", text) for role, text in files.items()]
        code = main([kind, *paths, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected:")

    # each command, its input files, and the decision that refutes them
    DECISIONS = [
        ("contain", {"q": HYP, "r": CIRCLE}, containment, "decide_containment"),
        ("poly-contain", {"q": HYP, "r": QUARTIC_SUM}, polys, "decide_containment_homogeneous"),
        ("lorentz", {"L": TestLorentz.STRETCH}, relativity, "check_interval_invariance"),
        ("simdiag", {"q": HYP, "r": CIRCLE}, semidefinite, "simdiag_general"),
        ("simdiag", {"q": SQUARE, "r": CIRCLE}, semidefinite, "simdiag_general"),
    ]

    def assert_forged_witness_rejected(
        self, tmp_path, capsys, monkeypatch, kind, files, module, decision, forge
    ):
        """Patch decision to return its refutation with forge(witness) in
        place of the witness: the command exits 5 and prints nothing."""
        real = getattr(module, decision)

        def tampered(*args, **kwargs):
            try:
                out = real(*args, **kwargs)
            except ContainmentFails as exc:
                raise ContainmentFails(str(exc), witness=forge(exc.witness)) from None
            if isinstance(out, relativity.TransformReport):
                return relativity.TransformReport(
                    out.kappa, out.classification, forge(out.witness_event), out.pulled_back_form
                )
            return type(out)(forge(out.witness))

        monkeypatch.setattr(module, decision, tampered)
        paths = [write(tmp_path, f"{role}.json", text) for role, text in files.items()]
        code = main([kind, *paths, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected:")

    @pytest.mark.parametrize("kind, files, module, decision", DECISIONS)
    def test_wrong_printed_value_exit_5(
        self, tmp_path, capsys, monkeypatch, kind, files, module, decision
    ):
        """A refutation whose r(v) is not r at its v is never printed."""

        def wrong(w):
            r = w.r_value
            return WitnessVector(w.coords, w.q_value, QuadExt(r.rat + 1, r.rad, r.t))

        self.assert_forged_witness_rejected(
            tmp_path, capsys, monkeypatch, kind, files, module, decision, wrong
        )

    @pytest.mark.parametrize("kind, files, module, decision", DECISIONS)
    def test_unrelated_radicands_exit_5(
        self, tmp_path, capsys, monkeypatch, kind, files, module, decision
    ):
        """A witness at (sqrt 2, sqrt 3, 0, ...) is no point of one
        quadratic extension: its re-check fails, it is not an input error."""

        def unrelated(w):
            coords = (QuadExt(0, 1, 2), QuadExt(0, 1, 3)) + (QuadExt(0),) * (len(w.coords) - 2)
            return WitnessVector(coords, w.q_value, w.r_value)

        self.assert_forged_witness_rejected(
            tmp_path, capsys, monkeypatch, kind, files, module, decision, unrelated
        )

    @pytest.mark.parametrize(
        "r, alpha",
        [
            (HYP, Fraction(2)),
            (HYP, Fraction(-1)),
            (CIRCLE, Fraction(1)),
            ('{"dim": 2, "rows": [[0,0],[0,0]]}', Fraction(1)),
        ],
        ids=["r=q, alpha 2", "r=q, alpha -1", "r not proportional", "r zero, alpha 1"],
    )
    def test_wrong_alpha_exit_5(self, tmp_path, capsys, monkeypatch, r, alpha):
        """A proportional verdict whose alpha does not give R = alpha Q
        entrywise is never printed."""
        monkeypatch.setattr(containment, "decide_containment", lambda q, r: containment.Proportional(alpha))
        q, r = write(tmp_path, "q.json", HYP), write(tmp_path, "r.json", r)
        code = main(["contain", q, r, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected: proportionality constant")

    def test_swept_point_off_the_cone_exit_5(self, tmp_path, capsys, monkeypatch):
        """poly-contain's sweep fails closed on a point off q's cone."""
        off_cone = Point(Fraction(2), 1, (1, 0), (0, 1))  # q = 1 - 2 at (1, sqrt(2))
        monkeypatch.setattr(polys, "sample_cone_point", lambda dq, h, sign: off_cone)
        q, r = write(tmp_path, "q.json", HYP), write(tmp_path, "r.json", QUARTIC_SUM)
        code = main(["poly-contain", q, r, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected: swept point is off the null cone of q")

    def test_wrong_kappa_exit_5(self, tmp_path, capsys, monkeypatch):
        """lorentz prints kappa only once the pulled-back form is kappa
        times the interval form entrywise: the 3-4-5 boost has kappa 1,
        and a decision that says 7 is never printed."""
        monkeypatch.setattr(containment, "_ratio", lambda q, r: Fraction(7))
        path = write(tmp_path, "L.json", '{"dim": 2, "rows": [["5/4","-3/4"],["-3/4","5/4"]]}')
        code = main(["lorentz", path, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected: proportionality constant")

    def test_wrong_alpha_simdiag_exit_5(self, tmp_path, capsys, monkeypatch):
        """simdiag's indefinite yes prints r_diag = alpha * q_diag; an alpha
        that does not give R = alpha Q entrywise is never printed."""
        monkeypatch.setattr(containment, "_ratio", lambda q, r: Fraction(7))
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", '{"dim": 2, "rows": [[2,0],[0,-2]]}')
        code = main(["simdiag", q, r, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected: proportionality constant")

    def test_tampered_simdiag_witness_exit_5(self, tmp_path, capsys, monkeypatch):
        # (1, 2) is off ker q, so the real checker rejects it
        tampered = WitnessVector(
            coords=(QuadExt(1), QuadExt(2)), q_value=QuadExt(0), r_value=QuadExt(5)
        )

        def refute(q, r, tol):
            raise ContainmentFails("tampered", witness=tampered)

        monkeypatch.setattr(semidefinite, "simdiag_general", refute)
        q = write(tmp_path, "q.json", SQUARE)
        r = write(tmp_path, "r.json", CIRCLE)
        code = main(["simdiag", q, r, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected:")

    def test_unexpected_exception_exit_5(self, tmp_path, capsys, monkeypatch):
        def broken_sweep(*args):
            raise RuntimeError("broken cone sweep")

        monkeypatch.setattr(polys, "sample_cone_point", broken_sweep)
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", QUARTIC_SUM)
        code = main(["poly-contain", q, r, "--json"])
        self.assert_internal(capsys, code, "RuntimeError: broken cone sweep")

    def test_no_witness_found_exit_5_contain(self, tmp_path, capsys, monkeypatch):
        def empty_family(*args):
            raise NoWitnessFound("no family member separates r from q")

        monkeypatch.setattr(containment, "construct_witness", empty_family)
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", CIRCLE)
        code = main(["contain", q, r, "--json"])
        self.assert_internal(capsys, code, "NoWitnessFound:")

    def test_no_witness_found_exit_5_poly_contain(self, tmp_path, capsys, monkeypatch):
        # every swept point is the origin, where the quartic vanishes
        monkeypatch.setattr(polys, "sample_cone_point", lambda *args: (QuadExt(0), QuadExt(0)))
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", QUARTIC_SUM)
        code = main(["poly-contain", q, r, "--json"])
        self.assert_internal(capsys, code, "NoWitnessFound:")


# The exit code and the one stderr line of each error a subcommand can raise
EXIT_CONTRACT = [
    (OSError("boom"), 2, "error: boom"),
    (errors.QFormError("boom"), 2, "error: boom"),
    (errors.FormatError("boom"), 2, "parse error: boom"),
    (errors.MismatchedRadicand("boom"), 2, "error: boom"),
    (errors.DimensionMismatch("boom"), 2, "error: boom"),
    (errors.NonSymmetricMatrix("boom"), 3, "non-symmetric input: boom"),
    (errors.NotIndefinite("boom"), 4, "hypothesis violation: boom"),
    (errors.NotSemidefinite("boom"), 4, "hypothesis violation: boom"),
    (errors.NoWitnessFound("boom"), 5, "internal error: NoWitnessFound: boom"),
    (errors.DegreeMismatch("boom"), 2, "error: boom"),
    (errors.NotPythagorean("boom"), 2, "error: boom"),
    (errors.InvalidSpeed("boom"), 4, "hypothesis violation: boom"),
    (errors.ContainmentFails("boom"), 2, "error: boom"),
    (errors.NumericalFailure("boom"), 4, "numerical failure: boom"),
    (errors.CertificateRejected("two\nlines"), 5, "internal error: CertificateRejected: two lines"),
    (ValueError("boom"), 5, "internal error: ValueError: boom"),
]


def test_exit_contract_lists_every_library_error():
    listed = {type(exc) for exc, _, _ in EXIT_CONTRACT}
    defined = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.QFormError)
    }
    assert defined <= listed


@pytest.mark.parametrize(
    "exc, code, line", EXIT_CONTRACT, ids=[type(e).__name__ for e, _, _ in EXIT_CONTRACT]
)
def test_exit_code_and_stderr_line(monkeypatch, capsys, exc, code, line):
    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_demo", raise_it)
    assert main(["demo", "--json"]) == code
    assert capsys.readouterr() == ("", line + "\n")


def test_unreadable_input_exit_2(tmp_path, capsys):
    binary = tmp_path / "q.json"
    binary.write_bytes(b"\xff\xfe\x00")
    q = write(tmp_path, "hyp.json", HYP)
    for path in (str(tmp_path), str(binary)):  # a directory, bytes that are not UTF-8
        for argv in (["analyze", path], ["poly-contain", q, path], ["lorentz", path]):
            assert main(argv) == 2
            assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "kind", ["analyze", "lorentz", "poly-contain"], ids=["form", "transform", "poly"]
)
def test_deeply_nested_json_exit_2(tmp_path, capsys, kind):
    # json.load raises RecursionError on arrays nested past its limit
    nested = write(tmp_path, "nested.json", "[" * 200_000)
    files = [write(tmp_path, "hyp.json", HYP), nested] if kind == "poly-contain" else [nested]
    assert main([kind, *files]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")


# Standard output recorded from the implementation before the semidefinite
# route, the witness serializer and the file loader were merged.  The float
# digits of the three semidefinite simdiag entries come from the frame
# whitening and the Jacobi finish.  The poly-contain witness is the first
# point of the deterministic cone sweep.  The two kernel2 entries were
# recorded before simdiag's kernel test became the witness family.  The
# two lorentz entries were recorded again when the sqrt(1) of their
# witness event came to be folded into its rational part.  The demo entry
# was recorded while kernel_basis still eliminated on the Fraction matrix.
# The dense8, kernel3 and rank3 entries were recorded before every exact
# form value came to be read through forms._apply.
GOLDEN_INPUTS = {
    "s2": S2,
    "s2p": S2P,
    "neg_s2": '{"dim": 3, "rows": [[-2,0,1],[0,-2,1],[1,1,-1]]}',
    "neg_s2p": '{"dim": 3, "rows": [[-8,-8,8],[-8,-16,12],[8,12,-10]]}',
    "zero": ZERO2,
    "pd": '{"dim": 2, "rows": [[2,1],[1,3]]}',
    "pd2": '{"dim": 2, "rows": [[1,0],[0,4]]}',
    "hyp3": '{"dim": 3, "rows": [[1,0,0],[0,-2,0],[0,0,3]]}',
    "circle3": '{"dim": 3, "rows": [[1,0,0],[0,1,0],[0,0,1]]}',
    "quartic3": '{"nvars": 3, "degree": 4, "terms": '
    '[{"exp": [4,0,0], "coef": 1}, {"exp": [0,2,2], "coef": "-1/2"}]}',
    "stretch": TestLorentz.STRETCH,
    # ker q is spanned by frame columns (-1, 1, 0) and (0, 0, 1); r moves only
    # the second, and their sum would fire too if (d) came before (b)
    "kernel2": '{"dim": 3, "rows": [[1,1,0],[1,1,0],[0,0,0]]}',
    "kernel2_break": '{"dim": 3, "rows": [[1,1,0],[1,1,0],[0,0,2]]}',
    # q's lead frame is e_0 and the dense (-1, ..., -1, 8); r = q + x_0^2 fires member (a)
    "dense8": '{"dim": 8, "rows": [[2,1,1,1,1,1,1,1],[1,2,1,1,1,1,1,1],[1,1,2,1,1,1,1,1],'
    '[1,1,1,2,1,1,1,1],[1,1,1,1,2,1,1,1],[1,1,1,1,1,2,1,1],[1,1,1,1,1,1,2,1],[1,1,1,1,1,1,1,-3]]}',
    "dense8_break": '{"dim": 8, "rows": [[3,1,1,1,1,1,1,1],[1,2,1,1,1,1,1,1],[1,1,2,1,1,1,1,1],'
    '[1,1,1,2,1,1,1,1],[1,1,1,1,2,1,1,1],[1,1,1,1,1,2,1,1],[1,1,1,1,1,1,2,1],[1,1,1,1,1,1,1,-3]]}',
    # a psd q of rank 3 with z = 3; r = q + x_4^2 misses the first kernel
    # column of q's frame and fires on the second
    "kernel3": '{"dim": 6, "rows": [[5,2,-2,1,1,2],[2,5,1,0,1,1],[-2,1,2,1,-1,0],'
    '[1,0,1,6,-3,3],[1,1,-1,-3,2,-1],[2,1,0,3,-1,2]]}',
    "kernel3_break": '{"dim": 6, "rows": [[5,2,-2,1,1,2],[2,5,1,0,1,1],[-2,1,2,1,-1,0],'
    '[1,0,1,6,-3,3],[1,1,-1,-3,3,-1],[2,1,0,3,-1,2]]}',
    # q = C^T C and r = C^T M C with C 3 x 5 and M positive definite: z = 2,
    # and the float basis reads the exact W^T R W
    "rank3": '{"dim": 5, "rows": [[5,2,-2,1,7],[2,5,1,0,1],[-2,1,2,1,-4],[1,0,1,6,0],[7,1,-4,0,11]]}',
    "rank3_in": '{"dim": 5, "rows": [[6,7,1,6,5],[7,15,4,6,3],[1,4,2,3,-1],[6,6,3,15,3],[5,3,-1,3,6]]}',
}

GOLDEN = [
    (
        ("simdiag", "s2", "s2p", "--json"),
        0,
        '{"basis":[[0.6015009550075456,0.37174803446018445,0.5],'
        "[-0.37174803446018445,0.6015009550075456,0.5],[0.0,0.0,1.0]],"
        '"q_diag":[1.0,1.0,0.0],"r_diag":[1.5278640450004213,10.472135954999581,0.0],'
        '"residual":1.060168650785246e-17}\n',
    ),
    (
        ("simdiag", "neg_s2", "neg_s2p", "--json"),
        0,
        '{"basis":[[0.6015009550075456,0.37174803446018445,0.5],'
        "[-0.37174803446018445,0.6015009550075456,0.5],[0.0,0.0,1.0]],"
        '"q_diag":[-1.0,-1.0,0.0],"r_diag":[-1.5278640450004213,-10.472135954999581,0.0],'
        '"residual":1.060168650785246e-17}\n',
    ),
    (
        ("simdiag", "zero", "zero", "--json"),
        0,
        '{"basis":[[1.0,0.0],[0.0,1.0]],"q_diag":[0.0,0.0],"r_diag":[0.0,0.0],"residual":0.0}\n',
    ),
    (
        ("simdiag", "pd", "pd2", "--json"),
        0,
        '{"basis":[[0.6397824890711095,-0.4366673409793499],'
        "[0.1122117896375988,0.6224214924521223]],"
        '"q_diag":[1.0,1.0],"r_diag":[0.45968757625671525,1.740312423743285],'
        '"residual":1.1102230246251563e-16}\n',
    ),
    (
        ("simdiag", "kernel2", "kernel2_break"),
        1,
        "counterexample: q vanishes but r does not at\n"
        "  v = (0, 0, 1)\n"
        "  q(v) = 0, r(v) = 2\n",
    ),
    (
        ("simdiag", "kernel2", "kernel2_break", "--json"),
        1,
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["0","0"],["0","0"],["1","0"]]},'
        '"q_value":"0","r_value":"2"}\n',
    ),
    (
        ("simdiag", "kernel3", "kernel3_break"),
        1,
        "counterexample: q vanishes but r does not at\n"
        "  v = (1, -1, 2, 0, 1, 0)\n"
        "  q(v) = 0, r(v) = 1\n",
    ),
    (
        ("simdiag", "kernel3", "kernel3_break", "--json"),
        1,
        '{"verdict":"counterexample","witness":{"t":"1","coords":[["1","0"],["-1","0"],["2","0"],'
        '["0","0"],["1","0"],["0","0"]]},"q_value":"0","r_value":"1"}\n',
    ),
    (
        ("simdiag", "rank3", "rank3_in"),
        0,
        "simultaneously diagonalizable\n"
        "q_diag: 1 1 1 0 0\n"
        "r_diag: 0.467911113762 1.65270364467 3.87938524157 0 0\n"
        "residual: 1.776e-15\n",
    ),
    (
        ("simdiag", "rank3", "rank3_in", "--json"),
        0,
        '{"basis":[[0.16557775780404144,0.7761613422277013,0.6084057666984096,-2.3333333333333335,-1.0],'
        "[0.06377532802661556,-0.8100954854868434,-0.07965349079356132,1.6666666666666667,0.0],"
        "[-0.5128741131379025,1.1032238993441152,0.923683119539547,-3.6666666666666665,1.0],"
        "[0.0,0.0,0.0,1.0,0.0],[0.0,0.0,0.0,0.0,1.0]],"
        '"q_diag":[1.0,1.0,1.0,0.0,0.0],"r_diag":[0.4679111137620439,1.6527036446661392,3.879385241571817,0.0,0.0],'
        '"residual":1.7763568394002497e-15}\n',
    ),
    (
        ("contain", "dense8", "dense8_break"),
        1,
        "counterexample: q vanishes but r does not at\n"
        "  v = (1 + -1/8*sqrt(16/31), 0 + -1/8*sqrt(16/31), 0 + -1/8*sqrt(16/31), 0 + -1/8*sqrt(16/31), "
        "0 + -1/8*sqrt(16/31), 0 + -1/8*sqrt(16/31), 0 + -1/8*sqrt(16/31), 0 + 1*sqrt(16/31))\n"
        "  q(v) = 0, r(v) = 125/124 + -1/4*sqrt(16/31)\n",
    ),
    (
        ("contain", "dense8", "dense8_break", "--json"),
        1,
        '{"verdict":"counterexample","witness":{"t":"16/31","coords":[["1","-1/8"],["0","-1/8"],'
        '["0","-1/8"],["0","-1/8"],["0","-1/8"],["0","-1/8"],["0","-1/8"],["0","1"]]},'
        '"q_value":"0","r_value":"125/124 + -1/4*sqrt(16/31)"}\n',
    ),
    (
        ("contain", "hyp3", "circle3"),
        1,
        "counterexample: q vanishes but r does not at\n"
        "  v = (1, 0 + 1*sqrt(1/2), 0)\n"
        "  q(v) = 0, r(v) = 3/2\n",
    ),
    (
        ("contain", "hyp3", "circle3", "--json"),
        1,
        '{"verdict":"counterexample","witness":{"t":"1/2","coords":[["1","0"],["0","1"],["0","0"]]},'
        '"q_value":"0","r_value":"3/2"}\n',
    ),
    (
        ("poly-contain", "hyp3", "quartic3"),
        1,
        "witness: q vanishes but r does not at\n"
        "  v = (0 + 4*sqrt(1/2), -2 + 6*sqrt(1/2), -2 + 4*sqrt(1/2))\n"
        "  r(v) = -164 + 320*sqrt(1/2)\n",
    ),
    (
        ("poly-contain", "hyp3", "quartic3", "--json"),
        1,
        '{"verdict":"witness","witness":{"t":"1/2","coords":[["0","4"],["-2","6"],["-2","4"]]},'
        '"q_value":"0","r_value":"-164 + 320*sqrt(1/2)"}\n',
    ),
    (
        ("lorentz", "stretch"),
        1,
        "classification: cone-breaking\n"
        "witness event: (1, 1, 0, 0)\n"
        "  q = 0, pulled-back = 3\n",
    ),
    (
        ("lorentz", "stretch", "--json"),
        1,
        '{"kappa":null,"classification":"cone-breaking","pulled_back_form":{"dim":4,"rows":'
        '[["-1","0","0","0"],["0","4","0","0"],["0","0","1","0"],["0","0","0","1"]]},'
        '"witness_event":{"t":"1","coords":[["1","0"],["1","0"],["0","0"],["0","0"]]},'
        '"q_value":"0","r_value":"3"}\n',
    ),
    (
        ("demo", "--json"),
        0,
        '{"fixtures":[{"name":"linear-substitution","pulled_back":{"dim":3,"rows":[["8","8",'
        '"-8"],["8","16","-12"],["-8","-12","10"]]},"inertia":[2,0,1],"shared_kernel":[["1/2",'
        '"1/2","1"]],"proportional":false,"containment_rejected":"NotIndefinite","ok":true},'
        '{"name":"semidefinite-trap","q_classification":"positive-semidefinite-degenerate",'
        '"r_classification":"indefinite","simdiag_rejected":"NotSemidefinite",'
        '"containment_rejected":"NotIndefinite","ok":true},'
        '{"name":"minkowski","boost_345":{"kappa":"1","classification":"interval-preserving",'
        '"pulled_back_form":{"dim":4,"rows":[["-1","0","0","0"],["0","1","0","0"],["0","0",'
        '"1","0"],["0","0","0","1"]]}},"scaling_2I":{"kappa":"4","classification":"conformal-scaling",'
        '"pulled_back_form":{"dim":4,"rows":[["-4","0","0","0"],["0","4","0","0"],["0","0",'
        '"4","0"],["0","0","0","4"]]}},"anisotropic":{"kappa":null,"classification":"cone-breaking",'
        '"pulled_back_form":{"dim":4,"rows":[["-1","0","0","0"],["0","4","0","0"],["0","0",'
        '"1","0"],["0","0","0","1"]]},"witness_event":{"t":"1","coords":[["1","0"],["1","0"],'
        '["0","0"],["0","0"]]},"q_value":"0","r_value":"3"},"ok":true}],"ok":true}\n',
    ),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_stdout(tmp_path, capsys, argv, code, stdout):
    args = [a if a.startswith("--") or a == argv[0] else write(tmp_path, a + ".json", GOLDEN_INPUTS[a])
            for a in argv]
    assert main(args) == code
    assert capsys.readouterr().out == stdout


class TestHugeValues:
    """Exact values past the 4300 digits Python's str(int) allows."""

    # diagonal 10^3000 and -(10^6000 + 1) / 10^3000
    FORM = '{"dim": 2, "rows": [["1e3000", 1], [1, "-1e3000"]]}'

    @staticmethod
    def parse(text):
        num, _, den = text.partition("/")
        return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))

    def test_analyze(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", self.FORM)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("inertia (1,1,0), indefinite\ndiagonal: 1")
        assert len(out) > 9000

    def test_canon_json_diagonal_is_exact(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", self.FORM)
        assert main(["canon", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        big = Fraction(10) ** 3000
        assert [self.parse(d) for d in payload["diagonal"]] == [big, -big - 1 / big]
        assert payload["basis"]["rows"][0] == ["1", "-1/" + "1" + "0" * 3000]

    def test_contain(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", self.FORM)
        assert main(["contain", path, path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"verdict": "proportional", "alpha": "1"}

    def test_non_symmetric_message(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", '{"dim": 2, "rows": [[1, "1e4300"], [0, 1]]}')
        assert main(["analyze", path]) == 3
        assert "entry (0,1) = 1" + "0" * 4300 + " differs" in capsys.readouterr().err
