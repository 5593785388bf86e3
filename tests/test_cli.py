import json

import pytest

from qformkit import containment, polys
from qformkit.cli import main

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
        assert main(["poly-contain", q, r, "--json", "--seed", "0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "witness"

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

    def test_non_diagonalizable_pair_exit_4(self, tmp_path):
        q = write(tmp_path, "q.json", SQUARE)
        r = write(tmp_path, "r.json", HYP)
        assert main(["simdiag", q, r]) == 4


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
        ],
    )
    def test_rejected_witness_exit_5(
        self, tmp_path, capsys, monkeypatch, kind, files, module, checker
    ):
        monkeypatch.setattr(module, checker, lambda *args: False)
        paths = [write(tmp_path, f"{role}.json", text) for role, text in files.items()]
        code = main([kind, *paths, "--json"])
        self.assert_internal(capsys, code, "CertificateRejected:")

    def test_unexpected_exception_exit_5(self, tmp_path, capsys, monkeypatch):
        def broken_sampler(*args):
            raise RuntimeError("cone sampler failed to draw an admissible point")

        monkeypatch.setattr(polys, "sample_cone_point", broken_sampler)
        q = write(tmp_path, "q.json", HYP)
        r = write(tmp_path, "r.json", QUARTIC_SUM)
        code = main(["poly-contain", q, r, "--json"])
        self.assert_internal(capsys, code, "RuntimeError: cone sampler failed")


def test_unreadable_input_exit_2(tmp_path, capsys):
    binary = tmp_path / "q.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (str(tmp_path), str(binary)):  # a directory, bytes that are not UTF-8
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().out == ""
