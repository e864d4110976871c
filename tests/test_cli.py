import json
from fractions import Fraction
from pathlib import Path

import pytest

import biquad.arith
import biquad.heights
from biquad.cli import main
from biquad.curves import Curve, on_curve


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerifyIdentities:
    def test_ok(self, capsys):
        code, doc = run_cli(capsys, "verify-identities")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["all_pass"] is True
        assert len(doc["identities"]) == 20
        assert all(row["pass"] for row in doc["identities"])

    def test_mutate_negative_control(self, capsys):
        code, doc = run_cli(capsys, "verify-identities", "--mutate")
        assert code == 1
        assert doc["status"] == "identity_failure"
        assert not doc["all_pass"]


class TestTheorem1:
    def test_m2_n1(self, capsys):
        code, doc = run_cli(capsys, "theorem1", "--m", "2", "--n", "1")
        assert code == 0
        assert doc["N"] == "17"
        assert doc["on_curve"] == [True, True]
        assert doc["verdict"] == "rank >= 2"
        assert float(doc["regulator"]["determinant"]) > 0.05
        assert doc["descent"]["rank_lower_bound"] >= 2
        p1 = doc["points"][0]
        assert (p1["x"]["num"], p1["x"]["den"]) == ("-1", "1")

    def test_degenerate(self, capsys):
        code, doc = run_cli(capsys, "theorem1", "--m", "1", "--n", "-1")
        assert code == 1
        assert doc["status"] == "degenerate"
        assert "error" in doc

    def test_random_specializations_on_curve(self, capsys, rng):
        done = 0
        while done < 25:
            m = rng.randint(-8, 8)
            n = rng.randint(-8, 8)
            if m == 0 or n == 0 or m + n == 0:
                continue
            code, doc = run_cli(
                capsys, "theorem1", "--m", str(m), "--n", str(n), "--bound", "2"
            )
            assert code == 0
            assert doc["on_curve"] == [True, True]
            curve = Curve(0, int(doc["curve"]["b"]))
            for obj in doc["points"]:
                p = curve.point(
                    Fraction(int(obj["x"]["num"]), int(obj["x"]["den"])),
                    Fraction(int(obj["y"]["num"]), int(obj["y"]["den"])),
                )
                assert on_curve(curve, p)
            done += 1


class TestTheorem2:
    def test_u2(self, capsys):
        code, doc = run_cli(capsys, "theorem2", "--u", "2")
        assert code == 0
        assert doc["N"] == "635318657"
        assert doc["N_of_u"] == "635318657"
        assert doc["on_curve"] == [True] * 4
        assert doc["verdict"] == "rank >= 4"
        assert float(doc["regulator"]["determinant"]) > 0.05
        assert float(doc["regulator"]["error_bound"]) < 0.01

    def test_rational_u(self, capsys):
        code, doc = run_cli(capsys, "theorem2", "--u", "5/3")
        assert code == 0
        assert doc["u"] == "5/3"
        assert doc["on_curve"] == [True] * 4
        assert doc["verdict"] == "rank >= 4"

    def test_degenerate_u(self, capsys):
        for u in ("0", "1", "-1"):
            code, doc = run_cli(capsys, "theorem2", "--u", u)
            assert code == 1
            assert doc["status"] == "degenerate"

    def test_bad_rational(self, capsys):
        code, doc = run_cli(capsys, "theorem2", "--u", "five")
        assert code == 1
        assert doc["status"] == "parse_error"

    def test_random_specializations_on_curve(self, capsys, rng):
        done = 0
        while done < 25:
            u = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            if u in (0, 1, -1):
                continue
            code, doc = run_cli(capsys, "theorem2", f"--u={u}", "--bound", "1")
            assert code == 0, doc
            assert doc["on_curve"] == [True] * 4
            done += 1


class TestSearch:
    def test_limit_200(self, capsys):
        code, doc = run_cli(capsys, "search", "--limit", "200")
        assert code == 0
        assert doc["count"] == 1
        rec = doc["records"][0]
        assert rec["N"] == "635318657"
        assert rec["representations"] == [["59", "158"], ["133", "134"]]


class TestDescent:
    def test_n17(self, capsys):
        code, doc = run_cli(capsys, "descent", "--N", "17", "--bound", "10")
        assert code == 0
        assert doc["descent"]["rank_lower_bound"] == 2
        assert doc["descent"]["N"] == "17"

    def test_points_file(self, capsys, tmp_path):
        path = tmp_path / "pts.jsonl"
        p = Curve(0, -17).point(-1, 4)
        path.write_text(json.dumps(p.to_json()) + "\n\n")
        code, doc = run_cli(
            capsys, "descent", "--N", "17", "--bound", "1", "--points-file", str(path)
        )
        assert code == 0
        assert doc["descent"]["rank_lower_bound"] >= 1

    def test_points_file_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "pts.jsonl"
        path.write_text('{"identity": true}\nnot json\n')
        code, doc = run_cli(
            capsys, "descent", "--N", "17", "--points-file", str(path)
        )
        assert code == 1
        assert doc["status"] == "parse_error"
        assert ":2:" in doc["error"]

    def test_points_file_off_curve(self, capsys, tmp_path):
        path = tmp_path / "pts.jsonl"
        bad = {"x": {"num": "1", "den": "1"}, "y": {"num": "1", "den": "1"}}
        path.write_text(json.dumps(bad) + "\n")
        code, doc = run_cli(
            capsys, "descent", "--N", "17", "--points-file", str(path)
        )
        assert code == 1
        assert doc["status"] == "not_on_curve"

    @pytest.mark.parametrize(
        "line",
        [
            "[1,2]",
            "5",
            "null",
            '{"x": 1, "y": 2}',
            '{"x": {"num": "1", "den": "0"}, "y": {"num": "1", "den": "1"}}',
            '{"x": {"num": -1.9, "den": 1}, "y": {"num": 4, "den": 1}}',
            '{"x": {"num": -1, "den": true}, "y": {"num": 4, "den": 1}}',
        ],
        ids=[
            "list",
            "number",
            "null",
            "bare-coordinates",
            "zero-denominator",
            "fractional-number",
            "bool",
        ],
    )
    def test_points_file_malformed_line(self, capsys, tmp_path, line):
        path = tmp_path / "pts.jsonl"
        path.write_text(line + "\n")
        code, doc = run_cli(
            capsys, "descent", "--N", "17", "--points-file", str(path)
        )
        assert code == 1
        assert doc["status"] == "parse_error"
        assert f"{path}:1:" in doc["error"]

    def test_points_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "pts.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        code, doc = run_cli(
            capsys, "descent", "--N", "17", "--points-file", str(path)
        )
        assert code == 1
        assert doc["status"] == "parse_error"
        assert str(path) in doc["error"]

    def test_missing_file(self, capsys):
        code, doc = run_cli(capsys, "descent", "--N", "17", "--points-file", "/nope")
        assert code == 1
        assert doc["status"] == "io_error"


class TestHeight:
    def test_p1(self, capsys):
        code, doc = run_cli(capsys, "height", "--curve", "-17", "--point", "(-1,4)")
        assert code == 0
        assert float(doc["canonical_height"]) == pytest.approx(1.17218, abs=1e-4)
        assert float(doc["abs_error"]) < 1e-6

    def test_point_not_on_curve(self, capsys):
        code, doc = run_cli(capsys, "height", "--curve", "-17", "--point", "(1,1)")
        assert code == 1
        assert doc["status"] == "not_on_curve"

    def test_point_parse_error(self, capsys):
        code, doc = run_cli(capsys, "height", "--curve", "-17", "--point=-1,4")
        assert code == 1
        assert doc["status"] == "parse_error"


@pytest.mark.parametrize(
    "argv",
    [
        ("descent", "--N", "1"),
        ("descent", "--N", "-5"),
        ("search", "--limit", "1"),
        ("search", "--limit", "46341"),
        ("theorem1", "--m", "2", "--n", "1", "--bound", "-1"),
        ("theorem2", "--u", "2", "--bound", "-1"),
        ("descent", "--N", "17", "--bound", "-1"),
    ],
)
def test_domain_error(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert doc["status"] == "domain_error"
    assert doc["error"]


# full stdout of fixed commands; a refactor must reproduce it byte for byte
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN, ids=lambda c: "_".join(a.lstrip("-") for a in c["argv"])
)
def test_golden_stdout(capsys, case):
    code = main(case["argv"])
    assert code == case.get("code", 0)
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize(
    "argv",
    [
        ("theorem1", "--m", "133", "--n", "134", "--bound", "100"),
        ("theorem2", "--u", "5/3"),
        ("theorem2", "--u", "1/11"),
    ],
)
def test_factorizes_n_once(capsys, monkeypatch, argv):
    calls = []
    factorize = biquad.arith.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(biquad.arith, "factorize", counting)
    code, doc = run_cli(capsys, *argv)
    assert code == 0
    assert calls == [int(doc["N"])]


@pytest.mark.parametrize(
    "argv, heights",
    [
        (("theorem2", "--u", "5/3"), 14),  # 4 points + 10 pairwise sums
        (("theorem1", "--m", "2", "--n", "1"), 5),  # 2 points + 3 pairwise sums
    ],
)
def test_one_height_per_point(capsys, monkeypatch, argv, heights):
    points = []
    canonical_height = biquad.heights.canonical_height

    def counting(p):
        points.append(p)
        return canonical_height(p)

    monkeypatch.setattr(biquad.heights, "canonical_height", counting)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(points) == heights
    assert len(set(points)) == heights


class TestOutputContract:
    def test_single_json_document(self, capsys):
        main(["search", "--limit", "200"])
        out = capsys.readouterr().out
        assert out.endswith("\n")
        json.loads(out)  # whole stdout is one document
        assert "\n" not in out.rstrip("\n")

    def test_pretty(self, capsys):
        main(["search", "--limit", "200", "--pretty"])
        out = capsys.readouterr().out
        assert out.count("\n") > 1
        json.loads(out)

    def test_integers_are_strings(self, capsys):
        _, doc = run_cli(capsys, "theorem1", "--m", "2", "--n", "1")
        assert isinstance(doc["N"], str)
        assert isinstance(doc["descent"]["s"], int)  # small group orders stay ints
        assert isinstance(doc["points"][0]["x"]["num"], str)

    def test_errors_go_to_stderr_too(self, capsys):
        code = main(["theorem2", "--u", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err
