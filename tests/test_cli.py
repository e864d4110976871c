import ast
import json
import math
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import biquad.arith
import biquad.cli
import biquad.descent
import biquad.families
import biquad.heights
from biquad.cli import main
from biquad.curves import Curve, on_curve
from conftest import euler_parts_oracle


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

    @pytest.mark.parametrize("m, n", [(0, 1), (0, 2), (3, 0), (0, 0)])
    def test_degenerate_m_times_n_zero(self, capsys, m, n):
        # both points are 2-torsion there, whatever N is
        code, doc = run_cli(capsys, "theorem1", "--m", str(m), "--n", str(n))
        assert code == 1
        assert doc == {
            "status": "degenerate",
            "error": f"(m, n) = ({m}, {n}) is degenerate: m*n = 0",
        }

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
            curve = Curve(int(doc["curve"]["b"]))
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
        p = Curve(-17).point(-1, 4)
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
            # (-1, 4) is on y^2 = x^3 - 17x, but the line names another curve
            '{"curve": {"a2": "1", "b": "5"}, "x": {"num": "-1", "den": "1"},'
            ' "y": {"num": "4", "den": "1"}}',
        ],
        ids=[
            "list",
            "number",
            "null",
            "bare-coordinates",
            "zero-denominator",
            "fractional-number",
            "bool",
            "other-curve",
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

    def test_points_file_reads_e_only(self, capsys, tmp_path):
        # the library counts points on y^2 = x^3 + 4N*x; the file does not
        path = tmp_path / "pts.jsonl"
        path.write_text(json.dumps(Curve(68).point(18, 84).to_json()) + "\n")
        code, doc = run_cli(capsys, "descent", "--N", "17", "--points-file", str(path))
        assert (code, doc["status"]) == (1, "parse_error")
        assert ":1:" in doc["error"]

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

    def test_three_coordinates_rejected(self, capsys):
        code, doc = run_cli(capsys, "height", "--curve", "-17", "--point", "(1,2,3)")
        assert code == 1
        assert doc["status"] == "parse_error"
        assert doc["error"].startswith("point must have two coordinates")

    def test_singular_curve(self, capsys):
        code, doc = run_cli(capsys, "height", "--curve", "0", "--point", "(0,0)")
        assert code == 1
        assert doc == {"status": "singular_curve", "error": "singular curve b=0"}

    @pytest.mark.parametrize("point", ["(1e20000000,1)", "(1,1e-20000000)", "(-2.5E+20000000, 1)"])
    def test_huge_exponent_rejected_before_fraction(self, capsys, point):
        """A coordinate goes through the same exponent guard as theorem2's
        --u: (1e20000000,1) printed nothing in 100 s, as Fraction built
        10**20000000 before the curve was checked."""
        start = time.perf_counter()
        code, doc = run_cli(capsys, "height", "--curve", "-17", "--point", point)
        assert time.perf_counter() - start < 1
        assert (code, doc) == (1, {
            "status": "domain_error",
            "error": f"a coordinate would have more than {sys.get_int_max_str_digits()} digits",
        })

    def test_huge_exponent_of_zero(self, capsys):
        code, doc = run_cli(capsys, "height", "--curve", "-17", "--point", "(0e20000000,0)")
        assert code == 0
        assert (doc["point"]["x"]["num"], doc["canonical_height"]) == ("0", "0.000000000000")

    @pytest.mark.parametrize("point, bad", [("(five,1)", "five"), ("(1, 2/0)", "2/0")])
    def test_bad_coordinate(self, capsys, point, bad):
        code, doc = run_cli(capsys, "height", "--curve", "-17", "--point", point)
        assert (code, doc) == (1, {"status": "parse_error", "error": f"bad rational {bad!r}"})


@pytest.mark.parametrize(
    "text",
    ["7", "-12", "+3", "0", "5/3", "-10/4", " 7/2 ", "1_000", "1_000/3", "2.5", "-0.125",
     ".5", "5.", "-2.5E+3", "1e-7", "3E2", "  4.5e1\n", "1.5e+1_0", "0e0"],
)
def test_rational_matches_fraction(text):
    assert biquad.cli._rational(text, "x") == Fraction(text)


@pytest.mark.parametrize(
    "text", ["", " ", "five", "1/0", "1/-2", "1e", "e5", "1e5/2", "5/3e2", "1__0", "_1", "1.2.3",
             "0x10", "1/2/3", "inf", "nan", "1 2", "7 / 2"],
)
def test_rational_rejects_what_fraction_rejects(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        Fraction(text)
    with pytest.raises(biquad.cli.CliError) as exc:
        biquad.cli._rational(text, "x")
    assert (exc.value.code, str(exc.value)) == ("parse_error", f"bad rational {text!r}")


def test_one_rational_parser():
    """Every Fraction(...) call in the CLI sits inside _rational, the one
    parser with the exponent guard; a second one would miss it, as the
    --point parser once did."""
    tree = ast.parse(Path(biquad.cli.__file__).read_text())
    rational = next(f for f in tree.body if getattr(f, "name", None) == "_rational")

    def fraction_calls(node):
        return sorted(
            n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Fraction"
        )

    assert fraction_calls(tree) == fraction_calls(rational) != []


def test_one_int_reader():
    """No flag reads an integer with int itself: int's length error would
    reach argparse as a usage error (exit 2), not a domain_error."""
    tree = ast.parse(Path(biquad.cli.__file__).read_text())
    types = [
        getattr(kw.value, "id", None) for n in ast.walk(tree)
        if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "add_argument"
        for kw in n.keywords if kw.arg == "type"
    ]
    assert "_integer" in types and "int" not in types


BIG = "9" * (sys.get_int_max_str_digits() + 100)


@pytest.mark.parametrize(
    "argv",
    [
        ("descent", "--N", BIG),
        ("descent", "--N", "17", "--bound", BIG),
        ("theorem1", "--m", BIG, "--n", "1"),
        ("theorem1", "--m", "2", "--n", f"-{BIG}"),
        ("theorem1", "--m", "2", "--n", "1", "--bound", BIG),
        ("theorem2", "--u", "2", "--bound", BIG),
        ("search", "--limit", BIG),
        ("height", "--curve", f"-{BIG}", "--point", "(0,0)"),
        ("theorem2", "--u", BIG),
        ("height", "--curve", "-17", "--point", f"({BIG},1)"),
    ],
    ids=lambda argv: " ".join(a if len(a) < 20 else "BIG" for a in argv),
)
def test_integer_flag_past_the_digit_limit(capsys, argv):
    """int rejects a decimal string past sys.get_int_max_str_digits(); argparse
    turned that into a usage message and exit 2.  Fraction rejects a rational
    with such a digit run for the same reason, so that is a domain_error too,
    as --u 1e5000 is, not a parse_error."""
    code, doc = run_cli(capsys, *argv)
    assert (code, doc) == (1, {
        "status": "domain_error",
        "error": f"an integer has more than {sys.get_int_max_str_digits()} digits",
    })


@pytest.mark.parametrize("value", ["abc", "1.5", "0x10", "1__0", ""])
def test_integer_flag_parse_error_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["theorem1", "--m", value, "--n", "1"])
    assert exc.value.code == 2
    assert f"argument --m: invalid int value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("theorem1", "--m", "1" + "0" * 1000, "--n", "1"),  # N 4001 digits, P2's y 5001
        ("theorem2", "--u", "1e150"),  # N 4201 digits, P4's y about 6150
    ],
    ids=["theorem1", "theorem2"],
)
def test_unprintable_witness_point_rejected_before_descent(capsys, monkeypatch, argv):
    """N fits the digit limit but a point does not, so the output could never
    be printed; the descent factored N for more than 15 s first."""
    monkeypatch.setattr(biquad.cli, "rank_lower_bound", None)  # never reached
    start = time.perf_counter()
    code, doc = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, doc) == (1, {
        "status": "domain_error",
        "error": f"a point coordinate would have more than {sys.get_int_max_str_digits()} digits",
    })


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
        ("descent", "--N", "0"),
    ],
)
def test_domain_error(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert doc["status"] == "domain_error"
    assert doc["error"]


@pytest.mark.parametrize("N", ["0", "1", "-5"])
def test_descent_n_below_2_message(capsys, N):
    code, doc = run_cli(capsys, "descent", "--N", N)
    assert code == 1
    assert doc == {"status": "domain_error", "error": "N must be at least 2"}


@pytest.mark.parametrize("N", ["0", "1", "-5"])
def test_descent_n_below_2_checked_before_points_file(capsys, tmp_path, N):
    path = tmp_path / "pts.jsonl"
    path.write_text('{"x": 0, "y": 0}\n')
    code, doc = run_cli(capsys, "descent", "--N", N, "--points-file", str(path))
    assert code == 1
    assert doc == {"status": "domain_error", "error": "N must be at least 2"}


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
    if argv[0] == "theorem1":
        assert calls == [int(doc["N"])]
    else:
        # theorem2 factors the four family factors of N, each once
        u = Fraction(argv[2])
        parts = euler_parts_oracle(u.numerator, u.denominator)
        assert sorted(calls) == sorted(parts)
        assert math.prod(parts) == int(doc["N"])


def test_theorem2_specializes_once(capsys, monkeypatch):
    """One theorem2 call decides degeneracy once and builds one curve."""
    calls = {"euler_degenerate": 0, "Curve": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        fn = getattr(biquad.families, name)
        monkeypatch.setattr(biquad.families, name, counting(name, fn))
    code, _ = run_cli(capsys, "theorem2", "--u", "5/3")
    assert code == 0
    assert calls == {"euler_degenerate": 1, "Curve": 1}


def test_oversized_bound_rejected_before_search():
    """A bound above the cap is a domain error before any search table is
    built: the tables grow with the bound (4 GB for one of them at 10^8)."""
    argv = ["theorem1", "--m", "1", "--n", "2", f"--bound={biquad.descent.MAX_BOUND + 1}"]
    r = subprocess.run(
        [sys.executable, "-m", "biquad.cli", *argv],
        cwd=Path(__file__).resolve().parent.parent / "src",
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert r.returncode == 1, r.stderr[-2000:]
    assert json.loads(r.stdout)["status"] == "domain_error"


def test_oversized_bound_rejected_before_factoring(capsys, monkeypatch):
    """Both ends of the bound are checked before N is factored.  The upper
    end was checked only in the search: this N = nextprime(10^13) *
    nextprime(3*10^13) took 0.9 s to factor before its domain_error."""

    def no_factoring(n):
        raise AssertionError(f"factorize({n})")

    monkeypatch.setattr(biquad.arith, "factorize", no_factoring)
    N, bound = 300000000001220000000000407, biquad.descent.MAX_BOUND + 1
    error = f"height bound {bound} exceeds {biquad.descent.MAX_BOUND}"
    with pytest.raises(biquad.arith.ArithDomainError, match=error):
        biquad.descent.rank_lower_bound(N, bound)
    code, doc = run_cli(capsys, "descent", "--N", str(N), "--bound", str(bound))
    assert (code, doc) == (1, {"status": "domain_error", "error": error})


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem2", "--u", "1e5000"],
        ["theorem2", "--u", "1e400"],
        ["theorem2", "--u", "1e160"],
        ["theorem2", "--u", "1e-160"],
        ["theorem1", "--m", str(10**1100), "--n", "1"],
    ],
)
def test_unprintable_n_rejected_before_specialization(argv):
    """An N with more digits than str() prints could never be output.  Such
    a u ended in internal_error at its first str() (1e5000) or ran past a
    20 s timeout (1e160, 1e-160, 1e400), and (10^1100, 1) past 10 s."""
    r = subprocess.run(
        [sys.executable, "-m", "biquad.cli", *argv],
        cwd=Path(__file__).resolve().parent.parent / "src",
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert r.returncode == 1, r.stderr[-2000:]
    limit = sys.get_int_max_str_digits()
    assert json.loads(r.stdout) == {
        "status": "domain_error",
        "error": f"N would have more than {limit} digits",
    }


@pytest.mark.parametrize(
    "u, status",
    [
        ("1e20000000", "domain_error"),
        ("1e-20000000", "domain_error"),
        ("-2.5E+20000000", "domain_error"),
        ("0e20000000", "degenerate"),
        ("5/3e20000000", "parse_error"),
    ],
)
def test_huge_exponent_rejected_before_fraction(capsys, u, status):
    """Fraction("1e20000000") computes 10**20000000, which took 38 s; the
    exponent alone shows that p or q would have too many digits."""
    start = time.perf_counter()
    code, doc = run_cli(capsys, "theorem2", f"--u={u}")
    assert time.perf_counter() - start < 1
    assert (code, doc["status"]) == (1, status)
    if status == "domain_error":
        assert doc["error"] == f"N would have more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("limit", [4300, 0])
def test_n_digit_limit_is_exact(monkeypatch, limit):
    """theorem1 at (10^1075, 1) has N = 10^4300 + 1, one digit past a 4300
    limit, and (10^1075 - 1, 1) has 4300 digits; for theorem2, N(10^153, 1)
    has 4285 digits and N(10^154, 1) 4313.  A limit of 0 is no limit."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    check = biquad.cli._check_n_digits
    general, euler = biquad.families.GENERAL_FACTORS, biquad.families.EULER_FACTORS
    check((10**1075 - 1, 1), general)
    check((10**153, 1), euler)
    for params, factors in [((10**1075, 1), general), ((10**154, 1), euler)]:
        if limit:
            with pytest.raises(biquad.cli.CliError, match="4300 digits"):
                check(params, factors)
        else:
            check(params, factors)


def test_digit_check_is_exact():
    """An integer of limit digits passes, one of limit + 1 digits is a
    domain_error, on either sign."""
    limit = sys.get_int_max_str_digits()
    biquad.cli._check_digits("N", [10**limit - 1, -(10**limit - 1)])
    for v in (10**limit, -(10**limit)):
        with pytest.raises(biquad.cli.CliError) as err:
            biquad.cli._check_digits("N", [v])
        assert err.value.code == "domain_error"


def test_readme_cli_examples(tmp_path):
    """Every `biquad ...` line of README's CLI section runs and exits 0,
    except the --mutate negative control, which exits 1."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    pts = tmp_path / "pts.jsonl"
    pts.write_text(json.dumps(Curve(-17).point(-1, 4).to_json()) + "\n")
    commands = []
    for line in section.splitlines():
        argv = shlex.split(line.removeprefix("$ "), comments=True)
        if argv[:1] == ["biquad"]:
            commands.append([str(pts) if a == "pts.jsonl" else a for a in argv[1:]])
    assert {argv[0] for argv in commands} == {
        "verify-identities", "theorem1", "theorem2", "search", "descent", "height"
    }
    for argv in commands:
        code = main(argv)
        assert code == (1 if "--mutate" in argv else 0), argv


def test_readme_library_example():
    """README's Library block runs, and each of its expressions gives what
    its comment says."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert ns["h"].value == pytest.approx(1.17218, abs=1e-4)
    assert values["rank_lower_bound(17, 10)"].rank_lower_bound == 2
    assert values["twin_search(200)"][0].n == 635318657
    assert values['regulator_report(points)["independent"]'] is True
    report = values["rank_lower_bound(-curve.b, 2, points, parts=parts)"]
    assert report.n == -ns["curve"].b


@pytest.mark.parametrize("u", ["1000", "1000003/7"])
def test_theorem2_large_u_finishes(u):
    # whole-N factoring did not finish here in minutes (a 22-digit prime
    # inside a 160-digit N at 1000003/7); the four factors take a second
    r = subprocess.run(
        [sys.executable, "-m", "biquad.cli", "theorem2", f"--u={u}"],
        cwd=Path(__file__).resolve().parent.parent / "src",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout)
    q = Fraction(u)
    assert doc["verdict"] == "rank >= 4"
    assert doc["descent"]["N"] == doc["N"]
    assert int(doc["N"]) == math.prod(euler_parts_oracle(q.numerator, q.denominator))


def test_runtime_imports_leave_out_mpmath():
    # mpmath is a test dependency only: the oracles use it, the program does not
    r = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, biquad.cli, biquad.search; print('mpmath' in sys.modules)",
        ],
        cwd=Path(__file__).resolve().parent.parent / "src",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout == "False\n"


@pytest.mark.parametrize(
    "argv, heights",
    [
        (("theorem2", "--u", "5/3"), 10),  # 4 points + 6 sums P_i + P_j, i < j
        (("theorem1", "--m", "2", "--n", "1"), 3),  # 2 points + P_1 + P_2
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


def test_parser_reused_without_leaks(capsys, monkeypatch, tmp_path):
    """main builds its parser once; calls in a row print what calls on a
    fresh parser print, and no option's value carries over to the next call."""
    path = tmp_path / "pts.jsonl"
    path.write_text(json.dumps(Curve(-17).point(-1, 4).to_json()) + "\n")
    seq = [
        ("theorem2", "--u", "5/3", "--bound", "7"),
        ("theorem2", "--u", "2"),
        ("descent", "--N", "17", "--bound", "1", "--points-file", str(path)),
        ("descent", "--N", "17", "--bound", "1"),
        ("height", "--curve", "-17", "--point", "(-1,4)", "--pretty"),
        ("height", "--curve", "-17", "--point", "(-1,4)"),
    ]
    fresh = []
    for argv in seq:
        biquad.cli.build_parser.cache_clear()
        assert main(list(argv)) == 0
        fresh.append(capsys.readouterr().out)

    calls = []
    rank_lower_bound = biquad.cli.rank_lower_bound

    def recording(n, bound, **kw):
        calls.append((bound, len(kw.get("extra_points", ()))))
        return rank_lower_bound(n, bound, **kw)

    monkeypatch.setattr(biquad.cli, "rank_lower_bound", recording)
    parser = biquad.cli.build_parser()
    for argv, out in zip(seq, fresh):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == out, argv
    assert biquad.cli.build_parser() is parser
    # theorem2's default bound is 2; the points file is read only when given
    assert calls == [(7, 4), (2, 4), (1, 1), (1, 0)]


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

    def test_internal_error_is_a_bug(self, capsys, monkeypatch):
        """An exception no subcommand maps to a status is a bug, never bad
        input: one internal_error document, one stderr line, exit 2.  The
        global is patched because the cached parser has bound cmd_search."""

        def broken(limit):
            raise RuntimeError("boom")

        monkeypatch.setattr(biquad.cli, "twin_search", broken)
        code = main(["search", "--limit", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out) == {"status": "internal_error", "error": "boom"}
        assert captured.err == "error: boom\n"
