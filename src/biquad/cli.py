"""Command-line front end.

Every subcommand prints a single JSON document on stdout (integers as
decimal strings), diagnostics go to stderr, and the exit code is 0 iff
the status is ok.  Bad input gets a typed status and exit code 1; an
argument outside a function's domain (such as ``descent --N 1``, or a
``--bound`` below 0 or above 10^4, or a theorem1 or theorem2 parameter
whose N would have more digits than ``sys.get_int_max_str_digits()``
lets ``str`` print) gives ``domain_error``.  A negative fraction must be
joined to its flag, as in ``--u=-5/3``: argparse reads ``--u -5/3`` as a
missing value and exits 2 with a usage error.  Negative integers such as
``--m -2`` parse either way.

Subcommands:

  verify-identities   run the full symbolic identity suite
  theorem1 --m --n    rank >= 2 witness for y^2 = x^3 - (m^4+n^4)x
  theorem2 --u        rank >= 4 witness for the two-representation family
  search --limit      twin fourth-power representations
  descent --N --bound square-class rank lower bound
  height --curve --point   canonical height of one point
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache, partial

from .arith import ArithDomainError
from .curves import Curve, Point, on_curve
from .descent import check_n, rank_lower_bound
from .families import (
    DegenerateSpecializationError,
    euler_family_points,
    euler_n,
    euler_n_poly,
    general_family_points,
    general_n_poly,
    identity_suite,
    specialize_euler,
    specialize_general,
)
from .heights import canonical_height, regulator_report
from .search import twin_search


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _emit(payload: dict, status: str = "ok", pretty: bool = False) -> int:
    doc = {"status": status, **payload}
    sys.stdout.write(json.dumps(doc, indent=2 if pretty else None) + "\n")
    return 0 if status == "ok" else 1


def _parse_point(curve: Curve, text: str) -> Point:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise CliError("parse_error", f"point must look like '(x,y)': {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise CliError("parse_error", f"point must have two coordinates: {text!r}")
    try:
        x, y = Fraction(parts[0].strip()), Fraction(parts[1].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("parse_error", f"bad coordinate in {text!r}: {exc}") from exc
    p = Point(curve, x, y)
    if not on_curve(curve, p):
        raise CliError("not_on_curve", f"{text} is not on {curve}")
    return p


def _load_points_file(path: str, curve: Curve) -> list[Point]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError("io_error", str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise CliError("parse_error", f"{path}: not UTF-8: {exc}") from exc
    points = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            p = Point.from_json(obj, curve)
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise CliError("parse_error", f"{path}:{i}: {exc}") from exc
        if not on_curve(p.curve, p):
            raise CliError("not_on_curve", f"{path}:{i}: point not on {p.curve}")
        points.append(p)
    return points


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify_identities(args) -> int:
    results = identity_suite(mutate=args.mutate)
    payload = {
        "identities": [{"name": n, "pass": ok} for n, ok in results],
        "all_pass": all(ok for _, ok in results),
    }
    status = "ok" if payload["all_pass"] else "identity_failure"
    return _emit(payload, status, args.pretty)


def _witness(
    args, curve: Curve, points: list[Point], parts: list[int], rank: int, u=None
) -> int:
    """Emit the rank witness of specialized family points on one curve.

    parts, N's factors from the specialization, feed the descent.
    theorem2 passes its parameter u, which adds "u" and "N_of_u".
    """
    N = -curve.b
    descent = rank_lower_bound(N, args.bound, extra_points=points, parts=parts)
    reg = regulator_report(points)
    payload = {} if u is None else {"u": str(u)}
    payload["curve"] = curve.to_json()
    payload["N"] = str(N)
    if u is not None:
        payload["N_of_u"] = str(euler_n(u))
    payload |= {
        "points": [p.to_json() for p in points],
        "on_curve": [on_curve(curve, p) for p in points],
        "regulator": reg,
        "descent": descent.to_json(),
        "verdict": f"rank >= {rank}" if reg["independent"] else "inconclusive",
    }
    return _emit(payload, "ok", args.pretty)


_ten_to = cache(partial(pow, 10))  # 10**limit, once per limit value


def _check_n_digits(params: tuple[int, ...], n_form) -> None:
    """domain_error, before any specialization, if N, the form n_form at
    params, has more digits than str() prints (0: no limit).  N is at least
    its largest |parameter| (for theorem2, f1 >= max(|p|, q) and
    f2..f4 >= 1: families.euler_degenerate), so a parameter past the limit
    needs no N."""
    limit = sys.get_int_max_str_digits()
    if limit and (
        max(map(abs, params)) >= _ten_to(limit) or n_form.evaluate(*params) >= _ten_to(limit)
    ):
        raise CliError("domain_error", f"N would have more than {limit} digits")


def cmd_theorem1(args) -> int:
    _check_n_digits((args.m, args.n), general_n_poly())
    try:
        curve, points, parts = specialize_general(general_family_points(), args.m, args.n)
    except DegenerateSpecializationError as exc:
        raise CliError("degenerate", str(exc)) from exc
    return _witness(args, curve, points, parts, 2)


def cmd_theorem2(args) -> int:
    # Fraction would compute 10**exp first. The mantissa has fewer than len(args.u) digits,
    # so |exp| > limit + len(args.u) puts p or q past the limit unless the mantissa is 0.
    limit = sys.get_int_max_str_digits()
    m = re.fullmatch(r"(.*)e([-+]?\d+(?:_\d+)*)\s*", args.u, re.IGNORECASE | re.DOTALL)
    try:
        huge = bool(limit and m) and abs(int(m[2])) > limit + len(args.u)
        u = Fraction(m[1] + "e0" if huge else args.u)  # the mantissa, parsed as in args.u
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("parse_error", f"bad rational {args.u!r}") from exc
    if huge and u:
        raise CliError("domain_error", f"N would have more than {limit} digits")
    _check_n_digits((u.numerator, u.denominator), euler_n_poly())
    try:
        curve, points, parts = specialize_euler(euler_family_points(), u)
    except DegenerateSpecializationError as exc:
        raise CliError("degenerate", str(exc)) from exc
    return _witness(args, curve, points, parts, 4, u)


def cmd_search(args) -> int:
    records = twin_search(args.limit)
    payload = {
        "limit": str(args.limit),
        "records": [r.to_json() for r in records],
        "count": len(records),
    }
    return _emit(payload, "ok", args.pretty)


def cmd_descent(args) -> int:
    check_n(args.N)  # before the points file, which is read on Curve(-N)
    extra = _load_points_file(args.points_file, Curve(-args.N)) if args.points_file else []
    report = rank_lower_bound(args.N, args.bound, extra_points=extra)
    return _emit({"descent": report.to_json()}, "ok", args.pretty)


def cmd_height(args) -> int:
    try:
        curve = Curve(args.curve)
    except ValueError as exc:
        raise CliError("singular_curve", str(exc)) from exc
    p = _parse_point(curve, args.point)
    h = canonical_height(p)
    payload = {
        "curve": curve.to_json(),
        "point": p.to_json(),
        "canonical_height": f"{h.value:.12f}",
        "abs_error": f"{h.abs_error:.3e}",
    }
    return _emit(payload, "ok", args.pretty)


@cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="biquad",
        description="Rank witnesses for y^2 = x^3 - N*x with N a sum of two fourth powers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indented JSON output")

    p = sub.add_parser("verify-identities", help="run the symbolic identity suite")
    p.add_argument("--mutate", action="store_true", help="perturb one coefficient (negative control)")
    common(p)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("theorem1", help="rank >= 2 witness at integers (m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=10, help="quartic-space search bound")
    common(p)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("theorem2", help="rank >= 4 witness at rational u")
    p.add_argument("--u", required=True, help='rational parameter, e.g. "2" or "5/3"')
    p.add_argument("--bound", type=int, default=2, help="quartic-space search bound")
    common(p)
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("search", help="twin fourth-power representations")
    p.add_argument("--limit", type=int, required=True, help="largest b in a^4 + b^4")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("descent", help="square-class rank lower bound")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--points-file", help="JSON-lines file of extra points on y^2 = x^3 - N*x")
    common(p)
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("height", help="canonical height of a point")
    p.add_argument("--curve", type=int, required=True, help="coefficient b of y^2 = x^3 + b*x")
    p.add_argument("--point", required=True, help='point as "(x,y)" with rational coordinates')
    common(p)
    p.set_defaults(func=cmd_height)

    return ap


def _fail(status: str, exc: Exception, exit_code: int = 1) -> int:
    sys.stdout.write(json.dumps({"status": status, "error": str(exc)}) + "\n")
    print(f"error: {exc}", file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        return _fail(exc.code, exc)
    except ArithDomainError as exc:
        return _fail("domain_error", exc)
    except Exception as exc:  # pragma: no cover - unexpected failure path
        return _fail("internal_error", exc, 2)


if __name__ == "__main__":
    sys.exit(main())
