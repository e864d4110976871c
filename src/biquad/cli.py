"""Command-line front end.

Every subcommand prints a single JSON document on stdout (integers as
decimal strings), diagnostics go to stderr, and the exit code is 0 iff
the status is ok.  Bad input gets a typed status and exit code 1; an
argument outside a function's domain (such as ``descent --N 1``, or a
``--bound`` below 0 or above 10^4, or an integer flag or a digit run of
a rational with more digits than ``sys.get_int_max_str_digits()`` lets
``int`` read, or a theorem1 or theorem2 parameter whose N, or one of
whose witness point coordinates, would have more digits than that lets
``str`` print, or a ``--point`` coordinate whose decimal exponent alone
puts it past that many digits) gives ``domain_error``.  A negative
fraction must be joined to its flag, as in ``--u=-5/3``: argparse reads
``--u -5/3`` as a missing value and exits 2 with a usage error.
Negative integers such as ``--m -2`` parse either way.  Past argparse,
any other exception is a bug, never bad input: it prints status
``internal_error`` and exits 2.

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
import math
import re
import sys
from fractions import Fraction
from functools import cache, partial

from .arith import ArithDomainError
from .curves import Curve, Point, on_curve
from .descent import check_n, rank_lower_bound
from .families import (
    EULER_FACTORS,
    GENERAL_FACTORS,
    DegenerateSpecializationError,
    euler_family_points,
    euler_n,
    general_family_points,
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


def _rational(text: str, what: str) -> Fraction:
    """text as Fraction reads it, with two guards on size.

    A run of more digits than int reads is read as 1.  Fraction rejects
    every text with such a run, so one that parses after the swap is a
    domain_error, and one that still does not (bad syntax, or 1/0) a
    parse_error.  No 10**exp is built first: the mantissa has fewer than
    len(text) digits, so |exp| > limit + len(text) puts the numerator or
    denominator past the limit of what str() prints (a domain_error naming
    what) unless the mantissa is 0."""
    limit = sys.get_int_max_str_digits()
    short = re.sub(
        r"\d+(?:_\d+)*",
        lambda run: "1" if 0 < limit < len(run[0].replace("_", "")) else run[0],
        text,
    )
    m = re.fullmatch(r"(.*)e([-+]?\d+(?:_\d+)*)\s*", short, re.IGNORECASE | re.DOTALL)
    try:
        huge = bool(limit and m) and abs(int(m[2])) > limit + len(short)
        r = Fraction(m[1] + "e0" if huge else short)  # the mantissa, parsed as in text
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("parse_error", f"bad rational {text!r}") from exc
    if short != text:
        raise CliError("domain_error", f"an integer has more than {limit} digits")
    if huge and r:
        raise CliError("domain_error", f"{what} would have more than {limit} digits")
    return r


def _integer(text: str) -> int:
    """int(text), the type of every integer flag.  A decimal integer too long
    for int to read is a domain_error; anything else int rejects stays
    argparse's usage error (exit 2), with the message int itself would get."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[-+]?\d+(?:_\d+)*\s*", text):
            limit = sys.get_int_max_str_digits()
            raise CliError("domain_error", f"an integer has more than {limit} digits") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_point(curve: Curve, text: str) -> Point:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise CliError("parse_error", f"point must look like '(x,y)': {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise CliError("parse_error", f"point must have two coordinates: {text!r}")
    p = Point(curve, *(_rational(s.strip(), "a coordinate") for s in parts))
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


def _witness(args, curve: Curve, points: list[Point], parts: list[int], u=None) -> int:
    """Emit the rank witness of specialized family points on one curve.

    parts, N's factors from the specialization, feed the descent.
    theorem2 passes its parameter u, which adds "u" and "N_of_u".
    """
    # a point can have more digits than N: P2 of theorem1 has about 5/4 as many
    _check_digits("a point coordinate", (
        n for p in points for c in (p.x, p.y) for n in (c.numerator, c.denominator)
    ))
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
        "verdict": f"rank >= {len(points)}" if reg["independent"] else "inconclusive",
    }
    return _emit(payload, "ok", args.pretty)


_ten_to = cache(partial(pow, 10))  # 10**limit, once per limit value


def _check_digits(what: str, values) -> None:
    """domain_error if one of the integers values has more digits than str()
    prints (0: no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and any(abs(v) >= _ten_to(limit) for v in values):
        raise CliError("domain_error", f"{what} would have more than {limit} digits")


def _check_n_digits(params: tuple[int, ...], factors) -> None:
    """domain_error, before any specialization, if N, the product of the
    family's factor forms at params, has more digits than str() prints.
    N is at least its largest |parameter| (for theorem2, f1 >= max(|p|, q)
    and f2..f4 >= 1: families.euler_degenerate), so a parameter past the
    limit needs no N."""
    _check_digits("N", params)
    _check_digits("N", [math.prod(f.evaluate(*params) for f in factors)])


def cmd_theorem1(args) -> int:
    _check_n_digits((args.m, args.n), GENERAL_FACTORS)
    curve, points, parts = specialize_general(general_family_points(), args.m, args.n)
    return _witness(args, curve, points, parts)


def cmd_theorem2(args) -> int:
    u = _rational(args.u, "N")
    _check_n_digits((u.numerator, u.denominator), EULER_FACTORS)
    curve, points, parts = specialize_euler(euler_family_points(), u)
    return _witness(args, curve, points, parts, u)


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
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--bound", type=_integer, default=10, help="quartic-space search bound")
    common(p)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("theorem2", help="rank >= 4 witness at rational u")
    p.add_argument("--u", required=True, help='rational parameter, e.g. "2" or "5/3"')
    p.add_argument("--bound", type=_integer, default=2, help="quartic-space search bound")
    common(p)
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("search", help="twin fourth-power representations")
    p.add_argument("--limit", type=_integer, required=True, help="largest b in a^4 + b^4")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("descent", help="square-class rank lower bound")
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--bound", type=_integer, default=10)
    p.add_argument("--points-file", help="JSON-lines file of extra points on y^2 = x^3 - N*x")
    common(p)
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("height", help="canonical height of a point")
    p.add_argument("--curve", type=_integer, required=True, help="coefficient b of y^2 = x^3 + b*x")
    p.add_argument("--point", required=True, help='point as "(x,y)" with rational coordinates')
    common(p)
    p.set_defaults(func=cmd_height)

    return ap


def _fail(status: str, exc: Exception, exit_code: int = 1) -> int:
    sys.stdout.write(json.dumps({"status": status, "error": str(exc)}) + "\n")
    print(f"error: {exc}", file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    try:
        # argparse passes a CliError from a type function on to here
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        return _fail(exc.code, exc)
    except DegenerateSpecializationError as exc:  # before its base, ArithDomainError
        return _fail("degenerate", exc)
    except ArithDomainError as exc:
        return _fail("domain_error", exc)
    except Exception as exc:  # a bug: bad input past argparse has a status above
        return _fail("internal_error", exc, 2)


if __name__ == "__main__":
    sys.exit(main())
