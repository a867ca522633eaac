"""Command-line front end.

Subcommands: family, check, oracle, label, series, trees, errata.
Exit codes: 0 success / all checks pass, 1 identity or diff failure,
2 usage or input error (including a point a check cannot use), or a check
whose range is empty, 141 stdout closed early (`gramcalc ... | head`; 128 +
SIGPIPE, as a shell reports a process that SIGPIPE ended).  All output is
deterministic for fixed inputs; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from fractions import Fraction
from functools import cache

from . import errata, structures
from .errors import GramcalcError, InvalidPoint
from .families import (
    FAMILY_NAMES,
    family_poly,
)
from .laurent import LaurentPoly
from .scalar import exponent_notation
from .series import (
    CLOSED_FORM_NAMES,
    ELEMENTARY_NAMES,
    RADICAL_CLOSED_FORMS,
    RadicalPoint,
    TruncSeries,
    closed_form_series,
    elementary_series,
)


def _parse_assignments(items) -> dict:
    """Parse repeated/comma-joined var=rational assignments; a key may occur once."""
    values = {}
    for item in items or ():
        for piece in item.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ValueError(f"expected var=rational, got {piece!r}")
            var, _, raw = piece.partition("=")
            var, raw = var.strip(), raw.strip()
            if var in values:
                raise ValueError(f"{var!r} is assigned more than once")
            if exponent_notation(raw):
                raise ValueError(f"{var!r} = {raw!r}: exponent notation is refused")
            try:
                values[var] = Fraction(raw)
            except ZeroDivisionError:
                raise ValueError(f"{var!r} = {raw!r} has a zero denominator") from None
    return values


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _json(value, **options) -> str:
    """json.dumps(value), imported on first use: text output never loads json."""
    import json

    return json.dumps(value, **options)


def _emit_poly(poly: LaurentPoly, fmt: str):
    if fmt == "json":
        print(_json(poly.to_json()))
    elif fmt == "csv":
        print("monomial,coefficient")
        for exps, coeff in poly.sorted_terms():
            monomial = LaurentPoly(poly.vars, {exps: 1}).render()
            print(f"{monomial},{coeff}")
        if poly.is_zero():
            print("0,0")
    else:
        print(poly.render())


def cmd_family(args) -> int:
    poly = family_poly(args.name, args.n)
    _emit_poly(poly, args.format)
    return 0


def _report_line(report) -> str:
    base = f"{report.status:4s} {report.name} [n={report.lo}..{report.hi}] ({report.millis} ms)"
    if report.witness:
        base += f" witness={_json(report.witness)}"
    return base


def cmd_check(args) -> int:
    # imported here: its catalog is built at import, and only `check` reads it
    from . import identities

    points = _parse_assignments(args.points)
    # before the bound warning: a bad point prints its error alone
    identities.check_points(
        points, identities.IDENTITY_NAMES if args.name == "all" else (args.name,)
    )
    _warn_bound(args.oracle_max_n)
    max_n = identities.DEFAULT_MAX_N if args.max_n is None else args.max_n
    oracle_max_n = (
        identities.DEFAULT_ORACLE_MAX_N if args.oracle_max_n is None else args.oracle_max_n
    )
    if args.name == "all":
        reports = identities.run_all(max_n=max_n, points=points, oracle_max_n=oracle_max_n)
    else:
        reports = [
            identities.run_identity(
                args.name, max_n=max_n, points=points, oracle_max_n=oracle_max_n
            )
        ]
    if args.format == "json":
        print(_json([r.to_json() for r in reports], indent=2))
    else:
        for report in reports:
            print(_report_line(report))
        passed = sum(r.passed for r in reports)
        print(f"{passed}/{len(reports)} identities pass")
    invalid = [r for r in reports if r.status == "invalid"]
    for report in invalid:
        print(f"error: {report.name}: {report.witness['error']}", file=sys.stderr)
    empty = [r.name for r in reports if r.status == "empty"]
    if empty:
        print(
            f"error: empty range (raise --max-n or --oracle-max-n): {', '.join(empty)}",
            file=sys.stderr,
        )
    if invalid or empty:
        return 2
    return 0 if all(r.passed for r in reports) else 1


def _warn_bound(bound):
    if bound is not None and bound > structures.DEFAULT_ENUM_BOUND:
        print(f"warning: enumeration bound raised to {bound}", file=sys.stderr)


def cmd_oracle(args) -> int:
    if args.diff and args.format == "csv":
        raise ValueError("oracle --diff prints text or json, not csv")
    _warn_bound(args.bound)
    oracle = structures.family_poly_oracle(args.name, args.n, bound=args.bound)
    if not args.diff:
        _emit_poly(oracle, args.format)
        return 0
    grammar_side = family_poly(args.name, args.n)
    equal = oracle == grammar_side
    if args.format == "json":
        print(
            _json(
                {
                    "family": args.name,
                    "n": args.n,
                    "grammar": grammar_side.to_json(),
                    "oracle": oracle.to_json(),
                    "equal": equal,
                }
            )
        )
    else:
        print(f"grammar: {grammar_side.render()}")
        print(f"oracle:  {oracle.render()}")
        print("equal" if equal else "DIFFER")
    return 0 if equal else 1


def _parse_permutation(text: str):
    """Digits (314562), or entries separated by commas or spaces (10,2,1)."""
    text = text.strip()
    parts = text.replace(",", " ").split() if "," in text or " " in text else list(text)
    if not parts or not all(part.isdecimal() for part in parts):
        raise ValueError(f"cannot read permutation from {text!r}")
    return tuple(map(int, parts))


def cmd_label(args) -> int:
    perm = _parse_permutation(args.permutation)
    labels, weight = structures.label_permutation(perm, args.scheme)
    line = structures.format_labeling(perm, labels)
    if args.format == "json":
        print(
            _json(
                {
                    "permutation": list(perm),
                    "scheme": args.scheme,
                    "labels": labels,
                    "weight": weight.to_json(),
                }
            )
        )
    else:
        print(f"{line} | {weight.render()}")
    return 0


def _series_by_name(name: str, order: int, points: dict) -> TruncSeries:
    if name in ELEMENTARY_NAMES:
        return elementary_series(name, order)
    if name in CLOSED_FORM_NAMES:
        point = RadicalPoint(values=points) if points else None
        return closed_form_series(name, order, point)
    if name in FAMILY_NAMES:
        return TruncSeries([family_poly(name, n) for n in range(order + 1)])
    raise ValueError(
        f"unknown series {name!r}; elementary {ELEMENTARY_NAMES}, "
        f"closed forms {CLOSED_FORM_NAMES}, or a family name"
    )


def cmd_series(args) -> int:
    points = _parse_assignments(args.at)
    # a radical form's keys are checked before it is built at the point
    reads = RADICAL_CLOSED_FORMS.get(args.name)
    series = None
    if reads is None:
        series = _series_by_name(args.name, args.order, points)
        reads = tuple(dict.fromkeys(v for c in series.coeffs for v in c.vars))
        if points:  # first, so that a variable left without a value is named
            values = series.evaluate_coeffs(points)
            series = TruncSeries([LaurentPoly.const(v) for v in values])
    for key in points:
        if key not in reads:
            raise InvalidPoint(
                f"point {key!r}: series {args.name} reads {', '.join(reads)}, not {key!r}"
                if reads
                else f"point {key!r}: series {args.name} reads no point"
            )
    if series is None:
        series = _series_by_name(args.name, args.order, points)
    if args.format == "json":
        print(_json(series.to_json()))
    elif args.format == "csv":
        print("n,coefficient")
        for n, coeff in enumerate(series.coeffs):
            print(f"{n},{coeff.render()}")
    else:
        for n, coeff in enumerate(series.coeffs):
            print(f"{n}: {coeff.render()}")
    return 0


def cmd_trees(args) -> int:
    _warn_bound(args.bound)
    if args.count:
        print(structures.count_structures(args.kind, args.n, bound=args.bound))
        return 0
    for structure in structures.enumerate_structures(args.kind, args.n, bound=args.bound):
        print(_json(structures.structure_to_json(args.kind, structure)))
    return 0


def cmd_errata(args) -> int:
    if args.format == "json":
        print(_json([dict(entry) for entry in errata.ERRATA], indent=2))
    else:
        for entry in errata.ERRATA:
            print(f"[{entry['id']}] {entry['location']}")
            print(f"  printed:   {entry['printed']}")
            print(f"  corrected: {entry['corrected']}")
            print(f"  confirmed: {entry['confirmation']}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="gramcalc",
        description=(
            "Exact grammar-derivative calculus: polynomial families, "
            "brute-force oracles, and a mechanical identity verifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="print one family polynomial")
    fam.add_argument("name", choices=FAMILY_NAMES)
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--format", choices=("text", "json", "csv"), default="text")
    fam.set_defaults(func=cmd_family)

    chk = sub.add_parser("check", help="run identity checks")
    chk.add_argument("name", help="identity name or 'all'")
    # None: the defaults of gramcalc.identities, which cmd_check imports
    chk.add_argument("--max-n", type=_nonnegative_int)
    chk.add_argument(
        "--oracle-max-n",
        type=_nonnegative_int,
        help="cap for enumeration-backed checks",
    )
    chk.add_argument(
        "--points",
        action="append",
        help="var=rational overrides for radical-point checks (repeat or comma-join)",
    )
    chk.add_argument("--format", choices=("text", "json"), default="text")
    chk.set_defaults(func=cmd_check)

    orc = sub.add_parser("oracle", help="brute-force family values")
    orc.add_argument("name", choices=FAMILY_NAMES)
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--diff", action="store_true", help="compare with the grammar route")
    orc.add_argument(
        "--bound", type=_nonnegative_int, default=None, help="raise the enumeration bound"
    )
    orc.add_argument("--format", choices=("text", "json", "csv"), default="text")
    orc.set_defaults(func=cmd_oracle)

    lab = sub.add_parser("label", help="grammatical labeling of a permutation")
    lab.add_argument("scheme", choices=structures.LABEL_SCHEMES)
    lab.add_argument("permutation", help="digits (314562) or comma-separated")
    lab.add_argument("--format", choices=("text", "json"), default="text")
    lab.set_defaults(func=cmd_label)

    ser = sub.add_parser("series", help="truncated generating functions")
    ser.add_argument("name")
    ser.add_argument("--order", type=int, default=12)
    ser.add_argument(
        "--at",
        action="append",
        help=(
            "var=rational point: the radical point of gessel_L and bivariate_L; "
            "any other series is evaluated coefficientwise there"
        ),
    )
    ser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ser.set_defaults(func=cmd_series)

    tre = sub.add_parser("trees", help="list or count combinatorial structures")
    tre.add_argument("kind", choices=structures.STRUCTURE_KINDS)
    tre.add_argument("--n", type=int, required=True)
    tre.add_argument("--count", action="store_true")
    tre.add_argument("--bound", type=_nonnegative_int, default=None)
    tre.set_defaults(func=cmd_trees)

    err = sub.add_parser("errata", help="documented corrections this suite verifies")
    err.add_argument("--format", choices=("text", "json"), default="text")
    err.set_defaults(func=cmd_errata)

    return parser


def main(argv=None) -> int:
    # freeze the heap at exit rather than let finalization sweep it: the OS
    # takes the memory back, and no gramcalc object has a finalizer.  Once per
    # process, first, so usage errors too; hooks registered earlier run after.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so that the
        # interpreter's last flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GramcalcError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
