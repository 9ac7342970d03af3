"""Command line front end: JSON in, JSON or pretty text out.

Exit codes: 0 success, 1 malformed input, 2 violated precondition
(standard output closed before the output was written included),
3 resource budget exceeded.

The seven conversions (`partition2ideal`, `ss2ts`, `ts2ss`, `lambda`,
`omega`, `ideal2partition`, `closure`) are the rows of `_CONVERSIONS`:
each names its input, the public library function it calls and its
help.  One handler reads the input, calls the function and prints the
result; the README's "Command line" table gives every subcommand's
input, function and output.  The other subcommands build reports, not
objects, and keep their own handlers.

A subcommand imports only what it uses: `check-partition` and `render`
need no more than this module's own imports, and every other handler
imports the library functions it calls when it runs (a conversion finds
each one's home module in the package's `_HOME`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import _HOME
from .errors import BorelboxError, InputError, UnsupportedDimension
from .partitions import Partition, _json_fields

_MAX_JSON_INT = 2**53 - 1

_PREDICATE_NAMES = {"ss": "strongly_stable", "ts": "totally_symmetric", "all": "all"}

# The conversion subcommands: (subcommand, input, public function, help,
# `--budget` help or None).  The input is the public class whose
# `from_json_dict` reads it, or "gens" for a {"gens": [...]} object whose
# list is passed on as it is.  Only rows with a `--budget` help take one.
_CONVERSIONS = (
    ("partition2ideal", "Partition", "partition_to_ideal",
     "complement ideal of a partition", None),
    ("ss2ts", "Partition", "ss_to_ts_partition",
     "totally symmetric partner of a strongly stable partition",
     "most cells the image may have; exceeding it exits with code 3"),
    ("ts2ss", "Partition", "ts_to_ss_partition",
     "strongly stable partner of a totally symmetric partition",
     "most cells the image may have; exceeding it exits with code 3"),
    ("lambda", "MonomialIdeal", "lambda_map",
     "prefix-sum image of the Borel generators", None),
    ("omega", "FSet", "omega", "ideal generated by the symmetrized antichain", None),
    ("ideal2partition", "MonomialIdeal", "ideal_to_partition",
     "complement partition of an Artinian ideal",
     "most complement cells to grow; exceeding it exits with code 3"),
    ("closure", "gens", "borel_closure", "Borel closure of a monomial set",
     "most monomials the closure may reach; exceeding it exits with code 3"),
)


def _public(name: str):
    """The public library object `name`, loaded from its home module by
    `__import__`, the call an import statement makes (so `-X importtime`
    lists the load, which it does not for `importlib.import_module`)."""
    return getattr(__import__(f"{__package__}.{_HOME[name]}", fromlist=(name,)), name)


def _jsonify(value):
    """Ints beyond exact double range become decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _MAX_JSON_INT else value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _emit_json(payload) -> None:
    print(json.dumps(_jsonify(payload)))


def _read_payload(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.input).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None


def render_partition(partition: Partition, style: str) -> str:
    """ASCII rendering: `ferrers` rows of # marks for two dimensions
    (widest row at the bottom, bottom row at second coordinate 0),
    `matrix` stack heights for three dimensions (row = second coordinate,
    column = first coordinate, entry = number of cells above that base
    position, trailing zeros omitted)."""
    if style == "ferrers":
        if partition.dim != 2:
            raise UnsupportedDimension("ferrers rendering needs dim=2")
        if not len(partition):
            return ""
        top = max(c[1] for c in partition.cells)
        widths = Counter(c[1] for c in partition.cells)
        return "\n".join("#" * widths[b] for b in range(top, -1, -1))
    if style == "matrix":
        if partition.dim != 3:
            raise UnsupportedDimension("matrix rendering needs dim=3")
        if not len(partition):
            return ""
        heights = Counter((c[0], c[1]) for c in partition.cells)
        rows = []
        for b in range(max(b for _, b in heights) + 1):
            row = []
            a = 0
            while (a, b) in heights:
                row.append(str(heights[(a, b)]))
                a += 1
            rows.append(" ".join(row))
        return "\n".join(rows)
    raise ValueError(f"unknown style {style!r}")


def _pretty_partition(partition: Partition) -> str:
    if partition.dim == 2:
        return render_partition(partition, "ferrers")
    if partition.dim == 3:
        return render_partition(partition, "matrix")
    return " ".join(str(cell) for cell in partition.cells)


def _emit(args, result) -> None:
    """Print a conversion's result: its JSON form, or under `--format
    pretty` a partition's drawing or the object's own `pretty()`."""
    if args.format != "pretty":
        _emit_json(result.to_json_dict())
    elif isinstance(result, Partition):
        print(_pretty_partition(result))
    else:
        print(result.pretty())


def _cmd_check_partition(args) -> None:
    partition = Partition.from_json_dict(_read_payload(args))
    report = {
        "dim": partition.dim,
        "cells": [list(c) for c in partition.cells],
        "bounding_side": partition.bounding_side(),
        "cell_count": len(partition),
        "orbit_count": partition.orbit_count(),
        "strongly_stable": partition.is_strongly_stable(),
        "totally_symmetric": partition.is_totally_symmetric(),
    }
    if args.format == "pretty":
        for key, value in report.items():
            if key != "cells":
                print(f"{key}: {value}")
    else:
        _emit_json(report)


def _cmd_check_ideal(args) -> None:
    from .ideals import MonomialIdeal
    ideal = MonomialIdeal.from_json_dict(_read_payload(args))
    degrees = ideal.pure_power_degrees()
    report = {
        "dim": ideal.dim,
        "gens": [list(g) for g in ideal.gens],
        "artinian": ideal.is_artinian(),
        "pure_power_degrees": list(degrees),
        "strongly_stable": ideal.is_strongly_stable(),
        "symmetric": ideal.is_symmetric(),
    }
    if args.format == "pretty":
        print(ideal.pretty())
        for key in ("artinian", "pure_power_degrees", "strongly_stable", "symmetric"):
            print(f"{key}: {report[key]}")
    else:
        _emit_json(report)


def _cmd_bgens(args) -> None:
    from .ideals import MonomialIdeal, monomial_str
    ideal = MonomialIdeal.from_json_dict(_read_payload(args))
    bgens = ideal.bgens()
    if args.format == "pretty":
        print("{" + ", ".join(monomial_str(m) for m in bgens) + "}")
    else:
        _emit_json({"bgens": [list(m) for m in bgens]})


def _cmd_convert(args) -> None:
    _, reads, function, _, budget_help = args.conversion
    data = _read_payload(args)
    if reads == "gens":
        (value,) = _json_fields(data, "closure input", gens=list)
    else:
        value = _public(reads).from_json_dict(data)
    budget = {} if budget_help is None else {"budget": args.budget}
    _emit(args, _public(function)(value, **budget))


def _cmd_count(args) -> None:
    from .enumeration import cumulative_counts, enumerate_partitions
    if args.list:
        predicate = _PREDICATE_NAMES[args.predicate or "all"]
        for partition in enumerate_partitions(args.d, args.n, predicate,
                                              budget=args.budget):
            _emit_json(partition.to_json_dict())
        return
    payload: dict = {"d": args.d, "n": args.n}
    for key, name in (("B", "ss"), ("T", "ts")):
        if args.predicate in (None, "all", name):
            payload[key] = list(cumulative_counts(args.d, args.n, _PREDICATE_NAMES[name],
                                                  budget=args.budget))
    if args.format == "pretty":
        for key in ("B", "T"):
            if key in payload:
                print(f"{key}: {' '.join(str(v) for v in payload[key])}")
    else:
        _emit_json(payload)


def _cmd_gf(args) -> None:
    from .enumeration import cell_gf_ss, orbit_gf_ts, qtspp
    if args.formula:
        if args.d not in (None, 3):
            raise InputError("the boxed product formula is defined for d=3")
        poly = qtspp(args.n, budget=args.budget)
        payload = {"d": 3, "n": args.n, "kind": "product",
                   "coefficients": list(poly.coeffs)}
    else:
        if args.d is None:
            raise InputError("--d is required unless --formula is given")
        if args.predicate == "ss":
            poly = cell_gf_ss(args.d, args.n, budget=args.budget)
            kind = "cell"
        else:
            poly = orbit_gf_ts(args.d, args.n, budget=args.budget)
            kind = "orbit"
        payload = {"d": args.d, "n": args.n, "kind": kind,
                   "coefficients": list(poly.coeffs)}
    if args.format == "pretty":
        print(" ".join(str(c) for c in payload["coefficients"]))
    else:
        _emit_json(payload)


def _cmd_hawkes(args) -> None:
    from .enumeration import hawkes_counts
    left, right = hawkes_counts(args.d, args.n, budget=args.budget)
    _emit_json({"d": args.d, "n": args.n, "left": left, "right": right,
                "equal": left == right})


def _cmd_render(args) -> None:
    partition = Partition.from_json_dict(_read_payload(args))
    text = render_partition(partition, args.style)
    if text:
        print(text)


def _add_io_arguments(parser) -> None:
    parser.add_argument("input", nargs="?", default="-",
                        help="input file (JSON); '-' or omitted reads standard input")
    parser.add_argument("--format", choices=("json", "pretty"), default="json")


def _add_box_arguments(parser, *, d_required: bool = True) -> None:
    parser.add_argument("--d", type=int, required=d_required,
                        help="ambient dimension")
    parser.add_argument("--n", type=int, required=True, help="box side")
    parser.add_argument("--budget", type=int, default=None,
                        help="search node budget (the product degree for gf --formula); "
                             "exceeding it exits with code 3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelbox",
        description="Boxed partitions, strongly stable monomial ideals, and "
                    "their side-preserving bijection onto totally symmetric "
                    "partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    reports = (
        ("check-partition", _cmd_check_partition, "validate a partition and report its invariants"),
        ("check-ideal", _cmd_check_ideal, "canonicalize an ideal and report its properties"),
        ("bgens", _cmd_bgens, "minimal Borel generators of a strongly stable ideal"),
    )
    for name, handler, help_text in reports:
        p = sub.add_parser(name, help=help_text)
        _add_io_arguments(p)
        p.set_defaults(handler=handler)

    for row in _CONVERSIONS:
        name, _, _, help_text, budget_help = row
        p = sub.add_parser(name, help=help_text)
        _add_io_arguments(p)
        if budget_help is not None:
            p.add_argument("--budget", type=int, default=None, help=budget_help)
        p.set_defaults(handler=_cmd_convert, conversion=row)

    p = sub.add_parser("count", help="cumulative counts by box side")
    _add_box_arguments(p)
    p.add_argument("--predicate", choices=("ss", "ts", "all"), default=None)
    p.add_argument("--list", action="store_true",
                   help="stream the matching partitions, one JSON object per line")
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("gf", help="cell or orbit counting generating function")
    _add_box_arguments(p, d_required=False)
    p.add_argument("--predicate", choices=("ss", "ts"), default="ts")
    p.add_argument("--formula", action="store_true",
                   help="evaluate the d=3 boxed product formula instead of enumerating")
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(handler=_cmd_gf)

    p = sub.add_parser("hawkes", help="box transposition identity for the counts")
    _add_box_arguments(p)
    p.set_defaults(handler=_cmd_hawkes)

    p = sub.add_parser("render", help="ASCII picture of a partition")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--style", choices=("ferrers", "matrix"), required=True)
    p.set_defaults(handler=_cmd_render)

    return parser


_built: tuple = (None, None)   # (the builder that built it, the parser)


def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` and shared by the later ones
    in the process: parsing leaves it unchanged.  It is built again when
    the module's `build_parser` has been replaced, so a wrapped builder,
    and the handlers bound while it was in place, take effect (the
    per-layer tracer in perfbench/tracer.py wraps both)."""
    global _built
    if _built[0] is not build_parser:
        _built = (build_parser, build_parser())
    return _built[1]


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.handler(args)
    except BorelboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`borelbox gf ... | head`).  Point stdout at
        # the null device so the flush at exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print("error: standard output was closed before the output was written",
              file=sys.stderr)
        code = 2
    sys.exit(code)
