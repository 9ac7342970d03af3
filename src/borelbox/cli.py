"""Command line front end: JSON in, JSON or pretty text out.

Exit codes: 0 success, 1 malformed input (a number too large for any
list included), 2 violated precondition (standard output closed before
the output was written included) or usage error, 3 resource budget
exceeded or memory exhausted.

`_COMMANDS` is the one table of subcommands: a row gives the handler's
name, the help line, the input and the options.  The input is None when
there is none, True for JSON, and for the seven conversions (which share
`_cmd_convert`) the public class whose `from_json_dict` reads it, "gens"
for a {"gens": [...]} object whose list is passed on, and the public
function to call.  An option is (kind, default): the kind `int`, a tuple
of choices or `bool` for a flag, the default `...` if it is required.

A subcommand imports only what it uses.  `check-partition` and `render`
run from this module alone, with `errors` and `partitions`.  The other
handlers, the help and the emitters live in `_handlers`, which
`__getattr__` loads on the first use of a handler or the help; each of those
handlers imports the library functions it calls when it runs, from their
`_HOME` modules.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from types import SimpleNamespace

from .errors import BorelboxError, InputError, UnsupportedDimension
from .partitions import Partition

_MAX_JSON_INT = 2**53 - 1

_FORMAT = {"--format": (("json", "pretty"), "json")}
_CAPPED = {**_FORMAT, "--budget": (int, None)}
_BOX = {"--d": (int, ...), "--n": (int, ...), "--budget": (int, None)}
_COMMANDS = {
    "check-partition": ("_cmd_check_partition", "report a partition's invariants", True, _FORMAT),
    "check-ideal": ("_cmd_check_ideal", "an ideal's canonical form and properties", True, _FORMAT),
    "bgens": ("_cmd_bgens", "minimal Borel generators of a strongly stable ideal", True, _FORMAT),
    "partition2ideal": ("_cmd_convert", "complement ideal of a partition",
                        ("Partition", "partition_to_ideal"), _FORMAT),
    "ss2ts": ("_cmd_convert", "totally symmetric partner of a strongly stable partition",
              ("Partition", "ss_to_ts_partition"), _CAPPED),
    "ts2ss": ("_cmd_convert", "strongly stable partner of a totally symmetric partition",
              ("Partition", "ts_to_ss_partition"), _CAPPED),
    "lambda": ("_cmd_convert", "prefix-sum image of the Borel generators",
               ("MonomialIdeal", "lambda_map"), _FORMAT),
    "omega": ("_cmd_convert", "ideal generated by the symmetrized antichain",
              ("FSet", "omega"), _FORMAT),
    "ideal2partition": ("_cmd_convert", "complement partition of an Artinian ideal",
                        ("MonomialIdeal", "ideal_to_partition"), _CAPPED),
    "closure": ("_cmd_convert", "Borel closure of a monomial set",
                ("gens", "borel_closure"), _CAPPED),
    "count": ("_cmd_count", "cumulative counts by box side", None,
              {**_BOX, "--predicate": (("ss", "ts", "all"), "all"), "--list": (bool, False),
               **_FORMAT}),
    "gf": ("_cmd_gf", "cell or orbit counting generating function", None,
           {**_BOX, "--d": (int, None), "--predicate": (("ss", "ts"), "ts"),
            "--formula": (bool, False), **_FORMAT}),
    "hawkes": ("_cmd_hawkes", "box transposition identity for the counts", None, _BOX),
    "render": ("_cmd_render", "ASCII picture of a partition", True,
               {"--style": (("ferrers", "matrix"), ...)}),
}

# The handlers and the help.  Only these load `_handlers`: the import system
# asks this module for `__path__` when `__main__` imports `main` from it.
_HANDLERS = frozenset([row[0] for row in _COMMANDS.values()] + ["_help"])


def __getattr__(name):
    """A handler or the help from `_handlers`, loaded on first use and
    kept in this module's globals (PEP 562)."""
    if name not in _HANDLERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _handlers
    value = globals()[name] = getattr(_handlers, name)
    return value


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
            with open(args.input) as file:
                text = file.read()
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


def _cmd_check_partition(args) -> None:
    partition = Partition.from_json_dict(_read_payload(args))
    report = {
        **partition.to_json_dict(),
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


def _cmd_render(args) -> None:
    partition = Partition.from_json_dict(_read_payload(args))
    text = render_partition(partition, args.style)
    if text:
        print(text)


def _usage_error(message: str):
    print(f"error: {message} (see --help)", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv=None) -> SimpleNamespace:
    """argv read against `_COMMANDS`: options spelled in full, as `--opt value`
    (the value even when it starts with `-`) or `--opt=value`, around one input path."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if "-h" in argv or "--help" in argv:
        __getattr__("_help")(command)
    if command is None:
        _usage_error(f"unknown subcommand {argv[0]!r}" if argv else "no subcommand given")
    handler, _, reads, options = _COMMANDS[command]
    values = {name[2:]: default for name, (_, default) in options.items()}
    paths, tokens = [], iter(argv[1:])
    for token in tokens:
        name, given, value = token.partition("=")
        kind = options.get(name, (None,))[0]
        if kind is None:
            if token[:1] == "-" and token != "-" or not reads or paths:
                _usage_error(f"{command}: unexpected argument {token!r}")
            paths.append(token)
            continue
        if kind is bool and given:
            _usage_error(f"{command}: {name} takes no value")
        if not given and kind is not bool:
            value = next(tokens, None)
        try:   # tuple.index raises ValueError for a value outside the choices
            values[name[2:]] = (True if kind is bool else int(value) if kind is int
                                else kind[kind.index(value)])
        except (TypeError, ValueError):
            _usage_error(f"{command}: {name} needs a valid value, got {value!r}")
    if ... in values.values():
        _usage_error(f"{command}: needs " + ", ".join(o for o in options if values[o[2:]] is ...))
    if reads:
        values["input"] = paths[0] if paths else "-"
    # The handler is looked up on each call, so that one wrapped in place
    # runs; `__getattr__` loads it the first time.
    return SimpleNamespace(command=command,
                           handler=globals().get(handler) or __getattr__(handler), **values)


def build_parser() -> SimpleNamespace:
    """The parser, whose `parse_args(argv)` gives the handler and its arguments."""
    return SimpleNamespace(parse_args=_parse_args)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (BorelboxError, ValueError, OverflowError) as exc:
        # An OverflowError is a number past what a list or range can hold.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, BorelboxError) else 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
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
