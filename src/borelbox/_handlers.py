"""The subcommand handlers that load another library module anyway, the
help and the emitters.  `cli.__getattr__` loads this module on the first
use of one of its names, so `check-partition` and `render` run without
compiling it.  The front end's names are read from `cli` on each call, so
one wrapped in place there is the one called, whenever this module loaded.
"""

from __future__ import annotations

import json

from . import _HOME, cli
from .errors import InputError
from .partitions import Partition, _json_fields

_PREDICATE_NAMES = {"ss": "strongly_stable", "ts": "totally_symmetric", "all": "all"}


def _public(name: str):
    """The public library object `name`, loaded from its home module by
    `__import__`, the call an import statement makes (so `-X importtime`
    lists the load, which it does not for `importlib.import_module`)."""
    return getattr(__import__(f"{__package__}.{_HOME[name]}", fromlist=(name,)), name)


def _pretty_partition(partition: Partition) -> str:
    if partition.dim == 2:
        return cli.render_partition(partition, "ferrers")
    if partition.dim == 3:
        return cli.render_partition(partition, "matrix")
    return " ".join(str(cell) for cell in partition.cells)


def _emit_partition(partition: Partition) -> None:
    """Print a partition's JSON form as it is: a cell with coordinate m has
    m cells below it along that axis, so no coordinate reaches 2^53 and
    none needs `_jsonify`."""
    print(json.dumps(partition.to_json_dict()))


class _CellTexts(dict):
    """Each cell's JSON text, made on first use."""

    def __missing__(self, cell):
        text = self[cell] = json.dumps(list(cell))
        return text


def _emit_listing(dim: int, partitions) -> None:
    """Print each partition as :func:`_emit_partition` does, byte for
    byte, but joining cached cell texts: a listed partition is its
    parent's cells plus one cell or orbit, so encoding every cell of every
    line would cost most of the listing's time."""
    texts = _CellTexts()
    head = f'{{"dim": {json.dumps(dim)}, "cells": ['
    for partition in partitions:
        print(head + ", ".join(map(texts.__getitem__, partition.cells)) + "]}")


def _emit(args, result) -> None:
    """Print a conversion's result: its JSON form, or under `--format
    pretty` a partition's drawing or the object's own `pretty()`."""
    if args.format == "pretty":
        print(_pretty_partition(result) if isinstance(result, Partition) else result.pretty())
    elif isinstance(result, Partition):
        _emit_partition(result)
    else:
        cli._emit_json(result.to_json_dict())


def _cmd_check_ideal(args) -> None:
    from .ideals import MonomialIdeal
    ideal = MonomialIdeal.from_json_dict(cli._read_payload(args))
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
        cli._emit_json(report)


def _cmd_bgens(args) -> None:
    from .ideals import MonomialIdeal, monomial_str
    ideal = MonomialIdeal.from_json_dict(cli._read_payload(args))
    bgens = ideal.bgens()
    if args.format == "pretty":
        print("{" + ", ".join(monomial_str(m) for m in bgens) + "}")
    else:
        cli._emit_json({"bgens": [list(m) for m in bgens]})


def _cmd_convert(args) -> None:
    reads, function = cli._COMMANDS[args.command][2]
    data = cli._read_payload(args)
    if reads == "gens":
        (value,) = _json_fields(data, "closure input", gens=list)
    else:
        value = _public(reads).from_json_dict(data)
    budget = {"budget": args.budget} if hasattr(args, "budget") else {}
    _emit(args, _public(function)(value, **budget))


def _cmd_count(args) -> None:
    if args.list and args.format == "pretty":
        cli._usage_error("count: --list prints JSON lines; --format pretty applies to counts")
    from .enumeration import cumulative_counts, enumerate_partitions
    if args.list:
        predicate = _PREDICATE_NAMES[args.predicate]
        _emit_listing(args.d, enumerate_partitions(args.d, args.n, predicate,
                                                   budget=args.budget))
        return
    payload: dict = {"d": args.d, "n": args.n}
    for key, name in (("B", "ss"), ("T", "ts")):
        if args.predicate in ("all", name):
            payload[key] = list(cumulative_counts(args.d, args.n, _PREDICATE_NAMES[name],
                                                  budget=args.budget))
    if args.format == "pretty":
        for key in ("B", "T"):
            if key in payload:
                print(f"{key}: {' '.join(str(v) for v in payload[key])}")
    else:
        cli._emit_json(payload)


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
        cli._emit_json(payload)


def _cmd_hawkes(args) -> None:
    from .enumeration import hawkes_counts
    left, right = hawkes_counts(args.d, args.n, budget=args.budget)
    cli._emit_json({"d": args.d, "n": args.n, "left": left, "right": right,
                    "equal": left == right})


def _help(command: str | None):
    """Print the help for `command`, or the list of subcommands when it is None."""
    if command is None:
        usage = "<subcommand> [options] [input]"
        rows = [(name, row[1]) for name, row in cli._COMMANDS.items()]
    else:
        _, text, reads, options = cli._COMMANDS[command]
        usage = f"{command} [options]{' [input]' * bool(reads)}\n\n{text}"
        rows = [("input", "JSON file; '-' or omitted reads standard input")] * bool(reads)
        for name, (kind, default) in options.items():
            value = "" if kind is bool else " INT" if kind is int else " {%s}" % ",".join(kind)
            rows.append((name + value, "required" if default is ... else ""))
    width = max(len(name) for name, _ in rows)
    print(f"usage: borelbox {usage}\n", *(f"  {name:<{width}}  {about}".rstrip()
                                          for name, about in rows), sep="\n")
    raise SystemExit(0)
