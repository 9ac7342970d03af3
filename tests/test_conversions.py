"""The conversion subcommands against the library, row by row of the
CLI's conversion table, and the four JSON input readers against
malformed objects."""

import io
import json
import sys

import pytest

import borelbox
from borelbox import (
    FSet,
    MonomialIdeal,
    Partition,
    lambda_map,
    partition_to_ideal,
    ss_to_ts_partition,
)
from borelbox.cli import _COMMANDS, _pretty_partition, run

# The conversion rows of the subcommand table: (subcommand, input, public
# function, whether it takes `--budget`).
CONVERSIONS = [(name, *row[2], "--budget" in row[3]) for name, row in _COMMANDS.items()
               if isinstance(row[2], tuple)]

# One strongly stable partition per pretty form: a Ferrers diagram (d=2),
# a stack-height matrix (d=3) and a cell list (d=4).
STABLE = [
    Partition(2, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]),
    Partition(3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 0, 2)]),
    Partition(4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]),
]


def _payloads(reads, name):
    """JSON inputs for a conversion row: its input shape built from each
    partition in STABLE (its totally symmetric partner for ts2ss)."""
    for partition in STABLE:
        ideal = partition_to_ideal(partition)
        if reads == "Partition":
            source = ss_to_ts_partition(partition) if name == "ts2ss" else partition
            yield source.to_json_dict()
        elif reads == "MonomialIdeal":
            yield ideal.to_json_dict()
        elif reads == "FSet":
            yield lambda_map(ideal).to_json_dict()
        else:
            yield {"gens": [list(m) for m in ideal.bgens()]}


def call(argv, text):
    """Exit code, stdout and stderr of one in-process CLI call."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    out, err = sys.stdout, sys.stderr
    try:
        code = run(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def test_the_table_lists_the_seven_conversions():
    assert sorted(row[0] for row in CONVERSIONS) == sorted(
        ["partition2ideal", "ss2ts", "ts2ss", "lambda", "omega", "ideal2partition",
         "closure"])
    assert all(_COMMANDS[row[0]][0] == "_cmd_convert" for row in CONVERSIONS)
    for _, reads, function, _ in CONVERSIONS:
        assert function in borelbox.__all__
        assert reads == "gens" or reads in borelbox.__all__


@pytest.mark.parametrize("row", CONVERSIONS, ids=[row[0] for row in CONVERSIONS])
def test_each_conversion_prints_its_library_function(row):
    name, reads, function, budgeted = row
    apply = getattr(borelbox, function)
    for payload in _payloads(reads, name):
        value = (payload["gens"] if reads == "gens"
                 else getattr(borelbox, reads).from_json_dict(payload))
        expected = apply(value)
        text = json.dumps(payload)

        code, out, err = call([name], text)
        assert (code, err) == (0, "")
        assert out == json.dumps(expected.to_json_dict()) + "\n"

        code, out, err = call([name, "--format", "pretty"], text)
        assert (code, err) == (0, "")
        pretty = (_pretty_partition(expected) if isinstance(expected, Partition)
                  else expected.pretty())
        assert out == pretty + "\n"

        if not budgeted:
            with pytest.raises(SystemExit):
                call([name, "--budget", "5"], text)
        else:
            code, out, err = call([name, "--budget", "1000"], text)
            assert (code, out, err) == (0, json.dumps(expected.to_json_dict()) + "\n", "")


def test_the_pretty_forms_of_an_ideal_and_an_fset():
    ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert ideal.pretty() == "(y^2, xy, x^2)"
    assert FSet(2, 2, [(0, 2), (1, 1)]).pretty() == "{y^2, xy} in a box of side 2"


# A valid input for each reader.
READERS = {
    "partition": {"dim": 2, "cells": [[0, 0], [1, 0]]},
    "ideal": {"dim": 2, "gens": [[2, 0], [1, 1], [0, 2]]},
    "FSet": {"dim": 2, "side": 2, "elements": [[0, 2], [1, 1]]},
    "closure input": {"gens": [[0, 2]]},
}
# Every subcommand that reads an object, by the reader it goes through.
READS_WITH = {
    "partition": [["check-partition"], ["partition2ideal"], ["ss2ts"], ["ts2ss"],
                  ["render", "--style", "ferrers"]],
    "ideal": [["check-ideal"], ["bgens"], ["lambda"], ["ideal2partition"]],
    "FSet": [["omega"]],
    "closure input": [["closure"]],
}


def _malformed(good):
    """(field, payload) pairs: not an object, then each field missing or
    of the wrong kind (a boolean is not an integer)."""
    yield "", [good]
    for key, value in good.items():
        yield key, {k: v for k, v in good.items() if k != key}
        for wrong in (True, False, "2", None, 1.5, {}, [2] if isinstance(value, int) else 2):
            yield key, dict(good, **{key: wrong})


@pytest.mark.parametrize(
    "what, argv", [(what, argv) for what, subs in READS_WITH.items() for argv in subs],
    ids=[argv[0] for subs in READS_WITH.values() for argv in subs])
def test_each_reader_names_what_is_malformed(what, argv):
    # The valid input gets past the reader (ss2ts may still refuse it).
    assert call(argv, json.dumps(READERS[what]))[0] != 1
    for field, payload in _malformed(READERS[what]):
        code, out, err = call(argv, json.dumps(payload))
        assert code == 1 and out == "", payload
        assert len(err.splitlines()) == 1 and err.startswith("error: "), payload
        if field:
            assert repr(field) in err, payload
        else:
            assert err == f"error: {what} JSON must be an object\n"
