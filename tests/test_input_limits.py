"""Inputs whose size is small but whose dimension is huge: a JSON object
names its `dim` in a few bytes, so nothing may be built at that length
before the dimension is checked, and the empty partition answers its
predicates at once."""

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from borelbox import (MonomialIdeal, NotArtinian, Partition, count_ss, count_ts,
                      cumulative_counts, enumerate_partitions, hawkes_counts)
from borelbox.cli import run
from borelbox.partitions import MAX_DIM

SRC = Path(__file__).resolve().parents[1] / "src"
HUGE = 2884970494800
# Address space for the child: ample for the interpreter, far short of a
# list with HUGE entries, so an allocation at that length fails at once.
ADDRESS_SPACE = 1 << 30

HUGE_INPUTS = [
    ("lambda", {"dim": HUGE, "gens": []}),
    ("check-ideal", {"dim": HUGE, "gens": []}),
    ("partition2ideal", {"dim": HUGE, "cells": []}),
    ("omega", {"dim": HUGE, "side": 1, "elements": []}),
]


# Boxes of huge dimension and no more than one cell: each cell is a
# d-tuple, so the dimension is checked before any table is built.
HUGE_BOXES = [
    ["count", "--d", str(HUGE), "--n", "0"],
    ["count", "--d", str(HUGE), "--n", "1", "--list", "--budget", "10"],
    ["gf", "--d", str(HUGE), "--n", "1", "--budget", "10"],
    ["hawkes", "--d", "2", "--n", str(HUGE)],
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def assert_malformed_in_a_small_address_space(argv, text=""):
    """`python -m borelbox` with `argv` and `text` on standard input, in
    a child process limited to ADDRESS_SPACE, exits 1 with one error line."""
    proc = subprocess.run(
        [sys.executable, "-m", "borelbox", *argv], input=text,
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, payload", HUGE_INPUTS)
def test_a_huge_dimension_is_malformed_input(command, payload):
    assert_malformed_in_a_small_address_space([command], json.dumps(payload))


@pytest.mark.parametrize("argv", HUGE_BOXES, ids=" ".join)
def test_a_box_of_huge_dimension_is_malformed_input(argv):
    assert_malformed_in_a_small_address_space(argv)


def test_the_box_functions_refuse_a_dimension_past_the_limit_at_the_call():
    # The listing refuses at the call, not at its first partition; the
    # identity checks its transposed box (n - 1, d + 1) before either count.
    for call in (lambda: enumerate_partitions(MAX_DIM + 1, 1), lambda: count_ss(MAX_DIM + 1, 0),
                 lambda: count_ts(MAX_DIM + 1, 0), lambda: hawkes_counts(2, MAX_DIM + 2)):
        with pytest.raises(ValueError, match=f"dimension must be at most {MAX_DIM}, got"):
            call()
    assert cumulative_counts(MAX_DIM, 1, "all") == (1, 2)
    assert count_ss(MAX_DIM, 1) == count_ts(MAX_DIM, 1) == 2


def test_a_library_fset_of_huge_dimension_is_refused_at_once():
    # The pure power has HUGE entries; it is looked for, never built.
    script = ("from borelbox import FSet, InvalidFSet\n"
              "try:\n"
              f"    FSet({HUGE}, 1, ())\n"
              "except InvalidFSet as exc:\n"
              "    print(exc)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"missing the pure power x{HUGE}^1\n"


def test_the_largest_dimension_checks_the_empty_partition_at_once():
    saved, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(json.dumps({"dim": 4096, "cells": []}))
    start = time.perf_counter()
    try:
        with redirect_stdout(out):
            assert run(["check-partition"]) == 0
    finally:
        sys.stdin = saved
    assert time.perf_counter() - start < 2
    report = json.loads(out.getvalue())
    assert report["strongly_stable"] is report["totally_symmetric"] is True


def test_the_empty_partition_answers_its_predicates_at_once():
    empty = Partition(30000)
    start = time.perf_counter()
    assert empty.is_strongly_stable() and empty.is_totally_symmetric()
    assert MonomialIdeal(HUGE).is_symmetric()
    assert time.perf_counter() - start < 2


def test_a_zero_ideal_names_its_first_missing_pure_power_at_once():
    zero = MonomialIdeal(HUGE)
    assert not zero.is_artinian()
    with pytest.raises(NotArtinian, match="x1 "):
        zero.artinian_side()
    # Pure powers of x1 and x2 only: x3 is the first one missing.
    partial = MonomialIdeal(4, [(2, 0, 0, 0), (0, 3, 0, 0), (1, 0, 1, 1)])
    assert not partial.is_artinian()
    with pytest.raises(NotArtinian, match="x3 "):
        partial.artinian_side()
    assert MonomialIdeal(2, [(2, 0), (0, 3), (1, 1)]).artinian_side() == 3
