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

from borelbox import MonomialIdeal, NotArtinian, Partition
from borelbox.cli import run

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


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("command, payload", HUGE_INPUTS)
def test_a_huge_dimension_is_malformed_input(command, payload):
    proc = subprocess.run(
        [sys.executable, "-m", "borelbox", command], input=json.dumps(payload),
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


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
