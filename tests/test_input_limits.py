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

from borelbox import (MonomialIdeal, NotArtinian, Partition, ResourceLimit, count_ss,
                      count_ts, cumulative_counts, enumerate_partitions, hawkes_counts, qtspp,
                      stembridge_t3)
from borelbox.cli import run
from borelbox.errors import _Budget
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


def assert_one_error_in_a_small_address_space(argv, text="", code=1):
    """`python -m borelbox` with `argv` and `text` on standard input, in
    a child process limited to ADDRESS_SPACE, exits `code` (1, malformed
    input, unless given) with one error line, which it returns."""
    proc = subprocess.run(
        [sys.executable, "-m", "borelbox", *argv], input=text,
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    return proc.stderr


def _nines(digits):
    return "9" * digits


# Budgets refusing tables and products whose sizes have more digits than
# Python prints.  The five tables are refused on a bound, never sized.
UNPRINTABLE_REFUSALS = [
    ["count", "--d", "2", "--n", _nines(2200), "--list", "--budget", "5"],
    ["count", "--d", "3", "--n", _nines(2200), "--predicate", "ss", "--budget", "5"],
    ["gf", "--formula", "--n", _nines(1500), "--budget", "5"],
    ["count", "--d", "4096", "--n", "100", "--list", "--budget", _nines(100)],
    ["count", "--d", "4096", "--n", _nines(2000), "--list", "--budget", _nines(2100)],
    ["count", "--d", "4096", "--n", "1" + "0" * 3999, "--list", "--budget", "5"],
]

# Sides past what a list or range can index, exit 1, and one whose
# triples no memory holds, exit 3.
UNLISTABLE_SIDES = [
    (["count", "--d", "2", "--n", "100000000000000000000", "--list"], 1),
    (["count", "--d", "1", "--n", "100000000000000000000"], 1),
    (["gf", "--d", "2", "--n", "100000000000000000000"], 1),
    (["gf", "--formula", "--n", "100000000000000000000"], 1),
    (["gf", "--formula", "--n", "1000000000000000"], 3),
]


@pytest.mark.parametrize("argv", UNPRINTABLE_REFUSALS, ids=lambda argv: argv[0])
def test_a_budget_refuses_a_size_too_large_to_print_at_once(argv):
    start = time.perf_counter()
    assert_one_error_in_a_small_address_space(argv, code=3)
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("argv, code", UNLISTABLE_SIDES)
def test_a_side_no_list_can_hold_is_one_error_line(argv, code):
    err = assert_one_error_in_a_small_address_space(argv, code=code)
    if code == 1:
        # Refused in the argument's words: the product's n, a box's side.
        word = "n" if "--formula" in argv else "side"
        value = argv[argv.index("--n") + 1]
        assert err.startswith(f"error: {word} must be at most "), err
        assert err.rstrip().endswith(f", got {value}"), err


def test_a_budget_too_long_to_print_still_refuses():
    budget = 10**4400
    with pytest.raises(ResourceLimit, match=r"^the requirement table of at least 2\^16609 "
                                            r"coordinates exceeds the node budget of "
                                            r"at least 2\^14616$"):
        count_ss(2, 10**5000, budget=budget)
    with pytest.raises(ResourceLimit, match=r"^the walk exceeded the node budget of "
                                            r"at least 2\^14616$"):
        _Budget(budget).charge(budget + 1)


def test_a_refused_size_too_large_to_print_is_named_by_a_power_of_two():
    with pytest.raises(ResourceLimit, match=r"^the requirement table of at least 2\^14614 "
                                            r"coordinates exceeds the node budget of 5$"):
        count_ss(3, int(_nines(2200)), budget=5)
    with pytest.raises(ResourceLimit, match=r"^a product of degree at least 2\^14946 "
                                            r"exceeds the budget of 5$"):
        qtspp(int(_nines(1500)), budget=5)
    # A size that prints is printed whole.
    with pytest.raises(ResourceLimit, match=r"^a product of 1140 factors exceeds "
                                            r"the budget of 999$"):
        stembridge_t3(18, budget=999)


@pytest.mark.parametrize("command, payload", HUGE_INPUTS)
def test_a_huge_dimension_is_malformed_input(command, payload):
    assert_one_error_in_a_small_address_space([command], json.dumps(payload))


@pytest.mark.parametrize("argv", HUGE_BOXES, ids=" ".join)
def test_a_box_of_huge_dimension_is_malformed_input(argv):
    assert_one_error_in_a_small_address_space(argv)


def test_the_box_functions_refuse_a_dimension_past_the_limit_at_the_call():
    # The listing refuses at the call, not at its first partition; the
    # identity checks its transposed box (n - 1, d + 1) before either count.
    for call in (lambda: enumerate_partitions(MAX_DIM + 1, 1), lambda: count_ss(MAX_DIM + 1, 0),
                 lambda: count_ts(MAX_DIM + 1, 0), lambda: hawkes_counts(2, MAX_DIM + 2)):
        with pytest.raises(ValueError, match=f"dimension must be at most {MAX_DIM}, got"):
            call()
    assert cumulative_counts(MAX_DIM, 1, "all") == (1, 2)
    assert count_ss(MAX_DIM, 1) == count_ts(MAX_DIM, 1) == 2


def test_the_identity_names_its_transposed_box_when_refusing_its_dimension():
    # The transposed box has dimension n - 1, a number the caller did not
    # give, so the refusal says where it comes from.
    for side in (MAX_DIM + 2, HUGE):
        with pytest.raises(ValueError) as refused:
            hawkes_counts(2, side)
        assert str(refused.value) == (f"the transposed box's dimension must be at most "
                                      f"{MAX_DIM}, got n - 1 = {side - 1}")
    # At n - 1 = MAX_DIM the box passes, and the budget refuses its table.
    with pytest.raises(ResourceLimit, match="requirement table"):
        hawkes_counts(2, MAX_DIM + 1, budget=10)


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
