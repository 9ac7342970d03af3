"""Fuzz the command line: arbitrary JSON into every JSON subcommand,
small or invalid box sizes under a small budget into the box
subcommands, and argv lists drawn from the subcommand table and junk.
Every run must end in exit code 0-3, with exactly one `error:` line on
standard error when it fails, and never in an uncaught exception (a
traceback from `borelbox`)."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from borelbox.cli import _COMMANDS, run

import bruteforce

JSON_SUBCOMMANDS = ("check-partition", "check-ideal", "ideal2partition",
                    "partition2ideal", "bgens", "closure", "ss2ts", "ts2ss",
                    "lambda", "omega")

small = st.integers(-2, 4)
scalars = (st.none() | st.booleans() | st.integers() | small
           | st.floats(allow_nan=False) | st.text(max_size=5))
anything = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)
# Objects shaped like the inputs, so the checks past parsing run too:
# small vectors under the keys the subcommands read, often of one length
# and sometimes closed downward, so that they parse as partitions.
vectors = st.lists(st.lists(small, max_size=4), max_size=5)


@st.composite
def boxed(draw):
    dim = draw(st.integers(1, 3))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), max_size=4))
    if draw(st.booleans()):
        cells = bruteforce.close_down(cells)
    return {"dim": dim, "side": draw(st.integers(0, 4)),
            **{key: [list(c) for c in cells] for key in ("cells", "gens", "elements")}}


shaped = st.fixed_dictionaries({}, optional={
    "dim": small | anything, "side": small | anything,
    "cells": vectors | anything, "gens": vectors | anything,
    "elements": vectors | anything})
payloads = (anything | shaped | boxed()).map(json.dumps) | st.text(max_size=20)

box_sizes = st.integers(-3, 40)

fuzz = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error:")
    else:
        assert err == ""


@fuzz
@given(command=st.sampled_from(JSON_SUBCOMMANDS),
       form=st.sampled_from(("json", "pretty")), payload=payloads)
def test_json_subcommands_never_crash(command, form, payload):
    code, _, err = invoke([command, "--format", form], payload)
    assert_clean_exit(code, err)


@fuzz
@given(style=st.sampled_from(("ferrers", "matrix")), payload=payloads)
def test_render_never_crashes(style, payload):
    code, _, err = invoke(["render", "--style", style], payload)
    assert_clean_exit(code, err)


box_argvs = st.one_of(
    st.tuples(st.just("count"), st.sampled_from(([], ["--predicate", "ss"],
                                                 ["--predicate", "ts"],
                                                 ["--predicate", "all"],
                                                 ["--list", "--predicate", "ss"]))),
    st.tuples(st.just("gf"), st.sampled_from(([], ["--predicate", "ss"],
                                              ["--formula"]))),
    st.tuples(st.just("hawkes"), st.just([])))


@fuzz
@given(command=box_argvs, dim=box_sizes, side=box_sizes)
def test_box_subcommands_never_crash_under_a_budget(command, dim, side):
    name, extra = command
    code, _, err = invoke([name, f"--d={dim}", f"--n={side}", "--budget", "500",
                           *extra])
    assert_clean_exit(code, err)


large_gens = st.lists(st.lists(st.integers(0, 10**6) | small, min_size=1, max_size=5),
                      min_size=1, max_size=4)


@fuzz
@given(gens=large_gens | anything, form=st.sampled_from(("json", "pretty")))
def test_closure_with_large_exponents_stays_within_a_budget(gens, form):
    code, _, err = invoke(["closure", "--budget", "500", "--format", form],
                          json.dumps({"gens": gens}))
    assert_clean_exit(code, err)


# argv tokens: the table's option names, values in and out of range or of
# the choices, the `=` form, unknown options (an abbreviation among them),
# help, extra positionals and input paths (`-` reads the one-cell input).
OPTIONS = sorted({option for row in _COMMANDS.values() for option in row[3]})
CHOICES = sorted({choice for row in _COMMANDS.values() for kind, _ in row[3].values()
                  if isinstance(kind, tuple) for choice in kind})
# Box sizes up to 3 keep every unbudgeted count and listing small.
values = st.integers(-2, 3).map(str) | st.sampled_from(CHOICES + ["x", "", "1.5", "-1e3"])
tokens = (st.sampled_from(OPTIONS) | values
          | st.builds("{}={}".format, st.sampled_from(OPTIONS), values)
          | st.sampled_from(["--pred", "--bogus", "-x", "--", "-", "extra", "missing.json",
                             "-h", "--help"]))
argvs = st.builds(lambda first, rest: first + rest,
                  st.sampled_from([[name] for name in _COMMANDS] + [["nope"], ["--d"], []]),
                  st.lists(tokens, max_size=8))


@fuzz
@given(argv=argvs)
def test_any_argv_exits_cleanly(argv):
    """Parsing ends in help (exit 0, nothing on standard error) or a usage
    error (exit 2, one `error:` line and no output); past parsing, the
    run ends like any other."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps({"dim": 2, "cells": [[0, 0]]}))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
        if exc.code == 0:
            assert err.getvalue() == "" and out.getvalue().startswith("usage:"), argv
        else:
            assert out.getvalue() == "", argv
            assert_clean_exit(exc.code, err.getvalue())
    else:
        assert_clean_exit(code, err.getvalue())
    finally:
        sys.stdin = saved
