import io
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import borelbox.enumeration
from borelbox import Partition, UnsupportedDimension, count_ss
from borelbox.cli import render_partition, run, _jsonify

from cases import (
    ARTINIAN_IDEAL_2D_GENS,
    PLANE_PARTITION_10_CELLS,
    SS_PARTITION_2D_CELLS,
    STAIRCASE_2D_CELLS,
    TS_PARTITION_2D_CELLS,
)


def invoke(argv, stdin_payload=None, monkeypatch=None, capsys=None):
    if stdin_payload is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_payload)))
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_bgens_subcommand(monkeypatch, capsys):
    payload = {"dim": 2, "gens": [[4, 0], [3, 1], [2, 3], [1, 4], [0, 7]]}
    code, out, err = invoke(["bgens"], payload, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"bgens": [[3, 1], [1, 4], [0, 7]]}


def test_count_subcommand(monkeypatch, capsys):
    code, out, _ = invoke(["count", "--d", "2", "--n", "3"], None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"d": 2, "n": 3, "B": [1, 2, 4, 8], "T": [1, 2, 4, 8]}


def test_count_predicate_selects_columns(monkeypatch, capsys):
    code, out, _ = invoke(["count", "--d", "2", "--n", "2", "--predicate", "ss"],
                          None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"d": 2, "n": 2, "B": [1, 2, 4]}


def test_count_predicate_enumerates_only_that_class(monkeypatch, capsys):
    def no_orbit_table(*args):
        raise AssertionError("count --predicate ss built the orbit table")

    monkeypatch.setattr(borelbox.enumeration, "_orbit_requirements", no_orbit_table)
    code, out, _ = invoke(["count", "--d", "3", "--n", "3", "--predicate", "ss"],
                          None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"d": 3, "n": 3, "B": [1, 2, 5, 16]}


def test_count_list_streams_partitions(monkeypatch, capsys):
    code, out, _ = invoke(["count", "--d", "1", "--n", "2", "--list"],
                          None, monkeypatch, capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [
        {"dim": 1, "cells": []},
        {"dim": 1, "cells": [[0]]},
        {"dim": 1, "cells": [[0], [1]]},
    ]


def test_check_partition_rejects_closure_violation(monkeypatch, capsys):
    code, out, err = invoke(["check-partition"], {"dim": 2, "cells": [[1, 0]]},
                            monkeypatch, capsys)
    assert code == 1
    assert "predecessor" in err


def test_check_partition_reports_invariants(monkeypatch, capsys):
    payload = {"dim": 2, "cells": [list(c) for c in SS_PARTITION_2D_CELLS]}
    code, out, _ = invoke(["check-partition"], payload, monkeypatch, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["bounding_side"] == 7
    assert report["cell_count"] == 15
    assert report["strongly_stable"] is True
    assert report["totally_symmetric"] is False


def test_check_ideal_reports_properties(monkeypatch, capsys):
    payload = {"dim": 2, "gens": [list(g) for g in ARTINIAN_IDEAL_2D_GENS]}
    code, out, _ = invoke(["check-ideal"], payload, monkeypatch, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["artinian"] is True
    assert report["pure_power_degrees"] == [4, 3]
    # Artinian but not strongly stable: the x^2y generator fails the exchange
    assert report["strongly_stable"] is False


def test_ideal2partition_and_back(monkeypatch, capsys):
    ideal_payload = {"dim": 2, "gens": [list(g) for g in ARTINIAN_IDEAL_2D_GENS]}
    code, out, _ = invoke(["ideal2partition"], ideal_payload, monkeypatch, capsys)
    assert code == 0
    partition_payload = json.loads(out)
    assert partition_payload == {"dim": 2,
                                 "cells": [list(c) for c in STAIRCASE_2D_CELLS]}
    code, out, _ = invoke(["partition2ideal"], partition_payload, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == ideal_payload


def test_ideal2partition_requires_artinian(monkeypatch, capsys):
    code, _, err = invoke(["ideal2partition"], {"dim": 2, "gens": [[1, 0]]},
                          monkeypatch, capsys)
    assert code == 2
    assert "pure power" in err


def test_closure_subcommand(monkeypatch, capsys):
    payload = {"dim": 2, "gens": [[3, 1], [1, 4], [0, 7]]}
    code, out, _ = invoke(["closure"], payload, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["gens"] == [[0, 7], [1, 4], [2, 3], [3, 1], [4, 0]]


def test_ss2ts_and_ts2ss(monkeypatch, capsys):
    ss_payload = {"dim": 2, "cells": [list(c) for c in SS_PARTITION_2D_CELLS]}
    code, out, _ = invoke(["ss2ts"], ss_payload, monkeypatch, capsys)
    assert code == 0
    ts_payload = json.loads(out)
    assert ts_payload["cells"] == [list(c) for c in TS_PARTITION_2D_CELLS]
    code, out, _ = invoke(["ts2ss"], ts_payload, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == ss_payload


def test_ss2ts_rejects_unstable_input(monkeypatch, capsys):
    code, _, err = invoke(["ss2ts"], {"dim": 2, "cells": [[0, 0], [1, 0]]},
                          monkeypatch, capsys)
    assert code == 2
    assert "strongly stable" in err


def test_lambda_and_omega(monkeypatch, capsys):
    ideal_payload = {"dim": 2, "gens": [[4, 0], [3, 1], [2, 3], [1, 4], [0, 7]]}
    code, out, _ = invoke(["lambda"], ideal_payload, monkeypatch, capsys)
    assert code == 0
    fset_payload = json.loads(out)
    assert fset_payload == {"dim": 2, "side": 7,
                            "elements": [[0, 7], [1, 5], [3, 4]]}
    code, out, _ = invoke(["omega"], fset_payload, monkeypatch, capsys)
    assert code == 0
    sym = json.loads(out)
    assert sym["dim"] == 2
    assert [0, 7] in sym["gens"] and [7, 0] in sym["gens"]


def test_gf_subcommand(monkeypatch, capsys):
    code, out, _ = invoke(["gf", "--d", "3", "--n", "2", "--predicate", "ss"],
                          None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"d": 3, "n": 2, "kind": "cell",
                               "coefficients": [1, 1, 1, 1, 1]}
    code, out, _ = invoke(["gf", "--n", "2", "--formula"], None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"d": 3, "n": 2, "kind": "product",
                               "coefficients": [1, 1, 1, 1, 1]}


def test_hawkes_subcommand(monkeypatch, capsys):
    code, out, _ = invoke(["hawkes", "--d", "3", "--n", "3"], None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"d": 3, "n": 3, "left": 16, "right": 16, "equal": True}


def test_hawkes_prints_library_counts(monkeypatch, capsys):
    code, out, _ = invoke(["hawkes", "--d", "3", "--n", "4"], None, monkeypatch, capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["left"], report["right"]) == (count_ss(3, 4), count_ss(3, 4)) == (66, 66)


def test_hawkes_needs_side_two(monkeypatch, capsys):
    code, out, err = invoke(["hawkes", "--d", "3", "--n", "1"], None, monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_budget_exit_code(monkeypatch, capsys):
    code, _, err = invoke(["count", "--d", "2", "--n", "4", "--budget", "3"],
                          None, monkeypatch, capsys)
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("predicate, table", [
    ("ss", "_cell_requirements"),
    ("ts", "_orbit_requirements"),
])
def test_budget_refuses_a_larger_table_before_building_it(monkeypatch, capsys,
                                                          predicate, table):
    def unbuilt(*args):
        raise AssertionError("the requirement table was built")

    monkeypatch.setattr(borelbox.enumeration, table, unbuilt)
    code, out, err = invoke(["count", "--d", "3", "--n", "60", "--predicate",
                             predicate, "--budget", "1"], None, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "budget" in err


def test_budget_caps_the_product_formula(monkeypatch, capsys):
    code, out, err = invoke(["gf", "--formula", "--n", "2000", "--budget", "100"],
                            None, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_render_matrix(monkeypatch, capsys):
    payload = {"dim": 3, "cells": [list(c) for c in PLANE_PARTITION_10_CELLS]}
    code, out, _ = invoke(["render", "--style", "matrix"], payload, monkeypatch, capsys)
    assert code == 0
    assert out == "2 2 1\n2 1\n1 1\n"


def test_render_ferrers(monkeypatch, capsys):
    payload = {"dim": 2, "cells": [list(c) for c in STAIRCASE_2D_CELLS]}
    code, out, _ = invoke(["render", "--style", "ferrers"], payload, monkeypatch, capsys)
    assert code == 0
    assert out == "#\n##\n####\n"


def test_render_empty_partition(monkeypatch, capsys):
    code, out, _ = invoke(["render", "--style", "ferrers"], {"dim": 2, "cells": []},
                          monkeypatch, capsys)
    assert code == 0
    assert out == ""


def test_render_wrong_dimension():
    with pytest.raises(UnsupportedDimension):
        render_partition(Partition(3), "ferrers")
    with pytest.raises(UnsupportedDimension):
        render_partition(Partition(2), "matrix")


def test_render_matrix_row_sums_count_cells():
    from borelbox import enumerate_partitions
    for p in enumerate_partitions(3, 3, "all"):
        text = render_partition(p, "matrix")
        total = sum(int(v) for row in text.splitlines() for v in row.split())
        assert total == len(p)


def test_malformed_json_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    code = run(["check-partition"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "invalid JSON" in err


BOOLEAN_AND_DEEP_INPUTS = [
    (["check-ideal"], '{"dim": true, "gens": [[1]]}'),
    (["check-partition"], '{"dim": 2, "cells": [[false, false], [true, false]]}'),
    (["partition2ideal"], '{"dim": 2, "cells": [[false, false], [true, false]]}'),
    (["render", "--style", "ferrers"], '{"dim": 2, "cells": [[false, false], [true, false]]}'),
    (["ideal2partition"], '{"dim": 2, "gens": [[true, 0], [0, true]]}'),
    (["check-partition"], '{"dim": true, "cells": [[0]]}'),
    (["check-partition"], "[" * 100000),
    (["check-ideal"], '{"dim": 2, "gens": ' + "[" * 100000),
    (["closure"], '{"gens": ' + "[" * 50000 + "]" * 50000 + "}"),
]


@pytest.mark.parametrize(
    "argv, text", BOOLEAN_AND_DEEP_INPUTS,
    ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(BOOLEAN_AND_DEEP_INPUTS)])
def test_booleans_and_deep_nesting_are_malformed_input(monkeypatch, capsys, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_pretty_format(monkeypatch, capsys):
    payload = {"dim": 2, "gens": [[4, 0], [3, 1], [2, 3], [1, 4], [0, 7]]}
    code, out, _ = invoke(["bgens", "--format", "pretty"], payload,
                          monkeypatch, capsys)
    assert code == 0
    assert out.strip() == "{x^3y, xy^4, y^7}"


def test_every_library_error_has_a_documented_exit_code():
    import inspect

    import borelbox.errors as errors

    for _, cls in inspect.getmembers(errors, inspect.isclass):
        if issubclass(cls, errors.BorelboxError):
            assert cls.exit_code in (1, 2, 3)


def test_jsonify_large_integers_become_strings():
    assert _jsonify(2**53 - 1) == 2**53 - 1
    assert _jsonify(2**53 + 1) == str(2**53 + 1)
    assert _jsonify({"B": [2**60]}) == {"B": [str(2**60)]}
    assert _jsonify(True) is True


def test_emitted_json_reparses_to_equal_value(monkeypatch, capsys):
    payload = {"dim": 3, "cells": [list(c) for c in PLANE_PARTITION_10_CELLS]}
    code, out, _ = invoke(["check-partition"], payload, monkeypatch, capsys)
    report = json.loads(out)
    assert Partition.from_json_dict(
        {"dim": report["dim"], "cells": report["cells"]}) == \
        Partition(3, PLANE_PARTITION_10_CELLS)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "borelbox", "count", "--d", "1", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"d": 1, "n": 2, "B": [1, 2, 3],
                                       "T": [1, 2, 3]}


def test_import_does_not_load_thread_pools():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import borelbox, sys; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def _loaded(code, stdin="", flags=()):
    """The modules in `sys.modules` after a fresh interpreter, started
    with `flags`, runs `code`.

    Read from `sys.modules`, not from an `-X importtime` log: the package
    loads its public names through `importlib.import_module`, which that
    log does not show."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, *flags, "-c", probe], input=stdin,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, (code, proc.stderr)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_subcommand_imports_only_the_modules_it_uses():
    one_cell = json.dumps({"dim": 3, "cells": [[0, 0, 0]]})

    def library(argv, flags=()):
        loaded = _loaded(f"from borelbox.cli import run\nassert run({argv!r}) == 0",
                         one_cell, flags)
        return loaded, {m.removeprefix("borelbox.") for m in loaded
                        if m.startswith("borelbox.")}

    for argv in (["check-partition"], ["render", "--style", "matrix"]):
        loaded, modules = library(argv)
        assert modules == {"cli", "errors", "partitions"}, argv
        assert not loaded & {"dataclasses", "argparse", "gettext", "locale"}, argv
        # Without `site`, which may load them itself, neither do `typing`
        # and `pathlib` load.
        loaded, _ = library(argv, ["-S"])
        assert not loaded & {"argparse", "gettext", "locale", "typing", "pathlib"}, argv
    # The bijection is a direct map on cells: no ideals, no complements.
    for argv in (["ss2ts"], ["ts2ss"]):
        _, modules = library(argv)
        assert modules == {"cli", "errors", "partitions", "bijection"}, argv
    for argv in (["count", "--d", "2", "--n", "2"], ["gf", "--d", "2", "--n", "2"],
                 ["hawkes", "--d", "3", "--n", "2"]):
        _, modules = library(argv)
        assert "enumeration" in modules, argv
        assert not modules & {"ideals", "correspondence", "bijection"}, argv
    # A public name loaded lazily shows up too.
    assert "borelbox.bijection" in _loaded("import borelbox\nborelbox.ss_to_ts_partition")
    # No submodule pulls in the thread pools or `fractions`.
    package = Path(borelbox.enumeration.__file__).parent
    every = sorted(f"borelbox.{p.stem}" for p in package.glob("*.py")
                   if not p.stem.startswith("__"))
    loaded = _loaded("import " + ", ".join(every))
    assert set(every) <= loaded
    assert not loaded & {"concurrent.futures", "fractions"}


def test_back_to_back_runs_share_no_parser_state(monkeypatch, capsys):
    """The parser is built once per process; a listing, a parse error and
    a failed call leave nothing behind for the next call."""
    code, out, _ = invoke(["count", "--d", "2", "--n", "2", "--list"], None,
                          monkeypatch, capsys)
    assert code == 0 and len(out.splitlines()) == 6
    code, out, _ = invoke(["count", "--d", "2", "--n", "2"], None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"d": 2, "n": 2, "B": [1, 2, 4], "T": [1, 2, 4]}
    with pytest.raises(SystemExit):
        run(["count", "--d", "2"])
    capsys.readouterr()
    code, out, err = invoke(["count", "--d", "2", "--n", "2", "--predicate", "ts"],
                            None, monkeypatch, capsys)
    assert code == 0 and err == ""
    assert json.loads(out) == {"d": 2, "n": 2, "T": [1, 2, 4]}


def _exit_code(argv):
    """The code of the `SystemExit` that `run(argv)` raises."""
    with pytest.raises(SystemExit) as raised:
        run(argv)
    return raised.value.code


def test_help_lists_every_subcommand_and_option(capsys):
    """`--help` lists each subcommand with its help line, `<cmd> --help`
    (or `-h`) each option of that command with its choices; both exit 0
    with nothing on standard error."""
    from borelbox.cli import _COMMANDS

    assert _exit_code(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: borelbox")
    rows = [line.split() for line in out.splitlines()]
    assert len(_COMMANDS) == 14
    for name, (_, about, _, _) in _COMMANDS.items():
        assert [name, *about.split()] in rows, name
    for name, (_, about, reads, options) in _COMMANDS.items():
        for flag in ("--help", "-h"):
            assert _exit_code([name, flag]) == 0
            out, err = capsys.readouterr()
            assert err == "" and about in out, name
            rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
                    if line.startswith("  ")}
            assert set(rows) == set(options) | ({"input"} if reads else set()), name
            for option, (kind, default) in options.items():
                if isinstance(kind, tuple):
                    assert rows[option][0] == "{" + ",".join(kind) + "}", (name, option)
                assert ("required" in rows[option]) == (default is ...), (name, option)
    assert _exit_code(["count", "--d", "3", "--help"]) == 0
    assert "--predicate {ss,ts,all}" in capsys.readouterr().out


def test_conversion_budget_exit_code(monkeypatch, capsys):
    """`ss2ts` and `ts2ss` charge one budget step per output cell."""
    # {0, e_1, ..., e_12} in d = 12 maps to 2^12 cells: ψ(e_i) has 13 - i ones.
    star = Partition(12, [(0,) * 12] + [(0,) * i + (1,) + (0,) * (11 - i)
                                        for i in range(12)])
    image = {"dim": 12, "cells": [list(c) for c in product((0, 1), repeat=12)]}
    for argv, payload, expected in ((["ss2ts"], star.to_json_dict(), image),
                                    (["ts2ss"], image, star.to_json_dict())):
        cells = len(expected["cells"])
        code, out, err = invoke(argv + ["--budget", str(cells)], payload,
                                monkeypatch, capsys)
        assert code == 0 and err == ""
        assert json.loads(out) == expected
        code, out, err = invoke(argv + ["--budget", str(cells - 1)], payload,
                                monkeypatch, capsys)
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "budget" in err


def test_conversions_of_one_cell_in_a_high_dimension(monkeypatch, capsys):
    """The inverse's search over P runs as a loop, not one call per axis:
    d = 3000 is past the interpreter's recursion limit."""
    origin = {"dim": 3000, "cells": [[0] * 3000]}
    for argv in (["ss2ts"], ["ts2ss"]):
        code, out, err = invoke(argv, origin, monkeypatch, capsys)
        assert code == 0 and err == ""
        assert json.loads(out) == origin


def test_closure_budget_exit_code(monkeypatch, capsys):
    payload = {"gens": [[0, 0, 0, 1000000]]}
    code, out, err = invoke(["closure", "--budget", "500"], payload, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "budget" in err
    code, out, _ = invoke(["closure", "--budget", "500"], {"gens": [[0, 3]]},
                          monkeypatch, capsys)
    assert code == 0
    assert json.loads(out) == {"dim": 2, "gens": [[0, 3], [1, 2], [2, 1], [3, 0]]}


def test_ideal2partition_budget_exit_code(monkeypatch, capsys):
    payload = {"dim": 2, "gens": [[3, 0], [0, 2]]}
    code, out, err = invoke(["ideal2partition", "--budget", "6"], payload,
                            monkeypatch, capsys)
    assert code == 0 and err == ""
    assert out == invoke(["ideal2partition"], payload, monkeypatch, capsys)[1]
    code, out, err = invoke(["ideal2partition", "--budget", "5"], payload,
                            monkeypatch, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "budget" in err
    code, out, err = invoke(["ideal2partition", "--budget", "1000"],
                            {"dim": 1, "gens": [[100000000]]}, monkeypatch, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_a_replaced_build_parser_is_used_once_and_then_dropped(monkeypatch, capsys):
    """The shared parser comes from the module's current `build_parser`,
    so the handlers a wrapped builder binds are the ones that run."""
    import borelbox.cli as cli
    original = cli.build_parser
    built = []

    def counting_builder():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_builder)
    for _ in range(2):
        code, out, _ = invoke(["count", "--d", "2", "--n", "2"], None, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["B"] == [1, 2, 4]
    assert len(built) == 1
    wrapped = cli._parser()
    monkeypatch.undo()
    code, _, _ = invoke(["count", "--d", "2", "--n", "2"], None, monkeypatch, capsys)
    assert code == 0 and len(built) == 1
    assert cli._parser() is cli._parser() is not wrapped
