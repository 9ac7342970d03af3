"""The package's public names: which they are, where they live, and that
they load lazily without changing what they are."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borelbox

HOMES = {
    "bijection": ["FSet", "bgens_via_psi", "lambda_inv", "lambda_map", "omega",
                  "omega_inv", "psi", "psi_inv", "ss_to_ts_partition",
                  "ts_to_ss_partition"],
    "correspondence": ["ideal_to_partition", "partition_to_ideal"],
    "enumeration": ["CountTable", "cell_gf_ss", "count_ss", "count_table", "count_ts",
                    "cumulative_counts", "enumerate_partitions", "hawkes_check",
                    "hawkes_counts", "orbit_gf_ts", "qtspp", "stembridge_t3"],
    "errors": ["ArithmeticSelfCheck", "BorelboxError", "CellNotInPartition",
               "ClosureViolation", "DimensionMismatch", "EmptyInput",
               "InexactDivision", "InputError", "InvalidCell", "InvalidFSet",
               "InvalidMove", "MissingPurePower", "NonIntegerProduct", "NotArtinian",
               "NotStronglyStable", "NotSymmetric", "NotTotallySymmetric",
               "NotWeaklyIncreasing", "ResourceLimit", "UnsupportedDimension"],
    "ideals": ["Monomial", "MonomialIdeal", "apply_borel_move", "borel_closure",
               "divides", "minimalize", "monomial_str", "symmetrize"],
    "partitions": ["Cell", "Partition"],
    "qpoly": ["QPolynomial"],
}
PUBLIC = {name: home for home, names in HOMES.items() for name in names}


def test_all_is_pinned():
    assert len(PUBLIC) == 55
    assert borelbox.__all__ == sorted(PUBLIC)


def test_each_name_is_its_home_modules_object():
    for name, home in PUBLIC.items():
        module = importlib.import_module("borelbox." + home)
        assert getattr(borelbox, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from borelbox import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(borelbox, name)


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(borelbox))
    assert "__version__" in dir(borelbox)


def test_submodules_resolve_as_attributes():
    for home in set(HOMES) | {"cli"}:
        assert getattr(borelbox, home) is importlib.import_module("borelbox." + home)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        borelbox.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from borelbox import no_such_name", {})


def test_bare_import_loads_no_library_submodule():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import borelbox, sys; print(sorted(m for m in sys.modules "
         "if m.startswith('borelbox')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['borelbox']"
