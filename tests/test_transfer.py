"""The slice transfer behind count_ts, orbit_gf_ts and the symmetric
column of cumulative_counts, checked against the enumerator, the product
formulas, box transposition, and its budget."""

import os
import subprocess
import sys
import time
from itertools import combinations_with_replacement, permutations
from math import comb
from pathlib import Path

import pytest

import borelbox.enumeration
from borelbox import (
    Partition,
    QPolynomial,
    ResourceLimit,
    cell_gf_ss,
    count_ss,
    count_ts,
    enumerate_partitions,
    orbit_gf_ts,
    qtspp,
    stembridge_t3,
)
from borelbox.cli import run
from borelbox.enumeration import cumulative_counts
from borelbox.partitions import _orbit_size

import bruteforce

# Every box the suite enumerates on the symmetric side, plus side 0 and d = 1.
ENUMERATED_BOXES = ([(1, n) for n in range(7)] + [(2, n) for n in range(7)]
                    + [(3, n) for n in range(6)] + [(4, n) for n in range(5)]
                    + [(5, n) for n in range(4)] + [(12, 2), (12, 0)])


@pytest.mark.parametrize("dim, side", ENUMERATED_BOXES)
def test_transfer_matches_the_enumerator(dim, side):
    listing = [p.cells for p in enumerate_partitions(dim, side, "totally_symmetric")]
    cumulative, orbit_coeffs = bruteforce.bucket_by_side(listing, side)
    assert count_ts(dim, side) == len(listing) == cumulative[-1]
    assert cumulative_counts(dim, side, "totally_symmetric") == cumulative
    assert orbit_gf_ts(dim, side) == QPolynomial(orbit_coeffs)


def test_counts_match_stembridge_through_side_twelve():
    assert [count_ts(3, n) for n in range(13)] == [stembridge_t3(n) for n in range(13)]
    assert count_ts(3, 12) == 62_062_015_500
    assert cumulative_counts(3, 12, "totally_symmetric") == tuple(
        stembridge_t3(n) for n in range(13))


def test_orbit_gf_matches_qtspp_through_side_ten():
    for n in range(11):
        assert orbit_gf_ts(3, n) == qtspp(n)


def test_symmetric_box_transposition():
    for dim in range(1, 8):
        for side in range(2, 10 - dim):
            assert count_ts(dim, side) == count_ts(side - 1, dim + 1)
    assert count_ts(4, 6) == 683_464


def test_budget_covers_walk_and_transfer():
    with pytest.raises(ResourceLimit, match="transfer"):
        orbit_gf_ts(3, 4, budget=100)
    # 16 slice states walked, then 30 (slice, state) pairs and 62 zeta
    # steps.
    assert count_ts(3, 4, budget=108) == 66
    assert orbit_gf_ts(3, 4, budget=108) == qtspp(4)
    with pytest.raises(ResourceLimit):
        count_ts(3, 4, budget=107)
    with pytest.raises(ValueError):
        count_ts(3, 4, budget=0)


def test_budget_message_names_the_phase(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the requirement table was built")

    # The tables' 30 and 18 coordinates pass, then the walks' 32 and 20
    # nodes do not.
    with pytest.raises(ResourceLimit, match="walk"):
        count_ts(3, 5, budget=30)
    with pytest.raises(ResourceLimit, match="walk"):
        list(enumerate_partitions(2, 3, "all", budget=18))
    with pytest.raises(ResourceLimit, match="transfer"):
        count_ts(3, 4, budget=100)
    monkeypatch.setattr(borelbox.enumeration, "_orbit_requirements", unbuilt)
    with pytest.raises(ResourceLimit, match="table"):
        count_ts(3, 60, budget=1)
    with pytest.raises(ResourceLimit, match="table"):
        list(enumerate_partitions(3, 60, "totally_symmetric", budget=1))


@pytest.mark.parametrize("dim", [10, 16, 17])
def test_budget_charges_state_cells_before_expanding_them(monkeypatch, dim):
    """A slice state is re-validated on its orbit mask, so the transfer
    expands no orbit into cells, and a walk past the budget is refused
    there."""
    def unexpanded(rep):
        raise AssertionError(f"the orbit of {rep} was expanded")

    monkeypatch.setattr(borelbox.enumeration, "_distinct_permutations", unexpanded)
    # The budget passes the table's C(d + 1, 2) entries of d - 1
    # coordinates, and 500 more stop the walk.
    with pytest.raises(ResourceLimit, match="walk"):
        count_ts(dim, 3, budget=comb(dim + 1, 2) * (dim - 1) + 500)


def test_a_symmetric_listing_is_charged_each_orbits_cells_before_expanding_it(monkeypatch):
    # At (22, 2) the orbit with k ones holds C(22, k) cells, 2^22 in all.
    # The table's 23 entries of 22 coordinates pass a budget of 1,000, and
    # the listing is charged 4 nodes and 1 + 22 + 231 cells; the 5th node
    # and its orbit's 1,540 cells are refused before the orbit is expanded.
    expanded = []
    real = borelbox.enumeration._distinct_permutations

    def counted(rep):
        assert _orbit_size(rep) < 1540, f"the orbit of {rep} was expanded past the budget"
        cells = list(real(rep))
        expanded.append(len(cells))
        return cells

    monkeypatch.setattr(borelbox.enumeration, "_distinct_permutations", counted)
    listed = []
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="walk"):
        for partition in enumerate_partitions(22, 2, "totally_symmetric", budget=1000):
            listed.append(len(partition))
    assert time.perf_counter() - start < 1
    assert expanded == [1, 22, 231]
    assert listed == [0, 1, 23, 254]


def test_an_unbudgeted_listing_computes_no_orbit_sizes(monkeypatch):
    def unsized(rep):
        raise AssertionError(f"the size of the orbit of {rep} was computed")

    monkeypatch.setattr(borelbox.enumeration, "_orbit_size", unsized)
    assert len(list(enumerate_partitions(3, 3, "totally_symmetric"))) == count_ts(3, 3) == 16


def test_transfers_build_no_cells(monkeypatch):
    # Slice states are re-validated and keyed on their bitmasks alone.
    def unbuilt(*args):
        raise AssertionError("a cell-level value was built")

    monkeypatch.setattr(borelbox.enumeration, "_distinct_permutations", unbuilt)
    monkeypatch.setattr(Partition, "_trusted", unbuilt)
    assert count_ss(4, 4) == count_ts(4, 4) == 352
    assert cell_gf_ss(3, 5) == orbit_gf_ts(3, 5) == qtspp(5)


def test_orbit_sizes_are_the_distinct_rearrangements():
    for dim in range(6):
        for rep in combinations_with_replacement(range(4), dim):
            assert _orbit_size(rep) == len(set(permutations(rep)))


def test_cli_gf_budget_exits_three(capsys):
    code = run(["gf", "--d", "3", "--n", "4", "--budget", "50"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_closed_stdout_ends_in_one_error_line():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "borelbox", "gf", "--formula", "--n", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err and "Exception ignored" not in err
