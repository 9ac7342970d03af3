"""The slice transfer behind count_ss, cell_gf_ss and the strongly stable
column of cumulative_counts, checked against the enumerator, the product
formulas, the symmetric transfer, box transposition, and its budget."""

import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import borelbox.enumeration
from borelbox import (
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
from borelbox.enumeration import cumulative_counts

import bruteforce

# Every box the suite enumerates on the stable side, plus side 0 and d = 1.
ENUMERATED_BOXES = ([(1, n) for n in range(7)] + [(2, n) for n in range(7)]
                    + [(3, n) for n in range(6)] + [(4, n) for n in range(5)]
                    + [(5, n) for n in range(4)] + [(12, 2), (12, 0)])


@pytest.mark.parametrize("dim, side", ENUMERATED_BOXES)
def test_stable_transfer_matches_the_enumerator(dim, side):
    listing = [p.cells for p in enumerate_partitions(dim, side, "strongly_stable")]
    cumulative, _ = bruteforce.bucket_by_side(listing, side)
    sizes = Counter(len(cells) for cells in listing)
    assert count_ss(dim, side) == len(listing) == cumulative[-1]
    assert cumulative_counts(dim, side, "strongly_stable") == cumulative
    assert cell_gf_ss(dim, side) == QPolynomial(sizes[k] for k in range(max(sizes) + 1))


def test_stable_counts_match_stembridge_through_side_twelve():
    assert [count_ss(3, n) for n in range(13)] == [stembridge_t3(n) for n in range(13)]
    assert count_ss(3, 12) == 62_062_015_500
    assert cumulative_counts(3, 12, "strongly_stable") == tuple(
        stembridge_t3(n) for n in range(13))


def test_cell_gf_matches_qtspp_through_side_ten():
    for n in range(11):
        assert cell_gf_ss(3, n) == qtspp(n)


@pytest.mark.parametrize("dim, side", [(4, 5), (5, 4)])
def test_cell_gf_matches_the_symmetric_orbit_gf(dim, side):
    assert cell_gf_ss(dim, side) == orbit_gf_ts(dim, side)


def test_stable_box_transposition():
    # Each box with d + n <= 10 and n >= 2 is counted once; its transpose
    # (n - 1, d + 1) is another such box.
    counts = {(dim, side): count_ss(dim, side)
              for dim in range(1, 9) for side in range(2, 11 - dim)}
    for (dim, side), count in counts.items():
        assert count == counts[side - 1, dim + 1]
    assert counts[4, 6] == counts[5, 5] == 683_464


def test_stable_budget_covers_walk_and_transfer():
    # 16 slice states walked, 2 + 4 + 8 + 16 = 30 (slice, state) pairs and
    # 1·2 + 3·4 + 6·8 = 62 (cell, state) steps: slice m < 4 takes one pass
    # over its states per cell with coordinate sum below m, and the last
    # slice none.  The table has C(5, 2) = 10 entries, the cells with
    # coordinate sum below 4.
    assert count_ss(3, 4, budget=108) == 66
    assert cell_gf_ss(3, 4, budget=108) == qtspp(4)
    with pytest.raises(ResourceLimit, match="transfer"):
        count_ss(3, 4, budget=107)
    with pytest.raises(ValueError):
        count_ss(3, 4, budget=0)


def test_a_refused_budget_names_its_value():
    with pytest.raises(ValueError, match="^budget must be a positive integer, got True$"):
        count_ss(2, 2, budget=True)


def test_stable_budget_measures_the_table_by_its_cells():
    # The 29-dimensional slice table holds the C(30, 29) = 30 cells with
    # coordinate sum below 2, 870 coordinates, and each state is a 30-bit
    # mask.  The run takes 31 walk nodes, 2 + 31 (slice, state) pairs and
    # 2 (cell, state) steps: 66, inside the table's 870.
    assert count_ss(30, 2, budget=870) == 32
    for budget in (66, 869):
        with pytest.raises(ResourceLimit, match="table of 870 coordinates"):
            count_ss(30, 2, budget=budget)


@pytest.mark.parametrize("count", [count_ss, count_ts])
def test_a_wide_slice_table_is_refused_by_its_coordinates(monkeypatch, count):
    # At (3000, 2) the slice table has 3,000 entries of 2,999 coordinates
    # each, about 9M, and a budget of 10,000 refuses it unbuilt.
    def unbuilt(*args):
        raise AssertionError("the requirement table was built")

    monkeypatch.setattr(borelbox.enumeration, "_cell_requirements", unbuilt)
    monkeypatch.setattr(borelbox.enumeration, "_orbit_requirements", unbuilt)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="table of 8997000 coordinates"):
        count(3000, 2, budget=10_000)
    assert time.perf_counter() - start < 1


def test_stable_budget_message_names_the_phase(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the requirement table was built")

    # The C(6, 2) = 15 table entries, 30 coordinates, pass, then the 31st
    # of the 32 slice states is refused.  At (3, 4) the table's 20
    # coordinates pass and the walk's 16 states too.
    with pytest.raises(ResourceLimit, match="walk"):
        count_ss(3, 5, budget=30)
    with pytest.raises(ResourceLimit, match="transfer"):
        cell_gf_ss(3, 4, budget=20)
    monkeypatch.setattr(borelbox.enumeration, "_cell_requirements", unbuilt)
    with pytest.raises(ResourceLimit, match="table"):
        count_ss(3, 60, budget=1)
    with pytest.raises(ResourceLimit, match="table"):
        cumulative_counts(3, 60, "strongly_stable", budget=1)


def test_stable_counts_in_high_dimension():
    # Box transposition and the bijection give count_ss(d, 2) = d + 2 and
    # count_ss(d, 3) = 2^(d+1); the slice states have one bit per cell of
    # the simplex, not of the box, so these take well under a second.
    assert [count_ss(d, 2) for d in range(1, 41)] == [d + 2 for d in range(1, 41)]
    assert [count_ss(d, 3) for d in range(1, 15)] == [2 ** (d + 1) for d in range(1, 15)]
    listing = list(enumerate_partitions(30, 2, "strongly_stable"))
    assert len(listing) == len(set(listing)) == 32


def test_import_does_not_load_fractions():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import borelbox.cli, sys; print('fractions' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
