import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from borelbox import (
    CellNotInPartition,
    ClosureViolation,
    DimensionMismatch,
    InvalidCell,
    Partition,
    enumerate_partitions,
    ideal_to_partition,
    partition_to_ideal,
)

import bruteforce
from cases import (
    CYCLE_ONLY_3D,
    SS_PARTITION_2D_CELLS,
    STAIRCASE_2D_CELLS,
    SWAP_ONLY_3D,
    TS_PARTITION_2D_CELLS,
)


def test_staircase_is_valid():
    p = Partition(2, STAIRCASE_2D_CELLS)
    assert len(p) == 7
    assert p.cells == STAIRCASE_2D_CELLS


def test_empty_partition_is_valid_in_any_dimension():
    for d in (1, 2, 3, 5):
        p = Partition(d)
        assert len(p) == 0
        assert p.bounding_side() == 0


def test_missing_origin_raises_closure_violation():
    with pytest.raises(ClosureViolation) as info:
        Partition(2, [(1, 0)])
    assert info.value.cell == (1, 0)
    assert info.value.axis == 1


def test_wrong_cell_length_raises():
    with pytest.raises(DimensionMismatch):
        Partition(2, [(0, 0, 0)])


def test_negative_coordinate_raises():
    with pytest.raises(InvalidCell):
        Partition(2, [(0, -1)])


def test_cells_canonical_deduplicated_sorted():
    p = Partition(2, [(1, 0), (0, 0), (0, 1), (0, 0)])
    assert p.cells == ((0, 0), (0, 1), (1, 0))
    assert p == Partition(2, [(0, 1), (1, 0), (0, 0)])
    assert hash(p) == hash(Partition(2, p.cells))


def test_hook_vector_on_strict_column_partition():
    p = Partition(2, SS_PARTITION_2D_CELLS)
    assert p.hook_vector((0, 0)) == (3, 6)


def test_hook_vector_examples():
    p = Partition(2, STAIRCASE_2D_CELLS)
    assert p.hook_vector((1, 0)) == (2, 1)
    assert Partition(2, [(0, 0)]).hook_vector((0, 0)) == (0, 0)


def test_hook_vector_requires_membership():
    p = Partition(2, [(0, 0)])
    with pytest.raises(CellNotInPartition):
        p.hook_vector((1, 1))


def test_strongly_stable_examples():
    assert Partition(2, SS_PARTITION_2D_CELLS).is_strongly_stable()
    assert Partition(3).is_strongly_stable()
    assert not Partition(2, [(0, 0), (1, 0)]).is_strongly_stable()


def test_totally_symmetric_examples():
    assert Partition(2, TS_PARTITION_2D_CELLS).is_totally_symmetric()
    assert Partition(3, [(0, 0, 0)]).is_totally_symmetric()
    assert not Partition(2, [(0, 0), (0, 1)]).is_totally_symmetric()
    assert Partition(2, [(0, 0), (1, 0), (0, 1)]).is_totally_symmetric()
    assert not Partition(2, [(0, 0), (1, 0), (2, 0), (0, 1)]).is_totally_symmetric()


def test_bounding_side_examples():
    assert Partition(2, STAIRCASE_2D_CELLS).bounding_side() == 4
    assert Partition(3).bounding_side() == 0


def test_orbit_count_examples():
    assert Partition(2, TS_PARTITION_2D_CELLS).orbit_count() == 15
    assert Partition(3, [(0, 0, 0)]).orbit_count() == 1
    cube = Partition(3, bruteforce.box_cells(3, 2))
    assert cube.orbit_count() == 4


def test_one_dimensional_partitions_satisfy_both_predicates():
    for k in range(5):
        p = Partition(1, [(i,) for i in range(k)])
        assert p.is_strongly_stable()
        assert p.is_totally_symmetric()


def test_hooks_match_membership_scan_oracle():
    for p in enumerate_partitions(3, 2, "all"):
        for cell in p.cells:
            arms = p.hook_vector(cell)
            for j in range(3):
                assert arms[j] == bruteforce.arm_length(p.cells, cell, j)


def test_strongly_stable_matches_distinct_columns_in_5_box():
    # In two dimensions the hook condition is equivalent to all column
    # heights being distinct.
    for p in enumerate_partitions(2, 5, "all"):
        heights = {}
        for a, b in p.cells:
            heights[a] = max(heights.get(a, 0), b + 1)
        distinct = len(set(heights.values())) == len(heights)
        assert p.is_strongly_stable() == distinct


def test_predicates_match_naive_oracles_in_3_box():
    for p in enumerate_partitions(3, 3, "all"):
        assert p.is_strongly_stable() == bruteforce.naive_strongly_stable(p.cells)
        assert p.is_totally_symmetric() == bruteforce.naive_totally_symmetric(p.cells)
        assert bruteforce.counted_totally_symmetric(p.cells) == p.is_totally_symmetric()


@pytest.mark.parametrize("dim, side", [(2, 4), (3, 2), (4, 2)])
def test_predicates_match_naive_oracles_on_power_set(dim, side):
    for cells in bruteforce.powerset_partitions(dim, side):
        p = Partition(dim, cells)
        assert p.is_strongly_stable() == bruteforce.naive_strongly_stable(cells)
        assert p.is_totally_symmetric() == bruteforce.naive_totally_symmetric(cells)


@pytest.mark.parametrize("tops", [CYCLE_ONLY_3D, SWAP_ONLY_3D])
def test_symmetry_needs_both_the_swap_and_the_cycle(tops):
    # Each set is fixed by one of the two tested permutations only, so a
    # check that skipped the other would call it symmetric.
    cells = bruteforce.close_down(tops)
    p = Partition(3, cells)
    assert not bruteforce.naive_totally_symmetric(cells)
    assert not p.is_totally_symmetric()
    assert p.is_strongly_stable() == bruteforce.naive_strongly_stable(cells)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_predicates_match_naive_oracles_on_near_symmetric_unions(dim):
    rng = random.Random(dim)
    seen = set()
    for _ in range(60):
        cells = bruteforce.close_down(bruteforce.near_symmetric_tops(rng, dim, 3))
        p = Partition(dim, cells)
        symmetric = bruteforce.naive_totally_symmetric(cells)
        assert p.is_totally_symmetric() == symmetric
        assert p.is_strongly_stable() == bruteforce.naive_strongly_stable(cells)
        seen.add(symmetric)
    assert seen == {True, False}


def test_a_zero_dimensional_state_passes_both_predicates():
    point = Partition._trusted(0, ((),))
    assert point.is_strongly_stable()
    assert point.is_totally_symmetric()


def test_orbit_count_at_most_cell_count():
    for p in enumerate_partitions(3, 2, "all"):
        assert p.orbit_count() <= len(p)


@pytest.mark.parametrize("predicate", ["all", "totally_symmetric"])
def test_trusted_partitions_build_their_member_sets_on_demand(predicate):
    # Cells and non-cells, some outside the box.
    probes = list(product(range(4), repeat=3))

    def fresh(cells):
        part = Partition._trusted(3, cells)
        assert part._member_set is None
        return part

    for listed in enumerate_partitions(3, 3, predicate):
        cells = listed.cells
        checked = Partition(3, cells)
        assert [c in fresh(cells) for c in probes] == [c in checked for c in probes]
        assert ([fresh(cells).hook_vector(c) for c in cells]
                == [checked.hook_vector(c) for c in cells])
        assert fresh(cells).is_totally_symmetric() == checked.is_totally_symmetric()
        assert partition_to_ideal(fresh(cells)) == partition_to_ideal(checked)
        assert fresh(cells).is_strongly_stable() == checked.is_strongly_stable()
        assert fresh(cells).orbit_count() == checked.orbit_count()
        assert listed == checked and hash(listed) == hash(checked)
        assert [c in listed for c in probes] == [c in checked for c in probes]


# The record of the predicate a producer built a partition to satisfy.

def test_constructed_and_plain_trusted_partitions_carry_no_record():
    cells = SS_PARTITION_2D_CELLS
    assert Partition(2, cells)._holds is None
    assert Partition.from_json_dict({"dim": 2, "cells": [list(c) for c in cells]})._holds is None
    assert Partition._trusted(2, cells)._holds is None
    assert ideal_to_partition(partition_to_ideal(Partition(2, cells)))._holds is None
    assert all(p._holds is None for p in enumerate_partitions(3, 2, "all"))


@pytest.mark.parametrize("holds", ["strongly_stable", "totally_symmetric"])
def test_a_false_record_does_not_fool_the_predicates(holds):
    # (0,0), (1,0) has the hook vector (1, 0) and no cell (0, 1).
    part = Partition._trusted(2, ((0, 0), (1, 0)), holds)
    assert not part.is_strongly_stable()
    assert not part.is_totally_symmetric()


def test_the_record_is_not_part_of_the_value():
    cells = TS_PARTITION_2D_CELLS
    plain = Partition(2, cells)
    for holds in ("strongly_stable", "totally_symmetric"):
        recorded = Partition._trusted(2, cells, holds)
        assert recorded == plain and hash(recorded) == hash(plain)
        assert repr(recorded) == repr(plain)
        assert recorded.to_json_dict() == plain.to_json_dict()


cell_lists_2d = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10)


@given(cell_lists_2d)
def test_removing_a_maximal_cell_keeps_validity(raw):
    cells = bruteforce.close_down(raw)
    p = Partition(2, cells)
    for cell in p.cells:
        successors = (cell[:j] + (cell[j] + 1,) + cell[j + 1:] for j in range(2))
        if any(s in p for s in successors):
            continue
        Partition(2, set(p.cells) - {cell})  # must not raise


@given(cell_lists_2d)
def test_json_round_trip(raw):
    p = Partition(2, bruteforce.close_down(raw))
    assert Partition.from_json_dict(p.to_json_dict()) == p
