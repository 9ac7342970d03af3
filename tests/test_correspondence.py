from itertools import product

import pytest

from borelbox import (
    MonomialIdeal,
    NotArtinian,
    Partition,
    enumerate_partitions,
    ideal_to_partition,
    partition_to_ideal,
)

import bruteforce
from cases import (
    ARTINIAN_IDEAL_2D_GENS,
    ARTINIAN_IDEAL_3D_GENS,
    PLANE_PARTITION_10_CELLS,
    STAIRCASE_2D_CELLS,
)


def artinian_universe(dim, side):
    """Every Artinian ideal with generators in the box, built from the
    brute-force antichain enumeration."""
    out = []
    for antichain in bruteforce.box_antichains(dim, side + 1):
        ideal = MonomialIdeal(dim, antichain)
        if ideal.is_artinian():
            out.append(ideal)
    return out


def test_staircase_pair():
    ideal = MonomialIdeal(2, ARTINIAN_IDEAL_2D_GENS)
    assert ideal_to_partition(ideal) == Partition(2, STAIRCASE_2D_CELLS)
    assert partition_to_ideal(Partition(2, STAIRCASE_2D_CELLS)) == ideal


def test_plane_partition_pair():
    ideal = MonomialIdeal(3, ARTINIAN_IDEAL_3D_GENS)
    assert ideal_to_partition(ideal) == Partition(3, PLANE_PARTITION_10_CELLS)
    assert partition_to_ideal(Partition(3, PLANE_PARTITION_10_CELLS)) == ideal


def test_one_variable_pair():
    ideal = MonomialIdeal(1, [(1,)])
    assert ideal_to_partition(ideal) == Partition(1, [(0,)])


def test_empty_partition_unit_ideal_pair():
    unit = MonomialIdeal(2, [(0, 0)])
    assert partition_to_ideal(Partition(2)) == unit
    assert ideal_to_partition(unit) == Partition(2)


def test_non_artinian_rejected():
    with pytest.raises(NotArtinian):
        ideal_to_partition(MonomialIdeal(2, [(1, 0)]))


def test_round_trips_on_enumerated_partitions():
    for dim, side in ((1, 3), (2, 3), (3, 2)):
        for p in enumerate_partitions(dim, side, "all"):
            assert ideal_to_partition(partition_to_ideal(p)) == p


def test_round_trips_on_independent_artinian_universe():
    for dim, side in ((2, 2), (3, 1)):
        ideals = artinian_universe(dim, side)
        assert len(ideals) > 1
        for ideal in ideals:
            assert partition_to_ideal(ideal_to_partition(ideal)) == ideal


def test_stability_transfers_across_the_correspondence():
    for ideal in artinian_universe(2, 2) + artinian_universe(3, 1):
        assert ideal.is_strongly_stable() == ideal_to_partition(ideal).is_strongly_stable()


def test_symmetry_transfers_across_the_correspondence():
    for ideal in artinian_universe(2, 2) + artinian_universe(3, 1):
        assert ideal.is_symmetric() == ideal_to_partition(ideal).is_totally_symmetric()


def test_side_length_matches_largest_pure_power():
    for dim, side in ((2, 3), (3, 2)):
        for p in enumerate_partitions(dim, side, "all"):
            ideal = partition_to_ideal(p)
            n = ideal.artinian_side()
            assert p.bounding_side() == n or len(p) == 0
            # the last variable's pure power sits in the generators exactly
            # when the deepest cell along the last axis is present
            pure = (0,) * (dim - 1) + (n,)
            deepest = (0,) * (dim - 1) + (n - 1,)
            if n > 0:
                assert (pure in set(ideal.gens)) == (deepest in p)


def test_cell_count_is_quotient_dimension():
    for ideal in artinian_universe(2, 2):
        n = ideal.artinian_side()
        outside = [m for m in product(range(n + 1), repeat=2)
                   if not ideal.contains(m)]
        assert len(ideal_to_partition(ideal)) == len(outside)


@pytest.mark.parametrize("dim, side", [(2, 5), (3, 3)])
def test_maps_match_box_scan_oracles(dim, side):
    for p in enumerate_partitions(dim, side, "all"):
        ideal = partition_to_ideal(p)
        assert set(ideal.gens) == bruteforce.box_minimal_generators(p.cells, dim)
        assert set(ideal_to_partition(ideal).cells) == bruteforce.box_complement(
            ideal.gens, dim)


def test_long_arm_maps_in_closed_form():
    arm = Partition(3, [(0, 0, k) for k in range(200)])
    ideal = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 200)])
    assert partition_to_ideal(arm) == ideal
    assert ideal_to_partition(ideal) == arm
