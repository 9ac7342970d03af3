"""The bitmask checks that re-validate candidates in the walk: the closure
and hook check of every cell-level candidate
(`enumeration._closed_and_stable`), whose two verdicts must be exactly
the brute-force closure test's and stability oracle's on every cell set,
and on partitions also the cell-level `Partition.is_strongly_stable`'s,
which is only defined on downward-closed sets; and the closure check of
sets of whole orbits on their masks (`enumeration._orbits_closed`),
against the same test on their cells."""

import random
from itertools import combinations, product

import pytest

from borelbox import Partition, enumerate_partitions
from borelbox.enumeration import (_closed_and_stable, _inboxes, _layout, _orbit_layout,
                                  _orbit_requirements, _orbits_closed)

import bruteforce


def mask_check(dim, side, cells):
    """The merged check's (closed, stable) verdicts on the cells' mask."""
    steps, numbers = _layout(dim, side, cells)
    return _closed_and_stable(sum(1 << k for k in numbers), steps, _inboxes(side, steps))


def reference(dim, cells):
    """The cell-level predicate on a partition and the oracle, which must
    agree."""
    verdict = Partition._trusted(dim, tuple(sorted(cells))).is_strongly_stable()
    assert verdict == bruteforce.naive_strongly_stable(cells)
    return verdict


def references(dim, cells):
    """The brute-force (closed, stable) verdicts on any cell set, the
    stable one also from the cell-level predicate when the set is closed."""
    if bruteforce.is_downward_closed(cells):
        return True, reference(dim, cells)
    return False, bruteforce.naive_strongly_stable(cells)


@pytest.mark.parametrize("dim, side", [(1, 6), (2, 6), (3, 3), (4, 2), (5, 2)])
def test_mask_check_matches_the_references_on_every_partition(dim, side):
    verdicts = []
    for part in enumerate_partitions(dim, side, "all"):
        verdict = reference(dim, part.cells)
        assert mask_check(dim, side, part.cells) == (True, verdict), part
        verdicts.append(verdict)
    # Both verdicts occur, except in d = 1, where every partition is stable.
    assert set(verdicts) == ({True} if dim == 1 else {True, False})


@pytest.mark.parametrize("dim, side", [(2, 3), (3, 2)])
def test_mask_check_matches_the_references_on_every_cell_set(dim, side):
    # Arms are runs of cells along an axis, so the definition also reads
    # on sets that are not downward closed, and both verdicts must be
    # exact on those too.
    box = list(product(range(side), repeat=dim))
    verdicts = set()
    for size in range(len(box) + 1):
        for cells in combinations(box, size):
            verdict = references(dim, cells)
            assert mask_check(dim, side, cells) == verdict, cells
            verdicts.add(verdict)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def random_cell_sets(dim, side, rng):
    """4,000 sets of box cells, each cell drawn at a density in 0.3-0.9,
    and 1,000 unions of one to three strongly stable partitions of the
    box one smaller, each shifted by 0 or 1 along every axis: the first
    kind almost never passes in the larger boxes, the second often does
    without being downward closed."""
    box = list(product(range(side), repeat=dim))
    for _ in range(4000):
        density = rng.uniform(0.3, 0.9)
        yield [cell for cell in box if rng.random() < density]
    stable = [p.cells for p in enumerate_partitions(dim, side - 1, "strongly_stable") if p]
    for _ in range(1000):
        cells = set()
        for _ in range(rng.randint(1, 3)):
            shift = [rng.randrange(2) for _ in range(dim)]
            cells.update(tuple(map(sum, zip(cell, shift))) for cell in rng.choice(stable))
        yield sorted(cells)


@pytest.mark.parametrize("dim, side", [(2, 5), (3, 3), (3, 4), (4, 3)])
def test_mask_check_matches_the_references_on_random_cell_sets(dim, side):
    # Boxes too large for every subset, where the check's one round of
    # shifts has the most arms of length two and more to stand for.
    verdicts = set()
    for cells in random_cell_sets(dim, side, random.Random(f"hooks {dim} {side}")):
        verdict = references(dim, cells)
        assert mask_check(dim, side, cells) == verdict, cells
        verdicts.add(verdict)
    assert {(False, True), (False, False), (True, True)} <= verdicts


@pytest.mark.parametrize("side", [2, 3])
def test_shifts_do_not_carry_into_the_next_digit(side):
    # Strongly stable, but a shift along the second axis without the
    # in-box bound carries (1, 0, 0) onto (0, side - 1, 0), which the third
    # axis does not reach.
    cells = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert reference(3, cells)
    assert mask_check(3, side, cells) == (True, True)
    # Not strongly stable ((0, side - 1) has arms (1, 0)), but a carry
    # along the second axis would give (0, side - 1) an arm of 1 there.
    square = list(product(range(side), repeat=2))
    assert not reference(2, square)
    assert mask_check(2, side, square) == (True, False)


@pytest.mark.parametrize("dim, side", [(1, 4), (2, 3), (3, 2)])
def test_closure_check_matches_the_oracle_on_every_cell_set(dim, side):
    # Every set, so also those where a shift without the in-box bound
    # would carry: (1, 0) is not the successor of (0, side - 1).
    box = list(product(range(side), repeat=dim))
    verdicts = set()
    for size in range(len(box) + 1):
        for cells in combinations(box, size):
            closed, _ = mask_check(dim, side, cells)
            assert closed == bruteforce.is_downward_closed(cells), cells
            verdicts.add(closed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("dim, side", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_orbit_closure_check_matches_the_oracle_on_every_set_of_orbits(dim, side):
    # Every set of orbit representatives, not only those the walk reaches;
    # the oracle expands each orbit by the full permutation group.
    order, _ = _orbit_requirements(dim, side)
    bit, below = _orbit_layout(order)
    verdicts = set()
    for size in range(len(order) + 1):
        for reps in combinations(range(len(order)), size):
            cells = bruteforce.naive_symmetrize(order[i] for i in reps)
            verdict = bruteforce.is_downward_closed(cells)
            mask = sum(bit[i] for i in reps)
            assert _orbits_closed(mask, reps, below) == verdict, reps
            verdicts.add(verdict)
    assert verdicts == {True, False}
