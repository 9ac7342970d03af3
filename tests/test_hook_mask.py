"""The bitmask checks that re-validate candidates in the walk: the hook
check of strongly stable ones (`enumeration._hooks_increase`), against the
cell-level `Partition.is_strongly_stable` and the brute-force oracle, and
the closure check of every cell-level candidate (`enumeration._down_closed`),
against the brute-force closure test."""

from itertools import combinations, product

import pytest

from borelbox import Partition, enumerate_partitions
from borelbox.enumeration import _down_closed, _hooks_increase, _inboxes, _layout

import bruteforce


def mask_check(dim, side, cells, check=_hooks_increase):
    steps, numbers = _layout(dim, side, cells)
    return check(sum(1 << k for k in numbers), steps, _inboxes(side, steps))


def reference(dim, cells):
    """The cell-level predicate and the oracle, which must agree."""
    verdict = Partition._trusted(dim, tuple(sorted(cells))).is_strongly_stable()
    assert verdict == bruteforce.naive_strongly_stable(cells)
    return verdict


@pytest.mark.parametrize("dim, side", [(1, 6), (2, 6), (3, 3), (4, 2), (5, 2)])
def test_mask_check_matches_the_references_on_every_partition(dim, side):
    verdicts = []
    for part in enumerate_partitions(dim, side, "all"):
        verdict = reference(dim, part.cells)
        assert mask_check(dim, side, part.cells) == verdict, part
        verdicts.append(verdict)
    # Both verdicts occur, except in d = 1, where every partition is stable.
    assert set(verdicts) == ({True} if dim == 1 else {True, False})


@pytest.mark.parametrize("dim, side", [(2, 3), (3, 2)])
def test_mask_check_matches_the_references_on_every_cell_set(dim, side):
    # Arms are runs of cells along an axis, so the definition also reads
    # on sets that are not downward closed.
    box = list(product(range(side), repeat=dim))
    for size in range(len(box) + 1):
        for cells in combinations(box, size):
            assert mask_check(dim, side, cells) == reference(dim, cells), cells


@pytest.mark.parametrize("side", [2, 3])
def test_shifts_do_not_carry_into_the_next_digit(side):
    # Strongly stable, but a shift along the second axis without the
    # in-box bound carries (1, 0, 0) onto (0, side - 1, 0), which the third
    # axis does not reach.
    cells = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert reference(3, cells)
    assert mask_check(3, side, cells)
    # Not strongly stable ((0, side - 1) has arms (1, 0)), but a carry
    # along the second axis would give (0, side - 1) an arm of 1 there.
    square = list(product(range(side), repeat=2))
    assert not reference(2, square)
    assert not mask_check(2, side, square)


@pytest.mark.parametrize("dim, side", [(1, 4), (2, 3), (3, 2)])
def test_closure_check_matches_the_oracle_on_every_cell_set(dim, side):
    # Every set, so also those where a shift without the in-box bound
    # would carry: (1, 0) is not the successor of (0, side - 1).
    box = list(product(range(side), repeat=dim))
    verdicts = set()
    for size in range(len(box) + 1):
        for cells in combinations(box, size):
            verdict = bruteforce.is_downward_closed(cells)
            assert mask_check(dim, side, cells, _down_closed) == verdict, cells
            verdicts.add(verdict)
    assert verdicts == {True, False}

