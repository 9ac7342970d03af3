"""The requirement-mask check that re-validates candidates in the walk: a
set passes when the OR of its members' requirement masks lies inside its
own mask.  For cells (`enumeration._cell_layout`) the requirements are
the predecessors and, for the strongly stable table, the adjacent moves;
run over the full box, where moves out of the box are never held, the
verdict must be exactly the brute-force closure test's, and with moves
that test and the stability oracle's together, on every cell set, and on
partitions also the cell-level `Partition.is_strongly_stable`'s.  For
orbits (`enumeration._orbit_layout`) the requirements are the
predecessor orbits, checked against the closure test on their cells.
`finalize`, handed the OR that the walk carries beside the mask, must
give the same verdicts on every set of table cells, in any order, and
name the failed predicate and the failed set's cells."""

import json
import random
from functools import cache, reduce
from itertools import combinations, product
from operator import or_

import pytest

from borelbox import ArithmeticSelfCheck, Partition, enumerate_partitions
from borelbox.enumeration import (_cell_layout, _mode, _orbit_layout,
                                  _orbit_requirements)

import bruteforce


def held(below, idxs, bits):
    """Whether the OR of the members' requirement masks lies inside the
    set's mask, the sum of its members' bits."""
    mask = sum(bits[i] for i in idxs)
    return not reduce(or_, map(below.__getitem__, idxs), 0) & ~mask


@cache
def box_layout(dim, side):
    """The full box in lexicographic order: each cell's index, each
    index's bit, and the requirement masks without and with moves."""
    box = list(product(range(side), repeat=dim))
    bits, closure = _cell_layout(box, False)
    return {cell: i for i, cell in enumerate(box)}, bits, closure, _cell_layout(box, True)[1]


def mask_check(dim, side, cells):
    """The check's (closed, closed and stable) verdicts on a set of box
    cells, over the full box."""
    index, bits, closure, stability = box_layout(dim, side)
    idxs = sorted(map(index.__getitem__, cells))
    return held(closure, idxs, bits), held(stability, idxs, bits)


def reference(dim, cells):
    """The cell-level predicate on a partition and the oracle, which must
    agree."""
    verdict = Partition._trusted(dim, tuple(sorted(cells))).is_strongly_stable()
    assert verdict == bruteforce.naive_strongly_stable(cells)
    return verdict


def references(dim, cells):
    """The brute-force (closed, closed and stable) verdicts on any cell
    set, the stable one also from the cell-level predicate when the set
    is closed."""
    if bruteforce.is_downward_closed(cells):
        return True, reference(dim, cells)
    return False, False


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
    # Arms are runs of cells along an axis, so the stability oracle also
    # reads on sets that are not downward closed; the check's one verdict
    # there must be that they fail.
    box = list(product(range(side), repeat=dim))
    verdicts = set()
    for size in range(len(box) + 1):
        for cells in combinations(box, size):
            closed = bruteforce.is_downward_closed(cells)
            stable = bruteforce.naive_strongly_stable(cells)
            assert mask_check(dim, side, cells) == (closed, closed and stable), cells
            verdicts.add((closed, stable))
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
    # Boxes too large for every subset, where the check's adjacent moves
    # have the most arms of length two and more to stand for.
    verdicts = set()
    for cells in random_cell_sets(dim, side, random.Random(f"hooks {dim} {side}")):
        verdict = references(dim, cells)
        assert mask_check(dim, side, cells) == verdict, cells
        verdicts.add((bruteforce.is_downward_closed(cells),
                      bruteforce.naive_strongly_stable(cells)))
    assert {(False, True), (False, False), (True, True)} <= verdicts


@pytest.mark.parametrize("side", [2, 3])
def test_moves_out_of_the_box_are_never_held(side):
    # Strongly stable, and no move leaves the box.
    cells = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert reference(3, cells)
    assert mask_check(3, side, cells) == (True, True)
    # Not strongly stable ((0, side - 1) has arms (1, 0)): the move from
    # (1, side - 1) to (0, side) leaves the box, so it is a requirement
    # no set holds.
    square = list(product(range(side), repeat=2))
    assert not reference(2, square)
    assert mask_check(2, side, square) == (True, False)


@pytest.mark.parametrize("dim, side", [(1, 4), (2, 3), (3, 2)])
def test_closure_check_matches_the_oracle_on_every_cell_set(dim, side):
    # Every set, so also those that hold a cell without its predecessor.
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
            assert held(below, reps, bit) == verdict, reps
            verdicts.add(verdict)
    assert verdicts == {True, False}


def hand(finalize, bits, below, idxs):
    """Hand `finalize` the set as the walk does: the OR of its
    requirement masks and its mask, built from `bits` and `below` as the
    walk builds them."""
    return finalize(reduce(or_, map(below.__getitem__, idxs), 0), sum(bits[i] for i in idxs))


def finalize_verdict(finalize, bits, below, idxs):
    """None when `finalize` passes the set, else the predicate its error
    names."""
    try:
        hand(finalize, bits, below, idxs)
    except ArithmeticSelfCheck as failed:
        return str(failed).rsplit(" is not ", 1)[1]
    return None


def expected_verdict(dim, predicate, cells):
    closed, stable = references(dim, cells)
    return ("downward closed" if not closed else
            "strongly stable" if predicate == "strongly_stable" and not stable else None)


@pytest.mark.parametrize("dim, side, predicate", [
    (2, 3, "all"), (3, 2, "all"), (2, 4, "strongly_stable"), (3, 3, "strongly_stable"),
    (4, 2, "strongly_stable")])
def test_finalize_matches_the_references_on_every_set_of_table_cells(dim, side, predicate):
    # The verdict is on the whole set: a requirement one member lacks
    # fails every set that holds it.
    order, _, bits, below, _, finalize = _mode(dim, side, predicate)
    verdicts = set()
    for size in range(len(order) + 1):
        for idxs in combinations(range(len(order)), size):
            expected = expected_verdict(dim, predicate, [order[i] for i in idxs])
            assert finalize_verdict(finalize, bits, below, list(idxs)) == expected, idxs
            verdicts.add(expected)
    assert verdicts == ({None, "downward closed"} if predicate == "all"
                        else {None, "downward closed", "strongly stable"})


def test_finalize_keeps_no_state_between_calls():
    # Out of walk order: every set of the (2,3) stable table, shuffled, so
    # no set follows its prefixes and sets that fail come between sets
    # that pass; each verdict is still the references'.
    order, _, bits, below, _, finalize = _mode(2, 3, "strongly_stable")
    sets = [list(idxs) for size in range(len(order) + 1)
            for idxs in combinations(range(len(order)), size)]
    random.Random("out of walk order").shuffle(sets)
    verdicts = set()
    for idxs in sets:
        expected = expected_verdict(2, "strongly_stable", [order[i] for i in idxs])
        assert finalize_verdict(finalize, bits, below, idxs) == expected, idxs
        verdicts.add(expected)
    assert verdicts == {None, "downward closed", "strongly stable"}


@pytest.mark.parametrize("dim, side, predicate", [
    (2, 3, "all"), (3, 3, "strongly_stable"), (2, 4, "totally_symmetric"),
    (3, 3, "totally_symmetric")])
def test_a_rejected_candidate_is_named_by_exactly_its_cells(dim, side, predicate):
    # `finalize` decodes the set's mask, one bit per index, only to name a
    # failed set: the message lists exactly the set's cells, sorted, and
    # for orbits every cell of each orbit.
    order, _, bits, below, _, finalize = _mode(dim, side, predicate)
    rejected = 0
    for size in range(1, len(order) + 1):
        for idxs in combinations(range(len(order)), size):
            try:
                hand(finalize, bits, below, idxs)
            except ArithmeticSelfCheck as failed:
                named = json.loads(str(failed).split("candidate ", 1)[1].rsplit(" is not ", 1)[0])
                cells = [order[i] for i in idxs]
                if predicate == "totally_symmetric":
                    cells = bruteforce.naive_symmetrize(cells)
                assert named == [list(c) for c in sorted(cells)], idxs
                rejected += 1
    assert rejected
