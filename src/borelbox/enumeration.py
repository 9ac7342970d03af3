"""Boxed partitions: listings, counts by transfers over slices, and exact
cross-checks.

The enumerators extend cell sets depth-first in lexicographic order:
every downward-closed set, listed in that order, has downward closed
prefixes, so a cell may be appended exactly when all of its coordinate
predecessors are already present.  Two refinements keep the constrained
streams small:

* strongly stable partitions are additionally closed under moving one
  unit of a coordinate to any later position, and that condition also
  holds prefix-by-prefix, so it prunes the walk to exactly the strongly
  stable sets;
* totally symmetric partitions are walked by orbit representative (cells
  with sorted coordinates), adding a whole orbit at a time.

The walk itself re-validates every node against the definitions
before it yields it as (mask, acc), so no listing or count can skip the
check; since the pruning guarantees that every candidate passes, one
that fails raises.  A walk node is its parent plus
one cell or orbit, so all it derives from its parent is carried in the
walk's stack frame (see :func:`_walk`): its frontier, as a bitmask of
walk indices, its bitmask in the layout below, which holds exactly its
indices, each by its own bit, the OR of its indices' requirement masks,
and one folded value, a listing's sorted cells or the stable transfer's
g.  Frames share nothing, so backtracking restores nothing, and what the
walk yields stays valid.

Every index has a requirement mask, the bits of what its piece needs by
the definition, and a set passes exactly when the OR of its indices'
requirement masks lies inside its own mask: one AND per candidate (see
:func:`_mode`).

* A set of cells has one bit per table cell, ranked in graded order
  apart from the walk's lexicographic index (see :func:`_cell_layout`).
  A cell requires its predecessors c - e_j, which is downward closure,
  and in the strongly stable table also its adjacent moves
  c - e_j + e_(j+1), which on a closed set is exactly increasing hooks
  (see :meth:`Partition.is_strongly_stable`).  The stable table lists
  only the cells with coordinate sum below the side, so a mask has one
  bit per cell of that simplex, not of the box.  Those cells are ψ⁻¹ of
  the orbit representatives below, taken from the same iterator (see
  :func:`_cell_requirements`).
* A set of whole orbits has one bit per orbit representative (see
  :func:`_orbit_layout`).  Such a union is totally symmetric once each
  of its orbits is, so what is checked is downward closure: a
  representative r requires the orbit of sorted(r - e_j) for every j
  with r_j > 0, and no orbit is expanded.

The requirement masks are built from the definitions, not from the
walk's predecessor and move tables, so the re-validation stays
independent of the pruning.  Cells are built only for a listing, and
carried in the stack frame the same way.  A node's cell indices
increase along the walk, so its one new cell is its largest, and its
sorted cells are its parent's with that cell appended; an orbit's cells
are merged into its parent's, by bisection or, for a large orbit, by
one sort of the two sorted runs.  A symmetric listing expands each orbit
once, when it is first used (under a budget, after charging its cells),
and checks it then for symmetry with the test
:meth:`Partition.is_totally_symmetric` runs; a union of symmetric orbits
is symmetric, so no node's cells are checked again.

Strongly stable and totally symmetric counts and generating functions
do not list the partitions (only the cumulative counts of all partitions
do).  Each of the two classes is counted by its own transfer over
slices, whose states are the (d-1)-dimensional partitions of that class
listed by the walk above and re-validated there on their masks, which
are all the transfers read:

* strongly stable partitions are sliced by their first coordinate, and
  each slice lies inside a shrunken copy of the one before it; the
  transfer sums over subsets (see :func:`_stable_transfer`);
* totally symmetric partitions are sliced by their largest coordinate,
  and each slice, cut down to the box below it, lies inside the one
  before it; the transfer sums over supersets (see
  :func:`_slice_transfer`).

Both sum with passes of one shape, one bit pass over a slice's state
masks per cell or representative, but they share no code beyond the
walk and the re-validation, and neither touches the bijection
machinery, so equal stable and symmetric counts are a genuine
cross-check of the side-preserving bijection.

The triple product formula for totally symmetric plane partitions, and
the q-analogue evaluated by exact polynomial division, round out the
module.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations_with_replacement, compress, product
from math import comb, isqrt, prod
from operator import add, or_, sub
from typing import Callable, Iterator

from .errors import ArithmeticSelfCheck, NonIntegerProduct, _Budget, _size_text
from .partitions import (MAX_DIM, Cell, Partition, _distinct_permutations,
                         _fixed_by_permutations, _orbit_size)
from .qpoly import QPolynomial, _div_one_minus_q_power, _mul_one_minus_q_power

PREDICATES = ("all", "strongly_stable", "totally_symmetric")


def _graded(cells) -> list[Cell]:
    return sorted(cells, key=lambda c: (sum(c), c))


def _cell_requirements(dim: int, side: int, stable: bool):
    """Box cells in lexicographic order, with the earlier cells each one
    needs before it may be added: its predecessors c - e_j and, when
    `stable`, its moves c - e_j + e_(j+1), each lexicographically smaller
    than c, so the order is a linear extension of both.  A cell of a
    strongly stable set in the box has coordinate sum below `side`
    (moving every unit to the last coordinate stays in the set), and its
    predecessors and move images stay in that simplex, so the stable
    table lists only those C(side+d-1, d) cells.  They are ψ⁻¹, the
    consecutive differences, of the weakly increasing tuples below
    `side`, the orbit representatives of :func:`_orbit_requirements`,
    from the same iterator: ψ, the prefix sums, maps the cells one to one
    onto the tuples and keeps lexicographic order, the order in which
    combinations_with_replacement lists them.  The differences are taken
    here, not by the bijection code, which validates its input."""
    if stable:
        order = [tuple(map(sub, r, (0,) + r[:-1]))
                 for r in combinations_with_replacement(range(side), dim)]
    else:
        order = list(product(range(side), repeat=dim))
    index = {c: i for i, c in enumerate(order)}
    requires = []
    for cell in order:
        need = [index[cell[:j] + (v - 1,) + cell[j + 1:]] for j, v in enumerate(cell) if v]
        if stable:
            need += [index[cell[:j] + (cell[j] - 1, cell[j + 1] + 1) + cell[j + 2:]]
                     for j in range(dim - 1) if cell[j]]
        requires.append(tuple(need))
    return order, requires


def _orbit_requirements(dim: int, side: int):
    """Orbit representatives (weakly increasing cells) in graded
    lexicographic order, each with the representatives of its predecessor
    orbits."""
    order = _graded(combinations_with_replacement(range(side), dim))
    index = {r: i for i, r in enumerate(order)}
    requires = []
    for rep in order:
        # Lowering the first entry of each run of equal values, as in
        # :func:`_orbit_layout`, keeps the tuple sorted and gives each
        # predecessor orbit once, in increasing graded order.
        requires.append(tuple(index[rep[:j] + (v - 1,) + rep[j + 1:]]
                              for j, v in enumerate(rep) if v and (j == 0 or rep[j - 1] < v)))
    return order, requires


def _walk(requires, bits: list[int], below: list[int], fold,
          finalize: Callable[[int, int], int],
          tick: Callable[[], None]) -> Iterator[tuple[int, object]]:
    """Depth-first over admissible index sets, each yielded once as
    (mask, acc) after finalize(need, mask), the re-validation of
    :func:`_mode`, has passed it, so no consumer can skip the check;
    children in increasing order of the added index, so a set's indices
    are added in increasing order.  `requires[j]` lists the indices j
    needs, all below j, as in a linear extension.

    A node extends only through its frontier: the indices above its last
    whose requirements it holds, as a bitmask.  A stack frame holds all a
    node derives from its parent, (frontier, mask, need, acc): its mask
    is the OR of bits[i] over its indices, its need the OR of below[i],
    their requirement masks, and its acc, which `fold` = (pieces, join,
    empty) gives as join(parent's acc, pieces[i]), and as `empty` at the
    root.  A step pops a frame, takes its lowest frontier bit, i, and
    pushes the rest back as the sibling frame.  The child's frontier is
    that rest plus each index that needs i and whose unlock mask, the OR
    of bits[k] over `requires[j]`, lies inside the child's mask; each
    index has its own bit, so the mask holds exactly the set's indices,
    a node unlocks what it completes, and no index keeps a count.
    Frames share nothing, so backtracking is the pop, and each yielded
    tuple stays valid."""
    pieces, join, acc = fold
    # For each index, the (unlock mask, frontier bit) of every index that
    # needs it; the root's frontier is the indices that need nothing.
    unlocks: list[list[tuple[int, int]]] = [[] for _ in requires]
    frontier = 0
    for j, needed in enumerate(requires):
        want = 0
        for k in needed:
            want |= bits[k]
        pair = (want, 1 << j)
        for k in needed:
            unlocks[k].append(pair)
        if not want:
            frontier |= 1 << j
    tick()
    yield finalize(0, 0), acc
    stack = [(frontier, 0, 0, acc)] if frontier else []
    pop, push = stack.pop, stack.append
    while stack:
        frontier, mask, need, acc = pop()
        low = frontier & -frontier
        frontier ^= low
        if frontier:
            push((frontier, mask, need, acc))
        i = low.bit_length() - 1
        tick()
        mask |= bits[i]
        need |= below[i]
        acc = join(acc, pieces[i])
        yield finalize(need, mask), acc
        for want, bit in unlocks[i]:
            if want & mask == want:
                frontier |= bit
        if frontier:
            push((frontier, mask, need, acc))


def _rejected(cells, failed: str) -> ArithmeticSelfCheck:
    return ArithmeticSelfCheck(
        f"enumerated candidate {[list(c) for c in sorted(cells)]} is not {failed}")


def _cell_layout(order: list[Cell], stable: bool) -> tuple[list[int], list[int]]:
    """The bit layout of the cell listings and the stable transfer: bit k
    of a cell set's mask is the k-th cell of `order` by coordinate sum,
    ties in the order given (graded order for the walk's lexicographic
    tables), apart from the walk's index, so the cells with coordinate
    sum below m are the lowest bits.  Returns each cell's bit
    and its requirement mask, the bits of its predecessors c - e_j for
    each j with c_j > 0 and, when `stable`, of its moves c - e_j + e_(j+1),
    built from those rules and not from the walk's table, so the
    re-validation stays independent of the pruning.  A requirement that
    is not in `order` is bit len(order), which no set holds."""
    bit = {cell: 1 << k for k, cell in enumerate(sorted(order, key=sum))}
    outside = 1 << len(order)
    below = []
    for cell in order:
        need = [cell[:j] + (v - 1,) + cell[j + 1:] for j, v in enumerate(cell) if v]
        if stable:
            need += [cell[:j] + (v - 1, cell[j + 1] + 1) + cell[j + 2:]
                     for j, v in enumerate(cell[:-1]) if v]
        below.append(reduce(or_, (bit.get(c, outside) for c in need), 0))
    return list(map(bit.__getitem__, order)), below


def _orbit_layout(order: list[Cell]) -> tuple[list[int], list[int]]:
    """The bit layout of orbit representatives that the symmetric listing
    and transfer share: bit k of a state's mask is the k-th representative
    by (largest value, graded order), a linear extension of the orbit
    poset in which those inside [0, c)^d come first, so the states inside
    that box are the masks below 2^(their number).  Returns each
    representative's bit and the mask of its predecessor orbits, those of
    sorted(r - e_j) for each j with r_j > 0, built from that rule and not
    from the walk's table, so the re-validation stays independent of the
    pruning."""
    ranked = sorted(order, key=lambda rep: (max(rep, default=0), sum(rep), rep))
    rank = {rep: k for k, rep in enumerate(ranked)}
    bit = [1 << rank[rep] for rep in order]
    # r is weakly increasing: lowering the first entry of a run of equal
    # values keeps it so, and lowering another entry of the run gives the
    # same sorted tuple.
    below = [sum(1 << rank[rep[:j] + (v - 1,) + rep[j + 1:]]
                 for j, v in enumerate(rep) if v and (j == 0 or rep[j - 1] < v))
             for rep in order]
    return bit, below


def _mode(dim: int, side: int, predicate: str,
          charge: Callable[[int], None] | None = None):
    """The walk's table, bit layout and listing fold for the predicate,
    and its re-validation: (order, requires, bits, below, fold, finalize).
    `below[i]` is index i's requirement mask, the bits of what its piece
    needs by the predicate's definition (see :func:`_cell_layout` and
    :func:`_orbit_layout`).  `finalize(need, mask)` passes a set exactly
    when `need`, the OR of its indices' requirement masks, lies inside
    its mask: one AND, a verdict on the whole set, which depends on
    nothing else, so any set may be checked at any time.  Each index has
    its own bit, so the mask is decoded to the set's indices only when
    the set fails, to name its cells.  `finalize` returns the mask,
    which is all the transfers read, and comes last, where the
    benchmark's tracer times the re-validation of every walked node.

    `fold` carries a listed node's sorted cells along the walk (see
    :func:`_walk`).  In the cell tables, whose order is lexicographic, a
    node's indices increase, so its one new cell is its largest and is
    appended.  An orbit, whose cells come sorted, is merged into its
    parent's cells: cell by cell by bisection while it is small, by one
    sort of the two sorted runs once len(orbit) * log2(len(cells)) passes
    len(cells).  The orbit is expanded on first use and checked then,
    once, for symmetry: a union of sets that every coordinate permutation
    fixes is fixed by them too.  A budgeted listing's `charge` is handed
    the orbit's cell count first; naming a rejected set charges nothing."""
    stable = predicate == "strongly_stable"
    if predicate == "totally_symmetric":
        order, requires = _orbit_requirements(dim, side)
        bits, below = _orbit_layout(order)
        orbits: list[tuple[Cell, ...] | None] = [None] * len(order)

        def piece(i: int) -> tuple[Cell, ...]:
            orbit = orbits[i]
            if orbit is None:
                orbit = orbits[i] = tuple(_distinct_permutations(order[i]))
                if not _fixed_by_permutations(frozenset(orbit), orbit, dim):
                    raise _rejected(orbit, "totally symmetric")
            return orbit

        def grow(cells: tuple[Cell, ...], i: int) -> tuple[Cell, ...]:
            if charge is not None and orbits[i] is None:
                charge(_orbit_size(order[i]))
            orbit = piece(i)
            # Both runs are sorted.  Each insort costs a bisection and a
            # move of the tail; one sort merges the runs in linear time,
            # which wins once the orbit is large against the cells.
            if len(orbit) * len(cells).bit_length() > len(cells):
                return tuple(sorted(cells + orbit))
            merged = list(cells)
            for cell in orbit:
                insort(merged, cell)
            return tuple(merged)
        fold = (range(len(order)), grow, ())
    else:
        order, requires = _cell_requirements(dim, side, stable)
        bits, below = _cell_layout(order, stable)
        pieces = [(cell,) for cell in order]
        piece = pieces.__getitem__
        fold = (pieces, add, ())

    def finalize(need: int, mask: int) -> int:
        if need & ~mask:
            idxs = [i for i, bit in enumerate(bits) if mask & bit]
            # A stable set that holds its predecessors lacks a move.
            closed = stable and not reduce(
                or_, map(_cell_layout(order, False)[1].__getitem__, idxs)) & ~mask
            raise _rejected((c for i in idxs for c in piece(i)),
                            "strongly stable" if closed else "downward closed")
        return mask
    return order, requires, bits, below, fold, finalize


def _check_box_args(dim: int, side: int, predicate: str) -> None:
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ValueError(f"dimension must be at most {MAX_DIM}, got {dim}")
    if type(side) is not int or side < 0:
        raise ValueError(f"side must be a nonnegative integer, got {side!r}")
    if predicate not in PREDICATES:
        raise ValueError(f"predicate must be one of {PREDICATES}, got {predicate!r}")


def _box_budget(dim: int, side: int, predicate: str, budget: int | None,
                table_dim: int) -> _Budget:
    """Check a box's arguments and start its budget, refusing before it is
    built a requirement table in dimension `table_dim` (a transfer's is
    its slices') whose coordinates, d per entry and one in dimension 0,
    exceed it: side^d cells, or C(side+d-1, d) stable cells or orbits.
    A table of at least 2^low entries, low read off the bit lengths, is
    never sized exactly when that bound already refuses it (see
    `_Budget.refuse`); C(m, k) >= (m // k)^k, k the smaller of d and
    side - 1.  Then a side past `sys.maxsize`, which no list or range
    can index, is refused as malformed input, in its own words."""
    _check_box_args(dim, side, predicate)
    limiter = _Budget(budget)
    if budget is not None:
        if predicate == "all":
            low = (side.bit_length() - 1) * table_dim
            entries = lambda: side ** table_dim
        else:
            m, k = max(side + table_dim - 1, 0), min(table_dim, side - 1)
            low = ((m // k).bit_length() - 1) * k if k > 0 else 0
            entries = lambda: comb(m, table_dim)
        limiter.refuse(lambda: entries() * max(table_dim, 1),
                       "the requirement table of {} coordinates exceeds the node budget", low)
    if side > sys.maxsize:
        raise ValueError(f"side must be at most {sys.maxsize} to index a list, "
                         f"got {_size_text(side)}")
    return limiter


def enumerate_partitions(dim: int, side: int, predicate: str = "all", *,
                         budget: int | None = None) -> Iterator[Partition]:
    """Yield every partition with bounding side at most `side` satisfying
    the predicate, each exactly once, in a deterministic depth-first
    order starting from the empty partition.

    `budget` caps the requirement table's coordinates, and the search
    nodes with a symmetric listing's cells, charged orbit by orbit before
    each is first expanded; exceeding it raises :class:`ResourceLimit`,
    before the table is built when the table is the larger.  Every
    candidate is re-validated against the predicate's definition on its
    bitmask, which must hold the OR of its members' requirement masks
    (see :func:`_mode`): a cell's predecessors, and for a strongly stable
    one also its adjacent moves, which on a closed set are increasing
    hooks; an orbit's predecessor orbits.  A totally symmetric one is
    also checked for symmetry orbit by orbit, each orbit once, when it is
    first expanded, by the test :meth:`Partition.is_totally_symmetric`
    runs.  One that fails raises :class:`ArithmeticSelfCheck`, since the pruned
    walk cannot produce it.  So a stable or symmetric partition is yielded
    with the record of its predicate, which spares the maps of
    :mod:`borelbox.bijection` testing it again (see
    :meth:`Partition._trusted`); the public predicates still test it.

    The arguments, and the table's size against the budget, are checked
    at the call; the walk runs as partitions are drawn.
    """
    limiter = _box_budget(dim, side, predicate, budget, dim)

    def listing() -> Iterator[Partition]:
        _, requires, bits, below, fold, finalize = _mode(
            dim, side, predicate, None if budget is None else limiter.charge)
        trusted = Partition._trusted
        holds = None if predicate == "all" else predicate
        for _, cells in _walk(requires, bits, below, fold, finalize, limiter.tick):
            yield trusted(dim, cells, holds)
    return listing()


def _tally(dim: int, side: int, predicate: str, stat: Callable[[Partition], int],
           *, budget: int | None = None) -> Counter:
    """Tally stat(partition) over the enumerated stream, for the counts of
    all partitions in :func:`cumulative_counts`."""
    return Counter(stat(p) for p in enumerate_partitions(dim, side, predicate,
                                                         budget=budget))


def _one(size: int) -> int:
    return 1


def _q_power(size: int) -> QPolynomial:
    return QPolynomial((0,) * size + (1,))


def _stable_transfer(dim: int, side: int, weight: Callable[[int], object], *,
                     budget: int | None = None) -> list:
    """Weighted counts of the strongly stable partitions that fit in boxes
    of side 0, 1, ..., `side`, each weighted by weight(cell count), by a
    transfer over slices instead of a listing.

    Slice such a partition P by its first coordinate: for a < side,
    S_a = {y in [0, side)^(d-1) : (a, y) in P}.  Each S_a is a (d-1)-
    dimensional strongly stable partition, the cells of P are those of
    its slices, and P -> (S_0, ..., S_(side-1)) is a bijection onto the
    chains with S_a <= g(S_(a-1)) for every a >= 1, where
    g(S) = {y in S : y + e_1 in S} is again such a partition (g is the
    identity when d = 1): moving a unit from x_1 to x_2 must stay in P,
    which also gives the down-closure in x_1 and the moves from x_1 to
    later coordinates.  With F_a(S) the weighted count of the chains
    S = S_a, ..., S_(side-1) and Z_a(T) the sum of F_a over the states
    inside T,

        F_a(S) = w(S) * Z_(a+1)(g(S)),   Z_side = 1.

    The last m slices form a chain of the box of side m exactly when
    S_(side-m) lies in [0, m)^(d-1), that is in the largest state T_m
    there, the cells with coordinate sum below m; so entry m is
    Z_(side-m)(T_m), and F_(side-m) is needed on the states inside T_m
    only.

    The states are the (d-1)-dimensional strongly stable partitions of
    side at most `side`, listed by one run of the stable walk and
    re-validated there on their bitmasks, which the walk yields with them
    and which key the states here; no cell set is built.  A mask has one
    bit per cell with coordinate sum below `side`, ranked in graded order
    apart from the walk's lexicographic index (see :func:`_cell_layout`).
    g(S) is the OR, over the cells y of S with y_1 > 0, of the bit of
    y - e_1, folded along the walk beside the requirement masks (see
    :func:`_walk`): a node's is its parent's with its last cell's.  The
    cells with coordinate sum below m are the k_m lowest bits, so with
    the states sorted by mask, those inside T_m are the masks below
    2^(k_m), and T_m, which holds each of them, is the last.  A state's
    cell count is its mask's bit count.

    For m < side, Z_(side-m) on the states inside T_m is one bit pass
    over those states per cell of T_m, in increasing graded (bit) order,
    a linear extension of the cell order: each state holding the cell's
    bit b adds Z[mask ^ b] whenever mask ^ b is a state (a zeta
    transform on the lattice of order ideals).  That is O(states x cells)
    per slice, the shape of the symmetric transfer's passes over
    supersets.  Entry `side` needs no pass: Z_0(T_side) is the sum of F_0
    over every state, and no later slice reads Z.

    The budget is charged one per walk node, one per state of each slice
    and one per (cell, state) step tried.
    """
    limiter = _box_budget(dim, side, "strongly_stable", budget, dim - 1)
    order, requires, bits, below, _, finalize = _mode(dim - 1, side, "strongly_stable")
    # Each cell's share of g: the bit of y - e_1, none when y_1 = 0, and in
    # dimension 0, whose one cell () has no first coordinate, its own.
    bit = dict(zip(order, bits))
    down = bits if dim == 1 else [bit.get((y[0] - 1,) + y[1:], 0) for y in order]
    masks, images = zip(*sorted(
        _walk(requires, bits, below, (down, or_, 0), finalize, limiter.tick)))
    index = {mask: s for s, mask in enumerate(masks)}
    weights = [weight(mask.bit_count()) for mask in masks]
    inner = [index[image] for image in images]
    # Cells with coordinate sum below m, and the states made of them.
    levels = sorted(map(sum, order))
    cells_below = [bisect_left(levels, m) for m in range(side + 1)]
    states_below = [bisect_left(masks, 1 << k) for k in cells_below]

    limiter.phase = "transfer"
    sums = [weight(0)] * len(masks)  # Z_side: the empty chain
    totals = [sums[0]]
    for m in range(1, side + 1):
        size = states_below[m]
        limiter.charge(size)
        sums = [sums[inner[s]] * weights[s] for s in range(size)]
        if m == side:
            totals.append(reduce(add, sums))
            break
        domain = masks[:size]
        for k in range(cells_below[m]):
            limiter.charge(size)
            b = 1 << k
            for s, mask in enumerate(domain):
                if mask & b:
                    t = index.get(mask ^ b)
                    if t is not None:
                        sums[s] += sums[t]
        totals.append(sums[size - 1])  # T_m, the last state inside it
    return totals


def count_ss(dim: int, side: int, *, budget: int | None = None) -> int:
    """Number of strongly stable partitions fitting in a box of the given
    side, the empty partition included, counted without listing them.

    Slicing by the first coordinate is a bijection: a partition P is the
    chain of its slices S_a = {y : (a, y) in P}, a < side, each a
    (d-1)-dimensional strongly stable partition, with S_a inside
    g(S_(a-1)) = {y in S_(a-1) : y + e_1 in S_(a-1)}.  The chains are
    counted by a transfer from slice to slice (:func:`_stable_transfer`),
    separate from the symmetric one, so equal counts still compare two
    independent methods.

    `budget` caps the slice-state walk and the transfer steps together;
    exceeding it raises :class:`ResourceLimit` naming the phase (table,
    walk or transfer).  A slice state that fails re-validation raises
    :class:`ArithmeticSelfCheck`.
    """
    return _stable_transfer(dim, side, _one, budget=budget)[-1]


def _slice_transfer(dim: int, side: int, weight: Callable[[int], object], *,
                    budget: int | None = None) -> list:
    """Weighted counts of the totally symmetric partitions that fit in
    boxes of side 0, 1, ..., `side`, each weighted by weight(orbit count),
    by a transfer over slices instead of a listing.

    Slice such a partition L by its largest coordinate: for c < side,
    P_c = {x in [0, c]^(d-1) : (x, c) in L}.  Each P_c is a (d-1)-
    dimensional totally symmetric partition of side at most c + 1, the
    orbits of L are those of its slices (sorted cells (x, c) with x
    sorted), and L -> (P_0, ..., P_(side-1)) is a bijection onto the
    chains with P_c & [0, c)^(d-1) <= P_(c-1) for every c.  L fits in the
    box of side c + 1 exactly when its later slices are empty, so entry
    c + 1 is the total over the chains that end at slice c.

    The states are the (d-1)-dimensional partitions of side at most
    `side`, listed by one run of the symmetric walk, each an int bitmask
    over orbit representatives that the walk yields with it, re-validated
    for downward closure on its requirement masks (see :func:`_mode`); no
    orbit is expanded into cells.  Bits follow the representatives by
    (largest value, graded order) (see :func:`_orbit_layout`), so the
    states inside [0, c)^(d-1) are the masks below 2^(the number of
    representatives there).  Summing the previous slice over the
    supersets of each state is one pass per representative in reverse
    order, adding the state with that representative added whenever it
    is one (a zeta transform on the lattice of order ideals):
    O(states x representatives) per slice.

    The budget is charged one per walk node, one per state of each slice
    and one per (representative, state) step tried.
    """
    limiter = _box_budget(dim, side, "totally_symmetric", budget, dim - 1)
    order, requires, bits, below, _, finalize = _mode(dim - 1, side, "totally_symmetric")
    # Nothing to carry but the mask and the requirements.
    nothing = ([0] * len(order), or_, 0)
    masks = sorted(mask for mask, _ in _walk(requires, bits, below, nothing, finalize,
                                             limiter.tick))
    index = {mask: s for s, mask in enumerate(masks)}
    weights = [weight(mask.bit_count()) for mask in masks]
    # Representatives inside [0, c)^(d-1), and the states made of them.
    tops = sorted(max(rep, default=0) for rep in order)
    reps_below = [bisect_left(tops, c) for c in range(side + 1)]
    states_below = [bisect_left(masks, 1 << r) for r in reps_below]

    limiter.phase = "transfer"
    chains = [weight(0)]  # the empty chain, at the empty state
    totals = [weight(0)]
    for c in range(side):
        domain = masks[:states_below[c]]
        for k in reversed(range(reps_below[c])):
            limiter.charge(len(domain))
            b = 1 << k
            for s, mask in enumerate(domain):
                if not mask & b:
                    t = index.get(mask | b)
                    if t is not None:
                        chains[s] += chains[t]
        low = (1 << reps_below[c]) - 1
        limiter.charge(states_below[c + 1])
        chains = [chains[index[mask & low]] * weights[s]
                  for s, mask in enumerate(masks[:states_below[c + 1]])]
        totals.append(reduce(add, chains))
    return totals


def count_ts(dim: int, side: int, *, budget: int | None = None) -> int:
    """Number of totally symmetric partitions fitting in a box of the
    given side, the empty partition included, counted without listing
    them.

    Slicing by the largest coordinate is a bijection: a partition L is
    the chain of its slices P_c = {x in [0, c]^(d-1) : (x, c) in L},
    c < side, each a (d-1)-dimensional totally symmetric partition of
    side at most c + 1, with P_c & [0, c)^(d-1) <= P_(c-1).  The chains
    are counted by a transfer from slice to slice
    (:func:`_slice_transfer`).

    `budget` caps the slice-state walk and the transfer steps together;
    exceeding it raises :class:`ResourceLimit` naming the phase (table,
    walk or transfer).  A slice state that is not downward closed fails
    re-validation on its orbit mask and raises
    :class:`ArithmeticSelfCheck`.
    """
    return _slice_transfer(dim, side, _one, budget=budget)[-1]


@dataclass(frozen=True)
class CountTable:
    """Cumulative counts of strongly stable and totally symmetric
    partitions by box side, from 0 up to `side`."""

    dim: int
    side: int
    stable: tuple[int, ...]
    symmetric: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"d": self.dim, "n": self.side,
                "B": list(self.stable), "T": list(self.symmetric)}


def cumulative_counts(dim: int, side: int, predicate: str, *,
                      budget: int | None = None) -> tuple[int, ...]:
    """Counts of the partitions satisfying the predicate that fit in boxes
    of side 0, 1, ..., `side`.  Totally symmetric ones come from one slice
    transfer (:func:`_slice_transfer`): 1, then the total after each
    slice, since a partition fits in the box of side c + 1 exactly when
    its slices past c are empty.  Strongly stable ones come from the
    other slice transfer (:func:`_stable_transfer`): entry m sums the
    chains of the last m slices whose first slice lies in [0, m)^(d-1).
    All partitions come from one enumeration bucketed by bounding side."""
    if predicate == "totally_symmetric":
        return tuple(_slice_transfer(dim, side, _one, budget=budget))
    if predicate == "strongly_stable":
        return tuple(_stable_transfer(dim, side, _one, budget=budget))
    by_side = _tally(dim, side, predicate, Partition.bounding_side, budget=budget)
    return tuple(accumulate(by_side.get(k, 0) for k in range(side + 1)))


def count_table(dim: int, side: int, *, budget: int | None = None) -> CountTable:
    """Cumulative count table: each column from its own transfer over
    slices, the strongly stable one by the first coordinate and the
    totally symmetric one by the largest (see :func:`cumulative_counts`)."""
    return CountTable(dim, side,
                      cumulative_counts(dim, side, "strongly_stable", budget=budget),
                      cumulative_counts(dim, side, "totally_symmetric", budget=budget))


def orbit_gf_ts(dim: int, side: int, *, budget: int | None = None) -> QPolynomial:
    """Generating function summing q^(orbit count) over the totally
    symmetric partitions in the box, from the slice transfer of
    :func:`count_ts` with each slice state weighted by q^(its orbit
    count): the orbits of a partition are those of its slices."""
    return _slice_transfer(dim, side, _q_power, budget=budget)[-1]


def cell_gf_ss(dim: int, side: int, *, budget: int | None = None) -> QPolynomial:
    """Generating function summing q^(cell count) over the strongly
    stable partitions in the box, from the slice transfer of
    :func:`count_ss` with each slice state weighted by q^(its cell
    count): the cells of a partition are those of its slices."""
    return _stable_transfer(dim, side, _q_power, budget=budget)[-1]


def _triple_exponents(n: int) -> dict[int, int]:
    """The cancelled factor table of the boxed triple product: t -> e_t
    with prod over 1 <= i <= j <= k <= n of F(i+j+k-1)/F(i+j+k-2) equal
    to prod F(t)^e_t, for any F.  With m_s the number of triples summing
    to s, e_t = m_(t+1) - m_(t+2) = -steps_(t+2), steps being the first
    differences of m; zero exponents are left out.

    For each i the sums i+j+k over i <= j <= k <= n fill [i+2j, i+j+n]
    for every j, so steps holds +1 at each i+2j (a stride-2 run from 3i
    to i+2n) and -1 at each i+j+n+1 (a stride-1 run from 2i+n+1 to
    i+2n+1).  Both runs go into one list of differences that the running
    sums over its even and its odd entries undo: the stride-2 run as +1 at
    3i and -1 at i+2n+2, the stride-1 run as -1 at 2i+n+1 and 2i+n+2 and
    +1 at i+2n+2 and i+2n+3 (a stride-1 running sum is a stride-2 one of
    x_k + x_(k-1)).  The two entries at i+2n+2 cancel, which leaves four
    per i: O(n) Python steps."""
    diffs = [0] * (3 * n + 4)
    for i in range(1, n + 1):
        diffs[3 * i] += 1
        diffs[2 * i + n + 1] -= 1
        diffs[2 * i + n + 2] -= 1
        diffs[i + 2 * n + 3] += 1
    steps = [0] * len(diffs)
    steps[0::2] = accumulate(diffs[0::2])
    steps[1::2] = accumulate(diffs[1::2])
    return {t: -steps[t + 2] for t in range(1, 3 * n) if steps[t + 2]}


def _primes(limit: int) -> list[int]:
    """The primes up to `limit` (at least 1), by the sieve of
    Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def _balanced_product(factors: list[int]) -> int:
    """The product of the factors, the two halves' products multiplied
    last, so that large operands meet operands of similar size; a few
    factors are multiplied in a row, which costs less than splitting."""
    if len(factors) <= 8:
        return prod(factors)
    half = len(factors) // 2
    return _balanced_product(factors[:half]) * _balanced_product(factors[half:])


def _integer_product(exponents: dict[int, int]) -> int:
    """prod t^e_t over the table (t >= 1), from the exponent of each prime:
    with e listed by t, p appears sum over k >= 1 of sum(e[p^k::p^k])
    times, p^k dividing t once for each k with t a multiple of p^k.  The
    result is the product of the prime powers, with no division.  A
    negative exponent raises :class:`NonIntegerProduct`, naming the
    fraction, already reduced since numerator and denominator share no
    prime."""
    top = max(exponents, default=1)
    table = [0] * (top + 1)
    for t, e in exponents.items():
        table[t] = e
    numerator, denominator = [], []
    for p in _primes(top):
        power, a = p, 0
        while power <= top:
            a += sum(table[power::power])
            power *= p
        if a > 0:
            numerator.append(p ** a)
        elif a < 0:
            denominator.append(p ** -a)
    if denominator:
        raise NonIntegerProduct(f"the product is the fraction "
                                f"{_balanced_product(numerator)}/"
                                f"{_balanced_product(denominator)}")
    return _balanced_product(numerator)


def _q_product(exponents: dict[int, int]) -> QPolynomial:
    """prod (1 - q^t)^e_t over the table, on one coefficient list: each
    factor with e_t > 0 is multiplied in as a shifted subtraction, then
    each factor with e_t < 0 is divided off as running sums per residue
    class, and a non-polynomial value raises :class:`InexactDivision`.
    One :class:`QPolynomial` is built, from the final list."""
    coeffs = [1]
    for t, e in exponents.items():
        for _ in range(e):
            _mul_one_minus_q_power(coeffs, t)
    for t, e in exponents.items():
        for _ in range(-e):
            coeffs = _div_one_minus_q_power(coeffs, t)
    return QPolynomial(coeffs)


def _check_side(n: int, budget: int | None, measure: str) -> None:
    """Validate the side of a triple product, and refuse with
    :class:`ResourceLimit` one whose C(n+2, 3) triples exceed the budget;
    `measure` names that count, with {} for it, for the message.  Then
    refuse an n whose factor table of 3n + 4 entries no list can index."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    _Budget(budget).refuse(comb(n + 2, 3), f"a product of {measure} exceeds the budget")
    if 3 * n + 4 > sys.maxsize:
        raise ValueError(f"n must be at most {(sys.maxsize - 4) // 3} for a factor table "
                         f"of 3n + 4 entries, got {_size_text(n)}")


def stembridge_t3(n: int, *, budget: int | None = None) -> int:
    """Totally symmetric plane partitions in an n-box, by the triple
    product over 1 <= i <= j <= k <= n of (i+j+k-1)/(i+j+k-2), evaluated
    exactly from its cancelled factor table (see :func:`qtspp`): the table
    takes O(n) steps, and the product is taken over the exponent of each
    prime, with no division (see :func:`_integer_product`).

    The result is guaranteed to be an integer; a fractional outcome
    signals an arithmetic bug and raises :class:`NonIntegerProduct`.
    Cancelling common factors first does not weaken that check: a
    fraction is an integer exactly when its reduced form is.

    `budget` caps C(n+2, 3), the number of factors, and a larger count
    raises :class:`ResourceLimit` before the table is built.  The count
    also bounds the result's bits: the result counts the order ideals of
    the C(n+2, 3) orbit representatives, so it is at most 2^C(n+2, 3).
    """
    _check_side(n, budget, "{} factors")
    return _integer_product(_triple_exponents(n))


def qtspp(n: int, *, budget: int | None = None) -> QPolynomial:
    """Orbit-counting q-analogue for totally symmetric plane partitions in
    an n-box: the product over 1 <= i <= j <= k <= n of
    (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)).

    Numerator and denominator factors are cancelled in a table of
    exponents e_t of 1 - q^t first (for n = 12 the numerator degree drops
    from 6,734 to 560).  On one coefficient list, the factors with e_t > 0
    are multiplied out and each remaining denominator is divided off
    exactly (see :func:`_q_product`); any nonzero remainder raises
    :class:`InexactDivision`, since polynomiality is guaranteed.
    Cancelling keeps that check whole: a rational function is a polynomial
    exactly when its reduced form is, so the divisions left succeed
    exactly when dividing off every denominator would.  Evaluating the
    result at q=1 equals :func:`stembridge_t3`.

    The result has degree C(n+2, 3); `budget` caps that degree, and a
    larger one raises :class:`ResourceLimit` before any arithmetic.
    """
    _check_side(n, budget, "degree {}")
    return _q_product(_triple_exponents(n))


def hawkes_counts(dim: int, side: int, *,
                  budget: int | None = None) -> tuple[int, int]:
    """Both sides of the box-transposition identity: the strongly stable
    counts for dimension d and side n, and for dimension n-1 and side d+1,
    each from its own slice transfer (:func:`count_ss`), under its own
    budget.  Both boxes are checked before either count."""
    _check_box_args(dim, side, "strongly_stable")
    if side < 2:
        raise ValueError("the identity needs side >= 2")
    if side - 1 > MAX_DIM:
        raise ValueError(f"the transposed box's dimension must be at most {MAX_DIM}, "
                         f"got n - 1 = {side - 1}")
    return (count_ss(dim, side, budget=budget),
            count_ss(side - 1, dim + 1, budget=budget))


def hawkes_check(dim: int, side: int, *, budget: int | None = None) -> bool:
    """Check the box-transposition identity: the count for dimension d and
    side n equals the count for dimension n-1 and side d+1."""
    left, right = hawkes_counts(dim, side, budget=budget)
    return left == right
