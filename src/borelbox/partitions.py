"""d-dimensional partitions: finite downward-closed subsets of N^d.

A cell is a plain tuple of d nonnegative integers.  A set of cells is a
partition when decrementing any positive coordinate of any cell lands on
another cell.  For d=2 these are integer partitions (cells of a Ferrers
diagram), for d=3 plane partitions.

Two derived predicates drive everything else here.  The hook vector of a
cell collects, per axis, how far the partition extends beyond the cell in
that direction; a partition is *strongly stable* when every hook vector is
weakly increasing.  A partition is *totally symmetric* when its cell set
is fixed by every permutation of the coordinates.

The input checks every object shares live here too, since every caller
loads this module: one parser for exponent vectors (cells and monomials)
and one reader for JSON objects with typed fields.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter

from .errors import (
    CellNotInPartition,
    ClosureViolation,
    DimensionMismatch,
    InputError,
    InvalidCell,
)

Cell = tuple[int, ...]

# The largest `dim` a JSON input or a box of the enumeration may give: a
# larger one is malformed input, refused before anything of that length is
# built (one cell of a box is a d-tuple).
MAX_DIM = 4096


def _as_vector(dim: int, raw, noun: str = "cell") -> Cell:
    """`raw` as a tuple of `dim` nonnegative integers (a cell, or the
    exponent vector of a monomial: `noun` names it in the error)."""
    try:
        vector = tuple(raw)
    except TypeError:
        raise InvalidCell(f"{noun} {raw!r} must be a sequence of integers") from None
    if len(vector) != dim:
        raise DimensionMismatch(
            f"{noun} {vector} has length {len(vector)}, expected {dim}")
    for value in vector:
        if type(value) is not int or value < 0:
            raise InvalidCell(f"{noun} {vector} must contain nonnegative integers")
    return vector


def _json_fields(data, what: str, **kinds: type) -> list:
    """The values of the named fields of the JSON object `data`, in the
    order given, each of its kind (`int` or `list`; a boolean is not an
    integer), and a `dim` at most `MAX_DIM`.  Raises :class:`InputError`
    naming `what` or the field."""
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object")
    values = []
    for key, kind in kinds.items():
        if key not in data:
            raise InputError(f"{what} JSON needs {key!r}")
        value = data[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InputError(f"{key!r} must be {'an integer' if kind is int else 'a list'}")
        if key == "dim" and value > MAX_DIM:
            raise InputError(f"'dim' must be at most {MAX_DIM}")
        values.append(value)
    return values


def _distinct_permutations(rep: Cell) -> Iterator[Cell]:
    """The distinct rearrangements of a weakly increasing tuple, in
    lexicographic order by next-permutation steps, so an orbit costs its
    own size rather than d!."""
    perm = list(rep)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


def _orbit_size(rep: Cell) -> int:
    """Number of distinct rearrangements of a weakly increasing tuple: the
    multinomial d! / prod(m!) over the multiplicities m of its values,
    built one position at a time (each prefix's count is an integer)."""
    size = run = 1
    for k in range(1, len(rep)):
        run = run + 1 if rep[k] == rep[k - 1] else 1
        size = size * (k + 1) // run
    return size


def _fixed_by_permutations(members, items, dim: int) -> bool:
    """Whether the set `members` of `dim`-tuples contains every coordinate
    permutation of each of `items`, its elements.  Only the swap (0 1) and
    the cycle (1, ..., d-1, 0) are tested, one pass each (one pass at
    d = 2, where they agree): they generate the symmetric group, and a
    permutation that maps a finite set into itself maps it onto itself,
    so the set is fixed by its inverse too, and by every product.  An
    empty set builds no getter of its (maybe huge) dimension."""
    if dim < 2 or not items:
        return True
    swap = itemgetter(1, 0, *range(2, dim))
    cycle = itemgetter(*range(1, dim), 0)
    return members.issuperset(map(swap, items)) and (
        dim == 2 or members.issuperset(map(cycle, items)))


class Partition:
    """Canonical immutable partition.

    Cells are stored deduplicated in lexicographic order, so equal
    partitions compare and hash equal and serialize identically.  The
    empty partition is valid in any ambient dimension; the dimension is
    kept explicitly so round trips preserve it.

    Construction validates downward closure and raises
    :class:`ClosureViolation` naming the offending cell and axis.
    """

    __slots__ = ("dim", "cells", "_member_set", "_holds")

    def __init__(self, dim: int, cells: Iterable[Iterable[int]] = ()):
        if type(dim) is not int or dim < 1:
            raise InvalidCell(f"dimension must be a positive integer, got {dim!r}")
        canon = tuple(sorted({_as_vector(dim, c) for c in cells}))
        members = frozenset(canon)
        for cell in canon:
            for axis, value in enumerate(cell):
                if value > 0:
                    below = cell[:axis] + (value - 1,) + cell[axis + 1:]
                    if below not in members:
                        raise ClosureViolation(cell, axis + 1)
        self.dim = dim
        self.cells = canon
        self._member_set = members
        self._holds = None

    @classmethod
    def _trusted(cls, dim: int, sorted_cells: tuple[Cell, ...],
                 holds: str | None = None) -> "Partition":
        # Internal fast path: caller guarantees canonical order and closure.
        # No caller hands in a member set: `_members` builds it on first use.
        # `holds` records a predicate the producer's construction proves,
        # "strongly_stable" or "totally_symmetric", so the bijection skips
        # testing it again on its input.  Only three producers pass it:
        # the stable and symmetric listings of `enumerate_partitions`,
        # after the walk's re-validation has passed the node, and the two
        # maps of `bijection` for their outputs.  The predicates themselves
        # never read it, nor do equality, hashing or the JSON form.
        part = object.__new__(cls)
        part.dim = dim
        part.cells = sorted_cells
        part._member_set = None
        part._holds = holds
        return part

    @property
    def _members(self) -> frozenset[Cell]:
        # The frozenset of the cells, built on first use: a listing yields
        # many partitions whose membership nobody asks.
        if self._member_set is None:
            self._member_set = frozenset(self.cells)
        return self._member_set

    def __contains__(self, cell) -> bool:
        return tuple(cell) in self._members

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.dim == other.dim and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.dim, self.cells))

    def __repr__(self) -> str:
        return f"Partition(dim={self.dim}, cells={list(self.cells)})"

    def bounding_side(self) -> int:
        """Side of the smallest cube-shaped box containing every cell.

        The empty partition fits in a box of side 0.  A nonempty partition
        with largest coordinate value m needs side m + 1.
        """
        if not self.cells:
            return 0
        return 1 + max(max(cell) for cell in self.cells)

    def hook_vector(self, cell) -> tuple[int, ...]:
        """Arm lengths of `cell`: per axis, the largest h such that the
        cell shifted h steps along that axis is still in the partition."""
        cell = _as_vector(self.dim, cell)
        members = self._members
        if cell not in members:
            raise CellNotInPartition(f"cell {cell} is not in the partition")
        arms = []
        for axis in range(self.dim):
            h = 1
            while cell[:axis] + (cell[axis] + h,) + cell[axis + 1:] in members:
                h += 1
            arms.append(h - 1)
        return tuple(arms)

    def is_strongly_stable(self) -> bool:
        """True iff every cell's hook vector is weakly increasing.

        R_k(j), the cells c with c, c + e_j, ..., c + k e_j all in the
        set, are the cells with arm_j(c) >= k, and the hooks increase
        exactly when R_k(j) lies inside R_k(j+1) for every k >= 1 and
        j < d - 1.  The first round implies every later one, on any cell
        set: let c be in R_k(j) with k >= 2.  Each c + i e_j with i < k is
        in R_1(j), so in R_1(j+1), which puts c + e_(j+1) + i e_j in the
        set for every i < k: c + e_(j+1) is in R_(k-1)(j), so by induction
        in R_(k-1)(j+1), and with c in the set, c is in R_k(j+1).  So only
        R_1(j) is tested.  On a downward-closed set, R_1(j) is c - e_j
        over the cells c with c_j > 0, and c - e_j is in R_1(j+1) exactly
        when c - e_j + e_(j+1) is a cell.  So on such a set the hooks
        increase exactly when every adjacent move of every cell stays in
        it: the test is one move per cell and axis, the exchange
        ``MonomialIdeal.is_strongly_stable`` makes on generators, returning
        at the first move that leaves the set.  The walk's re-validation
        reads the same moves on its masks (see ``enumeration._cell_layout``).
        """
        members = self._members
        for c in self.cells:
            for j in range(self.dim - 1):
                if c[j] and c[:j] + (c[j] - 1, c[j + 1] + 1) + c[j + 2:] not in members:
                    return False
        return True

    def is_totally_symmetric(self) -> bool:
        """True iff the cell set is fixed by every coordinate permutation
        (see :func:`_fixed_by_permutations`)."""
        return _fixed_by_permutations(self._members, self.cells, self.dim)

    def orbit_count(self) -> int:
        """Number of cell classes under coordinate permutation, i.e. the
        number of distinct sorted coordinate multisets."""
        return len({tuple(sorted(cell)) for cell in self.cells})

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "cells": [list(cell) for cell in self.cells]}

    @classmethod
    def from_json_dict(cls, data) -> "Partition":
        return cls(*_json_fields(data, "partition", dim=int, cells=list))
