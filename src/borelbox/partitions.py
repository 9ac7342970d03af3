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
from itertools import chain
from operator import itemgetter, mul

from .errors import (
    CellNotInPartition,
    ClosureViolation,
    DimensionMismatch,
    InputError,
    InvalidCell,
)

Cell = tuple[int, ...]


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
    integer).  Raises :class:`InputError` naming `what` or the field."""
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object")
    values = []
    for key, kind in kinds.items():
        if key not in data:
            raise InputError(f"{what} JSON needs {key!r}")
        value = data[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InputError(f"{key!r} must be {'an integer' if kind is int else 'a list'}")
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


class Partition:
    """Canonical immutable partition.

    Cells are stored deduplicated in lexicographic order, so equal
    partitions compare and hash equal and serialize identically.  The
    empty partition is valid in any ambient dimension; the dimension is
    kept explicitly so round trips preserve it.

    Construction validates downward closure and raises
    :class:`ClosureViolation` naming the offending cell and axis.
    """

    __slots__ = ("dim", "cells", "_member_set")

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

    @classmethod
    def _trusted(cls, dim: int, sorted_cells: tuple[Cell, ...],
                 members: frozenset[Cell] | None = None) -> "Partition":
        # Internal fast path: caller guarantees canonical order and closure,
        # and that `members`, when given, is the frozenset of the cells.
        part = object.__new__(cls)
        part.dim = dim
        part.cells = sorted_cells
        part._member_set = members
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
        if cell not in self._members:
            raise CellNotInPartition(f"cell {cell} is not in the partition")
        return self._arms(cell)

    def _arms(self, cell: Cell) -> tuple[int, ...]:
        # Trusted path: `cell` is one of this partition's own cells.
        members = self._members
        arms = []
        for axis in range(self.dim):
            h = 1
            while cell[:axis] + (cell[axis] + h,) + cell[axis + 1:] in members:
                h += 1
            arms.append(h - 1)
        return tuple(arms)

    def is_strongly_stable(self) -> bool:
        """True iff every cell's hook vector is weakly increasing.

        Arms follow arm_j(c) = arm_j(c + e_j) + 1 (0 when c + e_j is not a
        cell), over the cells in reverse lexicographic order, which meets
        c + e_j first.  Keys read cells as digits in a base above every
        coordinate, so c + e_j is one addition away.

        The enumerators re-validate strongly stable candidates on a
        bitmask of the box instead (``enumeration._hooks_increase``).  This check stays
        cell-level because a partition has no box: 41 cells in d = 40
        would need a 2^40-bit mask.
        """
        base = max(chain.from_iterable(self.cells), default=0) + 2
        steps = [base ** j for j in reversed(range(self.dim))]
        axes = [(step, {}) for step in steps]
        for cell in reversed(self.cells):
            key = sum(map(mul, cell, steps))
            low = 0
            for step, arms in axes:
                arm = arms.get(key + step, -1) + 1
                if arm < low:
                    return False
                arms[key] = low = arm
        return True

    def is_totally_symmetric(self) -> bool:
        """True iff the cell set is fixed by every coordinate permutation.

        Only adjacent transpositions are tested; they generate the whole
        symmetric group, and a set closed under generators is closed under
        the group.
        """
        members = self._members
        for j in range(self.dim - 1):
            swap = itemgetter(*range(j), j + 1, j, *range(j + 2, self.dim))
            if not members.issuperset(map(swap, self.cells)):
                return False
        return True

    def orbit_count(self) -> int:
        """Number of cell classes under coordinate permutation, i.e. the
        number of distinct sorted coordinate multisets."""
        return len({tuple(sorted(cell)) for cell in self.cells})

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "cells": [list(cell) for cell in self.cells]}

    @classmethod
    def from_json_dict(cls, data) -> "Partition":
        return cls(*_json_fields(data, "partition", dim=int, cells=list))
