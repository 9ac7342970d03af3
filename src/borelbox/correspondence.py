"""The complement correspondence between Artinian ideals and partitions.

An Artinian monomial ideal leaves only finitely many monomials outside
itself; their exponent vectors form a partition.  Conversely the
monomials whose exponents avoid a partition form an Artinian ideal.  The
two maps are mutually inverse, and they match strongly stable ideals with
strongly stable partitions and symmetric ideals with totally symmetric
partitions.  Only `partition_to_ideal` sets an ideal's `_complement`, to
the partition it came from; a complement grown here is stored on no ideal.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .errors import _Budget
from .ideals import Monomial, MonomialIdeal
from .partitions import Partition


def _fully_reached(dim: int, cells: Iterable[Monomial]) -> list[Monomial]:
    """The vectors u = c + e_j, c among the distinct `cells`, whose every
    lower neighbour u - e_j with u_j > 0 is among them: each such
    neighbour reaches u once, so u is reached as often as it has positive
    coordinates."""
    reached = Counter(c[:j] + (c[j] + 1,) + c[j + 1:] for c in cells for j in range(dim))
    return [u for u, times in reached.items() if times == dim - u.count(0)]


def ideal_to_partition(ideal: MonomialIdeal, *, budget: int | None = None) -> Partition:
    """Partition of all exponent vectors outside the ideal.

    Requires an Artinian ideal so the complement is finite.  An ideal
    built by `partition_to_ideal` gives back that partition itself, with
    its record (`Partition._holds`).  Any other's complement is grown one
    degree at a time from a hash set of the generators: c lies outside
    exactly when it is not a generator and every c - e_j with c_j > 0
    lies outside, cells of the degree below (see `_fully_reached`), in
    O(cells * d^2).  It is downward closed by construction, so the
    partition is built from its sorted cells without validating them
    again, and builds its member set only if asked.  `budget` bounds the
    cells grown; one more raises :class:`ResourceLimit`.
    """
    if ideal._complement is not None:
        return ideal._complement
    ideal.artinian_side()
    dim = ideal.dim
    limiter = _Budget(budget, "complement")
    gens = set(ideal.gens)
    origin = (0,) * dim
    level = set() if origin in gens else {origin}
    limiter.charge(len(level))
    grown = set(level)
    while level:
        level = {u for u in _fully_reached(dim, level) if u not in gens}
        limiter.charge(len(level))
        grown |= level
    return Partition._trusted(dim, tuple(sorted(grown)))


def partition_to_ideal(partition: Partition) -> MonomialIdeal:
    """Minimal generators of the ideal of monomials outside the partition.

    A vector outside the partition is a minimal generator exactly when
    decrementing any positive coordinate lands inside the partition.  So
    it is the origin, when the partition is empty, or a vector outside it
    whose lower neighbours are all cells (see `_fully_reached`).
    The empty partition maps to the unit ideal.  No generator divides
    another, since everything strictly below a generator is a cell, so
    the ideal is built without minimalizing them again.  The partition is
    the ideal's complement, so the ideal keeps it, for membership queries
    and for `ideal_to_partition` to hand back.
    """
    dim = partition.dim
    members = partition._members
    gens = [alpha for alpha in _fully_reached(dim, partition.cells)
            if alpha not in members] or [(0,) * dim]
    return MonomialIdeal._trusted(dim, tuple(sorted(gens)), partition)
