"""The complement correspondence between Artinian ideals and partitions.

An Artinian monomial ideal leaves only finitely many monomials outside
itself; their exponent vectors form a partition.  Conversely the
monomials whose exponents avoid a partition form an Artinian ideal.  The
two maps are mutually inverse, and they match strongly stable ideals with
strongly stable partitions and symmetric ideals with totally symmetric
partitions.
"""

from __future__ import annotations

from .ideals import MonomialIdeal, _fully_reached
from .partitions import Partition


def ideal_to_partition(ideal: MonomialIdeal, *, budget: int | None = None) -> Partition:
    """Partition of all exponent vectors outside the ideal.

    Requires an Artinian ideal so the complement is finite.  The
    complement is grown one degree at a time from a hash set of the
    generators, in O(cells * d^2), and kept on the ideal for its later
    membership queries.  It is downward closed by construction (a cell
    joins only once every lower neighbour has), so the partition is built
    from it without validating the cells again, and shares its hash set.
    `budget` bounds the cells grown; one more raises
    :class:`ResourceLimit`.
    """
    outside = ideal._complement(budget)
    return Partition._trusted(ideal.dim, tuple(sorted(outside)), outside)


def partition_to_ideal(partition: Partition) -> MonomialIdeal:
    """Minimal generators of the ideal of monomials outside the partition.

    A vector outside the partition is a minimal generator exactly when
    decrementing any positive coordinate lands inside the partition.  So
    it is the origin, when the partition is empty, or a vector outside it
    whose lower neighbours are all cells (see `ideals._fully_reached`).
    The empty partition maps to the unit ideal.  No generator divides
    another, since everything strictly below a generator is a cell, so
    the ideal is built without minimalizing them again.  The partition is
    the ideal's complement, so the ideal keeps its cells for membership
    queries.
    """
    dim = partition.dim
    members = partition._members
    gens = [alpha for alpha in _fully_reached(dim, partition.cells)
            if alpha not in members] or [(0,) * dim]
    return MonomialIdeal._trusted(dim, tuple(sorted(gens)), members)
