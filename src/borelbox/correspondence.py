"""The complement correspondence between Artinian ideals and partitions.

An Artinian monomial ideal leaves only finitely many monomials outside
itself; their exponent vectors form a partition.  Conversely the
monomials whose exponents avoid a partition form an Artinian ideal.  The
two maps are mutually inverse, and they match strongly stable ideals with
strongly stable partitions and symmetric ideals with totally symmetric
partitions.
"""

from __future__ import annotations

from .ideals import MonomialIdeal
from .partitions import Partition


def ideal_to_partition(ideal: MonomialIdeal) -> Partition:
    """Partition of all exponent vectors outside the ideal.

    Requires an Artinian ideal so the complement is finite.  The
    complement is downward closed, so it is reached from the origin by
    unit steps that stay outside the ideal; the search visits each cell
    and its outer neighbours once.
    """
    ideal.artinian_side()
    dim = ideal.dim
    todo = [] if ideal.contains((0,) * dim) else [(0,) * dim]
    cells = set(todo)
    while todo:
        cell = todo.pop()
        for j in range(dim):
            up = cell[:j] + (cell[j] + 1,) + cell[j + 1:]
            if up not in cells and not ideal.contains(up):
                cells.add(up)
                todo.append(up)
    return Partition(dim, cells)


def partition_to_ideal(partition: Partition) -> MonomialIdeal:
    """Minimal generators of the ideal of monomials outside the partition.

    A vector outside the partition is a minimal generator exactly when
    decrementing any positive coordinate lands inside the partition.  So
    it is the origin, when the partition is empty, or c + e_j for some
    cell c, and only those candidates are tested.  The empty partition
    maps to the unit ideal.
    """
    dim = partition.dim
    candidates = {cell[:j] + (cell[j] + 1,) + cell[j + 1:]
                  for cell in partition.cells for j in range(dim)} or {(0,) * dim}
    gens = [alpha for alpha in candidates
            if alpha not in partition
            and all(alpha[j] == 0
                    or alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:] in partition
                    for j in range(dim))]
    return MonomialIdeal(dim, gens)
