"""Shared worked examples used across the test modules.

The derived cell sets were computed with the brute-force oracles in
bruteforce.py (raw complement and symmetrization scans) and are frozen
here; several tests re-derive them at run time as well.
"""

# d=2 strongly stable ideal (x^4, x^3y, x^2y^3, xy^4, y^7) and its data.
SS_IDEAL_2D_GENS = ((0, 7), (1, 4), (2, 3), (3, 1), (4, 0))
SS_IDEAL_2D_BGENS = frozenset({(3, 1), (1, 4), (0, 7)})
SS_IDEAL_2D_PSI_GENS = frozenset({(4, 4), (3, 4), (2, 5), (1, 5), (0, 7)})
SS_IDEAL_2D_PSI_MIN = frozenset({(3, 4), (1, 5), (0, 7)})

# Its complement: a strict partition with column heights 7, 4, 3, 1.
SS_PARTITION_2D_CELLS = tuple(sorted(
    (a, b) for a, h in enumerate((7, 4, 3, 1)) for b in range(h)))

# Totally symmetric partner: self-conjugate columns 7, 5, 5, 4, 3, 1, 1.
TS_PARTITION_2D_CELLS = tuple(sorted(
    (a, b) for a, h in enumerate((7, 5, 5, 4, 3, 1, 1)) for b in range(h)))

# d=2 Artinian pair: (x^4, x^2y, xy^2, y^3) and the 7-cell staircase.
ARTINIAN_IDEAL_2D_GENS = ((0, 3), (1, 2), (2, 1), (4, 0))
STAIRCASE_2D_CELLS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 0))

# d=3 Artinian pair: (x^3, x^2y, y^3, x^2z, xyz, y^2z, z^2) and the
# ten-cell plane partition with matrix rows "2 2 1", "2 1", "1 1".
ARTINIAN_IDEAL_3D_GENS = (
    (0, 0, 2), (0, 2, 1), (0, 3, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0), (3, 0, 0))
PLANE_PARTITION_10_CELLS = (
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 0),
    (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 2, 0), (2, 0, 0))

# d=3 strongly stable ideal (x^2, xy^2, y^3, xyz, y^2z, xz^2, yz^3, z^4).
SS_IDEAL_3D_GENS = (
    (0, 0, 4), (0, 1, 3), (0, 2, 1), (0, 3, 0),
    (1, 0, 2), (1, 1, 1), (1, 2, 0), (2, 0, 0))
SS_IDEAL_3D_BGENS = frozenset({(2, 0, 0), (1, 0, 2), (0, 2, 1), (0, 0, 4)})
SS_IDEAL_3D_PSI_BGENS = frozenset({(2, 2, 2), (1, 1, 3), (0, 2, 3), (0, 0, 4)})

# Its complement partition (11 cells, bounding side 4).
SS_PARTITION_3D_CELLS = (
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 1),
    (0, 1, 2), (0, 2, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0))

# Totally symmetric partner of the 3-D example: 35 cells, 11 orbits.
TS_PARTITION_3D_CELLS = (
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 1),
    (0, 1, 2), (0, 1, 3), (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 3, 0),
    (0, 3, 1), (1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 1, 0),
    (1, 1, 1), (1, 1, 2), (1, 2, 0), (1, 2, 1), (1, 2, 2), (1, 3, 0),
    (2, 0, 0), (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 1, 1), (2, 1, 2),
    (2, 2, 0), (2, 2, 1), (3, 0, 0), (3, 0, 1), (3, 1, 0))

# Cumulative side-by-side counts expected for d=3 (product formula values).
T3_VALUES = (1, 2, 5, 16, 66)

# Sets in d=3 fixed by only one of the two permutations that generate the
# symmetric group: the orbit of (0,1,2) under the cycle (1, 2, 0) of its
# coordinates, and (0,1,2) with its image under the swap of the first two.
# Neither set, nor its downward closure, is totally symmetric.
CYCLE_ONLY_3D = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
SWAP_ONLY_3D = ((0, 1, 2), (1, 0, 2))
