"""Hashed ideal membership, graded complements and degree-split
minimalization against the scanning oracles in bruteforce.py, and the
ideals and partitions the bijection chain builds without validating or
minimalizing them again against the validating constructors."""

import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from borelbox import (
    FSet,
    InvalidCell,
    MonomialIdeal,
    Partition,
    ResourceLimit,
    borel_closure,
    ideal_to_partition,
    lambda_map,
    minimalize,
    omega,
    partition_to_ideal,
    symmetrize,
)

import bruteforce

dims = st.integers(1, 4)


@st.composite
def monomial_sets(draw, dim=None):
    dim = draw(dims) if dim is None else dim
    return dim, draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim), max_size=8))


@st.composite
def artinian_ideals(draw):
    """Random generators plus a pure power of every variable."""
    dim, gens = draw(monomial_sets())
    pure = [tuple(draw(st.integers(1, 5)) if k == j else 0 for k in range(dim))
            for j in range(dim)]
    return MonomialIdeal(dim, gens + pure)


@st.composite
def closed_cell_sets(draw):
    dim, cells = draw(monomial_sets())
    return Partition(dim, bruteforce.close_down(cells))


@st.composite
def closure_seeds(draw):
    """Small monomials plus a pure power of the last variable, so that the
    closure is Artinian with its top degree on that variable."""
    dim, seeds = draw(monomial_sets())
    return dim, seeds + [(0,) * (dim - 1) + (draw(st.integers(1, 4)),)]


def members_in_box(ideal, side):
    return {m for m in product(range(side), repeat=ideal.dim) if ideal.contains(m)}


@settings(max_examples=150, deadline=None)
@given(artinian_ideals())
def test_artinian_contains_matches_the_generator_scan(ideal):
    side = max(max(g) for g in ideal.gens) + 2
    oracle = bruteforce.naive_ideal_members(ideal.gens, ideal.dim, side)
    assert members_in_box(ideal, side) == oracle
    # Once the complement is grown, membership reads it.
    ideal_to_partition(ideal)
    assert members_in_box(ideal, side) == oracle


@settings(max_examples=150, deadline=None)
@given(monomial_sets())
def test_any_ideal_contains_matches_the_generator_scan(data):
    dim, gens = data
    ideal = MonomialIdeal(dim, gens)
    assert members_in_box(ideal, 6) == bruteforce.naive_ideal_members(gens, dim, 6)


@settings(max_examples=150, deadline=None)
@given(artinian_ideals())
def test_ideal_to_partition_matches_the_box_complement(ideal):
    complement = bruteforce.box_complement(ideal.gens, ideal.dim)
    partition = ideal_to_partition(ideal)
    assert partition == Partition(ideal.dim, complement)
    assert partition._members == frozenset(partition.cells) == complement
    # The partition and the ideal share one hash set of the complement.
    assert partition._members is ideal._outside


@settings(max_examples=150, deadline=None)
@given(closed_cell_sets())
def test_partition_to_ideal_matches_the_outer_corners(partition):
    corners = bruteforce.box_minimal_generators(partition.cells, partition.dim)
    assert partition_to_ideal(partition) == MonomialIdeal(partition.dim, corners)


@settings(max_examples=150, deadline=None)
@given(closure_seeds())
def test_closure_matches_the_naive_closure(data):
    dim, seeds = data
    naive = bruteforce.naive_borel_closure(seeds)
    assert borel_closure(seeds) == MonomialIdeal(dim, naive)
    assert set(borel_closure(seeds).gens) == bruteforce.naive_minimalize(naive)


@settings(max_examples=150, deadline=None)
@given(closure_seeds())
def test_omega_generators_are_the_minimal_symmetrization(data):
    dim, seeds = data
    fset = lambda_map(borel_closure(seeds))
    symmetrized = symmetrize(fset.elements)
    assert omega(fset).gens == minimalize(symmetrized)
    assert omega(fset) == MonomialIdeal(dim, symmetrized)
    assert set(omega(fset).gens) == bruteforce.naive_minimalize(symmetrized)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.tuples(*[st.integers(0, 2)] * dim), max_size=5)))
def test_symmetrize_matches_the_full_permutation_group(monomials):
    expected = tuple(sorted(bruteforce.naive_symmetrize(monomials)))
    assert symmetrize(monomials) == expected
    assert symmetrize(list(m) for m in monomials) == expected


def test_symmetrize_costs_the_orbit_not_all_permutations():
    """One element in d = 12 has 12 rearrangements among 12! permutations."""
    start = time.perf_counter()
    ideal = omega(FSet(12, 1, [(0,) * 11 + (1,)]))
    assert time.perf_counter() - start < 1.0
    assert ideal.gens == tuple(sorted((0,) * j + (1,) + (0,) * (11 - j) for j in range(12)))


def test_closure_of_the_empty_monomial_is_still_refused():
    with pytest.raises(InvalidCell):
        borel_closure([()])


@settings(max_examples=200, deadline=None)
@given(monomial_sets())
def test_minimalize_matches_the_pairwise_oracle(data):
    _, monos = data
    assert set(minimalize(monos)) == bruteforce.naive_minimalize(monos)


@settings(max_examples=150, deadline=None)
@given(closed_cell_sets())
def test_seeded_ideal_answers_like_a_fresh_one(partition):
    seeded = partition_to_ideal(partition)
    fresh = MonomialIdeal(partition.dim, seeded.gens)
    assert seeded == fresh
    side = partition.bounding_side() + 2
    assert members_in_box(seeded, side) == members_in_box(fresh, side)
    assert ideal_to_partition(seeded) == ideal_to_partition(fresh) == partition
    assert seeded.is_strongly_stable() == fresh.is_strongly_stable()
    if seeded.is_strongly_stable():
        assert seeded.bgens() == fresh.bgens()


def test_closure_of_a_high_pure_power_is_every_monomial_of_its_degree():
    """All C(43, 3) monomials of degree 40 in four variables, minimalized
    without comparing any two of them."""
    ideal = borel_closure([(0, 0, 0, 40)])
    assert len(ideal.gens) == 12341
    assert all(sum(g) == 40 for g in ideal.gens)


def test_closure_budget_counts_the_monomials_reached():
    assert len(borel_closure([(0, 0, 0, 40)], budget=12341).gens) == 12341
    with pytest.raises(ResourceLimit, match="budget of 12340"):
        borel_closure([(0, 0, 0, 40)], budget=12340)
    # The input is charged too.
    with pytest.raises(ResourceLimit):
        borel_closure([(2, 0), (0, 2)], budget=1)
    with pytest.raises(ValueError):
        borel_closure([(1, 0)], budget=0)


@pytest.mark.parametrize("dim, gens", [
    (1, [(7,)]),
    (2, [(4, 0), (2, 1), (0, 3)]),
    (3, [(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)]),
])
def test_complement_budget_counts_the_cells_grown(dim, gens):
    cells = len(bruteforce.box_complement(gens, dim))
    assert len(ideal_to_partition(MonomialIdeal(dim, gens), budget=cells)) == cells
    with pytest.raises(ResourceLimit, match="complement"):
        ideal_to_partition(MonomialIdeal(dim, gens), budget=cells - 1)


def test_complement_budget_stops_a_huge_power_early():
    ideal = MonomialIdeal(1, [(100_000_000,)])
    with pytest.raises(ResourceLimit, match="budget of 1000"):
        ideal_to_partition(ideal, budget=1000)
    assert ideal._outside is None
    with pytest.raises(ValueError):
        ideal_to_partition(ideal, budget=0)
