"""Hashed ideal membership, graded complements and degree-split
minimalization against the scanning oracles in bruteforce.py."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from borelbox import (
    MonomialIdeal,
    Partition,
    ResourceLimit,
    borel_closure,
    ideal_to_partition,
    minimalize,
    partition_to_ideal,
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
    assert set(ideal_to_partition(ideal).cells) == bruteforce.box_complement(
        ideal.gens, ideal.dim)


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
