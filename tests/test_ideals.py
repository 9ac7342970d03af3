import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from borelbox import (
    DimensionMismatch,
    EmptyInput,
    InvalidMove,
    MonomialIdeal,
    NotStronglyStable,
    apply_borel_move,
    borel_closure,
    divides,
    enumerate_partitions,
    minimalize,
    monomial_str,
    partition_to_ideal,
    symmetrize,
)

import bruteforce
from cases import (
    CYCLE_ONLY_3D,
    SS_IDEAL_2D_BGENS,
    SS_IDEAL_2D_GENS,
    SS_IDEAL_2D_PSI_GENS,
    SS_IDEAL_2D_PSI_MIN,
    SS_IDEAL_3D_BGENS,
    SS_IDEAL_3D_GENS,
    SWAP_ONLY_3D,
)


def enumerated_ss_ideals(dim, side):
    """Every Artinian strongly stable ideal whose partition fits the box."""
    return [partition_to_ideal(p)
            for p in enumerate_partitions(dim, side, "strongly_stable")]


def enumerated_ts_ideals(dim, side):
    return [partition_to_ideal(p)
            for p in enumerate_partitions(dim, side, "totally_symmetric")]


def test_divides_examples():
    assert divides((3, 1), (3, 2))
    assert not divides((3, 1), (2, 5))
    assert divides((0, 0), (7, 9))
    with pytest.raises(DimensionMismatch):
        divides((1,), (1, 2))


def test_minimalize_prefix_sum_image():
    assert set(minimalize(SS_IDEAL_2D_PSI_GENS)) == SS_IDEAL_2D_PSI_MIN


def test_minimalize_antichain_fixed_and_chain_collapses():
    antichain = [(2, 0), (1, 1), (0, 2)]
    assert set(minimalize(antichain)) == set(antichain)
    assert minimalize([(1, 0), (2, 0), (3, 0)]) == ((1, 0),)


def test_minimalize_matches_naive_oracle():
    monos = [(2, 1), (1, 2), (2, 2), (0, 3), (3, 3), (1, 1)]
    assert set(minimalize(monos)) == bruteforce.naive_minimalize(monos)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                max_size=10))
def test_minimalize_idempotent_and_order_independent(monos):
    first = minimalize(monos)
    assert minimalize(first) == first
    assert minimalize(reversed(monos)) == first


def test_contains_examples():
    ideal = MonomialIdeal(2, SS_IDEAL_2D_GENS)
    assert ideal.contains((3, 2))
    assert all(ideal.contains(g) for g in ideal.gens)
    assert not ideal.contains((2, 2))


def test_contains_monotone_under_multiplication():
    ideal = MonomialIdeal(2, SS_IDEAL_2D_GENS)
    for m in product(range(8), repeat=2):
        if ideal.contains(m):
            assert ideal.contains((m[0] + 1, m[1]))
            assert ideal.contains((m[0], m[1] + 1))


def test_artinian_and_pure_powers():
    ideal = MonomialIdeal(2, [(4, 0), (2, 1), (1, 2), (0, 3)])
    assert ideal.pure_power_degrees() == (4, 3)
    assert ideal.is_artinian()
    assert ideal.artinian_side() == 4

    line = MonomialIdeal(2, [(1, 0)])
    assert line.pure_power_degrees() == (1, None)
    assert not line.is_artinian()

    ideal3 = MonomialIdeal(3, [(3, 0, 0), (2, 1, 0), (0, 3, 0), (2, 0, 1),
                               (1, 1, 1), (0, 2, 1), (0, 0, 2)])
    assert ideal3.pure_power_degrees() == (3, 3, 2)
    assert ideal3.artinian_side() == 3


def test_unit_and_zero_ideals():
    unit = MonomialIdeal(2, [(0, 0), (1, 3)])
    assert unit.gens == ((0, 0),)
    assert unit.pure_power_degrees() == (0, 0)
    zero = MonomialIdeal(2)
    assert zero.gens == ()
    assert not zero.is_artinian()
    assert zero.is_strongly_stable()


@pytest.mark.parametrize("dim", [1, 3, 4096])
def test_the_unit_ideal_has_every_pure_power_in_degree_zero(dim):
    unit = MonomialIdeal(dim, [(0,) * dim])
    assert unit.pure_power_degrees() == (0,) * dim
    assert unit.is_artinian()
    assert unit.artinian_side() == 0


def test_strongly_stable_examples():
    assert MonomialIdeal(2, SS_IDEAL_2D_GENS).is_strongly_stable()
    assert MonomialIdeal(3, [(1, 0, 0)]).is_strongly_stable()
    assert not MonomialIdeal(2, [(0, 1)]).is_strongly_stable()


def test_symmetric_examples():
    sym = MonomialIdeal(3, symmetrize([(2, 2, 2), (1, 1, 3), (0, 2, 3), (0, 0, 4)]))
    assert sym.is_symmetric()
    assert MonomialIdeal(2, [(1, 0), (0, 1)]).is_symmetric()
    assert not MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]).is_symmetric()
    assert not MonomialIdeal(2, [(2, 0), (0, 1)]).is_symmetric()
    assert MonomialIdeal(1, [(3,)]).is_symmetric()


@pytest.mark.parametrize("gens", [CYCLE_ONLY_3D, SWAP_ONLY_3D])
def test_symmetry_needs_both_the_swap_and_the_cycle(gens):
    ideal = MonomialIdeal(3, gens)
    assert ideal.gens == tuple(sorted(gens))
    assert not bruteforce.naive_totally_symmetric(gens)
    assert not ideal.is_symmetric()


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_is_symmetric_matches_naive_oracle_on_near_symmetric_unions(dim):
    rng = random.Random(dim)
    seen = set()
    for _ in range(60):
        ideal = MonomialIdeal(dim, bruteforce.near_symmetric_tops(rng, dim, 3))
        symmetric = bruteforce.naive_totally_symmetric(ideal.gens)
        assert ideal.is_symmetric() == symmetric
        seen.add(symmetric)
    assert seen == {True, False}


def test_symmetric_means_membership_is_permutation_invariant():
    # Exhaustive at small size: the generator condition must agree with
    # permutation invariance of membership itself.
    from itertools import permutations
    for ideal in enumerated_ss_ideals(3, 2) + enumerated_ts_ideals(3, 2):
        n = max(k for k in ideal.pure_power_degrees())
        invariant = all(
            ideal.contains(m) == ideal.contains(tuple(m[i] for i in perm))
            for m in product(range(n + 2), repeat=3)
            for perm in permutations(range(3)))
        assert ideal.is_symmetric() == invariant


def test_symmetrize_examples():
    assert set(symmetrize([(0, 0, 4)])) == {(4, 0, 0), (0, 4, 0), (0, 0, 4)}
    assert symmetrize([(2, 2, 2)]) == ((2, 2, 2),)
    assert set(symmetrize([(1, 1, 3)])) == {(1, 1, 3), (1, 3, 1), (3, 1, 1)}


def test_apply_borel_move():
    assert apply_borel_move((3, 1), [(1, 2)]) == (4, 0)
    assert apply_borel_move((3, 1), []) == (3, 1)
    with pytest.raises(InvalidMove) as info:
        apply_borel_move((1, 0), [(1, 2)])
    assert info.value.step == 1


def test_apply_borel_move_sequential_steps():
    # (0,0,2) -> x2/x3 -> (0,1,1) -> x1/x2 -> (1,0,1)
    assert apply_borel_move((0, 0, 2), [(2, 3), (1, 2)]) == (1, 0, 1)
    with pytest.raises(InvalidMove) as info:
        apply_borel_move((0, 0, 1), [(2, 3), (2, 3)])
    assert info.value.step == 2


def test_borel_closure_recovers_ideal_from_bgens():
    closed = borel_closure([(3, 1), (1, 4), (0, 7)])
    assert closed == MonomialIdeal(2, SS_IDEAL_2D_GENS)


def test_borel_closure_of_last_pure_power_is_degree_power_ideal():
    closed = borel_closure([(0, 0, 2)])
    expected = {m for m in product(range(3), repeat=3) if sum(m) == 2}
    assert set(closed.gens) == expected


def test_borel_closure_one_variable():
    assert borel_closure([(1,)]) == MonomialIdeal(1, [(1,)])
    with pytest.raises(EmptyInput):
        borel_closure([])


def test_borel_closure_is_strongly_stable_contains_input_idempotent():
    seeds = [[(1, 2)], [(0, 3), (2, 0)], [(1, 1, 1)], [(0, 2, 1), (1, 0, 2)]]
    for seed in seeds:
        closed = borel_closure(seed)
        assert closed.is_strongly_stable()
        assert all(closed.contains(m) for m in seed)
        assert borel_closure(closed.gens) == closed


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4))
def test_borel_closure_idempotent_on_random_seeds(seed):
    closed = borel_closure(seed)
    assert closed.is_strongly_stable()
    assert borel_closure(closed.gens) == closed


@pytest.mark.parametrize("seed", range(4))
def test_borel_closure_keeps_exactly_the_minimal_saturated_monomials(seed):
    # Generators are picked against the seeds of lower degree, not by
    # comparing reached monomials; the oracle minimalizes the saturated
    # set.  Seed sets mix degrees, and some hold the zero vector, a
    # multiple of a seed or a Borel move of one.
    rng = random.Random(seed)
    for _ in range(150):
        dim = rng.randint(1, 5)
        seeds = [tuple(rng.randint(0, 3) for _ in range(dim))
                 for _ in range(rng.randint(1, 4))]
        extra = rng.choice(seeds)
        seeds.append(rng.choice([(0,) * dim, tuple(e + 1 for e in extra),
                                 rng.choice(sorted(bruteforce.naive_borel_closure([extra])))]))
        expected = minimalize(bruteforce.naive_borel_closure(seeds))
        assert borel_closure(seeds).gens == expected, seeds


def test_borel_closure_of_seeds_far_apart_in_degree():
    seeds = [(0, 0, 0, 40), (0, 0, 30, 0), (5, 5, 5, 5)]
    closed = borel_closure(seeds)
    assert len(closed.gens) == 3146
    assert closed.gens == minimalize(bruteforce.naive_borel_closure(seeds))


def _stable_ideal_universe():
    """Strongly stable ideals (Artinian or not) with generators confined to
    a small box: every antichain in the box whose ideal is strongly
    stable.  Exponents up to 3; d <= 2 antichains come from the power-set
    oracle, d = 3 ones from the complement of each enumerated box
    partition (the stream itself is oracle-checked in the enumeration
    tests), since the d = 3 power set is too large for a test budget."""
    universe = []
    for dim, side in ((1, 4), (2, 4)):
        for antichain in bruteforce.box_antichains(dim, side):
            if not antichain:
                continue
            ideal = MonomialIdeal(dim, antichain)
            if ideal.is_strongly_stable():
                universe.append(ideal)
    box = set(bruteforce.box_cells(3, 3))
    for p in enumerate_partitions(3, 3, "all"):
        antichain = bruteforce.naive_minimalize(box - set(p.cells))
        if not antichain:
            continue
        ideal = MonomialIdeal(3, antichain)
        if ideal.is_strongly_stable():
            universe.append(ideal)
    return universe


@pytest.mark.parametrize("dim, side", [(2, 4), (3, 3)])
def test_is_strongly_stable_matches_every_move_on_every_antichain(dim, side):
    # The adjacent moves on the generators against every move on every
    # member in a box; the antichains are the minimal cells outside each
    # downward-closed set of the box, grown by the brute-force oracle.
    box = set(bruteforce.box_cells(dim, side))
    verdicts = set()
    for cells in bruteforce.grown_partitions(dim, side):
        gens = bruteforce.naive_minimalize(box - cells)
        verdict = bruteforce.naive_ideal_strongly_stable(gens, dim, side)
        assert MonomialIdeal(dim, gens).is_strongly_stable() == verdict, sorted(gens)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_borel_closure_minimality_against_universe():
    universe = _stable_ideal_universe()
    assert len(universe) > 40
    seeds = [[(1, 2)], [(0, 2)], [(1, 1)], [(0, 2, 1)], [(1, 0, 1), (0, 2, 0)]]
    for seed in seeds:
        closed = borel_closure(seed)
        for other in universe:
            if other.dim != closed.dim:
                continue
            if all(other.contains(m) for m in seed):
                assert all(other.contains(g) for g in closed.gens)


def test_bgens_worked_examples():
    assert set(MonomialIdeal(2, SS_IDEAL_2D_GENS).bgens()) == SS_IDEAL_2D_BGENS
    assert set(MonomialIdeal(3, SS_IDEAL_3D_GENS).bgens()) == SS_IDEAL_3D_BGENS
    assert MonomialIdeal(1, [(1,)]).bgens() == ((1,),)


def test_bgens_requires_strong_stability():
    with pytest.raises(NotStronglyStable):
        MonomialIdeal(2, [(0, 1)]).bgens()


def test_bgens_subset_of_gens_and_closure_round_trip():
    for dim, side in ((1, 3), (2, 3), (3, 3)):
        for ideal in enumerated_ss_ideals(dim, side):
            bg = ideal.bgens()
            assert set(bg) <= set(ideal.gens)
            if bg:
                assert borel_closure(bg) == ideal


def test_bgens_independent_of_generator_enumeration_order():
    gens = list(SS_IDEAL_2D_GENS)
    expected = MonomialIdeal(2, gens).bgens()
    assert MonomialIdeal(2, reversed(gens)).bgens() == expected
    assert MonomialIdeal(2, sorted(gens, key=sum)).bgens() == expected


def test_pure_power_degrees_bounded_for_stable_classes():
    for dim in (1, 2, 3):
        # Strongly stable classes: every pure power degree at most the side.
        for ideal in enumerated_ss_ideals(dim, 3):
            n = ideal.artinian_side()
            assert all(k <= n for k in ideal.pure_power_degrees())
        # Symmetric classes: every pure power degree equal to the side.
        for ideal in enumerated_ts_ideals(dim, 3):
            n = ideal.artinian_side()
            assert all(k == n for k in ideal.pure_power_degrees())


def test_monomial_str():
    assert monomial_str((0, 0)) == "1"
    assert monomial_str((3, 1)) == "x^3y"
    assert monomial_str((1, 0, 2)) == "xz^2"
    assert monomial_str((0, 1, 0, 2)) == "x2*x4^2"


def test_ideal_json_round_trip():
    ideal = MonomialIdeal(3, SS_IDEAL_3D_GENS)
    assert MonomialIdeal.from_json_dict(ideal.to_json_dict()) == ideal
