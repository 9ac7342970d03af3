import random
import sys
import threading
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from borelbox import (
    EmptyInput,
    FSet,
    InvalidFSet,
    MissingPurePower,
    MonomialIdeal,
    NotStronglyStable,
    NotSymmetric,
    NotTotallySymmetric,
    NotWeaklyIncreasing,
    Partition,
    ResourceLimit,
    bgens_via_psi,
    divides,
    enumerate_partitions,
    ideal_to_partition,
    lambda_inv,
    lambda_map,
    omega,
    omega_inv,
    partition_to_ideal,
    psi,
    psi_inv,
    ss_to_ts_partition,
    symmetrize,
    ts_to_ss_partition,
)
from borelbox import bijection
from borelbox.partitions import _distinct_permutations, _orbit_size

from cases import (
    SS_IDEAL_2D_BGENS,
    SS_IDEAL_2D_GENS,
    SS_IDEAL_3D_BGENS,
    SS_IDEAL_3D_GENS,
    SS_IDEAL_3D_PSI_BGENS,
    SS_PARTITION_2D_CELLS,
    SS_PARTITION_3D_CELLS,
    TS_PARTITION_2D_CELLS,
    TS_PARTITION_3D_CELLS,
)


def stable_classes(dim, top):
    """Nonempty strongly stable partitions and their ideals, by side."""
    for p in enumerate_partitions(dim, top, "strongly_stable"):
        if len(p):
            yield p, partition_to_ideal(p)


def symmetric_classes(dim, top):
    for p in enumerate_partitions(dim, top, "totally_symmetric"):
        if len(p):
            yield p, partition_to_ideal(p)


def test_psi_examples():
    assert psi((1, 0, 2)) == (1, 1, 3)
    assert psi((0, 0, 4)) == (0, 0, 4)
    assert psi((3, 1)) == (3, 4)


def test_psi_inv_examples():
    assert psi_inv((2, 2, 2)) == (2, 0, 0)
    assert psi_inv((0, 0, 4)) == (0, 0, 4)
    with pytest.raises(NotWeaklyIncreasing):
        psi_inv((2, 1))


@given(st.lists(st.integers(0, 9), min_size=1, max_size=6))
def test_psi_round_trip(exponents):
    m = tuple(exponents)
    assert psi_inv(psi(m)) == m
    u = tuple(sorted(exponents))
    assert psi(psi_inv(u)) == u


def test_psi_image_weakly_increasing():
    for m in product(range(4), repeat=3):
        image = psi(m)
        assert all(image[i] <= image[i + 1] for i in range(2))


def test_psi_exchange_identity():
    # Moving one exponent unit forward divides the prefix-sum image by the
    # corresponding variable, exactly.
    for d in (2, 3, 4):
        for m in product(range(6), repeat=d):
            for q in range(d - 1):
                if m[q] == 0:
                    continue
                moved = m[:q] + (m[q] - 1, m[q + 1] + 1) + m[q + 2:]
                image = psi(m)
                assert psi(moved) == image[:q] + (image[q] - 1,) + image[q + 1:]


def test_psi_membership_equivalence():
    # Membership in a strongly stable ideal transfers to divisibility on
    # the prefix-sum side.
    for dim, top in ((2, 3), (3, 3)):
        for _, ideal in stable_classes(dim, top):
            n = ideal.artinian_side()
            images = [psi(g) for g in ideal.gens]
            for m in product(range(n + 2), repeat=dim):
                transferred = any(divides(u, psi(m)) for u in images)
                assert ideal.contains(m) == transferred


def test_bgens_via_psi_examples():
    assert set(bgens_via_psi(MonomialIdeal(2, SS_IDEAL_2D_GENS))) == SS_IDEAL_2D_BGENS
    assert set(bgens_via_psi(MonomialIdeal(3, SS_IDEAL_3D_GENS))) == SS_IDEAL_3D_BGENS
    assert bgens_via_psi(MonomialIdeal(1, [(3,)])) == ((3,),)
    with pytest.raises(NotStronglyStable):
        bgens_via_psi(MonomialIdeal(2, [(0, 1)]))


def test_bgens_dual_algorithms_agree():
    for dim, top in ((1, 3), (2, 3), (3, 3)):
        for _, ideal in stable_classes(dim, top):
            assert bgens_via_psi(ideal) == ideal.bgens()


def test_fset_invariants_enforced():
    FSet(3, 4, ((0, 0, 4), (1, 1, 3)))
    with pytest.raises(InvalidFSet):
        FSet(3, 4, ((1, 1, 3),))  # missing the pure power
    with pytest.raises(InvalidFSet):
        FSet(3, 4, ((0, 0, 4), (3, 1, 1)))  # not weakly increasing
    with pytest.raises(InvalidFSet):
        FSet(3, 4, ((0, 0, 4), (0, 0, 5)))  # coordinate beyond the side
    with pytest.raises(InvalidFSet):
        FSet(3, 4, ((0, 0, 4), (0, 1, 4)))  # not an antichain


def test_fset_json_round_trip():
    fs = FSet(3, 4, ((0, 0, 4), (1, 1, 3)))
    assert FSet.from_json_dict(fs.to_json_dict()) == fs


def test_lambda_map_examples():
    fs = lambda_map(MonomialIdeal(3, SS_IDEAL_3D_GENS))
    assert fs.side == 4
    assert set(fs.elements) == SS_IDEAL_3D_PSI_BGENS

    fs1 = lambda_map(MonomialIdeal(1, [(5,)]))
    assert fs1.side == 5 and fs1.elements == ((5,),)

    fs2 = lambda_map(MonomialIdeal(2, SS_IDEAL_2D_GENS))
    assert fs2.side == 7
    assert set(fs2.elements) == {(3, 4), (1, 5), (0, 7)}


def test_lambda_inv_examples():
    assert lambda_inv(FSet(2, 7, ((3, 4), (1, 5), (0, 7)))) == \
        MonomialIdeal(2, SS_IDEAL_2D_GENS)
    assert lambda_inv(FSet(3, 4, tuple(SS_IDEAL_3D_PSI_BGENS))) == \
        MonomialIdeal(3, SS_IDEAL_3D_GENS)
    power = lambda_inv(FSet(3, 2, ((0, 0, 2),)))
    assert set(power.gens) == {m for m in product(range(3), repeat=3) if sum(m) == 2}


def test_lambda_round_trips_on_enumerated_classes():
    for dim, top in ((1, 3), (2, 3), (3, 3)):
        for _, ideal in stable_classes(dim, top):
            fs = lambda_map(ideal)
            assert lambda_inv(fs) == ideal
            assert lambda_map(lambda_inv(fs)) == fs


def test_omega_examples():
    fs = FSet(3, 4, tuple(SS_IDEAL_3D_PSI_BGENS))
    assert omega(fs) == MonomialIdeal(3, symmetrize(SS_IDEAL_3D_PSI_BGENS))
    assert omega(FSet(1, 5, ((5,),))) == MonomialIdeal(1, [(5,)])
    sym2 = omega(FSet(2, 7, ((0, 7), (1, 5), (3, 4))))
    assert ideal_to_partition(sym2) == Partition(2, TS_PARTITION_2D_CELLS)


def test_omega_inv_examples():
    fs = FSet(3, 4, tuple(SS_IDEAL_3D_PSI_BGENS))
    assert omega_inv(omega(fs)) == fs
    assert omega_inv(MonomialIdeal(1, [(4,)])) == FSet(1, 4, ((4,),))
    assert omega_inv(MonomialIdeal(2, [(1, 0), (0, 1)])) == FSet(2, 1, ((0, 1),))
    with pytest.raises(NotSymmetric):
        omega_inv(MonomialIdeal(2, [(2, 0), (0, 1)]))


def test_omega_round_trips_on_enumerated_classes():
    for dim, top in ((1, 3), (2, 3), (3, 3)):
        for _, ideal in symmetric_classes(dim, top):
            fs = omega_inv(ideal)
            assert omega(fs) == ideal
            assert omega_inv(omega(fs)) == fs


def test_partition_bijection_worked_examples():
    ss2 = Partition(2, SS_PARTITION_2D_CELLS)
    ts2 = Partition(2, TS_PARTITION_2D_CELLS)
    assert ss_to_ts_partition(ss2) == ts2
    assert ts_to_ss_partition(ts2) == ss2

    ss3 = Partition(3, SS_PARTITION_3D_CELLS)
    ts3 = Partition(3, TS_PARTITION_3D_CELLS)
    assert ss_to_ts_partition(ss3) == ts3
    assert ts_to_ss_partition(ts3) == ss3

    single = Partition(1, [(0,)])
    assert ss_to_ts_partition(single) == single


def test_partition_bijection_rejections():
    with pytest.raises(EmptyInput):
        ss_to_ts_partition(Partition(2))
    with pytest.raises(EmptyInput):
        ts_to_ss_partition(Partition(2))
    # Artinian, but the largest pure power is x^3, and y^3 is not a generator.
    with pytest.raises(MissingPurePower,
                       match=r"expected the pure power \(0, 3\) among the generators"):
        lambda_map(MonomialIdeal(2, [(3, 0), (0, 2)]))
    with pytest.raises(NotStronglyStable):
        ss_to_ts_partition(Partition(2, [(0, 0), (1, 0)]))
    with pytest.raises(NotTotallySymmetric):
        ts_to_ss_partition(Partition(2, [(0, 0), (0, 1)]))


def _checked(dim, cells):
    return Partition(dim, cells)


def _unrecorded(dim, cells):
    return Partition._trusted(dim, tuple(sorted(cells)))


@pytest.mark.parametrize("build", [_checked, _unrecorded])
def test_bad_inputs_are_refused_however_built(build):
    with pytest.raises(NotStronglyStable):
        ss_to_ts_partition(build(2, [(0, 0), (1, 0)]))
    with pytest.raises(NotStronglyStable):
        ss_to_ts_partition(build(3, [(0, 0, 0), (0, 1, 0)]))
    with pytest.raises(NotTotallySymmetric):
        ts_to_ss_partition(build(2, [(0, 0), (0, 1)]))
    with pytest.raises(NotTotallySymmetric):
        ts_to_ss_partition(build(3, [(0, 0, 0), (0, 0, 1), (0, 1, 0)]))


# The record of the predicate a producer built a partition to satisfy
# (`Partition._holds`), which lets each map skip testing its input.

@pytest.mark.parametrize("dim, side", [(3, 4), (4, 3), (2, 6)])
def test_each_producer_records_what_it_built(dim, side):
    for p in enumerate_partitions(dim, side, "strongly_stable"):
        assert p._holds == "strongly_stable" and p.is_strongly_stable()
        if len(p):
            image = ss_to_ts_partition(p)
            assert image._holds == "totally_symmetric" and image.is_totally_symmetric()
            back = ts_to_ss_partition(image)
            assert back._holds == "strongly_stable" and back.is_strongly_stable()
    for t in enumerate_partitions(dim, side, "totally_symmetric"):
        assert t._holds == "totally_symmetric" and t.is_totally_symmetric()
        if len(t):
            preimage = ts_to_ss_partition(t)
            assert preimage._holds == "strongly_stable" and preimage.is_strongly_stable()
            again = ss_to_ts_partition(preimage)
            assert again._holds == "totally_symmetric" and again.is_totally_symmetric()


def test_a_recorded_image_is_the_value_its_constructor_builds():
    for p in enumerate_partitions(3, 4, "strongly_stable"):
        if len(p):
            image = ss_to_ts_partition(p)
            checked = Partition(image.dim, image.cells)
            assert image == checked and hash(image) == hash(checked)
            assert ts_to_ss_partition(checked) == ts_to_ss_partition(image) == p


def test_round_trips_test_only_what_no_producer_built(monkeypatch):
    def refuse(self):
        raise AssertionError("a recorded predicate was tested again")

    stable = Partition.is_strongly_stable
    monkeypatch.setattr(Partition, "is_strongly_stable", refuse)
    monkeypatch.setattr(Partition, "is_totally_symmetric", refuse)
    listed = [p for p in enumerate_partitions(3, 4, "strongly_stable") if len(p)]
    assert len(listed) == 65
    for p in listed:
        assert ts_to_ss_partition(ss_to_ts_partition(p)) == p

    # A constructed input is tested once, by the forward map.
    calls = []
    monkeypatch.setattr(Partition, "is_strongly_stable",
                        lambda self: calls.append(self) or stable(self))
    built = Partition(3, SS_PARTITION_3D_CELLS)
    assert ts_to_ss_partition(ss_to_ts_partition(built)) == built
    assert calls == [built]


def test_partition_bijection_preserves_side_and_inverts():
    for dim, top in ((1, 4), (2, 4), (3, 3)):
        for p, _ in stable_classes(dim, top):
            image = ss_to_ts_partition(p)
            assert image.is_totally_symmetric()
            assert image.bounding_side() == p.bounding_side()
            assert ts_to_ss_partition(image) == p


def test_cells_become_orbits():
    for dim, top in ((1, 4), (2, 4), (3, 4)):
        for p, _ in stable_classes(dim, top):
            assert ss_to_ts_partition(p).orbit_count() == len(p)


# The direct cell map against the paper's chain of ideals.

def chain_disagreements(dim, side, forward=ss_to_ts_partition, backward=ts_to_ss_partition):
    """The nonempty strongly stable partitions of the box on which
    `forward` differs from the chain, then the totally symmetric ones on
    which `backward` does."""
    return ([p for p, ideal in stable_classes(dim, side)
             if forward(p) != ideal_to_partition(omega(lambda_map(ideal)))]
            + [t for t, ideal in symmetric_classes(dim, side)
               if backward(t) != ideal_to_partition(lambda_inv(omega_inv(ideal)))])


@pytest.mark.parametrize("dim, side", [(1, 6), (2, 10), (3, 5), (4, 4), (5, 3), (6, 3)])
def test_direct_map_is_the_ideal_chain(dim, side):
    assert chain_disagreements(dim, side) == []


def _expand(p, orbit):
    cells = sorted(cell for c in p.cells for cell in orbit(c))
    return Partition._trusted(p.dim, tuple(cells))


def test_the_chain_oracle_catches_a_wrong_map():
    def drops_one_member(p):
        return _expand(p, lambda c: list(_distinct_permutations(psi(c)))[1:] or [psi(c)])

    def skips_psi(p):
        return _expand(p, lambda c: _distinct_permutations(tuple(sorted(c))))

    def skips_psi_inv(t):
        return Partition._trusted(t.dim, tuple(c for c in t.cells if c == tuple(sorted(c))))

    def stops_early_on_the_last_axis(t):
        # The walk of ts_to_ss_partition, where a step along the last axis
        # also needs the step after it.
        members, dim = t._members, t.dim
        cell = sums = (0,) * dim
        cells = [cell]
        while True:
            for k in reversed(range(dim)):
                ahead = 2 if k == dim - 1 else 1
                if sums[:k] + (sums[k] + ahead,) * (dim - k) in members:
                    cell = cell[:k] + (cell[k] + 1,) + (0,) * (dim - k - 1)
                    sums = sums[:k] + (sums[k] + 1,) * (dim - k)
                    cells.append(cell)
                    break
            else:
                return Partition._trusted(dim, tuple(cells))

    for forward in (drops_one_member, skips_psi):
        assert chain_disagreements(3, 3, forward=forward)
    for backward in (skips_psi_inv, stops_early_on_the_last_axis):
        assert chain_disagreements(3, 3, backward=backward)


def test_the_chain_oracle_catches_a_getter_table_short_of_one(monkeypatch):
    build = bijection._rearrangements
    monkeypatch.setattr(bijection, "_rearrangements", lambda starts: list(build(starts))[1:])
    assert chain_disagreements(3, 3)


def test_the_inverse_lists_its_cells_in_order():
    for dim, side in ((1, 6), (4, 4), (5, 3)):
        for t, _ in symmetric_classes(dim, side):
            cells = ts_to_ss_partition(t).cells
            assert cells == Partition(dim, cells).cells


@pytest.fixture
def cold_tables(monkeypatch):
    """An empty getter cache for the test; the process's own is restored
    after it."""
    monkeypatch.setattr(bijection, "_tables", {})
    return bijection._tables


def test_an_over_budget_forward_map_builds_no_getters_for_the_group_past_it(
        monkeypatch, cold_tables):
    # {0, e_1, ..., e_12} in d = 12: 0 and e_1 share the constant pattern,
    # then e_12, e_11, ..., e_2 each have their own, with orbits of
    # C(12, 1), C(12, 2), ..., C(12, 11) cells; 4,096 in all.
    star = Partition(12, [(0,) * 12] + [(0,) * i + (1,) + (0,) * (11 - i)
                                        for i in range(12)])
    lookup, build = bijection._rearrangements, bijection._build_rearrangements
    looked, built = [], []

    def looked_up(pattern):
        looked.append(bijection._run_starts(pattern))
        return lookup(pattern)

    def counted(starts):
        built.append(starts)
        return build(starts)

    monkeypatch.setattr(bijection, "_rearrangements", looked_up)
    monkeypatch.setattr(bijection, "_build_rearrangements", counted)
    last = (0,) + (1,) * 11   # the run starts of ψ(e_2), the last group
    with pytest.raises(ResourceLimit):
        ss_to_ts_partition(star, budget=4095)
    assert len(looked) == len(built) == 11
    assert last not in looked and last not in built
    built.clear()
    assert len(ss_to_ts_partition(star, budget=4096)) == 4096
    assert len(built) == 12 and built[-1] == last
    # Past d = 7 no table is kept: the next call builds each one again.
    first = built[:]
    built.clear()
    assert len(ss_to_ts_partition(star, budget=4096)) == 4096
    assert built == first and not cold_tables


def test_each_kept_table_is_its_patterns_distinct_rearrangements(cold_tables):
    for dim in range(1, 7):
        for pattern in product((False, True), repeat=dim - 1):
            starts = bijection._run_starts(pattern)
            table = bijection._rearrangements(pattern)
            assert cold_tables[pattern] is table
            assert [getter(starts) for getter in table] == sorted(set(permutations(starts)))[1:]


def test_threads_sharing_the_cache_get_the_images_of_one(cold_tables):
    # Thread switches after every bytecode or so, while two threads fill a
    # cold cache three times over: a table built by both at once is stored
    # under one key either way, and the images are those of one thread
    # alone.
    stable = [p for box in ((3, 4), (5, 3), (7, 3))
              for p in enumerate_partitions(*box, "strongly_stable") if len(p)]
    alone = [ss_to_ts_partition(p) for p in stable]
    images = [None, None]

    def convert(slot):
        images[slot] = [ss_to_ts_partition(p) for p in stable]

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            cold_tables.clear()
            threads = [threading.Thread(target=convert, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert images == [alone, alone]
    finally:
        sys.setswitchinterval(saved)
    assert cold_tables
    for pattern, table in cold_tables.items():
        starts = bijection._run_starts(pattern)
        assert [getter(starts) for getter in table] == sorted(set(permutations(starts)))[1:]


def test_a_warm_cache_gives_the_images_of_a_cold_one(monkeypatch):
    for dim, side in ((3, 5), (4, 4), (5, 3)):
        stable = [p for p in enumerate_partitions(dim, side, "strongly_stable") if len(p)]
        cold = []
        for p in stable:
            monkeypatch.setattr(bijection, "_tables", {})
            cold.append(ss_to_ts_partition(p))
        assert [ss_to_ts_partition(p) for p in stable] == cold


def test_the_tables_through_d_7_are_kept_and_none_past_it(cold_tables):
    # The kept set is fixed by the dimension: the 127 patterns through
    # d = 7, holding 362,200 indices (d per getter, and d for the
    # pattern), whatever order they arrive in.
    every = [pattern for dim in range(1, 8) for pattern in product((False, True), repeat=dim - 1)]
    random.Random(0).shuffle(every)
    for pattern in every:
        table = bijection._rearrangements(pattern)
        assert len(table) == _orbit_size(bijection._run_starts(pattern)) - 1
        assert cold_tables[pattern] is table
    assert len(cold_tables) == 127
    assert sum((len(table) + 1) * (len(pattern) + 1)
               for pattern, table in cold_tables.items()) == 362200
    # The d = 8 pattern of eight runs has 40,319 getters: it is built
    # again for each call and never kept.
    eight = (True,) * 7
    table = bijection._rearrangements(eight)
    assert len(table) == 40319 and bijection._rearrangements(eight) is not table
    assert eight not in cold_tables and len(cold_tables) == 127
