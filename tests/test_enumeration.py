import hashlib
import json
from functools import reduce
from itertools import combinations, islice, product, zip_longest
from math import comb
from operator import add, or_

import pytest
from hypothesis import given, strategies as st

import borelbox.enumeration
from borelbox import (
    ArithmeticSelfCheck,
    InexactDivision,
    NonIntegerProduct,
    Partition,
    QPolynomial,
    ResourceLimit,
    cell_gf_ss,
    count_ss,
    count_table,
    count_ts,
    cumulative_counts,
    enumerate_partitions,
    hawkes_check,
    hawkes_counts,
    orbit_gf_ts,
    qtspp,
    stembridge_t3,
)
from borelbox.enumeration import _box_budget

import bruteforce


def test_all_stream_matches_powerset_oracle():
    for dim, side in ((1, 4), (2, 3), (3, 2)):
        expected = set(bruteforce.powerset_partitions(dim, side))
        got = [frozenset(p.cells) for p in enumerate_partitions(dim, side, "all")]
        assert len(got) == len(expected)
        assert set(got) == expected


def test_stable_stream_matches_filtered_oracle():
    for dim, side in ((2, 4), (3, 2)):
        expected = {cells for cells in bruteforce.powerset_partitions(dim, side)
                    if bruteforce.naive_strongly_stable(cells)}
        got = {frozenset(p.cells)
               for p in enumerate_partitions(dim, side, "strongly_stable")}
        assert got == expected


def test_symmetric_stream_matches_filtered_oracle():
    for dim, side in ((2, 4), (3, 2)):
        expected = {cells for cells in bruteforce.powerset_partitions(dim, side)
                    if bruteforce.naive_totally_symmetric(cells)}
        got = {frozenset(p.cells)
               for p in enumerate_partitions(dim, side, "totally_symmetric")}
        assert got == expected


# sha256 of json.dumps([p.cells for p in stream]): the symmetric listing
# order, orbit representatives in graded order, recorded from the
# scan-the-table walk that the frontier walk replaced.
RECORDED_LISTINGS = {
    (3, 3, "totally_symmetric"): "62aa8e55a871caf23c63d2b96f2d4f3f495af4bf2d9e3b71e1a759ea3b94537f",
    (2, 4, "totally_symmetric"): "9294249e5c13d91d7ca4428bbc0ca7b4f0e57d673d1cbfe6e20e9bd542bff618",
}

ORACLE_FILTERS = {
    "all": lambda cells: True,
    "strongly_stable": bruteforce.naive_strongly_stable,
    "totally_symmetric": bruteforce.naive_totally_symmetric,
}


@pytest.mark.parametrize("dim, side", [(3, 3), (2, 4)])
@pytest.mark.parametrize("predicate", sorted(ORACLE_FILTERS))
def test_streams_list_oracle_sets_once_in_recorded_order(dim, side, predicate):
    listing = [p.cells for p in enumerate_partitions(dim, side, predicate)]
    expected = {cells for cells in bruteforce.grown_partitions(dim, side)
                if ORACLE_FILTERS[predicate](cells)}
    assert len(listing) == len(expected)
    assert {frozenset(cells) for cells in listing} == expected
    if predicate == "totally_symmetric":
        digest = hashlib.sha256(json.dumps(listing).encode()).hexdigest()
        assert digest == RECORDED_LISTINGS[dim, side, predicate]
    else:
        assert listing == bruteforce.appended_listing(dim, side, predicate == "strongly_stable")


@pytest.mark.parametrize("dim, side, predicate", [
    (2, 6, "all"), (2, 6, "strongly_stable"), (4, 2, "all"), (4, 2, "strongly_stable"),
    (3, 4, "strongly_stable")])
def test_cell_listings_come_in_the_appending_oracles_order(dim, side, predicate):
    listing = [p.cells for p in enumerate_partitions(dim, side, predicate)]
    assert listing == bruteforce.appended_listing(dim, side, predicate == "strongly_stable")


def test_grown_oracle_matches_powerset_oracle():
    for dim, side in ((2, 4), (3, 2)):
        assert bruteforce.grown_partitions(dim, side) == set(
            bruteforce.powerset_partitions(dim, side))


@pytest.mark.parametrize("dim, side", [(3, 3), (2, 4)])
@pytest.mark.parametrize("predicate", sorted(ORACLE_FILTERS))
def test_budget_raises_exactly_below_nodes_or_table_entries(dim, side, predicate):
    # The table is refused by its coordinates, d per entry.  A symmetric
    # listing is also charged each orbit's cells when it first expands
    # it, and it expands every orbit of the box: side^d cells.
    nodes = sum(1 for _ in enumerate_partitions(dim, side, predicate))
    entries = side ** dim if predicate == "all" else comb(side + dim - 1, dim)
    cells = side ** dim if predicate == "totally_symmetric" else 0
    need = max(nodes + cells, entries * dim)
    assert sum(1 for _ in enumerate_partitions(dim, side, predicate,
                                               budget=need)) == nodes
    with pytest.raises(ResourceLimit):
        list(enumerate_partitions(dim, side, predicate, budget=need - 1))


def test_stream_yields_each_partition_once_deterministically():
    first = list(enumerate_partitions(3, 2, "all"))
    second = list(enumerate_partitions(3, 2, "all"))
    assert first == second
    assert len(set(first)) == len(first)


def test_enumerate_examples():
    assert sum(1 for _ in enumerate_partitions(3, 2, "strongly_stable")) == 5
    assert sum(1 for _ in enumerate_partitions(1, 3, "all")) == 4
    for predicate in ("all", "strongly_stable", "totally_symmetric"):
        only = list(enumerate_partitions(2, 0, predicate))
        assert only == [Partition(2)]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_partitions(0, 2, "all"))
    with pytest.raises(ValueError):
        list(enumerate_partitions(2, -1, "all"))
    with pytest.raises(ValueError):
        list(enumerate_partitions(2, 2, "ss"))
    # A boolean is no box side, dimension or budget, and a non-integer
    # budget is no budget.
    for call in (lambda: count_ss(True, 3), lambda: count_ts(2, True), lambda: qtspp(True),
                 lambda: stembridge_t3(False), lambda: count_ss(3, 3, budget=2.5),
                 lambda: count_ts(3, 3, budget="5"), lambda: qtspp(3, budget=True),
                 lambda: hawkes_counts(3, "a"),
                 lambda: list(enumerate_partitions(2, 2, "all", budget=1.5))):
        with pytest.raises(ValueError):
            call()


def test_enumerate_refuses_at_the_call():
    # Bad arguments and a requirement table over the budget raise when
    # the listing is asked for, before any item is drawn.
    for args, budget, error in (((0, 2), None, ValueError),
                                ((2, -1, "all"), None, ValueError),
                                ((2, 2, "ss"), None, ValueError),
                                ((2, 2, "all"), 1.5, ValueError),
                                ((3, 60, "totally_symmetric"), 1, ResourceLimit),
                                ((2, 3, "all"), 8, ResourceLimit)):
        with pytest.raises(error):
            enumerate_partitions(*args, budget=budget)


def test_budget_exhaustion_raises():
    with pytest.raises(ResourceLimit) as info:
        list(enumerate_partitions(2, 3, "all", budget=5))
    assert info.value.budget == 5
    # a generous budget does not trigger
    assert sum(1 for _ in enumerate_partitions(2, 2, "all", budget=10_000)) == 6


def test_cumulative_counts_of_all_partitions():
    # Entry k counts the partitions in the box of side k: lattice paths
    # through a k x k square in d = 2, and in d = 3 the 20 plane
    # partitions of the 2-box.
    for n in range(7):
        assert cumulative_counts(2, n, "all") == tuple(comb(2 * k, k) for k in range(n + 1))
    assert cumulative_counts(3, 2, "all") == (1, 2, 20)
    cumulative, _ = bruteforce.bucket_by_side(list(bruteforce.powerset_partitions(4, 2)), 2)
    assert cumulative_counts(4, 2, "all") == cumulative
    # The listing walks 20 nodes at (3, 2), and its table holds 8 cells
    # of 3 coordinates.
    assert cumulative_counts(3, 2, "all", budget=24) == (1, 2, 20)
    with pytest.raises(ResourceLimit, match="table of 24 coordinates"):
        cumulative_counts(3, 2, "all", budget=23)


def test_closed_forms():
    for n in range(9):
        assert count_ss(1, n) == n + 1
        assert count_ts(1, n) == n + 1
        assert count_ss(2, n) == 2 ** n
        assert count_ts(2, n) == 2 ** n


def test_central_identity_small():
    for n in range(5):
        assert count_ss(3, n) == count_ts(3, n)
    assert count_ss(3, 2) == 5


def test_stembridge_values():
    assert [stembridge_t3(n) for n in range(5)] == [1, 2, 5, 16, 66]
    for n in range(5):
        assert stembridge_t3(n) == count_ts(3, n)


def test_qtspp_small_values():
    assert qtspp(0) == QPolynomial([1])
    assert qtspp(1) == QPolynomial([1, 1])
    assert qtspp(2) == QPolynomial([1, 1, 1, 1, 1])
    for n in range(5):
        assert qtspp(n).evaluate(1) == stembridge_t3(n)


def test_products_match_the_uncancelled_oracles():
    for n in range(10):
        assert qtspp(n).coeffs == bruteforce.multiply_all_then_divide_qtspp(n)
    for n in range(41):
        assert stembridge_t3(n) == bruteforce.fraction_t3(n)
    for n in range(13):
        assert qtspp(n).evaluate(1) == stembridge_t3(n)


def test_a_factor_table_that_is_no_polynomial_raises():
    # (1 - q) / (1 - q^2) = 1 / (1 + q), which evaluates to 1/2 at q = 1.
    table = {1: 1, 2: -1}
    with pytest.raises(InexactDivision):
        borelbox.enumeration._q_product(table)
    with pytest.raises(NonIntegerProduct):
        borelbox.enumeration._integer_product(table)


def test_qtspp_budget_caps_the_degree_before_any_arithmetic(monkeypatch):
    assert qtspp(3, budget=10) == qtspp(3)

    def untouched(n):
        raise AssertionError("the factor table was built")

    monkeypatch.setattr(borelbox.enumeration, "_triple_exponents", untouched)
    with pytest.raises(ResourceLimit, match="degree 1335334000"):
        qtspp(2000, budget=100)
    with pytest.raises(ValueError):
        qtspp(3, budget=0)


def test_stembridge_budget_caps_the_factor_count_before_the_table(monkeypatch):
    # C(5, 3) = 10 factors for n = 3, C(6, 3) = 20 for n = 4.
    assert stembridge_t3(3, budget=10) == 16
    with pytest.raises(ResourceLimit, match="20 factors"):
        stembridge_t3(4, budget=10)

    def untouched(n):
        raise AssertionError("the factor table was built")

    monkeypatch.setattr(borelbox.enumeration, "_triple_exponents", untouched)
    with pytest.raises(ResourceLimit, match="1335334000 factors"):
        stembridge_t3(2000, budget=100)
    with pytest.raises(ValueError):
        stembridge_t3(3, budget=0)


def test_triple_exponents_match_the_listed_triples():
    for n in range(61):
        sums = bruteforce.triple_sum_counts(n)
        expected = {t: sums[t + 1] - sums[t + 2] for t in range(1, 3 * n)}
        assert borelbox.enumeration._triple_exponents(n) == {
            t: e for t, e in expected.items() if e}


def test_non_integer_product_names_the_reduced_fraction():
    for table in ({2: -2, 6: 1}, {6: 1, 4: -1}):
        with pytest.raises(NonIntegerProduct, match=r"fraction 3/2$"):
            borelbox.enumeration._integer_product(table)
    # 8^2 / 4^3 = 1: the prime 2 appears in 8 and 4 more than once.
    assert borelbox.enumeration._integer_product({8: 2, 4: -3, 9: 1}) == 9
    with pytest.raises(NonIntegerProduct, match=r"fraction 1/8$"):
        borelbox.enumeration._integer_product({8: 1, 4: -3})


def test_prime_and_polynomial_products_agree():
    for n in range(21):
        assert stembridge_t3(n) == qtspp(n).evaluate(1)


def test_generating_functions():
    assert orbit_gf_ts(3, 1) == QPolynomial([1, 1])
    assert cell_gf_ss(3, 2) == QPolynomial([1, 1, 1, 1, 1])
    for n in range(5):
        assert cell_gf_ss(1, n) == QPolynomial([1] * (n + 1))
    for n in range(4):
        assert orbit_gf_ts(3, n) == qtspp(n)
        assert cell_gf_ss(3, n) == qtspp(n)


def test_wide_orbits_cost_their_size():
    # 2^12 cells in 13 orbits; listing every permutation would take 13 x 12!.
    assert count_ts(12, 2) == count_ss(12, 2) == 14


def test_count_table():
    table = count_table(2, 3)
    assert table.stable == (1, 2, 4, 8)
    assert table.symmetric == (1, 2, 4, 8)
    assert table.to_json_dict() == {"d": 2, "n": 3, "B": [1, 2, 4, 8],
                                    "T": [1, 2, 4, 8]}


def test_counts_monotone():
    for d in (1, 2, 3):
        values = [count_ss(d, n) for n in range(4)]
        assert values == sorted(values)
    for n in (0, 1, 2, 3):
        assert count_ss(1, n) <= count_ss(2, n) <= count_ss(3, n)


def test_hawkes_identity():
    assert hawkes_check(3, 3)
    assert hawkes_check(2, 2)
    assert hawkes_check(4, 3)
    assert count_ss(3, 3) == 16 == count_ss(2, 4)
    assert count_ss(4, 3) == 32 == count_ss(2, 5)
    with pytest.raises(ValueError):
        hawkes_check(2, 1)


def list_ss(dim, side):
    return list(enumerate_partitions(dim, side, "strongly_stable"))


def list_ts(dim, side):
    return list(enumerate_partitions(dim, side, "totally_symmetric"))


@pytest.mark.parametrize("predicate, counter", [
    ("is_strongly_stable", count_ss),
    ("is_strongly_stable", list_ss),
    ("is_totally_symmetric", count_ts),
    ("is_totally_symmetric", list_ts),
])
def test_failed_revalidation_raises(monkeypatch, predicate, counter):
    # Candidates are re-validated on their bitmask against the OR of
    # their members' requirement masks, here forced to hold a bit no set
    # holds: for stable ones a move (`_cell_layout` with moves), while
    # every predecessor is held, for symmetric ones a predecessor orbit
    # (`_orbit_layout`); a symmetric listing also checks each orbit for
    # symmetry when it expands it.
    if predicate == "is_strongly_stable":
        def unheld_move(order, stable):
            bits, _ = _real_cell_layout(order, stable)
            return bits, [1 << len(order) if stable else 0] * len(order)
        monkeypatch.setattr(borelbox.enumeration, "_cell_layout", unheld_move)
        failed = "strongly stable"
    elif counter is count_ts:
        def unheld_orbit(order):
            bits, _ = _real_orbit_layout(order)
            return bits, [1 << len(order)] * len(order)
        monkeypatch.setattr(borelbox.enumeration, "_orbit_layout", unheld_orbit)
        failed = "downward closed"
    else:
        monkeypatch.setattr(borelbox.enumeration, "_fixed_by_permutations",
                            lambda members, items, dim: False)
        failed = "totally symmetric"
    with pytest.raises(ArithmeticSelfCheck, match=f"enumerated candidate .* is not {failed}"):
        counter(2, 2)


_real_cell_layout = borelbox.enumeration._cell_layout
_real_orbit_layout = borelbox.enumeration._orbit_layout
_real_requirements = borelbox.enumeration._cell_requirements
_real_orbit_requirements = borelbox.enumeration._orbit_requirements


@pytest.mark.parametrize("stable", [False, True])
def test_cell_tables_match_an_independent_construction(stable):
    # The box filtered to coordinate sum below the side when stable,
    # sorted; each cell's needs are the indices of its predecessors
    # c - e_j, then of its moves c - e_j + e_(j+1), by j.  Dimension 0 has
    # its one cell, (), at every side.
    for side in range(6):
        assert _real_requirements(0, side, stable) == ([()], [()])
        for dim in range(1, 6):
            cells = sorted(c for c in product(range(side), repeat=dim)
                           if not stable or sum(c) < side)
            index = {c: i for i, c in enumerate(cells)}
            requires = []
            for c in cells:
                lowered = [index[c[:j] + (c[j] - 1,) + c[j + 1:]] for j in range(dim) if c[j]]
                moved = [index[c[:j] + (c[j] - 1, c[j + 1] + 1) + c[j + 2:]]
                         for j in range(dim - 1) if c[j]] if stable else []
                requires.append(tuple(lowered + moved))
            assert _real_requirements(dim, side, stable) == (cells, requires), (dim, side)


def test_the_stable_table_is_the_simplex_in_lexicographic_order():
    # The box's cells with coordinate sum below the side, in the order
    # `product` lists them, as many as the C(side+d-1, d) entries whose
    # d coordinates each (one for dimension 0) the budget is charged for
    # the slice table of a transfer in dimension d + 1: a budget of that
    # size passes and one less refuses it.  Dimension 0 has its one cell,
    # (), at every side, side 0 included, and side 0 has none in positive
    # dimension.
    for dim in range(6):
        for side in range(6):
            order, _ = _real_requirements(dim, side, True)
            assert order == [c for c in product(range(side), repeat=dim)
                             if sum(c) < side or not dim]
            size = comb(max(side + dim - 1, 0), dim)
            assert len(order) == size, (dim, side)
            coordinates = size * max(dim, 1)
            _box_budget(dim + 1, side, "strongly_stable", max(coordinates, 1), dim)
            if coordinates > 1:
                with pytest.raises(ResourceLimit, match=f"table of {coordinates} coordinates"):
                    _box_budget(dim + 1, side, "strongly_stable", coordinates - 1, dim)
    # At (1599, 2), the origin, then e_1599, ..., e_1.
    dim = 1599
    order, _ = _real_requirements(dim, 2, True)
    assert order == [(0,) * dim] + [tuple(int(j == i) for j in range(dim))
                                    for i in reversed(range(dim))]
    assert len(order) == comb(dim + 1, dim)


def requirements_without_predecessors(dim, side, stable):
    """The walk's table with every cell's coordinate predecessors dropped
    from its needs: the walk then reaches sets that are not downward
    closed."""
    order, requires = _real_requirements(dim, side, stable)
    index = {cell: i for i, cell in enumerate(order)}
    dropped = []
    for cell, need in zip(order, requires):
        below = {index[cell[:j] + (v - 1,) + cell[j + 1:]]
                 for j, v in enumerate(cell) if v}
        dropped.append(tuple(k for k in need if k not in below))
    return order, dropped


def orbit_requirements_without_predecessors(dim, side):
    """The symmetric walk's table with every predecessor orbit dropped:
    the walk then reaches every set of orbits, most not downward closed."""
    order, _ = _real_orbit_requirements(dim, side)
    return order, [()] * len(order)


def requirements_without_moves(dim, side, stable):
    """The walk's table without the strongly stable moves: a stable walk
    then reaches every downward-closed set."""
    return _real_requirements(dim, side, False)


@pytest.mark.parametrize("predicate", ["all", "strongly_stable", "totally_symmetric"])
def test_listing_a_set_that_is_not_downward_closed_raises(monkeypatch, predicate):
    monkeypatch.setattr(borelbox.enumeration, "_cell_requirements",
                        requirements_without_predecessors)
    monkeypatch.setattr(borelbox.enumeration, "_orbit_requirements",
                        orbit_requirements_without_predecessors)
    with pytest.raises(ArithmeticSelfCheck, match="not downward closed"):
        list(enumerate_partitions(2, 3, predicate))


@pytest.mark.parametrize("counter", [count_ts, orbit_gf_ts])
def test_counting_sets_of_orbits_that_are_not_downward_closed_raises(monkeypatch, counter):
    # Without the check on each slice state's orbit mask, count_ts(3, 3)
    # counts 288 chains of such sets instead of the 16 partitions.
    monkeypatch.setattr(borelbox.enumeration, "_orbit_requirements",
                        orbit_requirements_without_predecessors)
    with pytest.raises(ArithmeticSelfCheck, match="not downward closed"):
        counter(3, 3)


@pytest.mark.parametrize("counter", [list_ss, count_ss])
def test_walking_a_set_that_is_not_strongly_stable_raises(monkeypatch, counter):
    monkeypatch.setattr(borelbox.enumeration, "_cell_requirements",
                        requirements_without_moves)
    with pytest.raises(ArithmeticSelfCheck, match="not strongly stable"):
        counter(3, 3)


def g_from_scratch(order, bits, idxs):
    """g(S) = {y in S : y + e_1 in S} of the stable transfer, as a mask
    over the table's bits, from the node's cells."""
    cells = {order[i] for i in idxs}
    return sum(b for y, b in zip(order, bits) if y in cells and (y[0] + 1,) + y[1:] in cells)


def walk_indices(mask, bits):
    """The walk indices whose bits a node's mask holds, in increasing
    order: each index has its own bit."""
    return [i for i, bit in enumerate(bits) if mask & bit]


@pytest.mark.parametrize("predicate", ["all", "strongly_stable", "totally_symmetric"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_walk_carries_each_nodes_mask(monkeypatch, dim, predicate):
    # Every node's frame carries its mask, the OR of its indices' bits and
    # nothing else, and its need, the OR of their requirement masks, which
    # the walk hands `finalize` once per node, here a recording one.  The
    # mask names the node's indices, and its cells must be theirs.
    # Depth-first, a node is the last node on the path with one index
    # fewer plus one index above all of that node's, so a set's indices
    # are added in increasing order; in the
    # cell tables (lexicographic order) its last index is its
    # lexicographically largest cell, which a listing appends to its
    # parent's.  The listing's fold carries the node's sorted cells, for
    # orbits the sorted union of their cells, and the stable transfer's,
    # walked here by count_ss(dim + 1, side), carries g of the node.
    walk = borelbox.enumeration._walk
    for side in range(5):
        order, requires, bits, below, fold, finalize = borelbox.enumeration._mode(
            dim, side, predicate)
        needs = []

        def recording(need, mask):
            needs.append(need)
            return finalize(need, mask)
        path = []
        for mask, cells in walk(requires, bits, below, fold, recording, lambda: None):
            [need] = needs
            needs.clear()
            idxs = walk_indices(mask, bits)
            assert mask == reduce(or_, map(bits.__getitem__, idxs), 0)
            assert need == reduce(or_, map(below.__getitem__, idxs), 0)
            if idxs:
                parent = path[len(idxs) - 1]
                assert idxs[:-1] == parent and (not parent or idxs[-1] > parent[-1])
            else:
                assert not path
            del path[len(idxs):]
            path.append(idxs)
            if predicate == "totally_symmetric":
                assert cells == tuple(sorted(bruteforce.naive_symmetrize(
                    map(order.__getitem__, idxs))))
            else:
                assert cells == tuple(sorted(map(order.__getitem__, idxs)))
                assert not idxs or order[idxs[-1]] == cells[-1]
        if predicate == "strongly_stable":
            nodes = []

            def checked_walk(requires, bits, below, fold, finalize, tick):
                for mask, g in walk(requires, bits, below, fold, finalize, tick):
                    assert g == g_from_scratch(order, bits, walk_indices(mask, bits)), mask
                    nodes.append(mask)
                    yield mask, g
            monkeypatch.setattr(borelbox.enumeration, "_walk", checked_walk)
            count_ss(dim + 1, side)
            monkeypatch.undo()
            assert len(nodes) == len(set(nodes)) == count_ss(dim, side)


@pytest.mark.parametrize("predicate", ["all", "strongly_stable", "totally_symmetric"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_walk_at_side_zero_yields_its_root_alone(dim, predicate):
    # At side 0 the table is empty, and so is the root's frontier: the
    # walk yields the root alone, after one tick, and the listings and
    # counts see the empty partition only.
    walk = borelbox.enumeration._walk
    _, requires, bits, below, fold, finalize = borelbox.enumeration._mode(dim, 0, predicate)
    assert requires == []
    ticks = []
    assert list(walk(requires, bits, below, fold, finalize,
                     lambda: ticks.append(1))) == [(0, ())]
    assert ticks == [1]
    assert list(enumerate_partitions(dim, 0, predicate)) == [Partition(dim)]
    assert count_ss(dim, 0) == count_ts(dim, 0) == 1
    assert cell_gf_ss(dim, 0) == orbit_gf_ts(dim, 0) == QPolynomial((1,))


@pytest.mark.parametrize("predicate", ["all", "strongly_stable", "totally_symmetric"])
def test_a_walk_in_dimension_one_yields_the_prefixes_of_its_chain(predicate):
    # In dimension 1 the table is a chain and each node's frontier one
    # index: the walk yields the n + 1 prefixes in order, and the
    # transfers, which walk dimension 0 (one cell, ()), count n + 1.
    walk = borelbox.enumeration._walk
    for side in range(1, 5):
        _, requires, bits, below, fold, finalize = borelbox.enumeration._mode(1, side, predicate)
        nodes = list(walk(requires, bits, below, fold, finalize, lambda: None))
        assert [mask for mask, _ in nodes] == [(1 << k) - 1 for k in range(side + 1)]
        assert [cells for _, cells in nodes] == [
            tuple((v,) for v in range(k)) for k in range(side + 1)]
        assert count_ss(1, side) == count_ts(1, side) == side + 1


@pytest.mark.parametrize("dim, side, predicate", [
    (3, 3, "all"), (2, 5, "strongly_stable"), (3, 3, "totally_symmetric"), (1, 4, "all")])
def test_interleaved_walks_of_one_box_yield_what_each_yields_alone(dim, side, predicate):
    # Two walks over one table, advanced step by step in an uneven
    # pattern, each yield the nodes a walk alone yields: every frame holds
    # its own frontier and mask, so no walk's step changes another's
    # state.  The yielded tuples are kept as they come, so each stays
    # valid after later steps of either walk.
    _, requires, bits, below, fold, finalize = borelbox.enumeration._mode(dim, side, predicate)
    walk = borelbox.enumeration._walk
    alone = list(walk(requires, bits, below, fold, finalize, lambda: None))
    walks = [walk(requires, bits, below, fold, finalize, lambda: None) for _ in range(2)]
    got = [[], []]
    for step in range(3 * len(alone)):
        for which in ((0,) if step % 3 else (0, 1, 1)):
            node = next(walks[which], None)
            if node is not None:
                got[which].append(node)
    assert got == [alone, alone]
    assert len({node[0] for node in alone}) == len(alone)


@st.composite
def requirement_tables(draw):
    """Up to 10 indices, each requiring a random set of lower ones."""
    return [sorted(draw(st.sets(st.integers(0, j - 1)))) if j else []
            for j in range(draw(st.integers(0, 10)))]


@given(requirement_tables(), st.data())
def test_a_walk_yields_every_order_ideal_once_under_any_bit_layout(requires, data):
    # Any table and any layout that gives each index its own bit: the
    # walk yields each set closed under `requires` exactly once, the root
    # first, each with the OR of its indices' bits, after handing
    # `finalize` that and the OR of their requirement masks, one tick and
    # one re-validation a node; the layout changes only the masks, not
    # which sets come or in what order.
    size = len(requires)
    ideals = {frozenset(s) for k in range(size + 1) for s in combinations(range(size), k)
              if all(set(requires[j]) <= set(s) for j in s)}
    fold = ([(i,) for i in range(size)], add, ())

    def walked(layout):
        bits = [1 << k for k in layout]
        below = [reduce(or_, map(bits.__getitem__, needed), 0) for needed in requires]
        ticks = []
        needs = []
        nodes = []

        def recording(need, mask):
            needs.append((need, mask))
            return mask
        for mask, idxs in borelbox.enumeration._walk(requires, bits, below, fold, recording,
                                                     lambda: ticks.append(1)):
            assert needs[-1] == (reduce(or_, map(below.__getitem__, idxs), 0), mask)
            assert mask == reduce(or_, map(bits.__getitem__, idxs), 0)
            assert list(idxs) == sorted(idxs)
            nodes.append(idxs)
        assert len(ticks) == len(needs) == len(nodes)
        return nodes

    nodes = walked(range(size))
    assert nodes[0] == ()
    assert len(nodes) == len(ideals) and set(map(frozenset, nodes)) == ideals
    assert walked(data.draw(st.permutations(range(size)))) == nodes


@pytest.mark.parametrize("dim, side, predicate", [
    (2, 6, "all"), (3, 4, "strongly_stable"), (4, 2, "all"), (3, 3, "all")])
def test_each_listed_partition_appends_one_cell_to_one_on_the_path(dim, side, predicate):
    # Depth-first: after the empty partition, each one listed with k cells
    # is the last one listed with k - 1, on the current path, plus one cell
    # at its end.
    path = []
    for part in enumerate_partitions(dim, side, predicate):
        size = len(part.cells)
        if size:
            assert path[size - 1] == part.cells[:-1], part
        else:
            assert not path
        del path[size:]
        path.append(part.cells)


@pytest.mark.parametrize("dim, side, predicate", [
    (2, 6, "all"), (3, 3, "all"), (4, 2, "all"), (3, 4, "strongly_stable"),
    (3, 5, "strongly_stable"), (2, 8, "all"), (2, 6, "totally_symmetric"),
    (3, 4, "totally_symmetric"), (4, 3, "totally_symmetric"), (5, 2, "totally_symmetric"),
    (10, 2, "totally_symmetric")])
def test_carried_cells_are_the_canonical_cells(dim, side, predicate):
    # Each listed partition's cells, built from its parent's, are those
    # the validating constructor sorts from scratch.  A symmetric one is
    # only ever checked orbit by orbit, so the merged cells are checked
    # here: by the full permutation group, or by counting at d = 10.
    symmetric = (bruteforce.naive_totally_symmetric if dim <= 5
                 else bruteforce.counted_totally_symmetric)
    for part in enumerate_partitions(dim, side, predicate):
        assert part.cells == Partition(dim, part.cells).cells
        if predicate == "totally_symmetric":
            assert symmetric(part.cells)


def test_symmetric_listing_checks_each_orbit_once(monkeypatch):
    # A symmetric listing checks symmetry on each orbit once, when it is
    # first expanded, and never on a node's cells: at (3,4) that is the
    # C(6,3) = 20 orbits of the box, against 66 listed partitions.
    checked = []
    real = borelbox.enumeration._fixed_by_permutations

    def check(members, items, dim):
        checked.append(frozenset(items))
        return real(members, items, dim)

    def never(self):
        raise AssertionError("a listing re-checks a partition's cells")

    monkeypatch.setattr(borelbox.enumeration, "_fixed_by_permutations", check)
    monkeypatch.setattr(Partition, "is_totally_symmetric", never)
    listing = list(enumerate_partitions(3, 4, "totally_symmetric"))
    assert len(listing) == 66
    orbits = {frozenset(bruteforce.naive_symmetrize([cell])) for part in listing for cell in part}
    assert len(checked) == len(set(checked)) == len(orbits) == comb(6, 3)
    assert set(checked) == orbits


@pytest.mark.parametrize("first, second", [
    ((3, 3, "all"), (3, 3, "all")),
    ((2, 5, "all"), (3, 4, "strongly_stable")),
    ((3, 4, "strongly_stable"), (3, 3, "totally_symmetric")),
])
def test_interleaved_listings_keep_their_own_state(first, second):
    # Each listing's walk carries its nodes' masks and sorted cells in
    # its own stack frames: two of them advanced alternately, one of them
    # a few nodes ahead, list what each lists on its own.
    alone = [[p.cells for p in enumerate_partitions(*box)] for box in (first, second)]
    streams = [enumerate_partitions(*box) for box in (first, second)]
    got = [[p.cells for p in islice(streams[0], 7)], []]
    for pair in zip_longest(*streams):
        for listing, part in zip(got, pair):
            if part is not None:
                listing.append(part.cells)
    assert got == alone


def test_non_plane_generating_functions_also_enumerable():
    # No closed form is claimed here; the two streams must still agree
    # through the bijection, hence have equal value at q=1.
    assert orbit_gf_ts(4, 2).evaluate(1) == cell_gf_ss(4, 2).evaluate(1)
