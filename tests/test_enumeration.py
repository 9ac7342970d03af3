import pytest

from borelbox import (
    ArithmeticSelfCheck,
    Partition,
    QPolynomial,
    ResourceLimit,
    cell_gf_ss,
    count_ss,
    count_table,
    count_ts,
    enumerate_partitions,
    hawkes_check,
    orbit_gf_ts,
    qtspp,
    stembridge_t3,
)

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


def test_budget_exhaustion_raises():
    with pytest.raises(ResourceLimit) as info:
        list(enumerate_partitions(2, 3, "all", budget=5))
    assert info.value.budget == 5
    # a generous budget does not trigger
    assert sum(1 for _ in enumerate_partitions(2, 2, "all", budget=10_000)) == 6


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


def test_generating_functions():
    assert orbit_gf_ts(3, 1) == QPolynomial([1, 1])
    assert cell_gf_ss(3, 2) == QPolynomial([1, 1, 1, 1, 1])
    for n in range(5):
        assert cell_gf_ss(1, n) == QPolynomial([1] * (n + 1))
    for n in range(4):
        assert orbit_gf_ts(3, n) == qtspp(n)
        assert cell_gf_ss(3, n) == qtspp(n)


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


@pytest.mark.parametrize("predicate, counter", [
    ("is_strongly_stable", count_ss),
    ("is_totally_symmetric", count_ts),
])
def test_failed_revalidation_raises(monkeypatch, predicate, counter):
    monkeypatch.setattr(Partition, predicate, lambda self: False)
    with pytest.raises(ArithmeticSelfCheck, match="enumerated candidate"):
        counter(2, 2)


def test_non_plane_generating_functions_also_enumerable():
    # No closed form is claimed here; the two streams must still agree
    # through the bijection, hence have equal value at q=1.
    assert orbit_gf_ts(4, 2).evaluate(1) == cell_gf_ss(4, 2).evaluate(1)
