"""The partition bijection is a perfect, side-preserving matching between
the nonempty strongly stable and totally symmetric partitions of a box,
checked in both directions against the independent enumerators."""

import pytest

from borelbox import enumerate_partitions, ss_to_ts_partition, ts_to_ss_partition


def nonempty(dim, side, predicate):
    return [p for p in enumerate_partitions(dim, side, predicate) if len(p)]


@pytest.mark.parametrize("dim, side", [(2, 10), (3, 5), (4, 4)])
def test_bijection_is_a_perfect_side_preserving_matching(dim, side):
    stable = nonempty(dim, side, "strongly_stable")
    symmetric = nonempty(dim, side, "totally_symmetric")
    forward = {p: ss_to_ts_partition(p) for p in stable}
    backward = {q: ts_to_ss_partition(q) for q in symmetric}
    assert set(forward.values()) == set(backward)
    assert set(backward.values()) == set(forward)
    for p, q in forward.items():
        assert q.bounding_side() == p.bounding_side()
        assert backward[q] == p
