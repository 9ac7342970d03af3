"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion on standard output.
"""

from collections import Counter
from itertools import product

from borelbox import (
    MonomialIdeal,
    Partition,
    bgens_via_psi,
    borel_closure,
    count_ss,
    count_ts,
    cell_gf_ss,
    divides,
    enumerate_partitions,
    ideal_to_partition,
    lambda_inv,
    lambda_map,
    omega,
    omega_inv,
    partition_to_ideal,
    psi,
    qtspp,
    ss_to_ts_partition,
    stembridge_t3,
    orbit_gf_ts,
)

from cases import (
    ARTINIAN_IDEAL_2D_GENS,
    SS_IDEAL_2D_BGENS,
    SS_IDEAL_2D_GENS,
    SS_IDEAL_3D_BGENS,
    SS_IDEAL_3D_GENS,
    SS_IDEAL_3D_PSI_BGENS,
    STAIRCASE_2D_CELLS,
    T3_VALUES,
)


def _report(number, label, checks):
    try:
        checks()
    except AssertionError:
        print(f"criterion {number}: FAIL  {label}")
        raise
    print(f"criterion {number}: PASS  {label}")


def _stable_partitions(dim, top):
    return [p for p in enumerate_partitions(dim, top, "strongly_stable")]


def _stable_ideals(dim, top):
    return [partition_to_ideal(p) for p in _stable_partitions(dim, top)]


def test_criterion_1_worked_examples_exact():
    def checks():
        assert set(MonomialIdeal(2, SS_IDEAL_2D_GENS).bgens()) == SS_IDEAL_2D_BGENS
        ideal3 = MonomialIdeal(3, SS_IDEAL_3D_GENS)
        assert set(ideal3.bgens()) == SS_IDEAL_3D_BGENS
        assert {psi(m) for m in ideal3.bgens()} == SS_IDEAL_3D_PSI_BGENS
        staircase = ideal_to_partition(MonomialIdeal(2, ARTINIAN_IDEAL_2D_GENS))
        assert staircase == Partition(2, STAIRCASE_2D_CELLS)

    _report(1, "worked examples reproduced exactly", checks)


def test_criterion_2_closed_forms():
    def checks():
        for n in range(9):
            assert count_ss(1, n) == n + 1
            assert count_ss(2, n) == 2 ** n

    _report(2, "closed forms for one and two dimensions up to n=8", checks)


def test_criterion_3_product_formula_cross_check():
    def checks():
        for n in range(5):
            value = stembridge_t3(n)
            assert value == T3_VALUES[n]
            assert count_ts(3, n) == value

    _report(3, "triple product formula matches enumeration up to n=4", checks)


def test_criterion_4_central_identity_and_perfect_matching():
    def checks():
        for n in range(5):
            assert count_ss(3, n) == count_ts(3, n)
        stable = _stable_partitions(3, 4)
        symmetric = list(enumerate_partitions(3, 4, "totally_symmetric"))
        images = [ss_to_ts_partition(p) for p in stable if len(p)]
        # sides preserved cell-for-cell, and the image multiset is exactly
        # the symmetric class (the empty partition pairs with itself)
        for p, image in zip([p for p in stable if len(p)], images):
            assert image.bounding_side() == p.bounding_side()
        assert Counter(images) == Counter(q for q in symmetric if len(q))
        assert len(set(images)) == len(images)

    _report(4, "independent counts agree and the map is a side-preserving "
               "bijection", checks)


def test_criterion_5_q_analogue_identities():
    def checks():
        for n in range(11):
            poly = qtspp(n)
            assert poly == orbit_gf_ts(3, n)
            assert poly == cell_gf_ss(3, n)
            assert poly.evaluate(1) == stembridge_t3(n)

    _report(5, "q-series equals both generating functions up to n=10", checks)


def test_criterion_6_box_transposition_identity():
    def checks():
        assert count_ss(3, 3) == 16
        assert count_ss(2, 4) == 16
        for n in range(2, 6):
            assert count_ss(2, n) == count_ss(n - 1, 3)
        assert count_ss(4, 3) == 32
        assert count_ss(2, 5) == 32

    _report(6, "box transposition identity at desk scale", checks)


def test_criterion_7_dual_borel_generator_algorithms():
    def checks():
        for dim in (1, 2, 3):
            for ideal in _stable_ideals(dim, 3):
                assert bgens_via_psi(ideal) == ideal.bgens()

    _report(7, "generator-test and prefix-sum Borel generators agree", checks)


def test_criterion_8_property_suites():
    def checks():
        # prefix sums turn forward exchanges into exact division
        for d in (2, 3, 4):
            for m in product(range(6), repeat=d):
                for q in range(d - 1):
                    if m[q] == 0:
                        continue
                    moved = m[:q] + (m[q] - 1, m[q + 1] + 1) + m[q + 2:]
                    image = psi(m)
                    assert psi(moved) == image[:q] + (image[q] - 1,) + image[q + 1:]
        # membership transfers through prefix sums
        for dim in (2, 3):
            for ideal in _stable_ideals(dim, 3):
                n = ideal.artinian_side()
                images = [psi(g) for g in ideal.gens]
                for m in product(range(n + 2), repeat=dim):
                    assert ideal.contains(m) == any(
                        divides(u, psi(m)) for u in images)
        # round trips of all three layer maps
        for dim in (1, 2, 3):
            for p in enumerate_partitions(dim, 3, "all"):
                assert ideal_to_partition(partition_to_ideal(p)) == p
            for ideal in _stable_ideals(dim, 3):
                fset = lambda_map(ideal)
                assert lambda_inv(fset) == ideal
                assert lambda_map(lambda_inv(fset)) == fset
            for p in enumerate_partitions(dim, 3, "totally_symmetric"):
                if not len(p):
                    continue
                ideal = partition_to_ideal(p)
                assert omega(omega_inv(ideal)) == ideal
        # the two checkers agree across the complement correspondence
        for dim, side in ((2, 3), (3, 2)):
            for p in enumerate_partitions(dim, side, "all"):
                ideal = partition_to_ideal(p)
                assert ideal.is_strongly_stable() == p.is_strongly_stable()
                assert ideal.is_symmetric() == p.is_totally_symmetric()
        # closure is idempotent and minimal over a brute-force universe
        seeds = [[(1, 2)], [(0, 3)], [(2, 1)], [(0, 2, 1)], [(1, 1, 1)]]
        universe = [ideal for dim in (2, 3) for ideal in _stable_ideals(dim, 3)]
        for seed in seeds:
            closed = borel_closure(seed)
            assert closed.is_strongly_stable()
            assert borel_closure(closed.gens) == closed
            for other in universe:
                if other.dim == closed.dim and all(other.contains(m) for m in seed):
                    assert all(other.contains(g) for g in closed.gens)

    _report(8, "property suites exhaustive at small sizes", checks)
