import pytest
from hypothesis import given, strategies as st

from borelbox import InexactDivision, QPolynomial


def test_trailing_zeros_trimmed():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPolynomial([0, 0]).coeffs == ()
    assert QPolynomial().is_zero


def test_degree_and_evaluate():
    p = QPolynomial([1, 0, 3])
    assert p.degree == 2
    assert p.evaluate(1) == 4
    assert p.evaluate(2) == 13
    assert QPolynomial().degree == -1
    assert QPolynomial().evaluate(5) == 0


def test_arithmetic():
    p = QPolynomial([1, 1])
    q = QPolynomial([1, -1])
    assert p + q == QPolynomial([2])
    assert p - p == QPolynomial()
    assert p * q == QPolynomial([1, 0, -1])
    assert p * QPolynomial() == QPolynomial()


def test_one_minus_q_power():
    assert QPolynomial.one_minus_q_power(1) == QPolynomial([1, -1])
    assert QPolynomial.one_minus_q_power(3) == QPolynomial([1, 0, 0, -1])
    assert QPolynomial.one_minus_q_power(0).is_zero


def test_exact_div():
    geometric = QPolynomial([1, 1, 1, 1, 1])
    assert QPolynomial.one_minus_q_power(5).exact_div(
        QPolynomial.one_minus_q_power(1)) == geometric
    with pytest.raises(InexactDivision):
        QPolynomial([1, 1, 1]).exact_div(QPolynomial([1, 1]))
    with pytest.raises(InexactDivision):
        QPolynomial([3, 1]).exact_div(QPolynomial([2]))
    with pytest.raises(ZeroDivisionError):
        QPolynomial([1]).exact_div(QPolynomial())


def test_division_by_a_binomial_raises_on_a_non_multiple():
    binomial = QPolynomial.one_minus_q_power(3)
    assert (QPolynomial([2, 0, 5]) * binomial).exact_div(binomial) == QPolynomial([2, 0, 5])
    with pytest.raises(InexactDivision):
        QPolynomial([1, 0, 0, 0, 1]).exact_div(binomial)
    with pytest.raises(InexactDivision):
        QPolynomial([1, 0, 0, 1]).exact_div(binomial)


small_polys = st.builds(QPolynomial, st.lists(st.integers(-9, 9), max_size=8))


@given(small_polys, small_polys.filter(lambda p: not p.is_zero))
def test_multiply_then_divide_round_trips(a, b):
    assert (a * b).exact_div(b) == a


@given(small_polys, small_polys)
def test_multiply_matches_convolution(a, b):
    expected = [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(len(a.coeffs))
                    if 0 <= k - i < len(b.coeffs))
                for k in range(len(a.coeffs) + len(b.coeffs) - 1)]
    assert a * b == QPolynomial(expected)
