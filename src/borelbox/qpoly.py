"""Dense one-variable polynomials with exact integer coefficients."""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import InexactDivision


class QPolynomial:
    """Polynomial in q with arbitrary-precision integer coefficients.

    Coefficients are indexed by the power of q, trailing zeros trimmed;
    the zero polynomial has no coefficients at all.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def one_minus_q_power(cls, k: int) -> "QPolynomial":
        """The factor 1 - q^k (zero when k = 0)."""
        if k < 0:
            raise ValueError("power must be nonnegative")
        if k == 0:
            return cls.zero()
        return cls((1,) + (0,) * (k - 1) + (-1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)})"

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero or other.is_zero:
            return QPolynomial()
        a = self.coeffs
        out = [0] * (len(a) + len(other.coeffs) - 1)
        for j, b in enumerate(other.coeffs):
            if b:
                end = j + len(a)
                out[j:end] = map(add, out[j:end], map(mul, a, repeat(b)))
        return QPolynomial(out)

    def evaluate(self, value):
        """Horner evaluation; at value 1 this is the coefficient sum."""
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def exact_div(self, divisor: "QPolynomial") -> "QPolynomial":
        """Exact polynomial division over the integers, by plain long
        division from the leading coefficient down.

        Raises :class:`InexactDivision` when a coefficient step does not
        divide or a nonzero remainder survives; dividing by zero raises
        ZeroDivisionError.  The products divide by 1 - q^b with the kernel
        :func:`_div_one_minus_q_power`; this general method is its
        reference in the tests.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return QPolynomial()
        if len(self.coeffs) < len(divisor.coeffs):
            raise InexactDivision(
                f"degree {self.degree} is below the divisor degree {divisor.degree}")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        shift = len(divisor.coeffs) - 1
        terms = [(i, dc) for i, dc in enumerate(divisor.coeffs) if dc]
        quot = [0] * (len(rem) - shift)
        for k in range(len(rem) - 1, shift - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r != 0:
                raise InexactDivision(
                    f"coefficient {c} of q^{k} is not divisible by {lead}")
            quot[k - shift] = q
            for i, dc in terms:
                rem[k - shift + i] -= q * dc
        if any(rem):
            raise InexactDivision("nonzero remainder")
        return QPolynomial(quot)


def _mul_one_minus_q_power(coeffs: list[int], b: int) -> None:
    """Multiply the coefficient list by 1 - q^b (b >= 1) in place, as one
    shifted subtraction: c_k = a_k - a_(k-b)."""
    coeffs += [0] * b
    coeffs[b:] = map(sub, coeffs[b:], coeffs[:-b])


def _div_one_minus_q_power(coeffs: Sequence[int], b: int) -> list[int]:
    """Divide the coefficients by 1 - q^b (b >= 1) into a new list.  The
    quotient c satisfies c_k = a_k + c_(k-b), so on each residue class mod
    b it is the running sum of the dividend's coefficients.  Those sums run
    b places past the quotient's degree; the division is exact iff those
    last b are 0, and otherwise raises :class:`InexactDivision`."""
    sums = [0] * len(coeffs)
    for r in range(b):
        sums[r::b] = accumulate(coeffs[r::b])
    if any(sums[-b:]):
        raise InexactDivision(f"nonzero remainder on division by 1 - q^{b}")
    del sums[-b:]
    return sums
