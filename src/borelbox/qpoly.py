"""Dense one-variable polynomials with exact integer coefficients."""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul
from typing import Iterable

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
        """Exact polynomial division over the integers.

        Raises :class:`InexactDivision` when a coefficient step does not
        divide or a nonzero remainder survives; dividing by zero raises
        ZeroDivisionError.  A divisor 1 - q^b is divided off as running
        sums over each residue class mod b.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return QPolynomial()
        if len(self.coeffs) < len(divisor.coeffs):
            raise InexactDivision(
                f"degree {self.degree} is below the divisor degree {divisor.degree}")
        d = divisor.coeffs
        if len(d) > 1 and d[0] == 1 and d[-1] == -1 and d.count(0) == len(d) - 2:
            return self._div_one_minus_q_power(len(d) - 1)
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

    def _div_one_minus_q_power(self, b: int) -> "QPolynomial":
        """Divide by 1 - q^b.  The quotient c satisfies c_k = a_k + c_(k-b),
        so on each residue class mod b it is the running sum of the
        dividend's coefficients.  Those sums run b places past the
        quotient's degree; the division is exact iff those last b are 0."""
        a = self.coeffs
        sums = [0] * len(a)
        for r in range(b):
            sums[r::b] = accumulate(a[r::b])
        if any(sums[-b:]):
            raise InexactDivision(f"nonzero remainder on division by 1 - q^{b}")
        return QPolynomial(sums[:-b])
