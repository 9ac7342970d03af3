"""Prefix sums on exponents and the stable-to-symmetric bijection chain.

The prefix-sum map sends an exponent vector to its running totals, which
are weakly increasing by construction; consecutive differences invert it.
Composing it with Borel generators gives a bijection from Artinian
strongly stable ideals with top pure power degree n onto antichains of
weakly increasing vectors in the side-n box, and symmetrizing such an
antichain gives a bijection onto Artinian symmetric ideals.  Conjugating
the whole chain through the complement correspondence transports strongly
stable partitions onto totally symmetric partitions of the same bounding
side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .correspondence import ideal_to_partition, partition_to_ideal
from .errors import (
    EmptyInput,
    InputError,
    InvalidFSet,
    MissingPurePower,
    NotStronglyStable,
    NotSymmetric,
    NotTotallySymmetric,
    NotWeaklyIncreasing,
)
from .ideals import (Monomial, MonomialIdeal, borel_closure, minimalize, monomial_str,
                     symmetrize)
from .partitions import Partition, _as_vector, _json_fields


def psi(monomial) -> Monomial:
    """Prefix sums of the exponent vector; the image is weakly increasing."""
    total = 0
    out = []
    for value in monomial:
        total += value
        out.append(total)
    return tuple(out)


def _is_weakly_increasing(mono: Monomial) -> bool:
    return all(mono[i] <= mono[i + 1] for i in range(len(mono) - 1))


def psi_inv(monomial) -> Monomial:
    """Consecutive differences; inverse of :func:`psi` on weakly increasing
    vectors."""
    mono = tuple(monomial)
    if not _is_weakly_increasing(mono):
        raise NotWeaklyIncreasing(f"{mono} is not weakly increasing")
    return tuple(b - a for a, b in zip((0,) + mono, mono))


@dataclass(frozen=True)
class FSet:
    """Antichain of weakly increasing exponent vectors in a side-n box.

    Must contain the pure power (0, ..., 0, n) and no coordinate may
    exceed n.  Elements are canonicalized to lexicographic order, so
    equality is structural.
    """

    dim: int
    side: int
    elements: tuple[Monomial, ...]

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise InvalidFSet(f"dimension must be a positive integer, got {self.dim!r}")
        if type(self.side) is not int or self.side < 0:
            raise InvalidFSet(f"side must be a nonnegative integer, got {self.side!r}")
        try:
            elements = tuple(sorted({_as_vector(self.dim, m, "element")
                                     for m in self.elements}))
        except TypeError:
            raise InvalidFSet("elements must be sequences of integers") from None
        except InputError as exc:
            raise InvalidFSet(str(exc)) from None
        object.__setattr__(self, "elements", elements)
        pure = (0,) * (self.dim - 1) + (self.side,)
        for mono in elements:
            if not _is_weakly_increasing(mono):
                raise InvalidFSet(f"element {mono} is not weakly increasing")
            if max(mono) > self.side:
                raise InvalidFSet(f"element {mono} exceeds the box side {self.side}")
        if pure not in set(elements):
            raise InvalidFSet(f"missing the pure power {pure}")
        if set(minimalize(elements)) != set(elements):
            raise InvalidFSet("elements are not an antichain under divisibility")

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "side": self.side,
                "elements": [list(m) for m in self.elements]}

    @classmethod
    def from_json_dict(cls, data) -> "FSet":
        dim, side, elements = _json_fields(data, "FSet", dim=int, side=int, elements=list)
        return cls(dim, side, tuple(elements))

    def pretty(self) -> str:
        monomials = ", ".join(monomial_str(m) for m in self.elements)
        return f"{{{monomials}}} in a box of side {self.side}"


def bgens_via_psi(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """Borel generators computed through prefix sums: apply the prefix-sum
    map to every minimal generator, minimalize under divisibility, pull
    back through consecutive differences.  Agrees with
    :meth:`MonomialIdeal.bgens`."""
    if not ideal.is_strongly_stable():
        raise NotStronglyStable(
            "Borel generators are only defined for strongly stable ideals")
    pulled = [psi_inv(m) for m in minimalize(psi(g) for g in ideal.gens)]
    return tuple(sorted(pulled, key=lambda m: (sum(m), m)))


def _artinian_top(ideal: MonomialIdeal) -> int:
    """Largest pure power degree n, with the explicit check that the pure
    power of the last variable realizes it."""
    n = ideal.artinian_side()
    pure = (0,) * (ideal.dim - 1) + (n,)
    if pure not in set(ideal.gens):
        raise MissingPurePower(
            f"expected the pure power {pure} among the generators")
    return n


def lambda_map(ideal: MonomialIdeal) -> FSet:
    """Prefix-sum image of the Borel generators, tagged with the box side.
    An ideal that is not strongly stable raises
    :class:`NotStronglyStable` from :meth:`MonomialIdeal.bgens`."""
    n = _artinian_top(ideal)
    return FSet(ideal.dim, n, tuple(psi(m) for m in ideal.bgens()))


def lambda_inv(fset: FSet) -> MonomialIdeal:
    """Borel closure of the difference preimages; inverse of
    :func:`lambda_map`."""
    return borel_closure(psi_inv(m) for m in fset.elements)


def omega(fset: FSet) -> MonomialIdeal:
    """Ideal generated by the symmetrization of the antichain; the result
    is symmetric and Artinian with every pure power degree equal to the
    box side.

    The symmetrization is already the minimal generating set: sorting
    both sides keeps a coordinatewise inequality, so a rearrangement of f
    below one of g puts f below g, and the antichain forces f = g and
    then equality.  So the ideal is built without minimalizing again.
    """
    return MonomialIdeal._trusted(fset.dim, symmetrize(fset.elements))


def omega_inv(ideal: MonomialIdeal) -> FSet:
    """The weakly increasing generators of a symmetric Artinian ideal;
    inverse of :func:`omega`."""
    if not ideal.is_symmetric():
        raise NotSymmetric("the ideal is not symmetric")
    n = _artinian_top(ideal)
    elems = tuple(g for g in ideal.gens if _is_weakly_increasing(g))
    return FSet(ideal.dim, n, elems)


def ss_to_ts_partition(partition: Partition) -> Partition:
    """Totally symmetric partner of a strongly stable partition.

    Implemented through the ideal chain: complement ideal, prefix-sum
    image of its Borel generators, symmetrize, complement back.  The
    bounding side is preserved and the map is inverse to
    :func:`ts_to_ss_partition`.
    """
    if len(partition) == 0:
        raise EmptyInput("the empty partition has no box side to preserve")
    if not partition.is_strongly_stable():
        raise NotStronglyStable("the partition is not strongly stable")
    ideal = partition_to_ideal(partition)
    return ideal_to_partition(omega(lambda_map(ideal)))


def ts_to_ss_partition(partition: Partition) -> Partition:
    """Strongly stable partner of a totally symmetric partition; inverse
    of :func:`ss_to_ts_partition`."""
    if len(partition) == 0:
        raise EmptyInput("the empty partition has no box side to preserve")
    if not partition.is_totally_symmetric():
        raise NotTotallySymmetric("the partition is not totally symmetric")
    ideal = partition_to_ideal(partition)
    return ideal_to_partition(lambda_inv(omega_inv(ideal)))
