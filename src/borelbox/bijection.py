"""Prefix sums on exponents and the stable-to-symmetric bijection.

The prefix-sum map ψ sends an exponent vector to its running totals,
which are weakly increasing by construction; consecutive differences
invert it.  The paper builds the side-preserving bijection through
ideals: the complement ideal I of a strongly stable partition P, the
prefix-sum image of its Borel generators B (`lambda_map`), their
symmetrization (`omega`), and the complement partition of the symmetric
ideal J it generates.

That chain has a closed form on cells, and `ss_to_ts_partition` and
`ts_to_ss_partition` compute it directly:

* ss_to_ts(P) is the union, over the cells p of P, of the distinct
  coordinate permutations of ψ(p);
* ts_to_ss(T) is ψ⁻¹ of the weakly increasing cells of T.

Proof.  A monomial m lies in the strongly stable ideal I exactly when
ψ(m) ≥ ψ(b) coordinatewise for some b in B (Francisco, Mermin and
Schweig, "Borel generators", J. Algebra 332, 2011).  J is generated by
the rearrangements of the weakly increasing ψ(b), and a vector c lies
above some rearrangement of a weakly increasing v exactly when sorted(c)
≥ v (sorting keeps a coordinatewise inequality).  So c is in J exactly
when ψ⁻¹(sorted(c)) is in I: the cells outside J are the rearrangements
of ψ(p), p in P.  ψ is injective, so distinct cells give disjoint orbits,
and the cell count of P is the orbit count of its image; that is why
`cell_gf_ss == orbit_gf_ts`.  The inverse reads each orbit's weakly
increasing member back through ψ⁻¹.

The forward map groups the cells of P by the zero pattern of p[1:],
which fixes the runs of equal entries of ψ(p), and expands each group by
one index getter per rearrangement of its pattern.  The getters of a
pattern through d = 7 are built on its first use and kept for the life
of the process: the 127 tables hold at most 362,200 indices (d per
getter, and d for the pattern), 31,149 through d = 6 and 331,051 at
d = 7.  A table of d = 8 or more is built for its call and not kept; the
128 of d = 8 alone hold 4,366,680 indices.  So a call costs its output, plus
the tables of its patterns past d = 7 and of those not yet built.  The
kept set depends on the dimension only, not on what earlier calls
brought, so no count and no lock: threads that build a table at once
store equal tables under one key.  The inverse walks P itself, in
lexicographic order from the origin, with at most d membership tests in
T per cell of P, each hashing a d-tuple, so O(d²·|P|) in the worst case;
steps that would leave T's box are skipped untested.

Each map tests its input's predicate, strongly stable or totally
symmetric, unless the input carries the record that its producer built
it to satisfy that predicate (`Partition._holds`).  Three producers set
it, each on what its construction proves: the stable and symmetric
listings of `enumerate_partitions`, once the walk's re-validation has
passed the node; the forward map on its image, a union of whole orbits,
so fixed by every coordinate permutation; and the inverse on its output.
That output P = {q : ψ(q) in T} is strongly stable for any partition T:
for q in P with q_j > 0, ψ(q - e_j) and ψ(q - e_j + e_(j+1)) lie
coordinatewise below ψ(q), so in T.  So a partition from the
constructor or from JSON is tested once, by the map it enters first,
and neither half of a round trip of a listed partition tests anything.
The chain functions (`lambda_map`, `omega` and their
inverses, with the complement maps in `correspondence`) stay public as
the paper's objects, and the tests check the direct map against their
composition, the way the two Borel-generator algorithms check each
other.  They load `ideals` and `correspondence` when they run; the
direct map needs neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, le, sub
from typing import TYPE_CHECKING

from .errors import (
    EmptyInput,
    InputError,
    InvalidFSet,
    MissingPurePower,
    NotStronglyStable,
    NotSymmetric,
    NotTotallySymmetric,
    NotWeaklyIncreasing,
    _Budget,
)
from .partitions import (Cell, Partition, _as_vector, _distinct_permutations, _json_fields,
                         _orbit_size)

if TYPE_CHECKING:
    from .ideals import Monomial, MonomialIdeal


def psi(monomial) -> Monomial:
    """Prefix sums of the exponent vector; the image is weakly increasing."""
    return tuple(accumulate(monomial))


def _is_weakly_increasing(mono: Monomial) -> bool:
    return all(map(le, mono, mono[1:]))


def psi_inv(monomial) -> Monomial:
    """Consecutive differences; inverse of :func:`psi` on weakly increasing
    vectors."""
    mono = tuple(monomial)
    if not _is_weakly_increasing(mono):
        raise NotWeaklyIncreasing(f"{mono} is not weakly increasing")
    return tuple(map(sub, mono, (0,) + mono[:-1]))


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
        from .ideals import minimalize
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
        for mono in elements:
            if not _is_weakly_increasing(mono):
                raise InvalidFSet(f"element {mono} is not weakly increasing")
            if max(mono) > self.side:
                raise InvalidFSet(f"element {mono} exceeds the box side {self.side}")
        # The pure power is found among the elements, not built: the
        # dimension may be far longer than the input.
        if not any(mono[-1] == self.side and not any(mono[:-1]) for mono in elements):
            raise InvalidFSet(f"missing the pure power x{self.dim}^{self.side}")
        if minimalize(elements) != elements:
            raise InvalidFSet("elements are not an antichain under divisibility")

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "side": self.side,
                "elements": [list(m) for m in self.elements]}

    @classmethod
    def from_json_dict(cls, data) -> "FSet":
        dim, side, elements = _json_fields(data, "FSet", dim=int, side=int, elements=list)
        return cls(dim, side, tuple(elements))

    def pretty(self) -> str:
        from .ideals import monomial_str
        monomials = ", ".join(monomial_str(m) for m in self.elements)
        return f"{{{monomials}}} in a box of side {self.side}"


def bgens_via_psi(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """Borel generators computed through prefix sums: apply the prefix-sum
    map to every minimal generator, minimalize under divisibility, pull
    back through consecutive differences.  Agrees with
    :meth:`MonomialIdeal.bgens`."""
    from .ideals import minimalize
    if not ideal.is_strongly_stable():
        raise NotStronglyStable(
            "Borel generators are only defined for strongly stable ideals")
    pulled = [psi_inv(m) for m in minimalize(psi(g) for g in ideal.gens)]
    return tuple(sorted(pulled, key=lambda m: (sum(m), m)))


def _artinian_top(ideal: MonomialIdeal) -> int:
    """Largest pure power degree n, with the explicit check that the pure
    power of the last variable realizes it."""
    n = ideal.artinian_side()
    if ideal.pure_power_degrees()[-1] != n:
        raise MissingPurePower(
            f"expected the pure power {(0,) * (ideal.dim - 1) + (n,)} among the generators")
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
    from .ideals import borel_closure
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
    from .ideals import MonomialIdeal, symmetrize
    return MonomialIdeal._trusted(fset.dim, symmetrize(fset.elements))


def omega_inv(ideal: MonomialIdeal) -> FSet:
    """The weakly increasing generators of a symmetric Artinian ideal;
    inverse of :func:`omega`."""
    if not ideal.is_symmetric():
        raise NotSymmetric("the ideal is not symmetric")
    n = _artinian_top(ideal)
    elems = tuple(g for g in ideal.gens if _is_weakly_increasing(g))
    return FSet(ideal.dim, n, elems)


def _run_starts(pattern: tuple[bool, ...]) -> tuple[int, ...]:
    """Where each position's run of equal entries starts in ψ(p), for p
    whose p[1:] has the zero pattern `pattern` (true where nonzero): a
    weakly increasing tuple, and its rearrangements, as indices into
    ψ(p), give the rearrangements of ψ(p)."""
    starts = [0]
    for position, new_run in enumerate(pattern, 1):
        starts.append(position if new_run else starts[-1])
    return tuple(starts)


def _build_rearrangements(starts: tuple[int, ...]) -> tuple[itemgetter, ...]:
    """A getter for each rearrangement of the run starts but the first,
    which is the identity, in lexicographic order.  p_k = 0 exactly when
    ψ(p) repeats its entry at k, so the zero pattern of p[1:] fixes the
    runs of ψ(p), and these getters serve every cell of P with that
    pattern."""
    perms = _distinct_permutations(starts)
    next(perms)
    return tuple(itemgetter(*perm) for perm in perms)


# The getter tables kept for the life of the process, by zero pattern:
# those through d = 7, where the pattern has at most 6 entries.
_tables: dict[tuple[bool, ...], tuple[itemgetter, ...]] = {}


def _rearrangements(pattern: tuple[bool, ...]) -> tuple[itemgetter, ...]:
    """The getters of a zero pattern (see :func:`_build_rearrangements`),
    from the kept tables or built on a miss.  A built table is kept
    through d = 7 and serves its call only past it (see the module
    docstring)."""
    table = _tables.get(pattern)
    if table is None:
        table = _build_rearrangements(_run_starts(pattern))
        if len(pattern) < 7:
            _tables[pattern] = table
    return table


def ss_to_ts_partition(partition: Partition, *, budget: int | None = None) -> Partition:
    """Totally symmetric partner of a strongly stable partition: the
    distinct rearrangements of ψ(p) over its cells p (see the module
    docstring for why this is the ideal chain).

    The image is a partition of the same bounding side n.  Moving every
    unit of a cell p to the last axis stays in P, so (0, ..., 0, |p|) is
    a cell and the degree |p| is below n; ψ(p) has largest entry |p|, so
    the image fits the side-n box, and the cell (0, ..., 0, n-1) of P
    fills it.

    The input is tested for strong stability unless it records it: the
    stable listing and :func:`ts_to_ss_partition` build such partitions.
    The image records that it is totally symmetric, so the inverse does
    not test it again.

    The cells are grouped by zero pattern, and each group is expanded by
    its pattern's getters, kept across calls through d = 7 (see the
    module docstring).  `budget` bounds the output cells; each group
    is charged its cells times its orbit size before its getters are
    looked up or built, so one more cell raises :class:`ResourceLimit`
    before the group that would exceed it is expanded.
    """
    if len(partition) == 0:
        raise EmptyInput("the empty partition has no box side to preserve")
    if partition._holds != "strongly_stable" and not partition.is_strongly_stable():
        raise NotStronglyStable("the partition is not strongly stable")
    limiter = _Budget(budget, "bijection")
    groups: dict[tuple[bool, ...], list[Cell]] = {}
    for cell in partition.cells:
        groups.setdefault(tuple(map(bool, cell[1:])), []).append(tuple(accumulate(cell)))
    cells: list[Cell] = []
    for pattern, reps in groups.items():
        if budget is not None:
            limiter.charge(len(reps) * _orbit_size(_run_starts(pattern)))
        cells += reps
        for getter in _rearrangements(pattern):
            cells += map(getter, reps)
    cells.sort()
    return Partition._trusted(partition.dim, tuple(cells), "totally_symmetric")


def ts_to_ss_partition(partition: Partition, *, budget: int | None = None) -> Partition:
    """Strongly stable partner of a totally symmetric partition, ψ⁻¹ of
    its weakly increasing cells; inverse of :func:`ss_to_ts_partition`.
    `budget` bounds the output cells, one per orbit of the input; one
    more raises :class:`ResourceLimit`.

    The input is tested for total symmetry unless it records it: the
    symmetric listing and :func:`ss_to_ts_partition` build such
    partitions.  The output records that it is strongly stable (see the
    module docstring), so the forward map does not test it again.

    The output P is walked in lexicographic order from the origin, with
    T as its membership test: q is in P exactly when ψ(q) is in T.  Every
    vector after a cell p in that order lies coordinatewise above one of
    (p_1, ..., p_(k-1), p_k + 1, 0, ..., 0), k = 1..d, and P is downward
    closed, so the next cell is the one of these in P with the largest k.
    ψ of it is (s_1, ..., s_(k-1), s_k + 1, ..., s_k + 1) with s = ψ(p).
    That needs s_k below the largest entry of T, the first entry of its
    last cell (T is symmetric), so other axes cost a comparison, not a
    membership test of a d-tuple.
    """
    if len(partition) == 0:
        raise EmptyInput("the empty partition has no box side to preserve")
    if partition._holds != "totally_symmetric" and not partition.is_totally_symmetric():
        raise NotTotallySymmetric("the partition is not totally symmetric")
    limiter = _Budget(budget, "bijection")
    members = partition._members
    dim = partition.dim
    top = partition.cells[-1][0]
    zeros = (0,) * dim
    axes = range(dim - 1, -1, -1)
    cell = sums = zeros
    cells = []
    while True:
        if budget is not None:
            limiter.charge(1)
        cells.append(cell)
        for k in axes:
            if sums[k] < top:
                padded = sums[:k] + (sums[k] + 1,) * (dim - k)
                if padded in members:
                    cell = cell[:k] + (cell[k] + 1,) + zeros[k + 1:]
                    sums = padded
                    break
        else:
            return Partition._trusted(dim, tuple(cells), "strongly_stable")
