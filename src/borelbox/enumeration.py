"""Exhaustive enumeration of boxed partitions, with exact cross-checks.

The enumerators extend cell sets depth-first in graded lexicographic
order: every downward-closed set, listed in that order, has downward
closed prefixes, so a cell may be appended exactly when all of its
coordinate predecessors are already present.  Two refinements keep the
constrained streams small:

* strongly stable partitions are additionally closed under moving one
  unit of a coordinate to any later position, and that condition also
  holds prefix-by-prefix, so it prunes the walk to exactly the strongly
  stable sets;
* totally symmetric partitions are walked by orbit representative (cells
  with sorted coordinates), adding a whole orbit at a time.

Completed candidates are still re-validated with the definitional hook
and symmetry predicates before being yielded; since the pruning
guarantees that every candidate passes, one that fails raises.  The
stable and symmetric counters share nothing with the bijection
machinery, so equal counts are a genuine cross-check of the
side-preserving bijection.

Counting, the triple product formula for totally symmetric plane
partitions, and the q-analogue evaluated by exact polynomial division
round out the module.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb
from typing import Callable, Iterator

from .errors import ArithmeticSelfCheck, NonIntegerProduct, ResourceLimit
from .partitions import Cell, Partition
from .qpoly import QPolynomial

PREDICATES = ("all", "strongly_stable", "totally_symmetric")


def _checked_budget(limit: int | None) -> int | None:
    if limit is not None and limit < 1:
        raise ValueError("budget must be a positive integer or None")
    return limit


class _Budget:
    """Node budget shared by every branch of one enumeration."""

    __slots__ = ("limit", "_ticks")

    def __init__(self, limit: int | None):
        self.limit = _checked_budget(limit)
        self._ticks = itertools.count(1)

    def tick(self) -> None:
        if self.limit is not None and next(self._ticks) > self.limit:
            raise ResourceLimit(self.limit)


def _graded(cells) -> list[Cell]:
    return sorted(cells, key=lambda c: (sum(c), c))


def _cell_requirements(dim: int, side: int, stable: bool):
    """Box cells in graded lexicographic order, with the set of earlier
    cells each one needs before it may be added (None when it can never
    occur in a strongly stable set bounded by this box)."""
    order = _graded(product(range(side), repeat=dim))
    index = {c: i for i, c in enumerate(order)}
    requires: list[tuple[int, ...] | None] = []
    for cell in order:
        need = []
        possible = True
        for j in range(dim):
            if cell[j] > 0:
                need.append(index[cell[:j] + (cell[j] - 1,) + cell[j + 1:]])
        if stable:
            for j in range(dim - 1):
                if cell[j] > 0:
                    image = cell[:j] + (cell[j] - 1, cell[j + 1] + 1) + cell[j + 2:]
                    if image[j + 1] >= side:
                        possible = False
                        break
                    need.append(index[image])
        requires.append(tuple(need) if possible else None)
    return order, requires


def _orbit_requirements(dim: int, side: int):
    """Orbit representatives (weakly increasing cells) in graded
    lexicographic order, each with the representatives of its predecessor
    orbits."""
    order = _graded(combinations_with_replacement(range(side), dim))
    index = {r: i for i, r in enumerate(order)}
    requires: list[tuple[int, ...] | None] = []
    for rep in order:
        need = set()
        for value in set(rep):
            if value > 0:
                pos = rep.index(value)
                below = tuple(sorted(rep[:pos] + (value - 1,) + rep[pos + 1:]))
                need.add(index[below])
        requires.append(tuple(sorted(need)))
    return order, requires


def _distinct_permutations(rep: Cell) -> Iterator[Cell]:
    """The distinct rearrangements of a weakly increasing tuple, in
    lexicographic order by next-permutation steps, so an orbit costs its
    own size rather than d!."""
    perm = list(rep)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


def _walk(requires, tick: Callable[[], None]) -> Iterator[tuple[int, ...]]:
    """Depth-first over admissible index sets, each yielded once, children
    in increasing order of the added index.  Each index counts its missing
    requirements, so a node extends only through its frontier (indices
    above its last with none missing, kept in decreasing order): the rest
    of its parent's frontier plus the indices its own index unlocked."""
    # -1 never reaches 0: an index that can never occur is nobody's dependent.
    missing = [-1 if need is None else len(need) for need in requires]
    dependents: list[list[int]] = [[] for _ in requires]
    for i, need in enumerate(requires):
        for k in need or ():
            dependents[k].append(i)
    chosen: list[int] = []
    tick()
    yield ()
    stack = [[i for i in reversed(range(len(missing))) if missing[i] == 0]]
    while stack:
        frontier = stack[-1]
        if not frontier:
            stack.pop()
            if chosen:
                for j in dependents[chosen.pop()]:
                    missing[j] += 1
            continue
        i = frontier.pop()
        chosen.append(i)
        unlocked = []
        for j in dependents[i]:
            missing[j] -= 1
            if missing[j] == 0:
                unlocked.append(j)
        tick()
        yield tuple(chosen)
        stack.append(sorted(frontier + unlocked, reverse=True))


def _rejected(part: Partition, predicate: str) -> ArithmeticSelfCheck:
    return ArithmeticSelfCheck(
        f"enumerated candidate {[list(c) for c in part.cells]} is not "
        f"{predicate.replace('_', ' ')}")


def _mode(dim: int, side: int, predicate: str):
    if predicate == "totally_symmetric":
        order, requires = _orbit_requirements(dim, side)
        orbits = [tuple(_distinct_permutations(rep)) for rep in order]

        def finalize(idxs: tuple[int, ...]) -> Partition:
            cells = [cell for i in idxs for cell in orbits[i]]
            part = Partition._trusted(dim, tuple(sorted(cells)))
            if not part.is_totally_symmetric():
                raise _rejected(part, predicate)
            return part
    else:
        stable = predicate == "strongly_stable"
        order, requires = _cell_requirements(dim, side, stable)

        def finalize(idxs: tuple[int, ...]) -> Partition:
            part = Partition._trusted(dim, tuple(sorted(order[i] for i in idxs)))
            if stable and not part.is_strongly_stable():
                raise _rejected(part, predicate)
            return part
    return order, requires, finalize


def _check_box_args(dim: int, side: int, predicate: str) -> None:
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if not isinstance(side, int) or side < 0:
        raise ValueError(f"side must be a nonnegative integer, got {side!r}")
    if predicate not in PREDICATES:
        raise ValueError(f"predicate must be one of {PREDICATES}, got {predicate!r}")


def enumerate_partitions(dim: int, side: int, predicate: str = "all", *,
                         budget: int | None = None) -> Iterator[Partition]:
    """Yield every partition with bounding side at most `side` satisfying
    the predicate, each exactly once, in a deterministic depth-first
    order starting from the empty partition.

    `budget` caps the number of search nodes and of requirement table
    entries; exceeding it raises :class:`ResourceLimit`, before the table
    is built when the table is the larger.  Every candidate is
    re-validated against the predicate's definition; one that fails raises
    :class:`ArithmeticSelfCheck`, since the pruned walk cannot produce it.
    """
    _check_box_args(dim, side, predicate)
    limiter = _Budget(budget)
    entries = comb(side + dim - 1, dim) if predicate == "totally_symmetric" else side ** dim
    if budget is not None and entries > budget:
        raise ResourceLimit(budget, f"a requirement table of {entries} entries "
                                    f"exceeds the node budget of {budget}")
    _, requires, finalize = _mode(dim, side, predicate)
    for idxs in _walk(requires, limiter.tick):
        yield finalize(idxs)


def _tally(dim: int, side: int, predicate: str, stat: Callable[[Partition], int],
           *, budget: int | None = None) -> Counter:
    """Tally stat(partition) over the enumerated stream."""
    return Counter(stat(p) for p in enumerate_partitions(dim, side, predicate,
                                                         budget=budget))


def count_ss(dim: int, side: int, *, budget: int | None = None) -> int:
    """Number of strongly stable partitions fitting in a box of the given
    side, the empty partition included."""
    tallies = _tally(dim, side, "strongly_stable", lambda p: 0, budget=budget)
    return sum(tallies.values())


def count_ts(dim: int, side: int, *, budget: int | None = None) -> int:
    """Number of totally symmetric partitions fitting in a box of the
    given side, the empty partition included."""
    tallies = _tally(dim, side, "totally_symmetric", lambda p: 0, budget=budget)
    return sum(tallies.values())


@dataclass(frozen=True)
class CountTable:
    """Cumulative counts of strongly stable and totally symmetric
    partitions by box side, from 0 up to `side`."""

    dim: int
    side: int
    stable: tuple[int, ...]
    symmetric: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"d": self.dim, "n": self.side,
                "B": list(self.stable), "T": list(self.symmetric)}


def cumulative_counts(dim: int, side: int, predicate: str, *,
                      budget: int | None = None) -> tuple[int, ...]:
    """Counts of the partitions satisfying the predicate that fit in boxes
    of side 0, 1, ..., `side`, from one enumeration bucketed by bounding
    side."""
    by_side = _tally(dim, side, predicate, Partition.bounding_side, budget=budget)
    return tuple(itertools.accumulate(by_side.get(k, 0) for k in range(side + 1)))


def count_table(dim: int, side: int, *, budget: int | None = None) -> CountTable:
    """Cumulative count table built from one enumeration per class,
    bucketed by bounding side."""
    return CountTable(dim, side,
                      cumulative_counts(dim, side, "strongly_stable", budget=budget),
                      cumulative_counts(dim, side, "totally_symmetric", budget=budget))


def _counter_poly(tallies: Counter) -> QPolynomial:
    coeffs = [0] * (max(tallies, default=0) + 1)
    for power, count in tallies.items():
        coeffs[power] = count
    return QPolynomial(coeffs)


def orbit_gf_ts(dim: int, side: int, *, budget: int | None = None) -> QPolynomial:
    """Generating function summing q^(orbit count) over the totally
    symmetric partitions in the box."""
    return _counter_poly(_tally(dim, side, "totally_symmetric",
                                Partition.orbit_count, budget=budget))


def cell_gf_ss(dim: int, side: int, *, budget: int | None = None) -> QPolynomial:
    """Generating function summing q^(cell count) over the strongly
    stable partitions in the box."""
    return _counter_poly(_tally(dim, side, "strongly_stable", len, budget=budget))


def _triple_exponents(n: int) -> dict[int, int]:
    """The cancelled factor table of the boxed triple product: t -> e_t
    with prod over 1 <= i <= j <= k <= n of F(i+j+k-1)/F(i+j+k-2) equal
    to prod F(t)^e_t, for any F.  With m_s the number of triples summing
    to s, e_t = m_(t+1) - m_(t+2); zero exponents are left out."""
    sums = Counter(map(sum, combinations_with_replacement(range(1, n + 1), 3)))
    exponents = {t: sums[t + 1] - sums[t + 2] for t in range(1, 3 * n)}
    return {t: e for t, e in exponents.items() if e}


def _integer_product(exponents: dict[int, int]) -> int:
    """prod t^e_t over the table; a fractional value raises
    :class:`NonIntegerProduct`."""
    numerator = denominator = 1
    for t, e in exponents.items():
        if e > 0:
            numerator *= t ** e
        else:
            denominator *= t ** -e
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegerProduct(
            f"the product is the fraction {Fraction(numerator, denominator)}")
    return quotient


def _q_product(exponents: dict[int, int]) -> QPolynomial:
    """prod (1 - q^t)^e_t over the table: the factors with e_t > 0 are
    multiplied out, then each factor with e_t < 0 is divided off exactly,
    and a non-polynomial value raises :class:`InexactDivision`."""
    poly = QPolynomial.one()
    for t, e in exponents.items():
        for _ in range(e):
            poly = poly * QPolynomial.one_minus_q_power(t)
    for t, e in exponents.items():
        for _ in range(-e):
            poly = poly.exact_div(QPolynomial.one_minus_q_power(t))
    return poly


def stembridge_t3(n: int) -> int:
    """Totally symmetric plane partitions in an n-box, by the triple
    product over 1 <= i <= j <= k <= n of (i+j+k-1)/(i+j+k-2), evaluated
    exactly from its cancelled factor table (see :func:`qtspp`).

    The result is guaranteed to be an integer; a fractional outcome
    signals an arithmetic bug and raises :class:`NonIntegerProduct`.
    Cancelling common factors first does not weaken that check: a
    fraction is an integer exactly when its reduced form is.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return _integer_product(_triple_exponents(n))


def qtspp(n: int, *, budget: int | None = None) -> QPolynomial:
    """Orbit-counting q-analogue for totally symmetric plane partitions in
    an n-box: the product over 1 <= i <= j <= k <= n of
    (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)).

    Numerator and denominator factors are cancelled in a table of
    exponents e_t of 1 - q^t first (for n = 12 the numerator degree drops
    from 6,734 to 560).  The factors with e_t > 0 are multiplied out and
    each remaining denominator is divided off exactly; any nonzero
    remainder raises :class:`InexactDivision`, since polynomiality is
    guaranteed.  Cancelling keeps that check whole: a rational function
    is a polynomial exactly when its reduced form is, so the divisions
    left succeed exactly when dividing off every denominator would.
    Evaluating the result at q=1 equals :func:`stembridge_t3`.

    The result has degree C(n+2, 3); `budget` caps that degree, and a
    larger one raises :class:`ResourceLimit` before any arithmetic.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    degree = comb(n + 2, 3)
    if _checked_budget(budget) is not None and degree > budget:
        raise ResourceLimit(budget, f"a product of degree {degree} "
                                    f"exceeds the budget of {budget}")
    return _q_product(_triple_exponents(n))


def hawkes_counts(dim: int, side: int, *,
                  budget: int | None = None) -> tuple[int, int]:
    """Both sides of the box-transposition identity: the strongly stable
    counts for dimension d and side n, and for dimension n-1 and side d+1,
    each enumerated independently."""
    if side < 2:
        raise ValueError("the identity needs side >= 2")
    return (count_ss(dim, side, budget=budget),
            count_ss(side - 1, dim + 1, budget=budget))


def hawkes_check(dim: int, side: int, *, budget: int | None = None) -> bool:
    """Check the box-transposition identity: the count for dimension d and
    side n equals the count for dimension n-1 and side d+1."""
    left, right = hawkes_counts(dim, side, budget=budget)
    return left == right
