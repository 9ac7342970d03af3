"""Monomial ideals held by their unique minimal generating set.

Monomials are bare exponent tuples; the variable order x1 > x2 > ... > xd
is implicit throughout.  An ideal is *strongly stable* when moving one
unit of exponent from any variable to an earlier one never leaves the
ideal, and *symmetric* when its generator set is fixed by coordinate
permutations.  Borel moves, the Borel closure of a monomial set, and the
minimal Borel generators of a strongly stable ideal live here too.
"""

from __future__ import annotations

from collections import Counter
from operator import le
from typing import Iterable, Iterator

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidCell,
    InvalidMove,
    NotArtinian,
    NotStronglyStable,
    _Budget,
)
from .partitions import _as_vector, _distinct_permutations, _fixed_by_permutations, _json_fields

Monomial = tuple[int, ...]

VAR_ALIASES = "xyz"


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b, i.e. a <= b coordinatewise."""
    if len(a) != len(b):
        raise DimensionMismatch(
            f"cannot compare monomials of lengths {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def minimalize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal subset, ordered lexicographically.

    Generates the same ideal as the input.  A proper divisor has strictly
    smaller degree, so monomials of equal degree never divide each other:
    scanning by increasing degree, each monomial is compared only with the
    kept monomials of lower degree.
    """
    items = sorted((sum(m), m) for m in {tuple(m) for m in monomials})
    if items and any(len(m) != len(items[0][1]) for _, m in items):
        raise DimensionMismatch("monomials of mixed lengths")
    kept: list[Monomial] = []
    lower: list[Monomial] = []   # the kept monomials of lower degree
    degree = None
    for deg, mono in items:
        if deg != degree:
            degree = deg
            lower = list(kept)
        if not any(all(map(le, g, mono)) for g in lower):
            kept.append(mono)
    return tuple(sorted(kept))


def _fully_reached(dim: int, cells: Iterable[Monomial]) -> list[Monomial]:
    """The vectors u = c + e_j, c among the distinct `cells`, whose every
    lower neighbour u - e_j with u_j > 0 is among them: each such
    neighbour reaches u once, so u is reached as often as it has positive
    coordinates."""
    reached = Counter(c[:j] + (c[j] + 1,) + c[j + 1:] for c in cells for j in range(dim))
    return [u for u, times in reached.items() if times == dim - u.count(0)]


def _graded_complement(dim: int, gens: Iterable[Monomial],
                       limiter: _Budget) -> set[Monomial]:
    """Exponent vectors outside the ideal generated by `gens`, grown one
    degree at a time; the ideal must be Artinian, or the growth never ends.

    The ideal contains c exactly when c is a generator or some c - e_j
    lies in it, so c lies outside exactly when it is not a generator and
    every c - e_j with c_j > 0 lies outside.  Those are cells of the
    degree below (see `_fully_reached`).  That needs only a set of the
    generators: O(cells * d^2).  Each degree's cells are charged to
    `limiter` as they are grown.
    """
    gens = set(gens)
    origin = (0,) * dim
    level = set() if origin in gens else {origin}
    limiter.charge(len(level))
    outside = set(level)
    while level:
        level = {u for u in _fully_reached(dim, level) if u not in gens}
        limiter.charge(len(level))
        outside |= level
    return outside


def symmetrize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Union of the coordinate-permutation orbits of the input, deduplicated
    and ordered lexicographically.  Each orbit is expanded from its sorted
    representative, so it costs its own size rather than d!."""
    out = {perm for m in monomials for perm in _distinct_permutations(sorted(m))}
    return tuple(sorted(out))


def apply_borel_move(monomial: Monomial, moves: Iterable[tuple[int, int]]) -> Monomial:
    """Apply exchanges x_i/x_j (1-based indices, i < j) in sequence.

    Each step requires x_j to divide the current monomial; the total
    degree is preserved.  Raises :class:`InvalidMove` naming the failing
    step.
    """
    exps = list(monomial)
    d = len(exps)
    for step, (i, j) in enumerate(moves, start=1):
        if not (1 <= i < j <= d):
            raise InvalidMove(step, f"indices ({i}, {j}) must satisfy 1 <= i < j <= {d}")
        if exps[j - 1] <= 0:
            raise InvalidMove(step, f"x{j} does not divide {monomial_str(tuple(exps))}")
        exps[j - 1] -= 1
        exps[i - 1] += 1
    return tuple(exps)


def monomial_str(monomial: Monomial) -> str:
    """Human-readable monomial: x, y, z aliases for up to three variables,
    x1^a1*x2^a2*... beyond that.  The unit monomial prints as "1"."""
    if not any(monomial):
        return "1"
    if len(monomial) <= len(VAR_ALIASES):
        parts = [name if e == 1 else f"{name}^{e}"
                 for name, e in zip(VAR_ALIASES, monomial) if e]
        return "".join(parts)
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
             for i, e in enumerate(monomial) if e]
    return "*".join(parts)


class MonomialIdeal:
    """A monomial ideal in canonical minimal form.

    The public constructor validates every monomial and minimalizes
    eagerly, so `gens` is always the unique minimal generating set,
    sorted lexicographically; equality is structural.  The zero ideal (no
    generators) and the unit ideal (the all-zero exponent vector) are both
    representable.  Ideals built inside the library from generators that
    are already valid, minimal and sorted (a Borel closure, the complement
    ideal of a partition, a symmetrized antichain) go through the private
    `_trusted` instead, which skips both steps.

    An Artinian ideal keeps the set of exponent vectors outside it in the
    private slot `_outside` once `ideal_to_partition` has grown it or
    `partition_to_ideal` has seeded it, and answers membership from it;
    while the slot is `None`, membership scans the generators.
    """

    __slots__ = ("dim", "gens", "_outside")

    def __init__(self, dim: int, gens: Iterable[Iterable[int]] = ()):
        if type(dim) is not int or dim < 1:
            raise InvalidCell(f"dimension must be a positive integer, got {dim!r}")
        self.dim = dim
        self.gens = minimalize(_as_vector(dim, g, "monomial") for g in gens)
        self._outside = None

    @classmethod
    def _trusted(cls, dim: int, gens: tuple[Monomial, ...],
                 outside: frozenset[Monomial] | None = None) -> "MonomialIdeal":
        # Internal fast path: caller guarantees `gens` are valid exponent
        # tuples of length `dim`, an antichain, sorted lexicographically,
        # and that `outside`, when given, is the ideal's complement.
        ideal = object.__new__(cls)
        ideal.dim = dim
        ideal.gens = gens
        ideal._outside = outside
        return ideal

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.dim, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(dim={self.dim}, gens={list(self.gens)})"

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def contains(self, monomial) -> bool:
        """Membership: some generator divides the monomial.

        The argument is validated.  An ideal whose complement is known
        answers by a lookup in it; any other scans its generators.
        """
        return self._has(_as_vector(self.dim, monomial, "monomial"))

    __contains__ = contains

    def _has(self, mono: Monomial) -> bool:
        # Trusted lookup: `mono` is an exponent tuple of this dimension.
        if self._outside is None:
            return any(all(map(le, g, mono)) for g in self.gens)
        return mono not in self._outside

    def _complement(self, budget: int | None = None) -> frozenset[Monomial]:
        """Exponent vectors outside the ideal, grown once by degree (see
        `_graded_complement`) and kept.  Raises :class:`NotArtinian` when
        they are infinitely many, and :class:`ResourceLimit` when growing
        them would take more than `budget` cells."""
        if self._outside is None:
            self.artinian_side()
            limiter = _Budget(budget)
            limiter.phase = "complement"
            self._outside = frozenset(_graded_complement(self.dim, self.gens, limiter))
        return self._outside

    def _pure_powers(self) -> dict[int, int] | None:
        """Each variable's (0-based) pure power degree among the generators,
        for the variables that have one, in one scan; None for the unit ideal."""
        powers = {}
        for g in self.gens:
            support = [j for j, e in enumerate(g) if e]
            if not support:
                return None
            if len(support) == 1:
                powers[support[0]] = g[support[0]]
        return powers

    def pure_power_degrees(self) -> tuple[int | None, ...]:
        """Per variable, the degree of its pure power among the generators,
        or None when there is none.  The unit ideal reports degree 0 for
        every variable."""
        powers = self._pure_powers()
        if powers is None:
            return (0,) * self.dim
        return tuple(map(powers.get, range(self.dim)))

    def is_artinian(self) -> bool:
        """True iff the ideal contains a pure power of every variable."""
        powers = self._pure_powers()
        return powers is None or len(powers) == self.dim

    def artinian_side(self) -> int:
        """Largest pure power degree; raises :class:`NotArtinian` if some
        variable has no pure power among the generators, before anything
        of the ideal's dimension is built."""
        return self._side(self._pure_powers())

    def _side(self, powers: dict[int, int] | None) -> int:
        # `artinian_side` on the ideal's `_pure_powers()`.  A missing
        # variable is among the first len(powers) + 1, whatever the dimension.
        if powers is None:
            return 0
        if len(powers) < self.dim:
            j = next(j for j in range(len(powers) + 1) if j not in powers)
            raise NotArtinian(f"no pure power of x{j + 1} among the generators")
        return max(powers.values())

    def is_strongly_stable(self) -> bool:
        """Exchange condition: for every member divisible by x_j and every
        i < j, moving one unit of exponent from x_j to x_i must stay inside
        the ideal.  Adjacent moves (i = j - 1) on the generators suffice,
        O(d) tests per generator: a member m = g*u divisible by x_j moves
        as g does when x_j divides g and as u does otherwise, and the moves
        to i < j - 1 are adjacent moves composed."""
        for g in self.gens:
            for j in range(1, self.dim):
                if g[j] and not self._has(g[:j - 1] + (g[j - 1] + 1, g[j] - 1) + g[j + 1:]):
                    return False
        return True

    def is_symmetric(self) -> bool:
        """True iff the generator set is fixed by coordinate permutations
        (see :func:`partitions._fixed_by_permutations`)."""
        return _fixed_by_permutations(set(self.gens), self.gens, self.dim)

    def bgens(self) -> tuple[Monomial, ...]:
        """Minimal Borel generators, ordered by degree then lexicographically.

        A generator survives when, for every variable x_q dividing it,
        exchanging one unit of x_q for x_{q+1} leaves the ideal; the
        exchange condition is vacuous for the last variable.  (Dividing by
        x_q also leaves the ideal, since the generators are minimal.)
        """
        if not self.is_strongly_stable():
            raise NotStronglyStable(
                "Borel generators are only defined for strongly stable ideals")
        picked = [g for g in self.gens
                  if not any(g[q] and self._has(g[:q] + (g[q] - 1, g[q + 1] + 1) + g[q + 2:])
                             for q in range(self.dim - 1))]
        return tuple(sorted(picked, key=lambda m: (sum(m), m)))

    def pretty(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(monomial_str(g) for g in self.gens) + ")"

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json_dict(cls, data) -> "MonomialIdeal":
        return cls(*_json_fields(data, "ideal", dim=int, gens=list))


def borel_closure(monomials: Iterable[Iterable[int]], *,
                  budget: int | None = None) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the given monomials.

    Saturates the set under single adjacent exchanges (one unit moved from
    x_j to x_{j-1}); adjacent exchanges compose to every exchange with
    i < j, and the ideal generated by the saturated set is closed under
    all Borel moves.  The result is returned in minimal canonical form;
    the seeds are validated, and exchanges keep exponents nonnegative, so
    it is built without validating them again.  `budget` bounds the
    monomials reached, the input's included; one more raises
    :class:`ResourceLimit`.
    """
    limiter = _Budget(budget)
    limiter.phase = "Borel closure"
    seeds = list(monomials)
    if not seeds:
        raise EmptyInput("Borel closure needs at least one monomial")
    try:
        dim = len(seeds[0])
    except TypeError:
        raise InvalidCell(f"monomial {seeds[0]!r} must be a sequence of integers") from None
    if dim < 1:
        raise InvalidCell(f"dimension must be a positive integer, got {dim!r}")
    reachable = {_as_vector(dim, m, "monomial") for m in seeds}
    limiter.charge(len(reachable))
    stack = list(reachable)
    while stack:
        mono = stack.pop()
        for j in range(1, dim):
            if mono[j] > 0:
                moved = mono[:j - 1] + (mono[j - 1] + 1, mono[j] - 1) + mono[j + 1:]
                if moved not in reachable:
                    limiter.charge(1)
                    reachable.add(moved)
                    stack.append(moved)
    return MonomialIdeal._trusted(dim, minimalize(reachable))
