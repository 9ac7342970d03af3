"""Monomial ideals held by their unique minimal generating set.

Monomials are bare exponent tuples; the variable order x1 > x2 > ... > xd
is implicit throughout.  An ideal is *strongly stable* when moving one
unit of exponent from any variable to an earlier one never leaves the
ideal, and *symmetric* when its generator set is fixed by coordinate
permutations.  Borel moves, the Borel closure of a monomial set, and the
minimal Borel generators of a strongly stable ideal live here too.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InputError,
    InvalidCell,
    InvalidMove,
    NotArtinian,
    NotStronglyStable,
)

Monomial = tuple[int, ...]

VAR_ALIASES = "xyz"


def _as_monomial(dim: int, raw) -> Monomial:
    try:
        mono = tuple(raw)
    except TypeError:
        raise InvalidCell(f"monomial {raw!r} must be a sequence of integers") from None
    if len(mono) != dim:
        raise DimensionMismatch(
            f"monomial {mono} has length {len(mono)}, expected {dim}")
    for value in mono:
        if type(value) is not int or value < 0:
            raise InvalidCell(f"monomial {mono} must contain nonnegative integers")
    return mono


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b, i.e. a <= b coordinatewise."""
    if len(a) != len(b):
        raise DimensionMismatch(
            f"cannot compare monomials of lengths {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def minimalize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal subset, ordered lexicographically.

    Generates the same ideal as the input.  Scanning by increasing degree
    suffices: a proper divisor always has strictly smaller degree.
    """
    items = sorted({tuple(m) for m in monomials}, key=lambda m: (sum(m), m))
    if items and any(len(m) != len(items[0]) for m in items):
        raise DimensionMismatch("monomials of mixed lengths")
    kept: list[Monomial] = []
    for mono in items:
        if not any(all(x <= y for x, y in zip(g, mono)) for g in kept):
            kept.append(mono)
    return tuple(sorted(kept))


def symmetrize(monomials: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Union of the coordinate-permutation orbits of the input, deduplicated
    and ordered lexicographically."""
    out = {perm for m in monomials for perm in permutations(tuple(m))}
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

    The constructor minimalizes eagerly, so `gens` is always the unique
    minimal generating set, sorted lexicographically; equality is
    structural.  The zero ideal (no generators) and the unit ideal (the
    all-zero exponent vector) are both representable.
    """

    __slots__ = ("dim", "gens")

    def __init__(self, dim: int, gens: Iterable[Iterable[int]] = ()):
        if type(dim) is not int or dim < 1:
            raise InvalidCell(f"dimension must be a positive integer, got {dim!r}")
        self.dim = dim
        self.gens = minimalize(_as_monomial(dim, g) for g in gens)

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
        """Membership: some generator divides the monomial."""
        mono = _as_monomial(self.dim, monomial)
        return any(all(x <= y for x, y in zip(g, mono)) for g in self.gens)

    __contains__ = contains

    def pure_power_degrees(self) -> tuple[int | None, ...]:
        """Per variable, the degree of its pure power among the generators,
        or None when there is none.  The unit ideal reports degree 0 for
        every variable."""
        degrees: list[int | None] = [None] * self.dim
        for g in self.gens:
            support = [j for j, e in enumerate(g) if e]
            if not support:
                return (0,) * self.dim
            if len(support) == 1:
                degrees[support[0]] = g[support[0]]
        return tuple(degrees)

    def is_artinian(self) -> bool:
        """True iff the ideal contains a pure power of every variable."""
        return all(k is not None for k in self.pure_power_degrees())

    def artinian_side(self) -> int:
        """Largest pure power degree; raises :class:`NotArtinian` if some
        variable has no pure power among the generators."""
        degrees = self.pure_power_degrees()
        for j, k in enumerate(degrees):
            if k is None:
                raise NotArtinian(f"no pure power of x{j + 1} among the generators")
        return max(degrees)

    def is_strongly_stable(self) -> bool:
        """Exchange condition on generators: for every generator divisible
        by x_j and every i < j, moving one unit of exponent from x_j to
        x_i must stay inside the ideal.  Checking generators suffices."""
        for g in self.gens:
            for j in range(1, self.dim):
                if g[j] == 0:
                    continue
                for i in range(j):
                    moved = list(g)
                    moved[j] -= 1
                    moved[i] += 1
                    if not self.contains(tuple(moved)):
                        return False
        return True

    def is_symmetric(self) -> bool:
        """True iff the generator set is fixed by coordinate permutations
        (adjacent transpositions generate them all)."""
        gens = set(self.gens)
        for g in self.gens:
            for j in range(self.dim - 1):
                swapped = g[:j] + (g[j + 1], g[j]) + g[j + 2:]
                if swapped not in gens:
                    return False
        return True

    def bgens(self) -> tuple[Monomial, ...]:
        """Minimal Borel generators, ordered by degree then lexicographically.

        A generator survives when, for every variable x_q dividing it,
        dividing by x_q leaves the ideal (automatic for minimal
        generators) and exchanging one unit of x_q for x_{q+1} also leaves
        the ideal; the exchange condition is vacuous for the last
        variable.
        """
        if not self.is_strongly_stable():
            raise NotStronglyStable(
                "Borel generators are only defined for strongly stable ideals")
        picked = []
        for g in self.gens:
            keep = True
            for q in range(self.dim):
                if g[q] == 0:
                    continue
                lowered = g[:q] + (g[q] - 1,) + g[q + 1:]
                if self.contains(lowered):
                    keep = False
                    break
                if q + 1 < self.dim:
                    exchanged = g[:q] + (g[q] - 1, g[q + 1] + 1) + g[q + 2:]
                    if self.contains(exchanged):
                        keep = False
                        break
            if keep:
                picked.append(g)
        return tuple(sorted(picked, key=lambda m: (sum(m), m)))

    def pretty(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(monomial_str(g) for g in self.gens) + ")"

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json_dict(cls, data) -> "MonomialIdeal":
        if not isinstance(data, dict):
            raise InputError("ideal JSON must be an object")
        try:
            dim = data["dim"]
            gens = data["gens"]
        except (KeyError, TypeError):
            raise InputError("ideal JSON needs 'dim' and 'gens'") from None
        if type(dim) is not int or not isinstance(gens, list):
            raise InputError("'dim' must be an integer and 'gens' a list")
        return cls(dim, gens)


def borel_closure(monomials: Iterable[Iterable[int]]) -> MonomialIdeal:
    """Smallest strongly stable ideal containing the given monomials.

    Saturates the set under single adjacent exchanges (one unit moved from
    x_j to x_{j-1}); adjacent exchanges compose to every exchange with
    i < j, and the ideal generated by the saturated set is closed under
    all Borel moves.  The result is returned in minimal canonical form.
    """
    try:
        seed = [tuple(m) for m in monomials]
    except TypeError:
        raise InvalidCell("monomials must be sequences of integers") from None
    if not seed:
        raise EmptyInput("Borel closure needs at least one monomial")
    dim = len(seed[0])
    reachable = {_as_monomial(dim, m) for m in seed}
    stack = list(reachable)
    while stack:
        mono = stack.pop()
        for j in range(1, dim):
            if mono[j] > 0:
                moved = mono[:j - 1] + (mono[j - 1] + 1, mono[j] - 1) + mono[j + 1:]
                if moved not in reachable:
                    reachable.add(moved)
                    stack.append(moved)
    return MonomialIdeal(dim, reachable)
