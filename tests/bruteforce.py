"""Brute-force oracles, written against raw tuples only.

These deliberately avoid the library implementations they are used to
check: hooks are recomputed with while loops, symmetry with the full
permutation group, enumeration by filtering the power set of the box.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, prod


def box_cells(dim, side):
    return list(product(range(side), repeat=dim))


def is_downward_closed(cells):
    s = set(cells)
    for c in s:
        for j, v in enumerate(c):
            if v and c[:j] + (v - 1,) + c[j + 1:] not in s:
                return False
    return True


def close_down(cells):
    """Downward closure of an arbitrary cell set."""
    todo = {tuple(c) for c in cells}
    closed = set()
    while todo:
        c = todo.pop()
        if c in closed:
            continue
        closed.add(c)
        for j, v in enumerate(c):
            if v:
                todo.add(c[:j] + (v - 1,) + c[j + 1:])
    return closed


def powerset_partitions(dim, side):
    """Every downward-closed subset of the box, by power-set filtering.
    Only usable for tiny boxes."""
    cells = box_cells(dim, side)
    for r in range(len(cells) + 1):
        for subset in combinations(cells, r):
            if is_downward_closed(subset):
                yield frozenset(subset)


def grown_partitions(dim, side):
    """Every downward-closed subset of the box, grown from the empty set
    by adding any cell whose predecessors are present, deduplicated.
    Reaches boxes the power set cannot, such as (3, 3)."""
    box = box_cells(dim, side)
    seen = {frozenset()}
    todo = [frozenset()]
    while todo:
        cells = todo.pop()
        for c in box:
            if c in cells or not all(
                    not v or c[:j] + (v - 1,) + c[j + 1:] in cells
                    for j, v in enumerate(c)):
                continue
            grown = cells | {c}
            if grown not in seen:
                seen.add(grown)
                todo.append(grown)
    return seen


def appended_listing(dim, side, stable=False):
    """Every downward-closed subset of the box (with `stable`, every one
    that also holds the adjacent moves c - e_j + e_(j+1) of its cells),
    each as its cells in lexicographic order, listed depth-first from the
    empty set: a set, then the sets grown from it by appending one box
    cell above its last whose predecessors (and moves) it holds, in
    increasing order of that cell."""
    box = box_cells(dim, side)

    def needs(c):
        yield from (c[:j] + (v - 1,) + c[j + 1:] for j, v in enumerate(c) if v)
        if stable:
            yield from (c[:j] + (v - 1, c[j + 1] + 1) + c[j + 2:]
                        for j, v in enumerate(c[:-1]) if v)

    listing = []

    def grow(cells):
        listing.append(cells)
        held = set(cells)
        for c in box:
            if (not cells or c > cells[-1]) and all(n in held for n in needs(c)):
                grow(cells + (c,))

    grow(())
    return listing


def arm_length(cells, cell, axis):
    s = set(cells)
    h = 0
    probe = list(cell)
    while True:
        probe[axis] += 1
        if tuple(probe) not in s:
            return h
        h += 1


def naive_strongly_stable(cells):
    cells = list(cells)
    if not cells:
        return True
    d = len(cells[0])
    for c in cells:
        arms = [arm_length(cells, c, j) for j in range(d)]
        if arms != sorted(arms):
            return False
    return True


def naive_totally_symmetric(cells):
    s = {tuple(c) for c in cells}
    if not s:
        return True
    d = len(next(iter(s)))
    return all(tuple(c[i] for i in p) in s for c in s for p in permutations(range(d)))


def counted_totally_symmetric(cells):
    """Symmetry by counting, for dimensions whose d! permutations per cell
    are out of reach: a set is a union of whole orbits exactly when, for
    each orbit it meets, it holds as many of its cells as the orbit has,
    d! / prod(m!) over the multiplicities m of the coordinate values."""
    met = Counter(tuple(sorted(c)) for c in {tuple(c) for c in cells})
    return all(n == factorial(len(rep)) // prod(map(factorial, Counter(rep).values()))
               for rep, n in met.items())


def naive_ideal_members(gens, dim, side):
    """Exponent vectors in the box divisible by some generator."""
    return {m for m in product(range(side), repeat=dim)
            if any(all(g[i] <= m[i] for i in range(dim)) for g in gens)}


def naive_minimalize(monomials):
    mono = {tuple(m) for m in monomials}
    return {m for m in mono
            if not any(g != m and all(x <= y for x, y in zip(g, m)) for g in mono)}


def naive_symmetrize(monomials):
    """Every rearrangement of every monomial, from the full permutation
    group of the coordinates."""
    return {perm for m in monomials for perm in permutations(m)}


def naive_borel_closure(monomials):
    """Every monomial reached from the input by Borel moves x_i/x_j with
    any i < j (not only adjacent ones), by saturating a set."""
    reached = {tuple(m) for m in monomials}
    todo = list(reached)
    while todo:
        m = todo.pop()
        for i, j in combinations(range(len(m)), 2):
            if m[j]:
                moved = list(m)
                moved[i] += 1
                moved[j] -= 1
                moved = tuple(moved)
                if moved not in reached:
                    reached.add(moved)
                    todo.append(moved)
    return reached


def naive_ideal_strongly_stable(gens, dim, side):
    """Whether every move x_i/x_j with any i < j (not only adjacent ones)
    keeps each member of the ideal in the box {0..side}^dim inside it,
    membership by divisibility.  With every generator below `side`, the
    box holds each generator, and if a move fails on some member, an
    adjacent one fails on some generator."""
    def member(m):
        return any(all(x <= y for x, y in zip(g, m)) for g in gens)

    for m in product(range(side + 1), repeat=dim):
        if member(m):
            for i, j in combinations(range(dim), 2):
                if m[j] and not member(m[:i] + (m[i] + 1,) + m[i + 1:j] + (m[j] - 1,) + m[j + 1:]):
                    return False
    return True


def box_antichains(dim, side):
    """Every divisibility antichain inside the box, via the maximal cells
    of box complements of downward-closed sets."""
    box = set(box_cells(dim, side))
    for ideal_cells in powerset_partitions(dim, side):
        upper = box - ideal_cells
        yield frozenset(naive_minimalize(upper))


def box_complement(gens, dim):
    """Exponent vectors outside an Artinian ideal, by scanning the box
    below its largest pure power degree."""
    side = max(sum(g) for g in gens if sum(1 for e in g if e) <= 1)
    return {m for m in product(range(side), repeat=dim)
            if not any(all(x <= y for x, y in zip(g, m)) for g in gens)}


def box_minimal_generators(cells, dim):
    """Minimal generators of the ideal of vectors outside a partition, by
    scanning the box {0..n}^d, n its bounding side: the vectors outside
    whose every unit decrement lands inside."""
    s = {tuple(c) for c in cells}
    side = 1 + max(max(c) for c in s) if s else 0
    return {a for a in product(range(side + 1), repeat=dim)
            if a not in s
            and all(not v or a[:j] + (v - 1,) + a[j + 1:] in s
                    for j, v in enumerate(a))}


def _triples(n):
    return combinations_with_replacement(range(1, n + 1), 3)


def fraction_t3(n):
    """The triple product over 1 <= i <= j <= k <= n of
    (i+j+k-1)/(i+j+k-2), one Fraction factor at a time."""
    total = Fraction(1)
    for i, j, k in _triples(n):
        total *= Fraction(i + j + k - 1, i + j + k - 2)
    return total


def multiply_all_then_divide_qtspp(n):
    """Coefficients of the product over 1 <= i <= j <= k <= n of
    (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)): every numerator multiplied out
    on a raw list, then every denominator divided off by long division
    from the top, asserting a zero remainder."""
    poly = [1]
    denominators = []
    for i, j, k in _triples(n):
        b = i + j + k - 1
        poly = [c - (poly[m - b] if m >= b else 0)
                for m, c in enumerate(poly + [0] * b)]
        denominators.append(b - 1)
    for b in denominators:
        quotient = [0] * (len(poly) - b)
        for m in range(len(poly) - 1, b - 1, -1):
            # 1 - q^b has leading coefficient -1.
            c = -poly[m]
            quotient[m - b] = c
            poly[m] += c
            poly[m - b] -= c
        assert not any(poly), "inexact division"
        poly = quotient
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def triple_sum_counts(n):
    """m_s, the number of triples 1 <= i <= j <= k <= n summing to s, by
    listing every triple."""
    return Counter(i + j + k for i, j, k in _triples(n))


def bucket_by_side(cell_sets, side):
    """Cumulative counts of a listing by bounding side (entry k counts the
    sets that fit in the box of side k), and the tally of their orbit
    counts as a coefficient list, from raw tuples."""
    sides = Counter(1 + max(max(c) for c in cells) if cells else 0
                    for cells in cell_sets)
    cumulative = []
    total = 0
    for k in range(side + 1):
        total += sides[k]
        cumulative.append(total)
    orbits = Counter(len({tuple(sorted(c)) for c in cells}) for cells in cell_sets)
    coeffs = [orbits[k] for k in range(max(orbits) + 1)]
    return tuple(cumulative), tuple(coeffs)


def near_symmetric_tops(rng, dim, side):
    """A few random cells of the side-`side` box, each with all of its
    coordinate permutations, all but one of them, or only its cyclic
    shifts: a union that is sometimes totally symmetric and often nearly
    so, as generators or as the maximal cells of a partition."""
    tops = set()
    for _ in range(rng.randint(1, 3)):
        cell = tuple(rng.randrange(side) for _ in range(dim))
        orbit = sorted(set(permutations(cell)))
        kind = rng.randrange(3)
        if kind == 0:
            tops.update(orbit)
        elif kind == 1:
            tops.update(rng.sample(orbit, max(1, len(orbit) - 1)))
        else:
            tops.update(cell[k:] + cell[:k] for k in range(dim))
    return tops
