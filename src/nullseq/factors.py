"""Factor lists for the distinctness polynomials.

Given an arrangement a with partial sums b, the full polynomial is a product
of two families of degree-1 factors over the first coordinates x_1 .. x_k:

* difference factors (x_j - x_i) for i < j with a_i = a_j, ensuring elements
  in the same coset are distinct;
* window factors x_{i+1} + ... + x_j for b-index pairs i < j with b_i = b_j,
  j != i+1 and (i, j) != (0, k), ensuring partial sums in the same coset are
  distinct (y_j - y_i telescopes to that window of consecutive variables).

The reduced variant drops window factors for pairs with j = i+2 as well,
which is sound when no two chosen elements may be mutual inverses.

Fixing a position substitutes a constant for its variable: difference factors
touching a fixed position are removed, window factors drop the fixed variable
(additive constants are irrelevant to top-degree coefficients, and the drop
is recorded).  Fixed positions must never be adjacent, so every window keeps
at least one variable.

The product does not depend on factor order, but the engine's live terms do,
and the engine multiplies a list in the order it is given.  So this module
alone decides the order: the pairs ending at the highest position come
first (see _emit), and fixing keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .quotient import QuotientSequencing, validate_quotient

FULL = "full"
REDUCED = "reduced"


class InfeasibleFixing(ValueError):
    """A fixing request breaks the rules or kills the bounding monomial."""


@dataclass(frozen=True)
class Difference:
    """Factor (x_j - x_i) with 1-based positions i < j."""

    i: int
    j: int

    def variables(self) -> tuple[int, ...]:
        return (self.i, self.j)

    def terms(self) -> tuple[tuple[int, int], ...]:
        return ((self.i, -1), (self.j, 1))

    def label(self) -> str:
        return f"x{self.j}-x{self.i}"


@dataclass(frozen=True)
class Window:
    """Factor x_{i+1} + ... + x_j for the partial-sum pair (i, j).

    vars lists the live (unfixed) positions; a fixed position's variable is
    a constant, and it is removed, since only top-degree terms are of
    interest.
    """

    pair: tuple[int, int]
    vars: tuple[int, ...]

    def variables(self) -> tuple[int, ...]:
        return self.vars

    def terms(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, 1) for v in self.vars)

    def label(self) -> str:
        return "+".join(f"x{v}" for v in self.vars)


@dataclass(frozen=True)
class FactorList:
    """An ordered product of degree-1 factors in k variables."""

    k: int
    factors: tuple[Difference | Window, ...]
    fixed: frozenset[int]
    variant: str

    @property
    def degree(self) -> int:
        return len(self.factors)

    def labels(self) -> tuple[str, ...]:
        return tuple(f.label() for f in self.factors)

    @cached_property
    def occurrences(self):
        """(counts, steps), the part of an engine plan that no target
        changes, computed once per list.

        counts[v - 1] is the number of factors containing x_v.  steps[f]
        holds factors[f].terms() and, per term, how many later factors
        contain its variable (the head's plan) and how many earlier ones do
        (the tail's, which multiplies the list from its end).  A factor
        holds each variable once, so the two add up to counts[v - 1] - 1.
        """
        seen = [0] * self.k
        before = []
        for factor in self.factors:
            terms = factor.terms()
            before.append((terms, tuple(seen[v - 1] for v, _ in terms)))
            for v, _ in terms:
                seen[v - 1] += 1
        steps = tuple(
            (terms, tuple(seen[v - 1] - 1 - b for (v, _), b in zip(terms, earlier)),
             earlier)
            for terms, earlier in before
        )
        return tuple(seen), steps


def validate_fixes(fixes, k) -> frozenset[int]:
    out = sorted(set(fixes))
    if len(out) != len(list(fixes)):
        raise InfeasibleFixing(f"fixed positions must be distinct: {sorted(fixes)}")
    for pos in out:
        if not 1 <= pos <= k:
            raise InfeasibleFixing(f"fixed position {pos} out of range 1 .. {k}")
    for prev, cur in zip(out, out[1:]):
        if cur - prev == 1:
            raise InfeasibleFixing(
                f"positions {prev} and {cur} are adjacent; a factor could "
                f"collapse to a pure constant"
            )
    return frozenset(out)


# factors are frozen, so each one is built once and shared by every list
@lru_cache(maxsize=None)
def _difference(i: int, j: int) -> Difference:
    return Difference(i, j)


@lru_cache(maxsize=None)
def _window(lo: int, j: int) -> Window:
    return Window((lo, j), tuple(range(lo + 1, j + 1)))


def _emit(qs: QuotientSequencing, variant: str) -> list[Difference | Window]:
    """Factors in the order the engine multiplies them: for each pair
    (i, j) with 1 <= i < j <= k, highest j first and, within it, highest i
    first, the difference factor (when a_i = a_j) followed by the window for
    the partial-sum pair (i-1, j) (when admissible).

    Every factor of pair (i, j) lies within positions i .. j, so once the
    pairs ending at j are done x_j never appears again and a targeted
    expansion holds it at its target exponent from then on.  Going from the
    highest position down rather than from the lowest up keeps fewer live
    terms on the catalog products: 10-2-a peaks at 356 021 terms against
    417 093, 11-a at 3.13M against 3.73M.
    """
    k = qs.k
    a, b = qs.a, qs.b
    # the reduced variant also drops the windows of pairs (i-1, i+1)
    shortest = 2 if variant == REDUCED else 1
    out: list[Difference | Window] = []
    for j in range(k, 1, -1):
        aj, bj = a[j - 1], b[j]
        for i in range(j - 1, 0, -1):
            if a[i - 1] == aj:
                out.append(_difference(i, j))
            # partial-sum pair (i-1, j) covers variables i .. j
            if b[i - 1] == bj and j - i >= shortest and (i, j) != (1, k):
                out.append(_window(i - 1, j))
    return out


def apply_fixes(fl: FactorList, fixes) -> FactorList:
    """Substitute constants for the given positions.

    Difference factors touching a fixed position are deleted outright (the
    distinctness they encode is delegated to choosing distinct constants).
    Window factors lose the fixed variables.  A window losing every
    variable would let a constants-only relation slip through, so it is an
    error - impossible anyway while no two fixed positions are adjacent.
    """
    combined = validate_fixes(frozenset(fl.fixed) | frozenset(fixes), fl.k)
    if combined == fl.fixed:
        return fl
    out: list[Difference | Window] = []
    for factor in fl.factors:
        if isinstance(factor, Difference):
            if factor.i in combined or factor.j in combined:
                continue
            out.append(factor)
        else:
            live = tuple(v for v in factor.vars if v not in combined)
            if not live:
                raise InfeasibleFixing(
                    f"window over partial-sum pair {factor.pair} loses every variable"
                )
            out.append(Window(factor.pair, live))
    return FactorList(fl.k, tuple(out), combined, fl.variant)


def build_p(qs: QuotientSequencing, fixes=()) -> FactorList:
    """Full factor list (differences plus all admissible windows)."""
    fl = FactorList(qs.k, tuple(_emit(qs, FULL)), frozenset(), FULL)
    return apply_fixes(fl, fixes) if fixes else fl


def build_q(qs: QuotientSequencing, fixes=()) -> FactorList:
    """Reduced factor list: windows for pairs (i, i+2) are omitted.

    Sound only for subsets that never contain both x and -x, where
    consecutive-but-one partial sums cannot collide.
    """
    fl = FactorList(qs.k, tuple(_emit(qs, REDUCED)), frozenset(), REDUCED)
    return apply_fixes(fl, fixes) if fixes else fl


def fix_counts(qs: QuotientSequencing, fixes) -> list[int]:
    """Number of fixed positions per residue class."""
    counts = [0] * qs.t
    for pos in fixes:
        counts[qs.a[pos - 1]] += 1
    return counts


def bounding_monomial(lam, qs: QuotientSequencing, fixes=()) -> tuple[int, ...]:
    """Exponents gamma_i of the bounding monomial, one per position.

    Position i draws its value from the coset of residue a_i, which holds
    lam_{a_i} elements minus one per fixed position in that coset; the
    admissible exponent is one less than the remaining choices.  Fixed
    positions get exponent 0.  Raises InfeasibleFixing when any unfixed
    position is left without enough choices.
    """
    lam = tuple(lam)
    if qs.type_vector() != lam:
        raise ValueError(f"arrangement {qs.a} does not have type {lam}")
    fixed = validate_fixes(fixes, qs.k)
    counts = fix_counts(qs, fixed)
    gamma = []
    for pos in range(1, qs.k + 1):
        if pos in fixed:
            gamma.append(0)
            continue
        v = qs.a[pos - 1]
        g = lam[v] - counts[v] - 1
        if g < 0:
            raise InfeasibleFixing(
                f"position {pos} draws from residue class {v} with "
                f"{lam[v]} elements but {counts[v]} are already fixed"
            )
        gamma.append(g)
    return tuple(gamma)


def product(lam, a, fixes=(), variant=FULL):
    """The product a certificate speaks for: (qs, fl, bound).

    qs is arrangement a validated against type lam, fl the variant's factor
    list with the given positions fixed, and bound the bounding monomial.
    Raises ValueError for a bad arrangement or variant, InfeasibleFixing
    for a bad fix set.
    """
    build = {FULL: build_p, REDUCED: build_q}.get(variant)
    if build is None:
        raise ValueError(f"unknown variant {variant!r}")
    qs = validate_quotient(a, lam)
    return qs, build(qs, fixes), bounding_monomial(lam, qs, fixes)


def choose_fixes(fl: FactorList, lam, qs: QuotientSequencing) -> frozenset[int]:
    """Greedily fix positions while the degree condition survives.

    Repeatedly picks the unfixed, non-adjacent position removing the most
    difference factors (ties toward the lowest position) such that the fixed
    product's degree still does not exceed the fixed bounding monomial's
    degree and no factor dies.  Zero-gain fixes are taken too: they still
    shrink the bound.  Stops when no position qualifies; may return the
    empty set.

    No trial list is built.  While no two fixed positions are adjacent,
    fixing never removes a window (each keeps a variable), so the fixed
    product's degree is fl.degree minus the difference factors of fl that
    touch the fixed set, and only the bounding monomial is computed per
    candidate.
    """
    lam = tuple(lam)
    diffs = [set(f.variables()) for f in fl.factors if isinstance(f, Difference)]
    fixes: set[int] = set(fl.fixed)
    while True:
        live = [d for d in diffs if not d & fixes]
        degree = fl.degree - (len(diffs) - len(live))
        gain = {
            pos: sum(pos in d for d in live)
            for pos in range(1, fl.k + 1)
            if not {pos - 1, pos, pos + 1} & fixes
        }
        for pos in sorted(gain, key=lambda pos: (-gain[pos], pos)):
            try:
                gamma = bounding_monomial(lam, qs, fixes | {pos})
            except InfeasibleFixing:
                continue
            if degree - gain[pos] <= sum(gamma):
                fixes.add(pos)
                break
        else:
            return frozenset(fixes)
