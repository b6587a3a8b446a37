"""Groups, orderings and partial sums for the sequenceability machinery.

Everything downstream works either in a plain cyclic group Z_n or in a
two-coordinate group Z_p x Z_t with a concrete prime p and gcd(p, t) = 1.
Statements for every admissible prime at once are made by certificates, not
by a group object; types and their unit orbits depend on t alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from sympy import isprime

LINEAR = "linear"
ROTATIONAL = "rotational"


@dataclass(frozen=True)
class Cyclic:
    """The group Z_n with elements 0 .. n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")

    @property
    def zero(self):
        return 0

    def add(self, a, b):
        return (a + b) % self.n

    def contains(self, el) -> bool:
        return isinstance(el, int) and 0 <= el < self.n


@dataclass(frozen=True)
class GroupConfig:
    """Z_p x Z_t with p prime and coprime to t; elements are pairs (a, b)."""

    p: int
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t must be positive")
        if not isprime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if math.gcd(self.p, self.t) != 1:
            raise ValueError(f"p={self.p} and t={self.t} are not coprime")

    @property
    def n(self) -> int:
        return self.p * self.t

    @property
    def zero(self):
        return (0, 0)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.t)

    def contains(self, el) -> bool:
        return (
            isinstance(el, tuple)
            and len(el) == 2
            and isinstance(el[0], int)
            and isinstance(el[1], int)
            and 0 <= el[0] < self.p
            and 0 <= el[1] < self.t
        )


def validate_subset(elements, group):
    """Check distinctness, membership and absence of the identity.

    Returns the elements as a tuple in the order given.
    """
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise ValueError("subset elements must be distinct")
    if group.zero in elems:
        raise ValueError("subset must not contain the identity")
    for el in elems:
        if not group.contains(el):
            raise ValueError(f"element {el!r} is outside the group")
    return elems


def partial_sums(ordering, group):
    """Return (y_0, ..., y_k) where y_0 is the identity and y_i = x_1 + .. + x_i."""
    acc = group.zero
    sums = [acc]
    for x in ordering:
        acc = group.add(acc, x)
        sums.append(acc)
    return tuple(sums)


def subset_sum(elements, group):
    acc = group.zero
    for x in elements:
        acc = group.add(acc, x)
    return acc


def classify_sequencing(subset, ordering, group):
    """Classify an ordering of subset as LINEAR, ROTATIONAL or None.

    LINEAR means all k+1 partial sums are distinct (possible only when the
    subset sum is nonzero).  ROTATIONAL means y_0 .. y_{k-1} are distinct and
    the final sum returns to the identity (possible only when the subset sum
    is zero).  Anything else is None.
    """
    elems = validate_subset(subset, group)
    if sorted(ordering) != sorted(elems):
        raise ValueError("ordering is not a permutation of the subset")
    if not elems:
        # the empty ordering closes at the identity
        return ROTATIONAL
    sums = partial_sums(ordering, group)
    if len(set(sums)) == len(sums):
        return LINEAR
    if sums[-1] == group.zero and len(set(sums[:-1])) == len(sums) - 1:
        return ROTATIONAL
    return None


def type_of(elements, t):
    """Type vector of a subset of Z_p x Z_t: lam[v] counts second coordinate v."""
    lam = [0] * t
    for el in elements:
        lam[el[1]] += 1
    return tuple(lam)


def enumerate_types(k, t):
    """All compositions of k into t nonnegative parts.

    Deterministic order with the leading part largest first:
    (k,0,...,0), (k-1,1,0,...), ..., (0,...,0,k).
    """
    if k < 0 or t < 1:
        raise ValueError("need k >= 0 and t >= 1")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), k, t)
    return out


def rescale_type(lam, u):
    """The type of the subset whose second coordinates are multiplied by u."""
    t = len(lam)
    img = [0] * t
    for v, c in enumerate(lam):
        img[(u * v) % t] = c
    return tuple(img)


def type_orbit(lam):
    """All images of a type under rescaling the second coordinate by a unit of Z_t."""
    t = len(lam)
    if t == 1:
        return (tuple(lam),)
    return tuple(
        sorted({rescale_type(lam, u) for u in range(1, t) if math.gcd(u, t) == 1})
    )


def canonical_type(lam):
    """Canonical orbit representative: the image appearing first in enumerate_types order."""
    return max(type_orbit(lam))


def type_representatives(k, t):
    """One type per unit orbit, in enumerate_types order."""
    return [lam for lam in enumerate_types(k, t) if canonical_type(lam) == lam]
