"""Quotient sequencings: arrangements of second coordinates and the degree
bookkeeping of the partial sums they induce.

An arrangement a = (a_1 .. a_k) over Z_t has partial sums b = (b_0 .. b_k)
with b_0 = 0.  No residue of Z_t can occur more than k + 1 times in b, so
for every prime p > k each residue class of Z_p x Z_t has room for the full
partial sums that land in it; max_multiplicity reports the largest count.

How the induced degree splits up.  induced_degree is sum C(lam_v, 2) plus
the pairs i < j with b_i = b_j, less the adjacent pairs (j = i + 1) and the
wrap pair (0, k).  Taking the partial sums in order, b_j pairs with every
earlier equal b_i, so the equal pairs total the sum over j of the count
b_j's residue already has.  b_j = b_{j+1} exactly when a_{j+1} = 0, so there
are lam_0 adjacent pairs, and b_k = sum v * lam_v mod t, so the wrap pair is
a constant of the type too.  Hence

    degree = sum C(lam_v, 2) - lam_0 - [k >= 2 and sum v * lam_v = 0 mod t]
             + sum over j = 1..k of #{i < j : b_i = b_j},

where every term of the last sum is >= 0.  search_quotient walks every
arrangement of a type depth first with a running degree; once it holds
limit arrangements it cuts every prefix whose running degree is strictly
above the worst degree kept, since no completion can come back down.  The
cut is strict: a completion tied on degree can still win on max
multiplicity.  The ranking is exact at every size; its cost grows with the
prefixes the cut leaves.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class QuotientSequencing:
    """An arrangement of second coordinates together with its partial sums."""

    a: tuple[int, ...]
    t: int
    b: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t must be positive")
        a = tuple(self.a)
        if any(not (0 <= v < self.t) for v in a):
            raise ValueError("arrangement entries must lie in 0 .. t-1")
        object.__setattr__(self, "a", a)
        acc = 0
        b = [0]
        for v in a:
            acc = (acc + v) % self.t
            b.append(acc)
        object.__setattr__(self, "b", tuple(b))

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def max_multiplicity(self) -> int:
        return max(Counter(self.b).values())

    def type_vector(self) -> tuple[int, ...]:
        lam = [0] * self.t
        for v in self.a:
            lam[v] += 1
        return tuple(lam)


def validate_quotient(a, lam) -> QuotientSequencing:
    """Build a QuotientSequencing for arrangement a of a type lam.

    Raises ValueError when the multiset of a does not match lam.
    """
    qs = QuotientSequencing(tuple(a), len(lam))
    if qs.type_vector() != tuple(lam):
        raise ValueError(f"arrangement {a} is not an arrangement of type {tuple(lam)}")
    return qs


def window_pair_count(b) -> int:
    """Number of pairs i < j with b_i = b_j, j != i+1 and (i, j) != (0, k)."""
    k = len(b) - 1
    counts = Counter(b)
    total = sum(c * (c - 1) // 2 for c in counts.values())
    adjacent = sum(1 for i in range(k) if b[i] == b[i + 1])
    wrap = 1 if k >= 2 and b[0] == b[k] else 0
    return total - adjacent - wrap


def induced_degree(lam, b) -> int:
    """Exact degree of the distinctness polynomial an arrangement induces.

    Difference factors contribute C(lam_v, 2) per residue v; window factors
    are counted by window_pair_count.
    """
    return sum(c * (c - 1) // 2 for c in lam) + window_pair_count(b)


def bounding_degree(lam) -> int:
    """Degree of the unfixed bounding monomial: sum of lam_v * (lam_v - 1)."""
    return sum(c * (c - 1) for c in lam)


def arrangement_count(lam) -> int:
    """Number of distinct arrangements of the multiset described by lam."""
    k = sum(lam)
    total = 1
    seen = 0
    for c in lam:
        for i in range(1, c + 1):
            seen += 1
            total = total * seen // i
    return total


@dataclass(frozen=True)
class QuotientSearchResult:
    """The best arrangements of a type as sorted (degree, max multiplicity,
    a) triples, and the number of arrangements the ranking covers."""

    candidates: tuple[tuple[int, int, tuple[int, ...]], ...]
    scanned: int


def search_quotient(lam, limit):
    """Rank the arrangements of a type by induced degree, exactly.

    Returns the best limit (degree, max multiplicity, a) triples, sorted, so
    ties break toward smaller max multiplicity, then the smallest
    arrangement lexicographically; every arrangement counts as scanned.
    One depth-first walk over the type's multiset in lexicographic order,
    carrying the histogram of partial sums (see the module docstring for
    the running degree and the cut), in O(limit) memory beyond the walk's
    O(k) state.  A heap keeps the best limit leaves; a leaf ties with a
    kept one on (degree, multiplicity) only after it in lexicographic
    order, so the order leaves are reached in breaks ties.
    """
    lam = tuple(lam)
    if any(c < 0 for c in lam) or sum(lam) == 0:
        raise ValueError("type must be nonnegative with positive size")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    t, k = len(lam), sum(lam)
    wrap = 1 if k >= 2 and sum(v * c for v, c in enumerate(lam)) % t == 0 else 0
    left = list(lam)
    hist = [0] * t
    hist[0] = 1
    a = [0] * k
    heap = []  # (-degree, -multiplicity, -leaf number, a): heap[0] is the worst kept
    leaves = 0
    worst = None  # heap[0]'s degree once the heap holds limit leaves

    def walk(i, s, deg, mult):
        nonlocal leaves, worst
        if i == k:
            leaves += 1
            item = (-deg, -mult, -leaves, tuple(a))
            if len(heap) < limit:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
            if len(heap) == limit:
                worst = -heap[0][0]
            return
        for v in range(t):
            if not left[v]:
                continue
            r = s + v - t if s + v >= t else s + v
            c = hist[r]
            if worst is not None and deg + c > worst:
                continue
            left[v] -= 1
            hist[r] = c + 1
            a[i] = v
            walk(i + 1, r, deg + c, c + 1 if c >= mult else mult)
            hist[r] = c
            left[v] += 1

    # One frame per position: a type with thousands of parts and few
    # arrangements (say (2000,)) is deeper than the default limit.
    depth = sys.getrecursionlimit()
    sys.setrecursionlimit(max(depth, k + 100))
    try:
        walk(0, 0, sum(c * (c - 1) // 2 for c in lam) - lam[0] - wrap, 1)
    finally:
        sys.setrecursionlimit(depth)
    top = sorted((-d, -m, a) for d, m, _, a in heap)
    return QuotientSearchResult(tuple(top), arrangement_count(lam))
