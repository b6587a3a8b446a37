"""Brute-force ground truth: exhaustive sequencing search and scanners.

Independent of the polynomial pipeline: orderings are searched directly with
one depth-first search over positions (``_search``), pruning on repeated
partial sums.  The finders, the scans of small cyclic groups and the
verification of certificates on small concrete groups all use it.
"""

from __future__ import annotations

import itertools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .groups import Cyclic, GroupConfig, subset_sum, validate_subset
from .quotient import validate_quotient

MAX_ORACLE_SIZE = 20

LINEAR_ONLY = "linear"
ROTATIONAL_ONLY = "rotational"
AUTO = "auto"


def _kind_allows(zero_sum: bool, kind: str) -> bool:
    """Can a subset whose sum is (or is not) the identity have this kind?

    A zero-sum walk must return to the identity, so it can only be rotational;
    a nonzero-sum walk never returns, so it can only be linear.
    """
    if kind == AUTO:
        return True
    if kind == ROTATIONAL_ONLY:
        return zero_sum
    if kind == LINEAR_ONLY:
        return not zero_sum
    raise ValueError(f"unknown mode {kind!r}")


def _search(slots, group, find_all):
    """Orderings taking one unused element of slots[d] at each depth d.

    Partial sums must be distinct, except that the last one may return to the
    identity (a zero-sum subset closing rotationally).  Candidates are tried
    in slot order.  Returns the first ordering found (or none) as a list, or
    with find_all every ordering in DFS order.
    """
    k = len(slots)
    prefix: list = []
    sums: set = set()  # nonzero partial sums so far; the identity is implied
    out: list[tuple] = []

    def rec(depth, acc):
        if depth == k:
            out.append(tuple(prefix))
            return not find_all
        for e in slots[depth]:
            if e in prefix:
                continue
            nxt = group.add(acc, e)
            if nxt in sums or (nxt == group.zero and depth < k - 1):
                continue
            prefix.append(e)
            sums.add(nxt)
            done = rec(depth + 1, nxt)
            sums.discard(nxt)
            prefix.pop()
            if done:
                return True
        return False

    rec(0, group.zero)
    return out


def find_sequencing(elements, group, mode: str = AUTO):
    """First sequencing of the subset in deterministic DFS order, or None.

    mode restricts the kind: LINEAR_ONLY returns None when the subset sum is
    zero (the walk must return to the identity), ROTATIONAL_ONLY returns None
    when it is nonzero.  AUTO accepts whichever kind the subset sum allows.
    The empty subset sums to zero and its ordering () is rotational, so it
    returns () under AUTO and ROTATIONAL_ONLY and None under LINEAR_ONLY.
    """
    elems = validate_subset(elements, group)
    allowed = _kind_allows(subset_sum(elems, group) == group.zero, mode)
    if len(elems) > MAX_ORACLE_SIZE:
        raise ValueError(
            f"exhaustive search refused beyond {MAX_ORACLE_SIZE} elements"
        )
    if not allowed:
        return None
    found = _search([sorted(elems)] * len(elems), group, False)
    return found[0] if found else None


def all_sequencings(elements, group):
    """Every valid ordering, in DFS order (small subsets only)."""
    elems = validate_subset(elements, group)
    if len(elems) > 8:
        raise ValueError("full enumeration limited to 8 elements")
    return _search([sorted(elems)] * len(elems), group, True)


def canonical_subset(subset, n: int) -> tuple[int, ...]:
    """Smallest unit multiple of the subset of Z_n, as a sorted tuple.

    Multiplying a subset by a unit is a group automorphism, so it preserves
    sequenceability; scanning one representative per class suffices.
    """
    best = None
    for u in range(1, n):
        if math.gcd(u, n) != 1:
            continue
        image = tuple(sorted((u * s) % n for s in subset))
        if best is None or image < best:
            best = image
    return best


@dataclass(frozen=True)
class ScanReport:
    n: int
    k: int
    kind: str
    scanned: int
    sequenceable: int
    failures: tuple[tuple[int, ...], ...]
    reduced: bool
    sampled: bool
    seed: int | None

    @property
    def all_sequenceable(self) -> bool:
        return self.scanned == self.sequenceable


def _scan_chunk(args):
    n, subsets, kind = args
    group = Cyclic(n)
    ok = 0
    failures = []
    for subset in subsets:
        if find_sequencing(subset, group, kind) is not None:
            ok += 1
        else:
            failures.append(subset)
    return ok, failures


MAX_EXHAUSTIVE_N = 40
MAX_EXHAUSTIVE_SUBSETS = 10_000_000


def scan_group(
    n: int,
    k: int,
    kind: str = AUTO,
    count: int | None = None,
    seed: int = 0,
    reduce: bool = True,
    workers: int = 1,
    max_failures: int = 20,
) -> ScanReport:
    """Scan size-k subsets of Z_n \\ {0} for sequencings.

    Exhaustive by default; reduce=True keeps only the lexicographically
    smallest unit multiple of each subset.  count switches to sampling mode:
    that many random subsets (seeded, recorded in the report, no reduction).
    kind filters to subsets whose sum permits that kind of sequencing.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= k <= n-1, got n={n} k={k}")
    if count is not None and count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    allows = {zero_sum: _kind_allows(zero_sum, kind) for zero_sum in (False, True)}
    population = range(1, n)
    if count is None:
        if n > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive scans are limited to n <= {MAX_EXHAUSTIVE_N}")
        if math.comb(n - 1, k) > MAX_EXHAUSTIVE_SUBSETS:
            raise ValueError(
                f"{math.comb(n - 1, k)} subsets exceed the exhaustive budget; "
                f"use sampling (count=...)"
            )
        subsets = [
            s
            for s in itertools.combinations(population, k)
            if (not reduce or canonical_subset(s, n) == s) and allows[sum(s) % n == 0]
        ]
        sampled = False
        used_seed = None
    else:
        rng = random.Random(seed)
        chosen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(chosen) < count and attempts < count * 200:
            s = tuple(sorted(rng.sample(population, k)))
            attempts += 1
            if allows[sum(s) % n == 0]:
                chosen.add(s)
        subsets = sorted(chosen)
        sampled = True
        used_seed = seed
        reduce = False
    if workers > 1 and len(subsets) > workers:
        chunks = [(n, subsets[i::workers], kind) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_chunk, chunks))
        ok = sum(p[0] for p in parts)
        failures = [f for p in parts for f in p[1]]
        failures.sort()
    else:
        ok, failures = _scan_chunk((n, subsets, kind))
    return ScanReport(
        n,
        k,
        kind,
        len(subsets),
        ok,
        tuple(failures[:max_failures]),
        reduce,
        sampled,
        used_seed,
    )


class InfeasibleVerification(ValueError):
    """The requested (p, t, lam, a) admits no subsets or breaks a premise."""


@dataclass(frozen=True)
class VerificationReport:
    p: int
    t: int
    lam: tuple[int, ...]
    a: tuple[int, ...]
    subsets_checked: int
    failures: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_nonvanishing_conclusion(
    p: int, t: int, lam, a, max_subsets: int | None = None
) -> VerificationReport:
    """Exhaustively confirm the certified conclusion on a concrete group.

    For every subset of Z_p x Z_t of type lam, search an ordering whose
    second coordinates follow the arrangement a (a tuple of residues) and
    whose partial sums are all distinct (with the usual closing allowance
    for zero-sum subsets).  Certificates assert such an ordering exists
    whenever they are valid for p.  A type with more than max_subsets
    subsets is refused with ValueError, not checked in part.
    """
    group = GroupConfig(p, t)
    lam = tuple(lam)
    a = tuple(a)
    if len(lam) != t or sum(lam) != len(a):
        raise ValueError("type and arrangement sizes are inconsistent")
    mult = validate_quotient(a, lam).max_multiplicity
    if lam[0] > p - 1:
        raise InfeasibleVerification(
            f"type asks for {lam[0]} identity-coset elements but only {p - 1} exist"
        )
    for v in range(1, t):
        if lam[v] > p:
            raise InfeasibleVerification(
                f"type asks for {lam[v]} elements of residue {v} but only {p} exist"
            )
    if mult > p:
        raise InfeasibleVerification(
            f"partial-sum residues repeat {mult} times, more than p={p}"
        )
    total = math.comb(p - 1, lam[0]) * math.prod(math.comb(p, n) for n in lam[1:])
    if max_subsets is not None and total > max_subsets:
        raise ValueError(
            f"type {lam} has {total} subsets in Z_{p} x Z_{t}, more than "
            f"max_subsets={max_subsets}"
        )
    pools_space = []
    for v in range(t):
        universe = [(x, v) for x in range(p) if (x, v) != (0, 0)]
        pools_space.append(list(itertools.combinations(universe, lam[v])))
    checked = 0
    failures = []
    for pools in itertools.product(*pools_space):
        checked += 1
        if not _search([pools[v] for v in a], group, False):
            failures.append(tuple(sorted(e for pool in pools for e in pool)))
            if len(failures) >= 20:
                break
    return VerificationReport(p, t, lam, a, checked, tuple(failures))
