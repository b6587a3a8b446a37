"""Brute-force ground truth: exhaustive sequencing search and scanners.

Independent of the polynomial pipeline: orderings are searched directly with
a depth-first search over positions, pruning on repeated partial sums.  Used
to double-check certificates on small concrete groups and to scan small
cyclic groups exhaustively.
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


def _search(elems, group, closing_zero, prefix, used_sums, acc, out, find_all):
    """DFS over remaining elements; used_sums holds partial sums so far."""
    k = len(elems)
    depth = len(prefix)
    if depth == k:
        out.append(tuple(prefix))
        return not find_all
    remaining = [e for e in elems if e not in prefix]
    for e in sorted(remaining):
        nxt = group.add(acc, e)
        if nxt in used_sums:
            # a collision is only ever allowed at the closing step of a
            # zero-sum subset, where the walk returns to the identity
            if not (closing_zero and depth == k - 1 and nxt == group.zero):
                continue
            prefix.append(e)
            out.append(tuple(prefix))
            prefix.pop()
            if not find_all:
                return True
            continue
        prefix.append(e)
        used_sums.add(nxt)
        done = _search(elems, group, closing_zero, prefix, used_sums, nxt, out, find_all)
        used_sums.discard(nxt)
        prefix.pop()
        if done:
            return True
    return False


def find_sequencing(elements, group, mode: str = AUTO):
    """First sequencing of the subset in deterministic DFS order, or None.

    mode restricts the kind: LINEAR_ONLY returns None when the subset sum is
    zero (the walk must return to the identity), ROTATIONAL_ONLY returns None
    when it is nonzero.  AUTO accepts whichever kind the subset sum allows.
    """
    elems = validate_subset(elements, group)
    if len(elems) > MAX_ORACLE_SIZE:
        raise ValueError(
            f"exhaustive search refused beyond {MAX_ORACLE_SIZE} elements"
        )
    if not elems:
        return ()
    total = subset_sum(elems, group)
    zero_sum = total == group.zero
    if mode == LINEAR_ONLY and zero_sum:
        return None
    if mode == ROTATIONAL_ONLY and not zero_sum:
        return None
    if mode not in (AUTO, LINEAR_ONLY, ROTATIONAL_ONLY):
        raise ValueError(f"unknown mode {mode!r}")
    out: list[tuple] = []
    _search(elems, group, zero_sum, [], {group.zero}, group.zero, out, False)
    return out[0] if out else None


def all_sequencings(elements, group):
    """Every valid ordering, in DFS order (small subsets only)."""
    elems = validate_subset(elements, group)
    if len(elems) > 8:
        raise ValueError("full enumeration limited to 8 elements")
    if not elems:
        return [()]
    total = subset_sum(elems, group)
    out: list[tuple] = []
    _search(elems, group, total == group.zero, [], {group.zero}, group.zero, out, True)
    return out


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


def _kind_allows(subset, n: int, kind: str) -> bool:
    if kind == AUTO:
        return True
    zero_sum = sum(subset) % n == 0
    return zero_sum if kind == ROTATIONAL_ONLY else not zero_sum


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
            if (not reduce or canonical_subset(s, n) == s) and _kind_allows(s, n, kind)
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
            if _kind_allows(s, n, kind):
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


def _arranged_sequencing(pools, a, group):
    """Ordering consistent with the arrangement a, all partial sums distinct
    in the full group (closing collision at the identity allowed)."""
    k = len(a)
    zero_sum = (
        sum(x for pool in pools.values() for x in pool) % group.p == 0
        and sum(v * len(pool) for v, pool in pools.items()) % group.t == 0
    )
    order: list[tuple[int, int]] = []
    taken = {v: [False] * len(pool) for v, pool in pools.items()}
    sums = {group.zero}

    def rec(depth, acc):
        if depth == k:
            return True
        v = a[depth]
        pool = pools[v]
        flags = taken[v]
        for idx, x in enumerate(pool):
            if flags[idx]:
                continue
            nxt = group.add(acc, (x, v))
            if nxt in sums:
                if zero_sum and depth == k - 1 and nxt == group.zero:
                    order.append((x, v))
                    return True
                continue
            flags[idx] = True
            order.append((x, v))
            sums.add(nxt)
            if rec(depth + 1, nxt):
                return True
            sums.discard(nxt)
            order.pop()
            flags[idx] = False
        return False

    return tuple(order) if rec(0, group.zero) else None


def verify_nonvanishing_conclusion(
    p: int, t: int, lam, qs, max_subsets: int | None = None
) -> VerificationReport:
    """Exhaustively confirm the certified conclusion on a concrete group.

    For every subset of Z_p x Z_t of type lam, search an ordering whose
    second coordinates follow the arrangement (qs may be a QuotientSequencing
    or a bare tuple) and whose partial sums are all distinct (with the usual
    closing allowance for zero-sum subsets).  Certificates assert such an
    ordering exists whenever they are valid for p.  A type with more than
    max_subsets subsets is refused with ValueError, not checked in part.
    """
    group = GroupConfig(p, t)
    lam = tuple(lam)
    a = tuple(getattr(qs, "a", qs))
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
        universe = [x for x in range(p) if (x, v) != (0, 0)]
        pools_space.append(list(itertools.combinations(universe, lam[v])))
    checked = 0
    failures = []
    for combo in itertools.product(*pools_space):
        pools = {v: list(combo[v]) for v in range(t)}
        checked += 1
        if _arranged_sequencing(pools, a, group) is None:
            subset = tuple(
                sorted((x, v) for v in range(t) for x in pools[v])
            )
            failures.append(subset)
            if len(failures) >= 20:
                break
    return VerificationReport(p, t, lam, a, checked, tuple(failures))
