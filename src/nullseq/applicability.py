"""Which cyclic groups Z_n a given certificate family provably covers.

The certified cases transfer to Z_n with n = mt whenever every prime factor
of m exceeds k!/2.  Coverage rows pair a subset size k with admissible
values of t, optionally with a side condition on how many elements of the
subset lie in the order-m subgroup of Z_n (the multiples of t).

Small sizes (k <= 9) are covered unconditionally for every abelian group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# side conditions on lam0 = number of subset elements in the order-m subgroup
NO_CAVEAT = "none"
NEEDS_OUTSIDE = "needs-element-outside-subgroup"  # lam0 <= k-1
SUBGROUP_COUNT_EXCLUDED = "subgroup-count-excluded"  # lam0 not in excluded set

UNCONDITIONAL_K = 9  # covered for every abelian group, no structure needed
# composites above this many bits are left undecided, not factored
EFFORT_BITS = 256


@dataclass(frozen=True)
class CoverageRow:
    k_min: int
    k_max: int
    t_values: tuple[int, ...]
    caveat: str = NO_CAVEAT
    excluded_counts: tuple[int, ...] = ()

    def matches(self, k: int, t: int) -> bool:
        return self.k_min <= k <= self.k_max and t in self.t_values


DEFAULT_TABLE: tuple[CoverageRow, ...] = (
    CoverageRow(1, 11, (1, 2, 3, 4, 5)),
    CoverageRow(12, 12, (1, 2, 3, 4)),
    CoverageRow(13, 13, (2, 3), NEEDS_OUTSIDE),
    CoverageRow(14, 14, (2,), NEEDS_OUTSIDE),
    CoverageRow(15, 15, (2,), SUBGROUP_COUNT_EXCLUDED, (0, 1, 2, 15)),
)


@dataclass(frozen=True)
class SplitEvaluation:
    """One way of writing n = m * t against one coverage row."""

    t: int
    m: int
    prime_ok: bool | None  # None: factorization budget ran out
    caveat: str
    caveat_ok: bool | None  # None: needs a concrete subset
    lam0: int | None

    @property
    def verdict(self) -> str:
        if self.prime_ok is False or self.caveat_ok is False:
            return "no"
        if self.prime_ok is None:
            return "unknown"
        if self.caveat_ok is None:
            return "conditional"
        return "yes"


@dataclass(frozen=True)
class ApplicabilityResult:
    n: int
    k: int
    verdict: str  # yes | conditional | unknown | no
    unconditional: bool
    splits: tuple[SplitEvaluation, ...]
    subset: tuple[int, ...] | None


def prime_factors_exceed(m: int, threshold: int):
    """True/False when decidable, None when the factorization budget is hit.

    Strips prime factors up to min(threshold, 10^6) by trial division:
    finding one at or below the threshold settles the answer negatively.
    What remains either is certified prime (compare directly) or must be
    fully factored; composites larger than EFFORT_BITS bits are left
    undecided rather than risking an open-ended factorization.  It is the
    one place that factors numbers a user types, so it alone uses sympy,
    imported here: no other command loads it.
    """
    import sympy

    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return True
    if threshold < 2:
        return True
    if m <= threshold:
        return False  # m > 1 has a prime factor <= m <= threshold
    if sympy.isprime(m):
        return True  # m > threshold and prime
    for p in sympy.primerange(2, min(threshold, 10**6) + 1):
        if p * p > m:
            break
        if m % p == 0:
            return False
    # m now has no prime factor up to min(threshold, 10^6)
    if threshold <= 10**6:
        return True
    if m.bit_length() > EFFORT_BITS:
        return None
    return all(p > threshold for p in sympy.factorint(m))


def lam0_of(subset, t: int) -> int:
    """How many elements of a subset of Z_n lie in the order-m subgroup
    (the multiples of t)."""
    return sum(1 for s in subset if s % t == 0)


def applicability(n: int, k: int, subset=None) -> ApplicabilityResult:
    """Decide whether size-k subsets of Z_n \\ {0} are covered by the rows
    of DEFAULT_TABLE.

    With a concrete subset the side conditions are evaluated exactly;
    without one, rows that hinge on a side condition report "conditional".
    Verdict is the best across all splits n = m * t: yes > conditional >
    unknown > no.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= k <= n-1, got n={n} k={k}")
    if subset is not None:
        subset = tuple(subset)
        if len(subset) != k:
            raise ValueError(f"subset size {len(subset)} does not match k={k}")
        if len(set(s % n for s in subset)) != k or any(s % n == 0 for s in subset):
            raise ValueError("subset must be distinct and avoid 0 mod n")
    if k <= UNCONDITIONAL_K:
        return ApplicabilityResult(n, k, "yes", True, (), subset)
    threshold = math.factorial(k) // 2
    splits = []
    t_candidates = sorted({t for row in DEFAULT_TABLE for t in row.t_values})
    for t in t_candidates:
        if t > n or n % t != 0:
            continue
        m = n // t
        rows = [row for row in DEFAULT_TABLE if row.matches(k, t)]
        if not rows:
            continue
        prime_ok = prime_factors_exceed(m, threshold)
        for row in rows:
            if row.caveat == NO_CAVEAT:
                caveat_ok: bool | None = True
                lam0 = None
            else:
                lam0 = None if subset is None else lam0_of(subset, t)
                if subset is None:
                    caveat_ok = None
                elif row.caveat == NEEDS_OUTSIDE:
                    caveat_ok = lam0 <= k - 1
                else:
                    caveat_ok = lam0 not in row.excluded_counts
            splits.append(SplitEvaluation(t, m, prime_ok, row.caveat, caveat_ok, lam0))
    order = {"yes": 0, "conditional": 1, "unknown": 2, "no": 3}
    verdict = "no"
    for s in splits:
        if order[s.verdict] < order[verdict]:
            verdict = s.verdict
    return ApplicabilityResult(n, k, verdict, False, tuple(splits), subset)
