"""Brute-force ground truth: exhaustive sequencing search and scanners.

Independent of the polynomial pipeline: orderings are searched directly by
one depth-first search (``_search``), which the finders, the scans of small
cyclic groups and the verification of certificates on small concrete groups
all use.  It works on residues mod n.  An element of Z_p x Z_t becomes a
residue through the isomorphism onto Z_pt (gcd(p, t) = 1),
(x, v) -> (x*t + v*p) mod pt, and is mapped back on output; each slot is
encoded in place, so candidates keep their order.  Used elements and
partial sums are int bit sets, and the search is one loop over an explicit
stack of open depths.

Every ordering uses the whole subset, so its last partial sum is the subset
sum S.  The search bars S, like the identity, at every earlier depth: a walk
that reaches S early cannot end with distinct partial sums.  The last
element is then S minus the sum before it and needs no test.  The cut only
removes subtrees without a valid leaf, so the orderings found, and their
order, are those of the uncut search.

An exhaustive scan searches one subset per class of unit multiples, the
class's lexicographic minimum, and generates only the subsets that can be
one.  A subset S that holds a unit s but not 1 is never a minimum: s^-1 S
holds 1, so it sorts below S.  If 1 is in S and some unit multiple uS sorts
below S, then uS starts with 1 as well, so u*s = 1 for some s in S: u is
the inverse of a unit of S.  The scan therefore walks the sets (1,) + rest,
testing only the inverses of the units in rest, then the sets made of
non-units only, testing every unit; every set of the first kind sorts
before every set of the second, so the kept list is in lexicographic order.
A failing class is listed by its minimum.

Verification uses the same rule in Z_p x Z_t, where (x, v) -> (u*x, v)
with u a unit mod p is an automorphism that keeps the type, the pattern of
second coordinates and the distinctness of partial sums (on residues it is
multiplication by the unit that is u mod p and 1 mod t).  A subset is the
tuple of its sorted first-coordinate pools, one per residue v, and each
class is searched once, through its lexicographic minimum.  Units fix 0,
so in a minimum every pool before the first pool w holding a nonzero
coordinate holds only 0 or nothing, and pool w's least nonzero coordinate
is 1: it is (1,) + rest, or (0, 1) + rest when w >= 1.  A multiple that
sorts below it must bring pool w to a pool holding 1, so only u = s^-1
for the nonzero s of pool w are tested, on pool w first and on the later
pools only for the u that fix pool w.  The stabilizer lies among 1 and
these u, so it is counted on the way, and the class has
(p - 1) / |stabilizer| subsets.  The scan's first walk is the case t = 1
of this one, with the non-units of Z_n left out of the tests.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from .groups import GroupConfig, subset_sum, validate_subset
from .quotient import validate_quotient

MAX_ORACLE_SIZE = 20
# scan and verify records list at most this many failing subsets
MAX_LISTED_FAILURES = 20

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


def _residue_map(group):
    """The map from elements of group to residues mod group.n.

    Elements of Z_n are their own residues; (x, v) in Z_p x Z_t maps to
    (x*t + v*p) mod pt, an isomorphism because gcd(p, t) = 1.
    """
    if isinstance(group, GroupConfig):
        p, t = group.p, group.t
        return lambda el: (el[0] * t + el[1] * p) % (p * t)
    return lambda el: el


def _search(slots, total, n, find_all):
    """Orderings taking one unused residue of slots[d] at each depth d.

    The slots hold k distinct nonzero residues mod n between them, and every
    full ordering uses each of them once; total is their sum S mod n.
    Partial sums must be distinct, except that the last one, S, may be 0 (a
    zero-sum subset closing rotationally).  Candidates are tried in slot
    order.  Returns the first ordering found (or none) as a list, or with
    find_all every ordering in DFS order.

    S is barred, like 0, at each depth before the last, since a walk that
    reaches it early cannot end with distinct sums; the last element is then
    S minus the partial sum before it, with nothing to test.
    """
    k = len(slots)
    last = k - 1
    if last < 1:
        return [(total,) * k]  # () or the one element: nothing to search
    out: list[tuple] = []
    prefix = [0] * k
    # one frame per open depth: its candidates still to try, the partial sum
    # before it, and bit sets of the used residues and of the barred sums
    # (0, S and every partial sum so far)
    stack = [(iter(slots[0]), 0, 0, 1 | 1 << total)]
    while stack:
        d = len(stack)
        todo, acc, used, barred = stack[-1]
        for e in todo:
            s = (acc + e) % n
            if not (used >> e | barred >> s) & 1:
                break
        else:
            stack.pop()
            continue
        prefix[d - 1] = e
        if d < last:
            stack.append((iter(slots[d]), s, used | 1 << e, barred | 1 << s))
            continue
        prefix[last] = (total - s) % n
        out.append(tuple(prefix))
        if not find_all:
            break
    return out


def _orderings(elems, group, find_all):
    """_search over every ordering of elems, in sorted order, as elements."""
    residue = _residue_map(group)
    slot = sorted(elems)
    element = {residue(e): e for e in slot}
    residues = [residue(e) for e in slot]
    n = group.n
    found = _search([residues] * len(slot), sum(residues) % n, n, find_all)
    return [tuple(element[r] for r in ordering) for ordering in found]


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
    found = _orderings(elems, group, False)
    return found[0] if found else None


def all_sequencings(elements, group):
    """Every valid ordering, in DFS order (small subsets only)."""
    elems = validate_subset(elements, group)
    if len(elems) > 8:
        raise ValueError("full enumeration limited to 8 elements")
    return _orderings(elems, group, True)


def canonical_subset(subset, n: int) -> tuple[int, ...]:
    """Smallest unit multiple of the subset of Z_n, as a sorted tuple.

    Multiplying a subset by a unit is a group automorphism, so it preserves
    sequenceability; scanning one representative per class suffices.
    """
    return min(
        tuple(sorted([u * s % n for s in subset]))
        for u in range(1, n)
        if math.gcd(u, n) == 1
    )


def _fixing(xs, rows):
    """The maps in rows (lists indexed by residue) that fix the sorted tuple
    xs, or None when one maps it below itself."""
    fixing = []
    for row in rows:
        image = tuple(sorted(map(row.__getitem__, xs)))
        if image < xs:
            return None
        if image == xs:
            fixing.append(row)
    return fixing


def _least_pools(p, w, size, inverse):
    """The pools of size residues mod p in residue w that hold 1 as their
    least nonzero residue and that no unit multiple sorts below, each with
    the maps of the units other than 1 that fix it.  inverse[s] is the map
    x -> s^-1 x, or None when s is not a unit; only these units can bring
    the pool to one holding 1."""
    # pool 0 cannot hold 0, since (0, 0) is the identity
    starts = [(1,)] + ([(0, 1)] if w and size >= 2 else [])
    for start in starts:
        for rest in itertools.combinations(range(2, p), size - len(start)):
            xs = start + rest
            fixing = _fixing(xs, filter(None, map(inverse.__getitem__, rest)))
            if fixing is not None:
                yield xs, fixing


def _class_minima(n: int, k: int, allows):
    """The k-subsets of Z_n \\ {0} that are the smallest of their unit-multiple
    class and whose sum the kind allows, in lexicographic order (the rule is
    in the module docstring)."""
    # inverse[x] maps e to x^-1 * e when x is a unit, and is None otherwise
    inverse = [None] * n
    for x in range(2, n):
        if math.gcd(x, n) == 1:
            inverse[x] = [pow(x, -1, n) * e % n for e in range(n)]
    for s, _ in _least_pools(n, 0, k, inverse):
        if allows[sum(s) % n == 0]:
            yield s
    every_unit = [row for row in inverse if row]  # the inverses are all units
    nonunits = [x for x in range(2, n) if inverse[x] is None]
    for s in itertools.combinations(nonunits, k):
        if allows[sum(s) % n == 0] and _fixing(s, every_unit) is not None:
            yield s


@dataclass(frozen=True)
class ScanReport:
    n: int
    k: int
    kind: str
    scanned: int
    sequenceable: int
    failures: tuple[tuple[int, ...], ...]
    sampled: bool
    seed: int | None

    @property
    def all_sequenceable(self) -> bool:
        return self.scanned == self.sequenceable


MAX_EXHAUSTIVE_N = 40
MAX_EXHAUSTIVE_SUBSETS = 10_000_000
# the search's bit sets are indexed by residue, so a sampled scan holds
# n-bit ints: 2 MB each at this cap
MAX_SAMPLED_N = 1 << 24


def scan_group(
    n: int,
    k: int,
    kind: str = AUTO,
    count: int | None = None,
    seed: int = 0,
) -> ScanReport:
    """Scan size-k subsets of Z_n \\ {0} for sequencings.

    Exhaustive by default, over one subset per class of unit multiples, the
    class's lexicographic minimum, generated by the rule in the module
    docstring; a failing class is listed by its minimum.  count switches to
    sampling mode: that many distinct random subsets (seeded, recorded in
    the report), for n up to MAX_SAMPLED_N; a ValueError when count * 200
    draws find fewer.  kind filters to subsets whose sum permits that kind
    of sequencing.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= k <= n-1, got n={n} k={k}")
    if k > MAX_ORACLE_SIZE:
        raise ValueError(
            f"exhaustive search refused beyond {MAX_ORACLE_SIZE} elements"
        )
    if count is not None and count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    allows = {zero_sum: _kind_allows(zero_sum, kind) for zero_sum in (False, True)}
    if count is None:
        if n > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive scans are limited to n <= {MAX_EXHAUSTIVE_N}")
        if math.comb(n - 1, k) > MAX_EXHAUSTIVE_SUBSETS:
            raise ValueError(
                f"{math.comb(n - 1, k)} subsets exceed the exhaustive budget; "
                f"use sampling (count=...)"
            )
        subsets = list(_class_minima(n, k, allows))
        used_seed = None
    else:
        if n > MAX_SAMPLED_N:
            raise ValueError(f"sampled scans are limited to n <= {MAX_SAMPLED_N}")
        rng = random.Random(seed)
        population = range(1, n)
        chosen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(chosen) < count and attempts < count * 200:
            s = tuple(sorted(rng.sample(population, k)))
            attempts += 1
            if allows[sum(s) % n == 0]:
                chosen.add(s)
        if len(chosen) < count:
            raise ValueError(
                f"sampling found {len(chosen)} of the {count} distinct subsets asked "
                f"for in {attempts} draws"
            )
        subsets = sorted(chosen)
        used_seed = seed
    ok = 0
    failures = []
    for subset in subsets:
        if _search([subset] * k, sum(subset) % n, n, False):
            ok += 1
        else:
            failures.append(subset)
    return ScanReport(
        n,
        k,
        kind,
        len(subsets),
        ok,
        tuple(failures[:MAX_LISTED_FAILURES]),
        count is not None,
        used_seed,
    )


class InfeasibleVerification(ValueError):
    """The requested (p, t, lam, a) admits no subsets or breaks a premise."""


@dataclass(frozen=True)
class VerificationReport:
    """subsets is the type's subset count, searched the number of class
    representatives searched and subsets_checked the summed sizes of their
    classes.  failures lists the minima of the failing classes; the check
    stops at the MAX_LISTED_FAILURES-th, so subsets_checked is below subsets
    exactly when some classes went unchecked."""

    p: int
    t: int
    lam: tuple[int, ...]
    a: tuple[int, ...]
    subsets: int
    subsets_checked: int
    searched: int
    failures: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _elements(group):
    """Every element of Z_p x Z_t, keyed by its residue mod pt."""
    residue = _residue_map(group)
    return {residue(e): e for e in itertools.product(range(group.p), range(group.t))}


def _type_pools(group, lam):
    """Per residue v, every pool a subset of type lam can hold there, as
    residues mod pt in the order of their first coordinates, and the sums
    of these pools."""
    residue = _residue_map(group)
    pools_space = []
    for v in range(group.t):
        # (0, 0) is the identity
        residues = [residue((x, v)) for x in range(v == 0, group.p)]
        pools_space.append(list(itertools.combinations(residues, lam[v])))
    return pools_space, [list(map(sum, pools)) for pools in pools_space]


def _stabilizer(pools, fixing, elements):
    """How many of 1 and the maps in fixing keep the residue pools (elements
    maps residues back to elements); 0 when one maps them below themselves."""
    later = tuple(tuple(elements[r][0] for r in pool) for pool in pools)
    size = 1
    for row in fixing:
        image = tuple(tuple(sorted(map(row.__getitem__, xs))) for xs in later)
        if image < later:
            return 0
        size += image == later
    return size


def _class_representatives(group, lam, pools_space, sums_space, elements):
    """One subset of type lam per class of first-coordinate unit multiples.

    Yields (residue pools, their unreduced residue sum, class size) for the
    lexicographic minimum of each class, by the rule in the module
    docstring; the spaces are those of _type_pools(group, lam) and elements
    is _elements(group).  The class size is (p - 1) / |stabilizer|, and the
    stabilizer lies among the units that fix pool w.
    """
    p, t = group.p, group.t
    residue = _residue_map(group)
    inverse = [None, None, *([pow(s, -1, p) * x % p for x in range(p)] for s in range(2, p))]
    head, head_sum = (), 0  # the pools before w, each holding only 0 or nothing
    for w in range(t):
        pools_later, sums_later = pools_space[w + 1:], sums_space[w + 1:]
        for xs, fixing in _least_pools(p, w, lam[w], inverse) if lam[w] else ():
            rs = tuple(residue((x, w)) for x in xs)
            prefix, prefix_sum = head + (rs,), head_sum + sum(rs)
            for pools, sums in zip(
                itertools.product(*pools_later), itertools.product(*sums_later)
            ):
                stabilizer = _stabilizer(pools, fixing, elements) if fixing else 1
                if stabilizer:
                    yield prefix + pools, prefix_sum + sum(sums), (p - 1) // stabilizer
        if lam[w] > (w > 0):
            return  # pool w holds a nonzero coordinate in every subset
        pool = tuple(residue((0, w)) for _ in range(lam[w]))
        head, head_sum = head + (pool,), head_sum + sum(pool)
    yield head, head_sum, 1  # only 0 and nothing: every unit fixes it


def verify_nonvanishing_conclusion(
    p: int, t: int, lam, a, max_subsets: int | None = None
) -> VerificationReport:
    """Exhaustively confirm the certified conclusion on a concrete group.

    For every subset of Z_p x Z_t of type lam, search an ordering whose
    second coordinates follow the arrangement a (a tuple of residues) and
    whose partial sums are all distinct (with the usual closing allowance
    for zero-sum subsets).  Certificates assert such an ordering exists
    whenever they are valid for p.  A type with more than max_subsets
    subsets (at least 1 when given) is refused with ValueError, not checked
    in part.

    (x, v) -> (u*x, v) with u a unit mod p is an automorphism that keeps
    the type, a and the distinctness of partial sums, so the members of a
    class pass or fail together.  The search runs on one subset per class,
    its lexicographic minimum, and counts the class's full size; a failing
    class is listed by its minimum.  The check stops at the
    MAX_LISTED_FAILURES-th failing class, and the report's subsets, the
    type's subset count, shows how far it got.
    """
    if max_subsets is not None and max_subsets < 1:
        raise ValueError(f"max_subsets must be at least 1, got {max_subsets}")
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
    total = math.comb(p - 1, lam[0]) * math.prod(math.comb(p, c) for c in lam[1:])
    if max_subsets is not None and total > max_subsets:
        raise ValueError(
            f"type {lam} has {total} subsets in Z_{p} x Z_{t}, more than "
            f"max_subsets={max_subsets}"
        )
    n = group.n
    pools_space, sums_space = _type_pools(group, lam)
    # the slots of one subset: its pool of residue a_d at each depth d
    # (itemgetter returns a bare item for one index and refuses none)
    slots = operator.itemgetter(*a) if len(a) > 1 else lambda pools: [pools[v] for v in a]
    element = _elements(group)
    checked = searched = 0
    failures = []
    representatives = _class_representatives(group, lam, pools_space, sums_space, element)
    for pools, pools_sum, size in representatives:
        searched += 1
        checked += size
        if not _search(slots(pools), pools_sum % n, n, False):
            failures.append(tuple(sorted(element[r] for pool in pools for r in pool)))
            if len(failures) >= MAX_LISTED_FAILURES:
                break
    return VerificationReport(p, t, lam, a, total, checked, searched, tuple(failures))
