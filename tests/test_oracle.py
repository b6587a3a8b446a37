import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from nullseq.groups import (
    LINEAR,
    ROTATIONAL,
    Cyclic,
    GroupConfig,
    classify_sequencing,
    subset_sum,
    type_of,
)
from nullseq.oracle import (
    AUTO,
    LINEAR_ONLY,
    MAX_LISTED_FAILURES,
    MAX_ORACLE_SIZE,
    MAX_SAMPLED_N,
    ROTATIONAL_ONLY,
    InfeasibleVerification,
    _class_minima,
    _class_representatives,
    _elements,
    _kind_allows,
    _residue_map,
    _type_pools,
    all_sequencings,
    canonical_subset,
    find_sequencing,
    scan_group,
    verify_nonvanishing_conclusion,
)
from nullseq.reports import verification_record


class TestFindSequencing:
    def test_found_orderings_classify(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(3, 15)
            group = Cyclic(n)
            k = rng.randint(1, min(6, n - 1))
            subset = rng.sample(range(1, n), k)
            seq = find_sequencing(subset, group)
            if seq is None:
                continue
            kind = classify_sequencing(subset, seq, group)
            expected = (
                ROTATIONAL if subset_sum(subset, group) == group.zero else LINEAR
            )
            assert kind == expected
            assert sorted(seq) == sorted(subset)

    def test_mode_filters(self):
        group = Cyclic(6)
        zero_sum = [1, 2, 3]  # sums to 0 mod 6
        nonzero = [1, 2, 4]  # sums to 1 mod 6
        assert find_sequencing(zero_sum, group, LINEAR_ONLY) is None
        assert find_sequencing(zero_sum, group, ROTATIONAL_ONLY) is not None
        assert find_sequencing(nonzero, group, ROTATIONAL_ONLY) is None
        assert find_sequencing(nonzero, group, LINEAR_ONLY) is not None

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            find_sequencing([1], Cyclic(5), mode="sideways")
        with pytest.raises(ValueError, match="unknown mode"):
            find_sequencing((), Cyclic(5), mode="bogus")

    def test_empty_subset(self):
        # the empty ordering closes at the identity, so it is rotational
        group = Cyclic(9)
        assert classify_sequencing((), (), group) == ROTATIONAL
        assert find_sequencing([], group) == ()
        assert find_sequencing([], group, ROTATIONAL_ONLY) == ()
        assert find_sequencing([], group, LINEAR_ONLY) is None
        assert all_sequencings([], Cyclic(9)) == [()]

    def test_size_guard(self):
        group = Cyclic(50)
        with pytest.raises(ValueError):
            find_sequencing(list(range(1, MAX_ORACLE_SIZE + 2)), group)

    def test_product_group(self):
        group = GroupConfig(5, 2)
        subset = [(1, 0), (2, 1), (3, 1)]
        seq = find_sequencing(subset, group)
        assert seq is not None
        assert classify_sequencing(subset, seq, group) is not None


class TestAllSequencings:
    def test_matches_permutation_filter(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(3, 11)
            group = Cyclic(n)
            k = rng.randint(1, min(5, n - 1))
            subset = tuple(rng.sample(range(1, n), k))
            via_dfs = set(all_sequencings(subset, group))
            via_filter = {
                perm
                for perm in itertools.permutations(subset)
                if classify_sequencing(subset, perm, group) is not None
            }
            assert via_dfs == via_filter

    def test_consistent_with_find(self):
        group = Cyclic(11)
        subset = (1, 3, 7)
        seqs = all_sequencings(subset, group)
        assert find_sequencing(subset, group) == seqs[0]

    def test_size_guard(self):
        with pytest.raises(ValueError):
            all_sequencings(list(range(1, 11)), Cyclic(20))


def _points(group):
    if isinstance(group, Cyclic):
        return list(range(1, group.n))
    return [(x, v) for x in range(group.p) for v in range(group.t) if (x, v) != (0, 0)]


ORDER_GROUPS = [Cyclic(n) for n in range(2, 10)] + [
    GroupConfig(p, t) for p, t in [(3, 1), (3, 2), (5, 2), (3, 4), (5, 3)]
]


class TestSearchOrder:
    """The DFS order against itertools.permutations of the sorted subset.

    Independent of the search: every permutation is classified with
    groups.classify_sequencing, so a search that skips or reorders orderings
    (for instance by sorting product-group elements by some encoding) fails.
    """

    @pytest.mark.parametrize("group", ORDER_GROUPS, ids=repr)
    def test_first_and_all_orderings(self, group):
        max_k = 5 if isinstance(group, Cyclic) else 4
        accepts = {
            AUTO: (LINEAR, ROTATIONAL),
            LINEAR_ONLY: (LINEAR,),
            ROTATIONAL_ONLY: (ROTATIONAL,),
        }
        points = _points(group)
        for k in range(min(max_k, len(points)) + 1):
            for subset in itertools.combinations(points, k):
                kinds = [
                    (perm, classify_sequencing(subset, perm, group))
                    for perm in itertools.permutations(sorted(subset))
                ]
                for mode, ok in accepts.items():
                    first = next((perm for perm, kind in kinds if kind in ok), None)
                    assert find_sequencing(subset, group, mode) == first, (subset, mode)
                expected = [perm for perm, kind in kinds if kind is not None]
                assert all_sequencings(subset, group) == expected, subset


class TestCanonicalSubset:
    def test_idempotent_and_unit_invariant(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(3, 20)
            k = rng.randint(1, min(5, n - 1))
            subset = tuple(sorted(rng.sample(range(1, n), k)))
            canon = canonical_subset(subset, n)
            assert canon <= subset
            assert canonical_subset(canon, n) == canon
            units = [u for u in range(1, n) if math.gcd(u, n) == 1]
            u = rng.choice(units)
            image = tuple(sorted((u * s) % n for s in subset))
            assert canonical_subset(image, n) == canon

    def test_example(self):
        # {2, 4} in Z_5 maps to {1, 2} under u = 3
        assert canonical_subset((2, 4), 5) == (1, 2)


class TestClassMinima:
    """The reduced scan's candidates against canonical_subset of every subset.

    Composite n gives subsets made of non-units only, which the rule walks
    separately (n = 21 has 8 non-units, n = 18 and 20 have 11).
    """

    @pytest.mark.parametrize("n", [2, 9, 12, 16, 18, 20, 21])
    def test_kept_sets_are_the_class_minima(self, n):
        for k in range(1, n):
            if math.comb(n - 1, k) > 20_000:
                continue
            minima = sorted(
                {canonical_subset(s, n) for s in itertools.combinations(range(1, n), k)}
            )
            for kind in (AUTO, LINEAR_ONLY, ROTATIONAL_ONLY):
                allows = {zero: _kind_allows(zero, kind) for zero in (False, True)}
                expected = [s for s in minima if allows[sum(s) % n == 0]]
                assert list(_class_minima(n, k, allows)) == expected, (n, k, kind)
                assert scan_group(n, k, kind).scanned == len(expected)


class TestScanGroup:
    def test_frozen_small(self):
        r = scan_group(9, 3)
        assert (r.scanned, r.sequenceable) == (10, 10)
        assert r.all_sequenceable
        assert not r.sampled and r.seed is None
        assert r.failures == ()

    def test_frozen_rotational(self):
        r = scan_group(7, 2, ROTATIONAL_ONLY)
        assert (r.scanned, r.sequenceable) == (1, 1)

    def test_reduction_preserves_verdict(self):
        # the reference: find_sequencing on every subset, not one per class
        for n, k in [(8, 3), (9, 4), (12, 3)]:
            group = Cyclic(n)
            subsets = list(itertools.combinations(range(1, n), k))
            failing = [s for s in subsets if find_sequencing(s, group) is None]
            classes = {canonical_subset(s, n) for s in subsets}
            r = scan_group(n, k)
            assert r.all_sequenceable == (not failing)
            assert r.failures == tuple(sorted({canonical_subset(s, n) for s in failing}))
            assert (r.scanned, r.sequenceable) == (len(classes), len(classes) - len(r.failures))

    def test_reduction_keeps_one_subset_per_class(self):
        for n, k in [(12, 4), (15, 5), (16, 6), (17, 4)]:
            subsets = itertools.combinations(range(1, n), k)
            classes = {canonical_subset(s, n) for s in subsets}
            assert scan_group(n, k).scanned == len(classes)

    def test_kind_filter_partitions(self):
        full = scan_group(8, 3, AUTO)
        lin = scan_group(8, 3, LINEAR_ONLY)
        rot = scan_group(8, 3, ROTATIONAL_ONLY)
        # a unit multiple keeps a zero sum zero, so the kinds split classes
        classes = {canonical_subset(s, 8) for s in itertools.combinations(range(1, 8), 3)}
        zero_sum = sum(sum(c) % 8 == 0 for c in classes)
        assert full.scanned == lin.scanned + rot.scanned == len(classes) == 12
        assert (lin.scanned, rot.scanned) == (len(classes) - zero_sum, zero_sum) == (10, 2)
        assert full.sequenceable == lin.sequenceable + rot.sequenceable

    def test_sampling_deterministic(self):
        a = scan_group(25, 6, count=30, seed=5)
        b = scan_group(25, 6, count=30, seed=5)
        assert a == b
        assert a.sampled and a.seed == 5 and a.scanned == 30
        c = scan_group(25, 6, count=30, seed=6)
        assert c.scanned == 30

    def test_guards(self):
        with pytest.raises(ValueError):
            scan_group(50, 3)  # exhaustive beyond the n cap
        with pytest.raises(ValueError):
            scan_group(40, 20)  # too many subsets
        with pytest.raises(ValueError):
            scan_group(1, 1)
        with pytest.raises(ValueError):
            scan_group(6, 6)
        with pytest.raises(ValueError, match="beyond 20 elements"):
            scan_group(25, 21)  # k above MAX_ORACLE_SIZE
        scan_group(50, 3, count=5, seed=0)  # sampling is allowed past the cap

    def test_sampled_n_cap(self, monkeypatch):
        # the search's bit sets are indexed by residue, so a sampled scan
        # past the cap is refused before it draws or searches anything
        def no_search(*args):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr("nullseq.oracle._search", no_search)
        with pytest.raises(ValueError, match=f"n <= {MAX_SAMPLED_N}"):
            scan_group(MAX_SAMPLED_N + 1, 6, count=3)
        monkeypatch.undo()
        monkeypatch.setattr("nullseq.oracle.MAX_SAMPLED_N", 30)
        assert scan_group(30, 6, count=3).scanned == 3
        with pytest.raises(ValueError, match="n <= 30"):
            scan_group(31, 6, count=3)

    def test_unknown_kind_refused_up_front(self):
        # Z_3 with k = 2 has one subset, {1, 2}, and it sums to zero, so the
        # linear filter keeps none; the unknown kind is still refused
        assert scan_group(3, 2, LINEAR_ONLY).scanned == 0
        with pytest.raises(ValueError, match="unknown mode"):
            scan_group(3, 2, kind="bogus")
        with pytest.raises(ValueError, match="unknown mode"):
            scan_group(25, 6, kind="bogus", count=5)

    def test_short_sample_refused(self):
        # the rotational filter keeps only zero-sum subsets: no nonzero
        # singleton of Z_25, and the 12 pairs {x, 26 - x} of Z_26
        with pytest.raises(ValueError, match="found 0 of the 5 .* in 1000 draws"):
            scan_group(25, 1, ROTATIONAL_ONLY, count=5)
        with pytest.raises(ValueError, match="found 12 of the 50 .* in 10000 draws"):
            scan_group(26, 2, ROTATIONAL_ONLY, count=50)
        full = scan_group(26, 2, ROTATIONAL_ONLY, count=12)
        assert full.scanned == 12 and full.failures == ()

    @pytest.mark.parametrize("count", [0, -3])
    def test_sampling_needs_a_positive_count(self, count):
        # an empty sample would report every subset sequenceable
        with pytest.raises(ValueError, match="at least 1"):
            scan_group(25, 6, count=count)


def _fails(*subset, a, p, t):
    """Does no ordering of the subset of Z_p x Z_t follow the arrangement a
    with distinct partial sums?  Every permutation is classified."""
    group = GroupConfig(p, t)
    return not any(
        tuple(v for _, v in perm) == a and classify_sequencing(subset, perm, group) is not None
        for perm in itertools.permutations(subset)
    )


def _class_minimum(subset, p, t):
    """The least image of the subset under (x, v) -> (u*x, v), compared as
    the tuple of its sorted first-coordinate pools, as sorted elements."""
    pools = min(
        tuple(tuple(sorted(u * x % p for x, v in subset if v == w)) for w in range(t))
        for u in range(1, p)
    )
    return tuple(sorted((x, w) for w, pool in enumerate(pools) for x in pool))


class TestVerifyConclusion:
    def test_worked_case_small_prime(self):
        r = verify_nonvanishing_conclusion(5, 2, (3, 2), (0, 1, 0, 0, 1))
        assert r.ok
        assert r.subsets_checked == math.comb(4, 3) * math.comb(5, 2) == 40
        assert r.a == (0, 1, 0, 0, 1)

    def test_worked_case_larger_prime(self):
        r = verify_nonvanishing_conclusion(7, 2, (3, 2), (0, 1, 0, 0, 1))
        assert r.ok and r.subsets_checked == 420

    @pytest.mark.parametrize(
        "lam, a, subsets",
        [((0, 0), (), 1), ((1, 0), (0,), 4), ((0, 1), (1,), 5)],
    )
    def test_zero_and_one_element_types(self, lam, a, subsets):
        r = verify_nonvanishing_conclusion(5, 2, lam, a)
        assert r.ok and r.subsets_checked == subsets

    def test_max_subsets_refuses(self):
        with pytest.raises(ValueError, match="40 subsets"):
            verify_nonvanishing_conclusion(5, 2, (3, 2), (0, 1, 0, 0, 1), max_subsets=7)
        r = verify_nonvanishing_conclusion(5, 2, (3, 2), (0, 1, 0, 0, 1), max_subsets=40)
        assert r.subsets_checked == 40 and r.ok

    def test_identity_coset_infeasible(self):
        with pytest.raises(InfeasibleVerification, match="identity-coset"):
            verify_nonvanishing_conclusion(3, 2, (3, 2), (0, 1, 0, 0, 1))

    def test_multiplicity_infeasible(self):
        with pytest.raises(InfeasibleVerification, match="repeat 4 times"):
            verify_nonvanishing_conclusion(3, 2, (2, 3), (1, 1, 1, 0, 0))

    def test_inconsistent_input(self):
        with pytest.raises(ValueError, match="inconsistent"):
            verify_nonvanishing_conclusion(5, 2, (3, 2), (0, 1, 0, 1))
        with pytest.raises(ValueError, match="not an arrangement"):
            verify_nonvanishing_conclusion(5, 2, (3, 2), (0, 1, 1, 0, 1))

    def test_failure_reported_not_raised(self):
        # p = 3 is too small for this arrangement: two of the six subsets
        # have no ordering that follows it, and the unit 2 maps one to the
        # other, so the report lists their class by its minimum
        r = verify_nonvanishing_conclusion(3, 2, (1, 2), (0, 1, 1))
        assert (r.subsets_checked, r.searched) == (6, 3)
        assert not r.ok
        assert r.failures == (((1, 0), (1, 1), (2, 1)),)
        assert _fails((1, 1), (2, 0), (2, 1), a=(0, 1, 1), p=3, t=2)

    @pytest.mark.parametrize(
        "p, t, lam, a, subsets, checked",
        [(5, 3, (2, 1, 1), (0, 1, 2, 0), 150, 130), (5, 3, (1, 2, 1), (1, 0, 2, 1), 200, 188)],
    )
    def test_a_check_stopped_early_says_so(self, p, t, lam, a, subsets, checked):
        # the listing stops at the MAX_LISTED_FAILURES-th failing class; the
        # record still names the type's subset count, so the partial count
        # reads as partial
        r = verify_nonvanishing_conclusion(p, t, lam, a)
        assert len(r.failures) == MAX_LISTED_FAILURES
        assert (r.subsets, r.subsets_checked) == (subsets, checked)
        assert r.subsets == math.comb(p - 1, lam[0]) * math.prod(math.comb(p, c) for c in lam[1:])
        for subset in r.failures:
            assert _fails(*subset, a=a, p=p, t=t)
            assert _class_minimum(subset, p, t) == subset
        assert len(set(r.failures)) == MAX_LISTED_FAILURES
        rec = verification_record(r)
        assert (rec["subsets"], rec["subsets_checked"]) == (subsets, checked)

    @pytest.mark.parametrize(
        "p, t, lam, a",
        [
            (3, 2, (1, 2), (0, 1, 1)),
            (3, 2, (2, 3), (0, 1, 0, 1, 1)),
            (2, 3, (0, 2, 1), (1, 2, 1)),
            (5, 2, (2, 1), (0, 0, 1)),
            (5, 2, (1, 4), (0, 1, 1, 1, 1)),
            (5, 3, (2, 0, 1), (2, 0, 0)),
            (5, 2, (3, 2), (0, 1, 0, 0, 1)),
            (5, 1, (3,), (0, 0, 0)),
            # pools {1, 4} and {2, 3} are fixed by the unit 4
            (5, 2, (2, 2), (0, 1, 0, 1)),
            # pool 0 is fixed by every unit
            (5, 2, (4, 1), (0, 0, 0, 0, 1)),
            # pools that hold only 0 before the first with a nonzero coordinate
            (5, 3, (0, 1, 3), (1, 2, 2, 2)),
            (5, 3, (0, 1, 3), (2, 1, 2, 2)),
            # p = 2: 1 is the only unit, every class has one subset
            (2, 5, (1, 1, 0, 1, 1), (0, 3, 1, 4)),
            (2, 3, (1, 1, 1), (1, 0, 2)),
        ],
    )
    def test_failures_match_permutation_filter(self, p, t, lam, a):
        # independent of the DFS and of the class rule: every subset of the
        # type, every ordering, and the failing classes' minima by brute force
        points = [(x, v) for x in range(p) for v in range(t) if (x, v) != (0, 0)]
        subsets = [
            s for s in itertools.combinations(points, len(a)) if type_of(s, t) == lam
        ]
        expected = {_class_minimum(s, p, t) for s in subsets if _fails(*s, a=a, p=p, t=t)}
        r = verify_nonvanishing_conclusion(p, t, lam, a)
        assert r.subsets_checked == len(subsets)
        assert r.searched == len({_class_minimum(s, p, t) for s in subsets})
        assert set(r.failures) == expected
        assert len(r.failures) == len(expected)

    def test_searches_one_subset_per_class(self):
        # 60 subsets in 16 classes; the record says how many were searched
        r = verify_nonvanishing_conclusion(5, 2, (2, 2), (0, 1, 0, 1))
        assert r.ok and (r.subsets, r.subsets_checked, r.searched) == (60, 60, 16)
        assert verification_record(r)["searched"] == 16
        # a failing class is searched once too: 6 subsets in 3 classes
        r = verify_nonvanishing_conclusion(3, 2, (1, 2), (0, 1, 1))
        assert not r.ok and (r.subsets, r.subsets_checked, r.searched) == (6, 6, 3)


class TestClassRepresentatives:
    """verify's representatives against the unit classes found by brute force."""

    @pytest.mark.parametrize(
        "p, t, lam",
        [
            (2, 3, (1, 1, 1)),
            (3, 2, (1, 2)),
            (3, 2, (0, 3)),
            (3, 4, (0, 1, 1, 2)),
            (5, 2, (0, 0)),
            (5, 2, (2, 2)),
            (5, 2, (4, 1)),
            (5, 3, (0, 1, 3)),
            (5, 3, (0, 1, 1)),
            (5, 4, (0, 1, 0, 2)),
            (7, 2, (3, 2)),
            (7, 3, (1, 2, 2)),
        ],
    )
    def test_representatives_are_the_class_minima(self, p, t, lam):
        group = GroupConfig(p, t)
        subsets = itertools.product(
            *(itertools.combinations(range(v == 0, p), c) for v, c in enumerate(lam))
        )
        expected = Counter(
            min(tuple(tuple(sorted(u * x % p for x in pool)) for pool in s) for u in range(1, p))
            for s in subsets
        )
        elements = _elements(group)
        found = {}
        spaces = _type_pools(group, lam)
        for pools, pools_sum, size in _class_representatives(group, lam, *spaces, elements):
            assert pools_sum == sum(map(sum, pools))
            key = tuple(tuple(sorted(elements[r][0] for r in pool)) for pool in pools)
            assert key not in found
            found[key] = size
        assert found == dict(expected)

    def test_class_sizes_sum_to_the_subset_count(self):
        # orbit-stabilizer on every type of the benchmark's verify pool with p <= 13
        pool = Path(__file__).resolve().parents[1] / "perfbench" / "oracle_pool.json"
        jobs = [job for job in json.loads(pool.read_text())["jobs"] if job["p"] <= 13]
        assert len(jobs) > 100
        for job in jobs:
            group = GroupConfig(job["p"], job["t"])
            lam = tuple(map(int, job["lam"].split(",")))
            spaces = _type_pools(group, lam)
            representatives = _class_representatives(group, lam, *spaces, _elements(group))
            sizes = [size for *_, size in representatives]
            assert sum(sizes) == job["subsets"] == math.prod(map(len, spaces[0])), job
            assert all((job["p"] - 1) % size == 0 for size in sizes)


class TestTypePools:
    @pytest.mark.parametrize(
        "p, t, lam",
        [
            (2, 3, (1, 1, 1)),
            (3, 2, (0, 3)),
            (5, 2, (0, 0)),
            (5, 2, (4, 1)),
            # pool 1 can hold only 0 in a class minimum before pool 2
            (5, 3, (0, 1, 3)),
            (5, 4, (0, 1, 0, 2)),
            (7, 3, (1, 2, 2)),
            (11, 2, (3, 2)),
        ],
    )
    def test_spaces_are_the_element_pools_as_residues(self, p, t, lam):
        # each pool space is every pool of (x, v) elements, the identity left
        # out, mapped to residues mod pt, in first-coordinate order
        group = GroupConfig(p, t)
        residue = _residue_map(group)
        pools_space, sums_space = _type_pools(group, lam)
        assert pools_space == [
            [
                tuple(map(residue, pool))
                for pool in itertools.combinations(
                    [(x, v) for x in range(v == 0, p)], lam[v]
                )
            ]
            for v in range(t)
        ]
        assert sums_space == [[sum(pool) for pool in pools] for pools in pools_space]


class TestOracleAgainstItself:
    def test_scan_agrees_with_all_sequencings(self):
        group = Cyclic(8)
        for subset in itertools.combinations(range(1, 8), 3):
            found = find_sequencing(subset, group) is not None
            assert found == bool(all_sequencings(subset, group))
