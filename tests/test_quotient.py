import heapq
import random
import sys
from collections import Counter

import pytest

from nullseq.groups import enumerate_types
from nullseq.quotient import (
    QuotientSequencing,
    arrangement_count,
    bounding_degree,
    induced_degree,
    search_quotient,
    validate_quotient,
    window_pair_count,
)

from reference import enumerate_arrangements


class TestQuotientSequencing:
    def test_partial_sums(self):
        qs = QuotientSequencing((0, 1, 0, 0, 1), 2)
        assert qs.b == (0, 0, 1, 1, 1, 0)
        assert qs.k == 5
        assert qs.max_multiplicity == 3
        assert qs.type_vector() == (3, 2)

    def test_entry_range(self):
        with pytest.raises(ValueError):
            QuotientSequencing((0, 2), 2)

    def test_validate_quotient_type_mismatch(self):
        with pytest.raises(ValueError):
            validate_quotient((0, 1, 0, 0, 1), (2, 3))


class TestCountingFormulas:
    def test_window_pair_count_worked_example(self):
        # b = (0,0,1,1,1,0): surviving pairs are (1,5) and (2,4)
        assert window_pair_count((0, 0, 1, 1, 1, 0)) == 2

    def test_window_pair_count_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(1, 9)
            t = rng.randint(1, 5)
            b = (0,) + tuple(rng.randrange(t) for _ in range(k))
            brute = sum(
                1
                for i in range(k + 1)
                for j in range(i + 1, k + 1)
                if b[i] == b[j] and j != i + 1 and (i, j) != (0, k)
            )
            assert window_pair_count(b) == brute, b

    def test_induced_degree_worked_example(self):
        qs = validate_quotient((0, 1, 0, 0, 1), (3, 2))
        assert induced_degree((3, 2), qs.b) == 6

    def test_bounding_degree(self):
        assert bounding_degree((3, 2)) == 8
        assert bounding_degree((10, 0)) == 90
        assert bounding_degree((11,)) == 110

    def test_arrangement_count_matches_enumeration(self):
        for lam in [(3, 2), (2, 2, 1), (4,), (1, 1, 1, 1), (0, 3)]:
            arrangements = list(enumerate_arrangements(lam))
            assert len(arrangements) == arrangement_count(lam)
            assert len(set(arrangements)) == len(arrangements)
            assert arrangements == sorted(arrangements)
            for a in arrangements:
                assert tuple(Counter(a).get(v, 0) for v in range(len(lam))) == lam

    def test_empty_type(self):
        assert list(enumerate_arrangements((0, 0))) == [()]

    def test_reference_enumeration_is_sympys(self):
        from sympy.utilities.iterables import multiset_permutations

        for lam in [(3, 2), (2, 2, 1), (4,), (1, 1, 1, 1), (0, 3), (2, 0, 3), (3, 3, 2)]:
            pool = [v for v, c in enumerate(lam) for _ in range(c)]
            assert list(enumerate_arrangements(lam)) == [
                tuple(perm) for perm in multiset_permutations(pool)
            ]


class TestSearch:
    def test_exhaustive_small(self):
        result = search_quotient((3, 2), limit=10)
        assert result.scanned == 10
        top = result.candidates
        assert top[0] == (6, 3, (0, 1, 0, 0, 1))
        assert top[1][2] == (1, 0, 0, 1, 0)
        assert list(top) == sorted(top)

    def test_single_arrangement_type(self):
        result = search_quotient((10, 0), limit=10)
        assert result.scanned == 1
        assert result.candidates == ((89, 11, (0,) * 10),)

    def test_size_10_balanced_type(self):
        result = search_quotient((9, 1), limit=3)
        assert result.candidates[0][::2] == (52, (0, 0, 0, 0, 0, 1, 0, 0, 0, 0))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            search_quotient((0, 0), limit=10)
        for limit in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                search_quotient((3, 2), limit=limit)

    def test_past_a_million_arrangements(self):
        # past a million arrangements (k = 13) the ranking is still exact
        lam = (4, 3, 3, 3)
        result = search_quotient(lam, limit=30)
        assert result.scanned == arrangement_count(lam) == 1_201_200
        top = result.candidates
        assert len(top) == 30
        assert list(top) == sorted(set(top))
        for degree, mult, a in top:
            qs = validate_quotient(a, lam)
            assert (degree, mult) == (induced_degree(lam, qs.b), qs.max_multiplicity)


def _brute_force(lam, limit=None):
    """(degree, max multiplicity, a) of every arrangement, sorted, scored by
    the reference functions."""
    def scored():
        for a in enumerate_arrangements(lam):
            qs = QuotientSequencing(a, len(lam))
            yield induced_degree(lam, qs.b), qs.max_multiplicity, a

    if limit is None:
        return sorted(scored())
    return heapq.nsmallest(limit, scored())


class TestRankedWalk:
    def test_matches_the_brute_force_sort(self):
        for t in range(1, 5):
            for k in range(1, 8):
                for lam in enumerate_types(k, t):
                    brute = _brute_force(lam)
                    for limit in (1, 3, 30, len(brute)):
                        result = search_quotient(lam, limit=limit)
                        assert result.scanned == len(brute)
                        assert list(result.candidates) == brute[:limit], (lam, limit)

    def test_ties_at_the_cut(self):
        # every one of the top 30 has degree 24, the worst kept degree, so
        # the order among them rests on multiplicity and on a alone
        result = search_quotient((3, 3, 3, 3), limit=30)
        top = list(result.candidates)
        assert {deg for deg, _, _ in top} == {24}
        assert top == _brute_force((3, 3, 3, 3), limit=30)

    def test_deeper_than_the_default_recursion_limit(self):
        depth = sys.getrecursionlimit()
        lam = (depth + 1000,)
        assert list(search_quotient(lam, limit=10).candidates) == _brute_force(lam)
        assert sys.getrecursionlimit() == depth
