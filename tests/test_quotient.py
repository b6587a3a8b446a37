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
    enumerate_arrangements,
    induced_degree,
    search_quotient,
    validate_quotient,
    window_pair_count,
)


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


class TestSearch:
    def test_exhaustive_small(self):
        result = search_quotient((3, 2))
        assert result.exhaustive
        assert result.scanned == 10
        top = result.candidates
        assert (top[0].qs.a, top[0].degree, top[0].max_multiplicity) == (
            (0, 1, 0, 0, 1), 6, 3,
        )
        assert top[1].qs.a == (1, 0, 0, 1, 0)
        degrees = [s.degree for s in top]
        assert degrees == sorted(degrees)
        assert all(s.feasible == (s.degree <= bounding_degree((3, 2))) for s in top)

    def test_single_arrangement_type(self):
        result = search_quotient((10, 0))
        assert result.exhaustive and result.scanned == 1
        only = result.candidates[0]
        assert only.qs.a == (0,) * 10
        assert only.degree == 89
        assert only.feasible  # 89 <= bounding degree 90

    def test_size_10_balanced_type(self):
        result = search_quotient((9, 1), limit=3)
        assert result.candidates[0].qs.a == (0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
        assert result.candidates[0].degree == 52

    def test_budget_boundary(self):
        # the walk runs exactly when the count fits the budget; one below,
        # the hill climber runs, with the results it gave before the walk
        count = arrangement_count((5, 5))
        walk = search_quotient((5, 5), budget=count, seed=3, limit=5)
        assert walk.exhaustive and walk.scanned == count
        assert _ranked(walk) == _brute_force((5, 5))[:5]
        heur = search_quotient((5, 5), budget=count - 1, seed=3, limit=5)
        assert not heur.exhaustive and heur.scanned == count - 1
        assert _ranked(heur) == [(40, 6, (0, 0, 0, 1, 0, 0, 1, 1, 1, 1))]
        heur = search_quotient((5, 5), budget=50, seed=3, limit=5)
        assert not heur.exhaustive and heur.scanned == 50
        assert _ranked(heur) == [(40, 6, (0, 0, 0, 1, 0, 1, 1, 1, 1, 0))]

    def test_heuristic_deterministic_and_sound(self):
        # budget below the arrangement count forces the heuristic path
        assert arrangement_count((5, 5)) == 252
        exact = search_quotient((5, 5), budget=10**6)
        heur1 = search_quotient((5, 5), budget=50, seed=3, limit=5)
        heur2 = search_quotient((5, 5), budget=50, seed=3, limit=5)
        assert not heur1.exhaustive
        assert heur1 == heur2
        assert heur1.candidates[0].degree >= exact.candidates[0].degree

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            search_quotient((0, 0))
        for counts in ({"limit": 0}, {"limit": -1}, {"budget": 0}):
            with pytest.raises(ValueError, match="at least 1"):
                search_quotient((3, 2), **counts)

def _ranked(result):
    return [(s.degree, s.max_multiplicity, s.qs.a) for s in result.candidates]


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
                        assert result.exhaustive and result.scanned == len(brute)
                        assert _ranked(result) == brute[:limit], (lam, limit)
                        bdeg = bounding_degree(lam)
                        assert all(
                            s.feasible == (s.degree <= bdeg) for s in result.candidates
                        )

    def test_ties_at_the_cut(self):
        # every one of the top 30 has degree 24, the worst kept degree, so
        # the order among them rests on multiplicity and on a alone
        result = search_quotient((3, 3, 3, 3), limit=30)
        top = _ranked(result)
        assert {deg for deg, _, _ in top} == {24}
        assert top == _brute_force((3, 3, 3, 3), limit=30)

    def test_deeper_than_the_default_recursion_limit(self):
        depth = sys.getrecursionlimit()
        lam = (depth + 1000,)
        assert _ranked(search_quotient(lam)) == _brute_force(lam)
        assert sys.getrecursionlimit() == depth
