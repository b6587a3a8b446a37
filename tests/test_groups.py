import math

import pytest

from nullseq.groups import (
    LINEAR,
    ROTATIONAL,
    Cyclic,
    GroupConfig,
    canonical_type,
    classify_sequencing,
    enumerate_types,
    partial_sums,
    subset_sum,
    type_of,
    type_orbit,
    type_representatives,
    validate_subset,
)


class TestCyclic:
    def test_basics(self):
        g = Cyclic(7)
        assert g.zero == 0
        assert g.add(5, 4) == 2
        assert g.contains(6) and not g.contains(7) and not g.contains(-1)
        assert not g.contains("3")

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Cyclic(0)


class TestGroupConfig:
    def test_concrete(self):
        g = GroupConfig(5, 2)
        assert g.n == 10
        assert g.zero == (0, 0)
        assert g.add((4, 1), (3, 1)) == (2, 0)
        assert g.contains((4, 1)) and not g.contains((5, 0)) and not g.contains((1, 2))

    def test_p_must_be_prime(self):
        with pytest.raises(ValueError):
            GroupConfig(6, 1)

    def test_p_coprime_to_t(self):
        with pytest.raises(ValueError):
            GroupConfig(3, 3)

    def test_t_positive(self):
        with pytest.raises(ValueError):
            GroupConfig(5, 0)


class TestValidateSubset:
    def test_ok_preserves_order(self):
        assert validate_subset([3, 1, 2], Cyclic(5)) == (3, 1, 2)

    def test_duplicates(self):
        with pytest.raises(ValueError):
            validate_subset([1, 1], Cyclic(5))

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            validate_subset([0, 1], Cyclic(5))
        with pytest.raises(ValueError):
            validate_subset([(0, 0), (1, 0)], GroupConfig(5, 2))

    def test_membership(self):
        with pytest.raises(ValueError):
            validate_subset([5], Cyclic(5))


class TestPartialSums:
    def test_cyclic(self):
        assert partial_sums((1, 2, 3), Cyclic(4)) == (0, 1, 3, 2)

    def test_pair_group(self):
        g = GroupConfig(5, 2)
        assert partial_sums(((1, 1), (4, 1)), g) == ((0, 0), (1, 1), (0, 0))

    def test_subset_sum(self):
        assert subset_sum((1, 2, 3), Cyclic(4)) == 2


class TestClassify:
    def test_linear_when_all_distinct(self):
        # sums 0,1,3,2 are all distinct and the total is nonzero
        assert classify_sequencing({1, 2, 3}, (1, 2, 3), Cyclic(4)) == LINEAR

    def test_rotational_closes_at_identity(self):
        # sums 0,1,4,0: distinct until the close, total is zero
        assert classify_sequencing({1, 3, 2}, (1, 3, 2), Cyclic(6)) == ROTATIONAL

    def test_neither(self):
        # sums 0,1,0,2: an interior repeat, total nonzero
        assert classify_sequencing({1, 4, 2}, (1, 4, 2), Cyclic(5)) is None

    def test_empty_is_rotational(self):
        assert classify_sequencing((), (), Cyclic(5)) == ROTATIONAL

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            classify_sequencing({1, 2}, (1, 1), Cyclic(5))

    def test_rotational_impossible_with_nonzero_sum(self):
        # any full-length ordering with nonzero total cannot close at 0
        for ordering in [(2, 1, 3), (3, 2, 1)]:
            assert classify_sequencing({1, 2, 3}, ordering, Cyclic(4)) in (LINEAR, None)


class TestTypes:
    def test_type_of(self):
        assert type_of([(3, 0), (2, 1), (1, 1)], 2) == (1, 2)

    def test_enumerate_exact_small(self):
        assert enumerate_types(3, 2) == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert enumerate_types(2, 1) == [(2,)]

    def test_enumerate_counts_and_order(self):
        for k in range(0, 9):
            for t in range(1, 6):
                types = enumerate_types(k, t)
                assert len(types) == math.comb(k + t - 1, t - 1)
                assert all(sum(lam) == k and len(lam) == t for lam in types)
                assert types == sorted(types, reverse=True)
                assert len(set(types)) == len(types)

    def test_enumerate_validation(self):
        with pytest.raises(ValueError):
            enumerate_types(-1, 2)
        with pytest.raises(ValueError):
            enumerate_types(3, 0)


class TestOrbits:
    def test_t1_orbit_is_identity(self):
        assert type_orbit((4,)) == ((4,),)

    def test_t4_orbit(self):
        # units of Z_4 are 1 and 3; 3 swaps residues 1 and 3
        assert set(type_orbit((0, 1, 2, 3))) == {(0, 1, 2, 3), (0, 3, 2, 1)}
        assert canonical_type((0, 1, 2, 3)) == (0, 3, 2, 1)

    def test_canonical_is_orbit_member_and_idempotent(self):
        for lam in enumerate_types(5, 4):
            rep = canonical_type(lam)
            assert rep in type_orbit(lam)
            assert canonical_type(rep) == rep

    def test_representatives_cover_everything(self):
        for k in range(1, 7):
            for t in range(1, 6):
                reps = set(type_representatives(k, t))
                seen = set()
                for lam in enumerate_types(k, t):
                    orbit = set(type_orbit(lam))
                    assert len(orbit & reps) == 1
                    seen |= orbit
                assert seen == set(enumerate_types(k, t))
