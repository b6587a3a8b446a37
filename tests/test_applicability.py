import inspect
import math
import random

import pytest
import sympy

from nullseq.applicability import (
    DEFAULT_TABLE,
    EFFORT_BITS,
    NEEDS_OUTSIDE,
    NO_CAVEAT,
    SUBGROUP_COUNT_EXCLUDED,
    UNCONDITIONAL_K,
    ApplicabilityResult,
    applicability,
    lam0_of,
    prime_factors_exceed,
)

P10 = sympy.nextprime(math.factorial(10) // 2)  # 1814401? computed, not assumed
P12 = sympy.nextprime(math.factorial(12) // 2)
Q13 = sympy.nextprime(math.factorial(13) // 2)
Q14 = sympy.nextprime(math.factorial(14) // 2)
Q15 = sympy.nextprime(math.factorial(15) // 2)


class TestPrimeFactorsExceed:
    def test_small_decisions(self):
        assert prime_factors_exceed(1, 100) is True
        assert prime_factors_exceed(97, 100) is False  # 97 <= 100
        assert prime_factors_exceed(101, 100) is True  # prime above
        assert prime_factors_exceed(101 * 103, 100) is True
        assert prime_factors_exceed(2 * 101, 100) is False
        assert prime_factors_exceed(5, 1) is True  # trivial threshold

    def test_threshold_past_trial_range(self):
        big_threshold = math.factorial(11) // 2  # ~2 * 10^7, above trial cap
        p = sympy.nextprime(big_threshold)
        assert prime_factors_exceed(p, big_threshold) is True
        assert prime_factors_exceed(3 * p, big_threshold) is False
        q = sympy.prevprime(big_threshold)
        # q is above the 10^6 trial range but below the threshold: needs the
        # full factorization branch to find it
        assert prime_factors_exceed(q * p, big_threshold) is False

    def test_effort_budget_gives_none(self, monkeypatch):
        big_threshold = math.factorial(11) // 2
        a = sympy.nextprime(2**75)
        b = sympy.nextprime(2**76)
        m = a * b  # ~151-bit semiprime, composite, no small factors
        assert prime_factors_exceed(m, big_threshold) is True
        monkeypatch.setattr("nullseq.applicability.EFFORT_BITS", 64)
        assert prime_factors_exceed(m, big_threshold) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors_exceed(0, 10)

    def test_one_effort_default(self):
        # a constant, not a parameter: the direct call and applicability
        # both read it at call time
        for function in (prime_factors_exceed, applicability):
            assert "effort_bits" not in inspect.signature(function).parameters
        m = sympy.nextprime(2**128) * sympy.nextprime(2**129)  # 259 bits
        assert EFFORT_BITS < m.bit_length()
        assert prime_factors_exceed(m, math.factorial(11) // 2) is None


class TestLam0:
    def test_counts_multiples(self):
        assert lam0_of((2, 3, 4, 6), 2) == 3
        assert lam0_of((1, 5, 7), 3) == 0
        assert lam0_of((), 4) == 0


class TestUnconditional:
    def test_small_k_always_yes(self):
        for k in (1, 5, UNCONDITIONAL_K):
            res = applicability(1000, k)
            assert res.verdict == "yes"
            assert res.unconditional
            assert res.splits == ()

    def test_boundary(self):
        assert applicability(1000, UNCONDITIONAL_K + 1).unconditional is False


class TestApplicabilityVerdicts:
    def test_k10_prime_times_t(self):
        for t in (1, 2, 3, 4, 5):
            res = applicability(t * P10, 10)
            assert res.verdict == "yes", t
            split = [s for s in res.splits if s.t == t]
            assert split and split[0].m == P10 and split[0].verdict == "yes"

    def test_k10_small_n_no(self):
        res = applicability(22, 10)
        assert res.verdict == "no"
        # 22 = 2 * 11: both splits fail the prime condition
        assert all(s.verdict == "no" for s in res.splits)

    def test_k11_composite_m_no(self):
        # 19958400 = 11!/2 and 19958401 = 149 * 133949 is composite with
        # both factors below the threshold
        assert sympy.factorint(19958401) == {149: 1, 133949: 1}
        res = applicability(2 * 19958401, 11)
        assert res.verdict == "no"

    def test_k11_next_prime_yes(self):
        p = sympy.nextprime(math.factorial(11) // 2)
        assert p == 19958443
        assert applicability(3 * p, 11).verdict == "yes"
        assert applicability(4 * p, 11).verdict == "yes"

    def test_k12_t_range(self):
        assert applicability(2 * P12, 12).verdict == "yes"
        # t = 5 is not covered at k = 12
        res = applicability(5 * P12, 12)
        assert res.verdict == "no"
        assert not any(s.t == 5 for s in res.splits)

    def test_k13_conditional_and_subset(self):
        res = applicability(2 * Q13, 13)
        assert res.verdict == "conditional"
        split = res.splits[0]
        assert split.caveat == NEEDS_OUTSIDE and split.caveat_ok is None
        # a subset with one odd element satisfies the caveat
        subset = tuple(range(2, 26, 2))[:12] + (3,)
        assert len(subset) == 13
        assert applicability(2 * Q13, 13, subset=subset).verdict == "yes"
        # all elements even: everything lies in the subgroup
        all_even = tuple(range(2, 28, 2))
        res_no = applicability(2 * Q13, 13, subset=all_even)
        assert res_no.verdict == "no"
        assert res_no.splits[0].lam0 == 13

    def test_k13_t3(self):
        assert applicability(3 * Q13, 13).verdict == "conditional"

    def test_k14_conditional(self):
        assert applicability(2 * Q14, 14).verdict == "conditional"
        inside = tuple(range(2, 30, 2))
        assert applicability(2 * Q14, 14, subset=inside).verdict == "no"

    def test_k15_excluded_counts(self):
        res = applicability(2 * Q15, 15)
        assert res.verdict == "conditional"
        assert res.splits[0].caveat == SUBGROUP_COUNT_EXCLUDED
        # lam0 = 2 is excluded, lam0 = 3 is allowed
        two_in = (2, 4) + tuple(range(1, 27, 2))
        assert len(two_in) == 15 and lam0_of(two_in, 2) == 2
        assert applicability(2 * Q15, 15, subset=two_in).verdict == "no"
        three_in = (2, 4, 6) + tuple(range(1, 25, 2))
        assert len(three_in) == 15 and lam0_of(three_in, 2) == 3
        assert applicability(2 * Q15, 15, subset=three_in).verdict == "yes"

    def test_k16_never_covered(self):
        res = applicability(2 * Q15, 16)
        assert res.verdict == "no"
        assert res.splits == ()

    def test_unknown_via_effort(self, monkeypatch):
        a = sympy.nextprime(2**75)
        b = sympy.nextprime(2**76)
        monkeypatch.setattr("nullseq.applicability.EFFORT_BITS", 64)
        res = applicability(a * b, 10)
        assert res.verdict == "unknown"
        assert res.splits[0].prime_ok is None


class TestSubsetValidation:
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            applicability(100, 10, subset=(1, 2, 3))

    def test_duplicates_and_zero(self):
        bad_dup = (1, 2, 3, 4, 5, 6, 7, 8, 9, 9)
        with pytest.raises(ValueError):
            applicability(100, 10, subset=bad_dup)
        with pytest.raises(ValueError):
            applicability(100, 10, subset=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))

    def test_envelope(self):
        with pytest.raises(ValueError):
            applicability(1, 1)
        with pytest.raises(ValueError):
            applicability(10, 10)


class TestTableMonotonicity:
    def test_fewer_rows_never_improve(self, monkeypatch):
        order = {"yes": 0, "conditional": 1, "unknown": 2, "no": 3}
        rng = random.Random(1)
        moduli = [P10, P12, Q13, 19958401, 1009]
        cases = [(2 * Q15, 15)]  # only the trimmed row covers it
        for _ in range(40):
            t = rng.randint(1, 5)
            m = rng.choice(moduli)
            k = rng.randint(10, 15)
            if 1 <= k <= t * m - 1:
                cases.append((t * m, k))
        full = [applicability(n, k).verdict for n, k in cases]
        monkeypatch.setattr("nullseq.applicability.DEFAULT_TABLE", DEFAULT_TABLE[:-1])
        part = [applicability(n, k).verdict for n, k in cases]
        assert all(order[p] >= order[f] for p, f in zip(part, full))
        assert part[0] != full[0]

    def test_row_matches(self):
        row = DEFAULT_TABLE[2]
        assert row.matches(13, 2) and row.matches(13, 3)
        assert not row.matches(13, 1) and not row.matches(12, 2)
        assert DEFAULT_TABLE[0].caveat == NO_CAVEAT


class TestResultShape:
    def test_result_fields(self):
        res = applicability(2 * P10, 10)
        assert isinstance(res, ApplicabilityResult)
        assert res.n == 2 * P10 and res.k == 10
        assert res.subset is None
        ts = [s.t for s in res.splits]
        assert ts == sorted(ts)
