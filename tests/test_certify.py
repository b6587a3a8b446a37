import dataclasses
import itertools
import random

import pytest
import sympy

from nullseq import certify, engine
from nullseq.catalog import by_name
from nullseq.certify import (
    RANKED_BLOCK,
    AttemptRecord,
    CaseConfig,
    CertificateEntry,
    CoefficientResult,
    Factorization,
    assemble_case,
    certify_type,
    compute_coefficient,
    exceptional_primes,
    factorize,
    sample_monomials,
    transfer_certificate,
)
from nullseq.engine import load_checkpoint
from nullseq.factors import REDUCED, product
from nullseq.groups import enumerate_types
from nullseq.quotient import search_quotient


class TestFactorization:
    def test_value_and_complete(self):
        f = Factorization(1, ((2, 5), (7, 1), (11, 2), (21966239, 1)))
        assert f.value == 595372941856

    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization(2, ())
        with pytest.raises(ValueError):
            Factorization(1, ((7, 1), (3, 1)))  # not ascending
        with pytest.raises(ValueError):
            Factorization(1, ((4, 1),))  # not prime
        with pytest.raises(ValueError):
            Factorization(1, ((3, 0),))  # exponent must be positive


class TestFactorize:
    def test_exact_small(self):
        f = factorize(-46383022877233608)
        assert f.sign == -1
        assert f.primes == ((2, 3), (3, 2), (644208651072689, 1))
        assert f.value == -46383022877233608

    def test_units_and_zero(self):
        assert factorize(1) == Factorization(1, ())
        assert factorize(-1) == Factorization(-1, ())
        with pytest.raises(ValueError):
            factorize(0)

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randrange(-(2**64), 2**64)
            if n == 0:
                continue
            f = factorize(n)
            assert f.value == n


class TestExceptionalPrimes:
    def test_known_values(self):
        assert exceptional_primes([26], 10, 2) == (13,)
        assert exceptional_primes([-4], 10, 2) == ()
        assert exceptional_primes(
            [-18128730243333160, -46383022877233608], 11, 1
        ) == ()

    def test_small_primes_and_t_divisors_excluded(self):
        # gcd 15 = 3 * 5: 3 <= k, 5 divides t -> nothing qualifies
        assert exceptional_primes([15, 45], 3, 5) == ()
        assert exceptional_primes([15, 45], 3, 2) == (5,)

    def test_rejects_zero_or_empty(self):
        with pytest.raises(ValueError):
            exceptional_primes([], 5, 1)
        with pytest.raises(ValueError):
            exceptional_primes([4, 0], 5, 1)

    def test_monotone_under_extension(self):
        rng = random.Random(11)
        for _ in range(50):
            coeffs = [rng.randrange(1, 10**6) for _ in range(rng.randint(1, 4))]
            extra = rng.randrange(1, 10**6)
            before = set(exceptional_primes(coeffs, 5, 2))
            after = set(exceptional_primes(coeffs + [extra], 5, 2))
            assert after <= before


def box(bound, degree):
    """Every monomial of the given degree dividing bound, by brute force."""
    return [
        mono
        for mono in itertools.product(*(range(b + 1) for b in bound))
        if sum(mono) == degree
    ]


class TestSampleMonomials:
    @pytest.mark.parametrize(
        "bound, degree",
        [((3, 3, 3, 3), 11), ((4, 2, 3), 7), ((4, 2, 3), 2), ((0, 5, 1, 2), 4),
         ((2, 1), 3), ((3,), 1), ((1, 1, 1, 1, 1), 0)],
    )
    def test_unranking_covers_the_box_once(self, bound, degree):
        # a limit at least the box size draws every rank, so each monomial
        # of the box must come out exactly once
        out = list(sample_monomials(bound, degree, 10**6, "s"))
        assert sorted(out) == sorted(box(bound, degree))

    def test_all_divide_and_sum(self):
        rng = random.Random(5)
        for n in range(40):
            bound = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 8)))
            degree = rng.randint(0, sum(bound))
            out = list(sample_monomials(bound, degree, 7, f"seed{n}"))
            assert len(out) == min(7, len(box(bound, degree)))
            assert len(set(out)) == len(out)
            for mono in out:
                assert sum(mono) == degree
                assert all(0 <= m <= b for m, b in zip(mono, bound))

    def test_same_seed_same_list(self):
        # the seed string prove builds from (seed, a, fixes, variant)
        seed = f"0:{(0, 1, 0, 1, 1, 0)}:{(2,)}:full"
        first = list(sample_monomials((5, 4, 5, 4, 4, 5), 20, 6, seed))
        assert first == list(sample_monomials((5, 4, 5, 4, 4, 5), 20, 6, seed))
        others = {
            tuple(sample_monomials((5, 4, 5, 4, 4, 5), 20, 6, f"{n}:{seed}"))
            for n in range(5)
        }
        assert len(others) > 1

    def test_small_box_returned_whole(self):
        assert list(sample_monomials((2, 1), 3, 10, "s")) == [(2, 1)]
        assert sorted(sample_monomials((3, 3, 3, 3), 11, 4, "s")) == sorted(
            box((3, 3, 3, 3), 11)
        )

    def test_uniform_over_the_box(self):
        # one draw per seed: each of the 8 monomials of the box should turn
        # up about 375 times in 3000 draws (standard deviation about 18)
        counts = dict.fromkeys(box((3, 2, 2), 4), 0)
        for n in range(3000):
            (mono,) = sample_monomials((3, 2, 2), 4, 1, str(n))
            counts[mono] += 1
        assert len(counts) == 8
        assert all(275 < c < 475 for c in counts.values())

    def test_impossible_degree(self):
        assert list(sample_monomials((2, 2), 5, 10, "s")) == []


class TestCertificateEntry:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            CertificateEntry((1, 1), 0, Factorization(1, ()))

    def test_mismatched_factorization(self):
        with pytest.raises(ValueError):
            CertificateEntry((1, 1), 6, Factorization(1, ((2, 1),)))


class TestCertificate:
    def certificate(self):
        res = certify_type((3, 2), 2)
        assert res.certificate is not None
        return res.certificate

    def test_structurally_valid(self):
        cert = self.certificate()
        assert cert.k == 5 and cert.t == 2
        assert cert.exceptional == ()
        assert sum(cert.entries[0].monomial) == cert.degree

    def test_tampered_degree_rejected(self):
        cert = self.certificate()
        with pytest.raises(ValueError):
            dataclasses.replace(cert, degree=cert.degree + 1)

    def test_tampered_bound_rejected(self):
        cert = self.certificate()
        bad = (cert.bound[0] + 1,) + cert.bound[1:]
        with pytest.raises(ValueError):
            dataclasses.replace(cert, bound=bad)

    def test_tampered_exceptional_rejected(self):
        cert = self.certificate()
        with pytest.raises(ValueError):
            dataclasses.replace(cert, exceptional=(101,))

    def test_entries_required(self):
        cert = self.certificate()
        with pytest.raises(ValueError):
            dataclasses.replace(cert, entries=())

    def test_validity_and_witness(self):
        cert = self.certificate()
        assert cert.is_valid_for(11)
        assert not cert.is_valid_for(4)  # not prime
        assert not cert.is_valid_for(5)  # not above k
        assert not cert.is_valid_for(13) or 13 not in cert.exceptional
        entry = cert.witness_for(11)
        assert entry.coefficient % 11 != 0
        with pytest.raises(ValueError):
            cert.witness_for(4)
        assert str(cert.k) in cert.validity_condition

    def test_reduced_validity_names_its_restriction(self):
        full = certify_type((3, 2), 2).certificate
        reduced = certify_type((3, 2), 2, CaseConfig(variant=REDUCED)).certificate
        assert "inverse" not in full.validity_condition
        assert reduced.validity_condition.startswith(full.validity_condition)
        assert "no two mutually inverse elements" in reduced.validity_condition


class TestCertifyType:
    def test_small_type(self):
        res = certify_type((3, 2), 2)
        assert res.certificate is not None
        assert res.reason is None
        assert res.lam == (3, 2)
        assert {a.outcome for a in res.attempts} <= {
            "nonzero", "zero", "aborted", "infeasible", "skipped-degree",
        }
        assert any(a.outcome == "nonzero" for a in res.attempts)

    def test_type_arity_mismatch(self):
        with pytest.raises(ValueError):
            certify_type((3, 2), 3)

    def test_meaningless_caps_refused(self):
        for name, value, least in (
            ("op_cap", -5, 1), ("op_cap", 0, 1), ("max_degree", -1, 0),
        ):
            with pytest.raises(ValueError, match=f"{name} must be at least {least}"):
                CaseConfig(**{name: value})
        config = CaseConfig(op_cap=None, max_degree=0)
        assert config.op_cap is None

    def test_op_cap_is_the_one_budget(self):
        # the live-term guard is the engine's constant, not a setting
        assert [f.name for f in dataclasses.fields(CaseConfig)] == [
            "op_cap", "max_degree", "variant", "checkpoint_dir",
        ]
        with pytest.raises(TypeError):
            CaseConfig(term_cap=10)

    def test_budget_exhaustion_reports_unresolved(self):
        res = certify_type((3, 2), 2, CaseConfig(max_degree=0))
        assert res.certificate is None
        assert "budget" in res.reason
        outcomes = {a.outcome for a in res.attempts}
        assert "skipped-degree" in outcomes
        assert outcomes <= {"skipped-degree", "infeasible"}

    def test_greedy_dead_end_recovers_without_fixes(self, monkeypatch):
        # the greedy fixing on this type leads to a zero coefficient; the
        # runner must fall back to the unfixed attempt and still certify
        monkeypatch.setattr(certify, "MAX_CANDIDATES", 1)
        res = certify_type((3, 2), 2)
        assert res.certificate is not None
        outcomes = [a.outcome for a in res.attempts]
        assert "zero" in outcomes and "nonzero" in outcomes

    def test_checkpoint_written_on_abort(self, tmp_path, monkeypatch):
        # (4, 0) has one arrangement and no greedy fixes: one attempt
        monkeypatch.setattr(certify, "MAX_CANDIDATES", 1)
        monkeypatch.setattr(engine, "TERM_CAP", 2)
        res = certify_type((4, 0), 2, CaseConfig(checkpoint_dir=str(tmp_path)))
        aborted = [a for a in res.attempts if a.outcome == "aborted"]
        assert aborted and "checkpoint saved" in aborted[0].note
        files = list(tmp_path.glob("ckpt_*.bin"))
        assert len(files) == 1
        cp = load_checkpoint(files[0])
        assert cp.k == 4
        assert cp.factor_index == 2

    def test_checkpoint_names_keep_fixes_and_variant_apart(self, tmp_path, monkeypatch):
        monkeypatch.setattr(certify, "MAX_CANDIDATES", 2)

        def saved(lam, directory, **settings):
            config = CaseConfig(op_cap=1, checkpoint_dir=str(directory), **settings)
            return [a.note.rsplit("saved to ", 1)[1]
                    for a in certify_type(lam, 2, config).attempts
                    if a.outcome == "aborted"]

        # (3, 1) aborts on one arrangement and monomial under different fixes
        paths = saved((3, 1), tmp_path / "fixes")
        assert len(set(paths)) == len(paths) == len(list((tmp_path / "fixes").iterdir()))
        # (2, 2) aborts on two (arrangement, fixes, monomial) in both variants
        directory = tmp_path / "variants"
        full = saved((2, 2), directory)
        reduced = saved((2, 2), directory, variant=REDUCED)
        assert not set(full) & set(reduced)
        assert len(list(directory.iterdir())) == len(full) + len(reduced)

    def test_missing_checkpoint_dir_is_created(self, tmp_path, monkeypatch):
        directory = tmp_path / "new"
        monkeypatch.setattr(certify, "MAX_CANDIDATES", 1)
        monkeypatch.setattr(engine, "TERM_CAP", 2)
        res = certify_type((4, 0), 2, CaseConfig(checkpoint_dir=str(directory)))
        assert [a.outcome for a in res.attempts] == ["aborted"]
        (path,) = directory.glob("ckpt_*.bin")
        assert load_checkpoint(path).k == 4

    def test_checkpoint_built_only_when_saved(self, tmp_path, monkeypatch):
        # an abort on arrays turns them into a dict only for a checkpoint
        # that is saved
        monkeypatch.setattr(engine, "ARRAY_DEGREE", 0)
        built = []
        to_dict = engine._to_dict

        def spy(*args):
            built.append(len(args[0]))
            return to_dict(*args)

        monkeypatch.setattr(engine, "_to_dict", spy)
        fx = by_name("1-9-b")
        qs, fl, bound = product(fx.lam, fx.a, fx.fixes)
        result = compute_coefficient(qs, fl, bound, fx.monomial, CaseConfig(op_cap=50_000))
        assert (result.outcome, result.checkpoint, built) == ("aborted", None, [])
        config = CaseConfig(op_cap=50_000, checkpoint_dir=str(tmp_path))
        result = compute_coefficient(qs, fl, bound, fx.monomial, config)
        # the head's and the tail's arrays, each turned into a dict once
        assert result.outcome == "aborted" and built == [2909, 2572]
        cp = load_checkpoint(result.checkpoint)
        assert (len(cp.terms), len(cp.tail_terms)) == (2909, 2572)
        result = compute_coefficient(qs, fl, bound, fx.monomial, CaseConfig(),
                                     resume=load_checkpoint(result.checkpoint))
        assert result.coefficient == fx.coefficient


class TestAttemptRecord:
    def test_outcomes_and_coefficients(self):
        for outcome, coefficient in (
            ("nonzero", -3), ("zero", 0), ("aborted", None),
            ("infeasible", None), ("skipped-degree", None),
        ):
            AttemptRecord((0, 1), (), None, outcome, coefficient)
        for outcome, coefficient in (
            ("bogus", None), ("nonzero", 0), ("nonzero", None), ("zero", 5),
            ("zero", None), ("aborted", 0), ("infeasible", 7), ("skipped-degree", 0),
        ):
            with pytest.raises(ValueError, match="outcome"):
                AttemptRecord((0, 1), (), None, outcome, coefficient)


class TestCoefficientResult:
    def test_factorization_exactly_when_nonzero(self):
        for coefficient in (-12, 1):
            CoefficientResult(coefficient, factorization=factorize(coefficient))
        CoefficientResult(0)
        CoefficientResult(None, note="cap")
        for coefficient, factorization in (
            (-12, None), (-12, factorize(12)), (0, factorize(1)), (None, factorize(2)),
        ):
            with pytest.raises(ValueError, match="factorization"):
                CoefficientResult(coefficient, factorization=factorization)


class TestRankedWalk:
    @pytest.fixture
    def searches(self, monkeypatch):
        """The limits of every search_quotient call certify makes."""
        limits = []

        def counted(lam, limit):
            limits.append(limit)
            return search_quotient(lam, limit=limit)

        monkeypatch.setattr(certify, "search_quotient", counted)
        return limits

    def test_walks_on_past_the_block_while_every_attempt_is_zero(self, searches):
        # every attempt on the 30 best arrangements of (1,3,2,3) comes back
        # zero; the 39th arrangement certifies it for every admissible prime
        lam = (1, 3, 2, 3)
        res = certify_type(lam, 4)
        cert = res.certificate
        assert cert is not None and cert.exceptional == ()
        ranked = [a for _, _, a in search_quotient(lam, limit=120).candidates]
        assert ranked.index(cert.a) == 38
        assert {rec.outcome for rec in res.attempts if rec.a != cert.a} == {"zero"}
        assert len(res.attempts) == 343
        assert searches == [RANKED_BLOCK, 4 * RANKED_BLOCK]

    def test_a_failed_budget_ends_the_walk_at_the_block(self, searches, monkeypatch):
        monkeypatch.setattr(engine, "TERM_CAP", 1)
        res = certify_type((1, 3, 2, 3), 4)
        assert res.certificate is None
        assert len({rec.a for rec in res.attempts}) == RANKED_BLOCK == 30
        assert {rec.outcome for rec in res.attempts} == {"aborted"}
        assert searches == [RANKED_BLOCK]

    def test_a_certificate_within_the_block_searches_once(self, searches):
        # (5,5) keeps p = 157 after its 30 arrangements (one monomial
        # each), and a nonzero attempt ends the walk
        res = certify_type((5, 5), 2)
        assert res.certificate.exceptional == (157,)
        assert len({rec.a for rec in res.attempts}) == RANKED_BLOCK
        assert searches == [RANKED_BLOCK]


class TestTransfer:
    def test_relabels_only(self):
        base = certify_type((2, 1, 0), 3).certificate
        moved = transfer_certificate(base, 2)
        assert moved.lam == (2, 0, 1)
        assert moved.a == tuple((2 * v) % 3 for v in base.a)
        assert moved.entries == base.entries
        assert moved.bound == base.bound
        assert moved.degree == base.degree

    def test_identity_unit(self):
        base = certify_type((2, 1, 0), 3).certificate
        assert transfer_certificate(base, 1) == base

    def test_non_unit_rejected(self):
        base = certify_type((2, 1, 0), 3).certificate
        with pytest.raises(ValueError):
            transfer_certificate(base, 3)


class TestAssembleCase:
    def test_five_two_complete(self):
        report = assemble_case(5, 2)
        assert report.complete
        assert [r.lam for r in report.results] == enumerate_types(5, 2)
        assert all(r.certificate.exceptional == () for r in report.results)
        assert len(report.certificates()) == 6

    def test_deterministic(self):
        assert assemble_case(5, 2) == assemble_case(5, 2)

    def test_orbit_derivation(self):
        report = assemble_case(4, 3)
        assert report.complete
        by_lam = {r.lam: r for r in report.results}
        derived = by_lam[(3, 0, 1)]
        assert derived.derived_from == (3, 1, 0)
        assert derived.attempts == ()
        # the derived certificate re-validated on construction; spot-check
        base = by_lam[(3, 1, 0)].certificate
        assert derived.certificate.entries == base.entries
        computed = [r for r in report.results if r.derived_from is None]
        assert all(r.attempts for r in computed)

    def test_partition_invariant_even_when_unresolved(self):
        report = assemble_case(5, 2, CaseConfig(max_degree=5))
        assert not report.complete
        assert [r.lam for r in report.results] == enumerate_types(5, 2)
        for r in report.results:
            assert (r.certificate is None) != (r.reason is None)

    def test_envelope(self):
        with pytest.raises(ValueError):
            assemble_case(5, 6)
        with pytest.raises(ValueError):
            assemble_case(16, 2)
        with pytest.raises(ValueError):
            assemble_case(0, 2)

    def test_certificates_back_their_claim(self):
        # every certified coefficient is genuinely nonzero mod some prime
        # in the admissible range, witnessed explicitly
        report = assemble_case(4, 2)
        for cert in report.certificates():
            p = sympy.nextprime(max(cert.k, max(cert.exceptional, default=0)))
            while p in cert.exceptional or cert.t % p == 0:
                p = sympy.nextprime(p)
            entry = cert.witness_for(p)
            assert entry.coefficient % p != 0
