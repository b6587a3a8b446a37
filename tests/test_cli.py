import contextlib
import dataclasses
import io
import os
import subprocess
import sys

import pytest

from nullseq import certify, cli
from nullseq.catalog import ALL_FIXTURES, HEAVY, LIGHT, MASSIVE, TABLE1
from nullseq.certify import (
    RANKED_BLOCK,
    CaseConfig,
    CoefficientResult,
    assemble_case,
    compute_coefficient,
    sample_monomials,
)
from nullseq.cli import _case_config, build_parser, main
from nullseq.engine import load_checkpoint
from nullseq.factors import REDUCED, product
from nullseq.reports import (
    case_from_records,
    format_exponents,
    loads_record,
    parse_exponents,
)


def run_cli(argv):
    """Invoke main() in-process, capturing stdout lines as parsed records."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [ln for ln in out.getvalue().splitlines() if ln.strip()]
    return code, [loads_record(ln) for ln in lines], err.getvalue()


class TestCoeff:
    def test_worked_case(self):
        code, recs, _ = run_cli(
            ["coeff", "--k", "5", "--t", "2", "--lambda", "3,2",
             "--a", "0,1,0,0,1", "--monomial", "2,0,2,1,1"]
        )
        assert code == 0
        rec = recs[0]
        assert rec["coefficient"] == "-1"
        assert rec["factorization"] == "-1"
        assert rec["outcome"] == "nonzero"
        assert rec["degree"] == 6

    def test_t1_defaults(self):
        code, recs, _ = run_cli(["coeff", "--k", "4", "--monomial", "2,3,3,3"])
        assert code == 0
        rec = recs[0]
        assert rec["lam"] == "4"
        assert rec["a"] == "0,0,0,0"
        assert rec["monomial"] == "2,3,3,3"
        assert rec["coefficient"] == "1"

    def test_zero_coefficient_exits_one(self):
        code, recs, _ = run_cli(
            ["coeff", "--k", "5", "--t", "2", "--lambda", "3,2",
             "--a", "0,1,0,0,1", "--fixes", "1", "--monomial", "0,1,1,1,1"]
        )
        assert code == 1
        assert recs[0]["outcome"] == "zero"
        assert recs[0]["coefficient"] == "0"

    def test_monomial_is_required(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["coeff", "--k", "4"])
        assert info.value.code == 2

    def test_monomial_arity_usage_error(self):
        code, recs, err = run_cli(
            ["coeff", "--k", "4", "--monomial", "1,2"]
        )
        assert code == 2 and not recs
        assert "monomial" in err

    def test_outside_the_engine_domain_exits_two(self):
        # k = 17 at t = 1: 271 factors under the bounding monomial 16^17, so
        # the monomial below is a valid request, but not one of the engine's
        code, recs, err = run_cli(
            ["coeff", "--k", "17", "--monomial", ",".join(["15"] + ["16"] * 16)]
        )
        assert (code, recs) == (2, [])
        (line,) = err.splitlines()
        assert line.startswith("nullseq: error: k=17 and target 15,16,")
        assert line.endswith("outside the engine's domain: k <= 16 and every "
                             "target exponent at most 15, one 4-bit lane each")

    def test_k_and_t_must_match_lambda(self):
        vectors = ["--lambda", "3,2", "--a", "0,1,0,0,1", "--monomial", "2,0,2,1,1"]
        for kt in (["--k", "6", "--t", "2"], ["--k", "5", "--t", "3"]):
            code, recs, err = run_cli(["coeff", *kt, *vectors])
            assert code == 2 and not recs
            assert "--lambda" in err
        code, recs, _ = run_cli(["coeff", "--k", "5", *vectors])
        assert code == 0 and (recs[0]["k"], recs[0]["t"]) == (5, 2)

    def test_abort_checkpoint_resume_cycle(self, tmp_path):
        base = ["coeff", "--k", "6", "--t", "2", "--lambda", "6,0",
                "--a", "0,0,0,0,0,0", "--monomial", "4,5,5,5,5,5"]
        code, recs, _ = run_cli(
            base + ["--op-cap", "50", "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 1
        rec = recs[0]
        assert rec["outcome"] == "aborted"
        assert "coefficient" not in rec
        ckpt = rec["checkpoint"]
        assert ckpt.startswith(str(tmp_path))
        code2, recs2, _ = run_cli(base + ["--resume", ckpt])
        assert code2 == 0
        direct_code, direct_recs, _ = run_cli(base)
        assert recs2[0]["coefficient"] == direct_recs[0]["coefficient"]
        assert recs2[0]["monomial"] == direct_recs[0]["monomial"]

    def test_resume_rejects_a_different_computation(self, tmp_path):
        # the 4-6-a checkpoint must not be continued toward 4-6-b's monomial
        base = ["coeff", "--k", "10", "--t", "2", "--lambda", "4,6",
                "--a", "0,1,0,1,1,1,1,0,1,0"]
        own = ["--monomial", "2,5,3,5,5,5,5,3,5,3"]
        code, recs, _ = run_cli(
            base + own + ["--op-cap", "20000", "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 1 and recs[0]["outcome"] == "aborted"
        ckpt = recs[0]["checkpoint"]
        code, recs, err = run_cli(
            base + ["--monomial", "3,4,3,5,5,5,5,3,5,3", "--resume", ckpt]
        )
        assert code == 2 and not recs
        assert "different computation" in err
        code, recs, _ = run_cli(base + own + ["--resume", ckpt])
        assert code == 0 and recs[0]["coefficient"] == "3120"

    def test_damaged_checkpoint_is_usage_error(self, tmp_path):
        # without a digest this flip resumed to 322317 with exit 0; the
        # catalog's 5-5-b coefficient is 323285
        argv = ["coeff", "--k", "10", "--t", "2", "--lambda", "5,5",
                "--a", "0,1,0,1,0,1,0,1,0,1", "--monomial", "4,4,4,4,4,4,4,4,4,4"]
        code, recs, _ = run_cli(
            argv + ["--op-cap", "20000", "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 1 and recs[0]["outcome"] == "aborted"
        ckpt = recs[0]["checkpoint"]
        with open(ckpt, "rb") as fh:
            data = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(data[:-1] + bytes([data[-1] ^ 1]))
        code, recs, err = run_cli(argv + ["--resume", ckpt])
        assert code == 2 and not recs
        assert "digest" in err
        with open(ckpt, "wb") as fh:
            fh.write(data)
        code, recs, _ = run_cli(argv + ["--resume", ckpt])
        assert code == 0 and recs[0]["coefficient"] == "323285"

    def test_variant(self):
        lam, a = (3, 2), (0, 1, 0, 0, 1)
        qs, fl, bound = product(lam, a, (), REDUCED)
        monomial = next(sample_monomials(bound, fl.degree, 1, "variant"))
        code, recs, _ = run_cli(
            ["coeff", "--k", "5", "--lambda", "3,2", "--a", "0,1,0,0,1",
             "--variant", "reduced", "--monomial", format_exponents(monomial)]
        )
        expected = compute_coefficient(qs, fl, bound, monomial, CaseConfig())
        assert code == (0 if expected.coefficient else 1)
        assert (recs[0]["variant"], recs[0]["degree"]) == ("reduced", fl.degree)
        assert recs[0]["coefficient"] == str(expected.coefficient)

    def test_bad_resume_path(self, tmp_path):
        code, _, err = run_cli(
            ["coeff", "--k", "4", "--monomial", "2,3,3,3",
             "--resume", str(tmp_path / "missing.bin")]
        )
        assert code == 2 and "checkpoint" in err


class TestProve:
    def test_round_trip_against_library(self, tmp_path):
        out = tmp_path / "case.jsonl"
        code, recs, _ = run_cli(
            ["prove", "--k", "4", "--t", "2", "--output", str(out)]
        )
        assert code == 0 and recs == []
        with open(out, encoding="utf-8") as fh:
            records = [loads_record(ln) for ln in fh if ln.strip()]
        assert records[0]["kind"] == "case"
        assert records[0]["complete"] is True
        assert case_from_records(records) == assemble_case(4, 2)

    @pytest.mark.parametrize("k, t", [("7", "2"), ("4", "3")])  # 4,3 derives types
    def test_repeated_runs_match_and_count_their_calls(self, tmp_path, monkeypatch, k, t):
        # Two runs in one process give the same records once timings are
        # dropped.  Each run calls the engine once per attempt whose outcome
        # is zero, nonzero or aborted, and the quotient search once per type
        # record not derived from another type's certificate.
        calls = {"multiply_factors": 0, "search_quotient": 0}
        for name in calls:
            original = getattr(certify, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(certify, name, counted)
        runs = []
        for n in range(2):
            before = dict(calls)
            out = tmp_path / f"run{n}.jsonl"
            code, _, _ = run_cli(["prove", "--k", k, "--t", t, "--output", str(out)])
            with open(out, encoding="utf-8") as fh:
                records = [loads_record(ln) for ln in fh if ln.strip()]
            types = records[1:]
            computed = sum(
                rec[f"attempt{i}_outcome"] in ("zero", "nonzero", "aborted")
                for rec in types
                for i in range(rec.get("attempts", 0))
            )
            searched = sum("derived_from" not in rec for rec in types)
            assert calls["multiply_factors"] - before["multiply_factors"] == computed
            assert calls["search_quotient"] - before["search_quotient"] == searched
            assert computed and searched
            runs.append(
                (code, [{key: v for key, v in rec.items() if key != "elapsed"}
                        for rec in records])
            )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("k, t", [("7", "2"), ("8", "3")])
    def test_complete_cases_exit_zero(self, k, t):
        code, recs, _ = run_cli(["prove", "--k", k, "--t", t])
        assert code == 0
        assert recs[0]["complete"] is True and recs[0]["unresolved"] == 0

    def test_k9_t3_leaves_only_the_skipped_single_coset(self):
        # (9,0,0) sits in one coset: its product has degree 71, above the
        # default degree budget, so each of its arrangements is skipped
        code, recs, _ = run_cli(["prove", "--k", "9", "--t", "3"])
        assert code == 1
        assert recs[0]["unresolved"] == 1
        (rec,) = [r for r in recs[1:] if r["kind"] == "unresolved"]
        assert rec["lam"] == "9,0,0"
        outcomes = {rec[f"attempt{i}_outcome"] for i in range(rec["attempts"])}
        assert outcomes == {"skipped-degree"}

    def test_records_do_not_depend_on_the_hash_seed(self):
        # target draws are seeded by strings, which Random hashes with
        # SHA-512, so separate processes write the same records
        runs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "nullseq", "prove", "--k", "6", "--t", "3"],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            runs.append([
                {key: v for key, v in loads_record(ln).items() if key != "elapsed"}
                for ln in proc.stdout.splitlines()
            ])
        assert runs[0] == runs[1]

    def test_variant(self):
        code, recs, _ = run_cli(["prove", "--k", "5", "--t", "2", "--variant", "reduced"])
        assert code == 0
        assert {r["variant"] for r in recs[1:]} == {"reduced"}
        assert case_from_records(recs) == assemble_case(5, 2, CaseConfig(variant=REDUCED))

    def test_incomplete_exits_one(self):
        code, recs, _ = run_cli(
            ["prove", "--k", "4", "--t", "2", "--max-degree", "0"]
        )
        assert code == 1
        assert recs[0]["complete"] is False
        assert any(r["kind"] == "unresolved" for r in recs)

    def test_envelope_error(self):
        code, _, err = run_cli(["prove", "--k", "4", "--t", "6"])
        assert code == 2 and "error" in err


class TestCapsAndBudgets:
    @pytest.mark.parametrize(
        "command",
        [
            ["prove", "--k", "3", "--t", "2"],
            ["coeff", "--k", "4", "--monomial", "2,3,3,3"],
            ["table1", "--name", "worked-3-2"],
        ],
    )
    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--op-cap", "-5"], "op_cap must be at least 1"),
            (["--op-cap", "0"], "op_cap must be at least 1"),
        ],
    )
    def test_meaningless_cap_is_usage_error(self, command, flag, message):
        # prove used to report (0,3) unresolved, "work budget exhausted"
        code, recs, err = run_cli([*command, *flag])
        assert code == 2 and not recs
        assert message in err

    @pytest.mark.parametrize(
        "command",
        [
            ["prove", "--k", "3", "--t", "2"],
            ["coeff", "--k", "4", "--monomial", "2,3,3,3"],
            ["table1", "--name", "worked-3-2"],
        ],
    )
    def test_term_cap_is_not_a_flag(self, command, capsys):
        # --op-cap is the one budget; the live-term guard is engine.TERM_CAP
        with pytest.raises(SystemExit) as info:
            main([*command, "--term-cap", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --term-cap" in capsys.readouterr().err

    def test_negative_max_degree_is_usage_error(self):
        code, recs, err = run_cli(["prove", "--k", "3", "--t", "2", "--max-degree", "-1"])
        assert code == 2 and not recs
        assert "max_degree must be at least 0" in err


class TestQs:
    def test_ranked_candidates(self):
        code, recs, _ = run_cli(["qs", "--lambda", "3,2"])
        assert code == 0
        assert recs[0]["a"] == "0,1,0,0,1"
        assert recs[0]["b"] == "0,0,1,1,1,0"
        assert recs[0]["degree"] == 6
        assert recs[0]["rank"] == 0
        # feasible: the degree is at most the bounding degree 8
        assert {r["feasible"] for r in recs} == {True, False}
        assert all(r["feasible"] == (r["degree"] <= 8) for r in recs)
        assert [r["rank"] for r in recs] == list(range(len(recs)))
        degrees = [r["degree"] for r in recs]
        assert degrees == sorted(degrees)

    def test_limit(self):
        code, recs, _ = run_cli(["qs", "--lambda", "3,2", "--qs-limit", "2"])
        assert code == 0 and len(recs) == 2

    def test_invalid_type(self):
        code, _, err = run_cli(["qs", "--lambda", "0,0"])
        assert code == 2

    @pytest.mark.parametrize(
        "flag", [["--qs-limit", "-1"], ["--qs-limit", "0"]]
    )
    def test_nonpositive_count_is_usage_error(self, flag):
        # a limit of -1 used to slice off the last arrangement and print the rest
        code, recs, err = run_cli(["qs", "--lambda", "3,2", *flag])
        assert code == 2 and not recs
        assert "at least 1" in err


class TestScan:
    def test_exhaustive_small(self):
        code, recs, _ = run_cli(["scan", "--n", "9", "--k", "3"])
        assert code == 0
        rec = recs[0]
        assert rec["scanned"] == 10 and rec["all_sequenceable"] is True

    def test_kind_filter(self):
        code, recs, _ = run_cli(
            ["scan", "--n", "7", "--k", "2", "--kind", "rotational"]
        )
        assert code == 0 and recs[0]["scanned"] == 1

    def test_sampling(self):
        code, recs, _ = run_cli(
            ["scan", "--n", "25", "--k", "6", "--count", "10", "--seed", "4"]
        )
        assert code == 0
        assert recs[0]["sampled"] is True and recs[0]["seed"] == "4"

    def test_seed_without_count_is_usage_error(self):
        # an exhaustive scan draws nothing, so it would ignore the seed
        code, recs, err = run_cli(["scan", "--n", "9", "--k", "3", "--seed", "5"])
        assert code == 2 and not recs and "--count" in err

    def test_no_reduce(self):
        # C(8, 3) = 56 subsets in 10 classes of unit multiples, one searched
        # per class; no flag selects a search of every subset
        code, recs, _ = run_cli(["scan", "--n", "9", "--k", "3"])
        assert code == 0
        assert (recs[0]["sampled"], recs[0]["scanned"]) == (False, 10)
        with pytest.raises(SystemExit) as info:
            run_cli(["scan", "--n", "9", "--k", "3", "--no-reduce"])
        assert info.value.code == 2

    def test_guard_is_usage_error(self):
        code, _, err = run_cli(["scan", "--n", "50", "--k", "3"])
        assert code == 2

    def test_sampled_n_past_the_cap_is_usage_error(self):
        code, recs, err = run_cli(
            ["scan", "--n", str(10**10), "--k", "6", "--count", "3"]
        )
        assert code == 2 and not recs
        assert err.splitlines() == [f"nullseq: error: sampled scans are limited to n <= {1 << 24}"]

    def test_empty_sample_is_usage_error(self):
        code, recs, err = run_cli(["scan", "--n", "25", "--k", "6", "--count", "0"])
        assert code == 2 and not recs and "at least 1" in err

    @pytest.mark.parametrize("argv, found, asked, draws", [
        (["--n", "25", "--k", "1", "--count", "5"], 0, 5, 1000),
        (["--n", "26", "--k", "2", "--count", "50"], 12, 50, 10000),
    ])
    def test_short_sample_is_usage_error(self, argv, found, asked, draws):
        # a rotational subset sums to zero: Z_25 has no such singleton and
        # Z_26 twelve pairs, so the sample used to pass on what it found
        code, recs, err = run_cli(["scan", *argv, "--kind", "rotational"])
        assert code == 2 and not recs
        assert err.splitlines() == [
            f"nullseq: error: sampling found {found} of the {asked} distinct "
            f"subsets asked for in {draws} draws"
        ]


class TestVerify:
    def test_ok(self):
        code, recs, _ = run_cli(
            ["verify", "--p", "5", "--t", "2", "--lambda", "3,2",
             "--a", "0,1,0,0,1"]
        )
        assert code == 0
        assert recs[0]["ok"] is True and recs[0]["subsets_checked"] == 40

    def test_infeasible_is_error(self):
        code, _, err = run_cli(
            ["verify", "--p", "3", "--t", "2", "--lambda", "3,2",
             "--a", "0,1,0,0,1"]
        )
        assert code == 2 and "identity-coset" in err

    def test_max_subsets_refuses_a_partial_check(self):
        argv = ["verify", "--p", "7", "--t", "2", "--lambda", "2,1",
                "--a", "0,0,1"]
        code, recs, err = run_cli(argv + ["--max-subsets", "3"])
        assert code == 2 and not recs and "more than max_subsets=3" in err
        code, recs, _ = run_cli(argv)
        assert code == 1 and recs[0]["ok"] is False

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_nonpositive_max_subsets_is_usage_error(self, cap):
        # every type used to be refused for having more than max_subsets subsets
        code, recs, err = run_cli(
            ["verify", "--p", "7", "--t", "2", "--lambda", "2,1", "--a", "0,0,1",
             "--max-subsets", cap]
        )
        assert code == 2 and not recs
        assert err.splitlines() == [f"nullseq: error: max_subsets must be at least 1, got {cap}"]

    def test_failing_classes_listed_by_minimum(self):
        # every one of the 70 classes is searched and 19 fail; each is
        # listed once, by its least member
        code, recs, _ = run_cli(
            ["verify", "--p", "7", "--t", "2", "--lambda", "3,2",
             "--a", "1,1,0,0,0"]
        )
        rec = recs[0]
        assert code == 1 and rec["ok"] is False
        assert (rec["subsets"], rec["subsets_checked"], rec["searched"]) == (420, 420, 70)
        listed = [rec[f"failure{i}"] for i in range(rec["failures"])]
        assert len(listed) == 19 and "failure19" not in rec
        for text in listed:
            points = [tuple(map(int, point.split(":"))) for point in text.split(",")]
            pools = [sorted(x for x, v in points if v == w) for w in range(2)]
            assert all(
                pools <= [sorted(u * x % 7 for x in pool) for pool in pools]
                for u in range(2, 7)
            ), text


class TestApplicable:
    def test_yes(self):
        code, recs, _ = run_cli(["applicable", "--n", "100", "--k", "5"])
        assert code == 0
        assert recs[0]["verdict"] == "yes" and recs[0]["unconditional"] is True

    def test_no(self):
        code, recs, _ = run_cli(["applicable", "--n", "22", "--k", "10"])
        assert code == 1
        assert recs[0]["verdict"] == "no"

    def test_effort_bits(self, monkeypatch):
        # n = q1 * q2 with 76- and 77-bit primes is more than 64 bits of
        # factoring effort, so its one split is left unknown; the effort is
        # a constant, not a flag
        import sympy

        n = sympy.nextprime(2**75) * sympy.nextprime(2**76)
        monkeypatch.setattr("nullseq.applicability.EFFORT_BITS", 64)
        code, recs, _ = run_cli(["applicable", "--n", str(n), "--k", "10"])
        assert code == 1
        assert (recs[0]["verdict"], recs[0]["split0_prime_ok"]) == ("unknown", "unknown")

    def test_conditional_with_subset(self):
        import math

        import sympy

        q13 = sympy.nextprime(math.factorial(13) // 2)
        code, recs, _ = run_cli(["applicable", "--n", str(2 * q13), "--k", "13"])
        assert code == 0 and recs[0]["verdict"] == "conditional"
        subset = ",".join(str(v) for v in tuple(range(2, 26, 2))[:12] + (3,))
        code2, recs2, _ = run_cli(
            ["applicable", "--n", str(2 * q13), "--k", "13", "--subset", subset]
        )
        assert code2 == 0 and recs2[0]["verdict"] == "yes"


class TestTable1:
    def test_single_fixture(self):
        code, recs, _ = run_cli(["table1", "--name", "worked-3-2"])
        assert code == 0
        rec = recs[0]
        assert rec["match"] is True
        assert rec["coefficient"] == rec["expected"] == "-1"

    def test_light_tier_all_match(self):
        code, recs, _ = run_cli(["table1", "--table-only"])
        assert code == 0
        assert len(recs) == 15
        assert all(r["match"] is True for r in recs)
        ks = [r["k"] for r in recs]
        assert ks == sorted(ks, reverse=True) or len(set(ks)) > 1

    def test_tier_selects_fixtures(self, monkeypatch):
        # no coefficient is computed: each row comes back aborted
        monkeypatch.setattr(cli, "compute_coefficient",
                            lambda *args, **kwargs: CoefficientResult(None, note="stub"))
        tiers = {"light": {LIGHT}, "heavy": {LIGHT, HEAVY},
                 "massive": {LIGHT, HEAVY, MASSIVE}}
        for tier, included in tiers.items():
            for table_only, pool in (([], ALL_FIXTURES), (["--table-only"], TABLE1)):
                code, recs, _ = run_cli(["table1", "--tier", tier, *table_only])
                assert code == 1
                assert [r["name"] for r in recs] == [
                    f.name for f in pool if f.tier in included
                ]
                assert {r["outcome"] for r in recs} == {"aborted"}

    def test_unknown_name(self):
        code, _, err = run_cli(["table1", "--name", "nope"])
        assert code == 2 and "unknown fixture" in err

    def test_abort_writes_checkpoint(self, tmp_path):
        code, recs, _ = run_cli(
            ["table1", "--name", "5-5-b", "--op-cap", "50",
             "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 1
        rec = recs[0]
        assert rec["outcome"] == "aborted" and "coefficient" not in rec
        assert rec["checkpoint"].startswith(str(tmp_path))
        assert load_checkpoint(rec["checkpoint"]).k == rec["k"]

    def test_light_job_leaves_numpy_unimported(self):
        # numpy is the engine's array kernel, for products of degree
        # engine.ARRAY_DEGREE or more; light jobs never need it.  5-5-b
        # peaks at 10 268 live terms, the most of any light row
        code = (
            "import contextlib, io, sys\n"
            "from nullseq.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = [main(['table1', '--name', n]) for n in ('1-9-b', '5-5-b')]\n"
            "print(*rc, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "False"]


class TestUsageAndSettings:
    def test_no_subcommand(self):
        code, _, err = run_cli([])
        assert code == 2

    def test_unknown_flag_raises_system_exit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--bogus"])

    def test_bad_vector(self):
        code, _, err = run_cli(["qs", "--lambda", "3;2"])
        assert code == 2 and "comma-separated" in err

    def test_flags_only_where_read(self):
        parser = build_parser()
        commands = {
            "prove": ["prove", "--k", "4", "--t", "2"],
            "coeff": ["coeff", "--k", "4", "--monomial", "2,3,3,3"],
            "qs": ["qs", "--lambda", "3,2"],
            "scan": ["scan", "--n", "9", "--k", "3"],
            "verify": ["verify", "--p", "11", "--t", "2", "--lambda", "3,2",
                       "--a", "0,1,0,0,1"],
            "applicable": ["applicable", "--n", "100", "--k", "5"],
            "table1": ["table1"],
        }
        readers = {
            ("--term-cap", "1"): set(),
            ("--op-cap", "1"): {"prove", "coeff", "table1"},
            ("--checkpoint-dir", "ckpt"): {"prove", "coeff", "table1"},
            ("--seed", "1"): {"scan"},
            ("--max-candidates", "1"): set(),
            ("--no-greedy-fixes",): set(),
            ("--no-reduce",): set(),
            ("--effort-bits", "64"): set(),
            ("--qs-limit", "1"): {"qs"},
            ("--qs-budget", "1"): set(),
            ("--split-budget", "0"): set(),
            ("--output", "-"): set(commands),
        }
        for flag, accepted in readers.items():
            for name, argv in commands.items():
                if name in accepted:
                    parser.parse_args(argv + list(flag))
                    continue
                with pytest.raises(SystemExit) as info:
                    run_cli(argv + list(flag))
                assert info.value.code == 2, (name, flag)

    def test_defaults_are_case_config_defaults(self):
        parser = build_parser()
        for argv in (["prove", "--k", "4", "--t", "2"], ["table1"],
                     ["qs", "--lambda", "3,2"]):
            assert _case_config(parser.parse_args(argv)) == CaseConfig()
        assert parser.parse_args(["qs", "--lambda", "3,2"]).qs_limit == RANKED_BLOCK
        # written only where they are read: in oracle
        scan = parser.parse_args(["scan", "--n", "9", "--k", "3"])
        assert (scan.kind, scan.seed) == (None, None)
        args = parser.parse_args(["prove", "--k", "4", "--t", "2", "--op-cap", "9"])
        assert _case_config(args) == CaseConfig(op_cap=9)
        with pytest.raises(SystemExit) as info:
            run_cli(["prove", "--k", "4", "--t", "2", "--config", "x.json"])
        assert info.value.code == 2

    def test_each_setting_has_one_name(self):
        # every prove flag but the case and the output is a CaseConfig field
        # of the same name, so _case_config passes each one on unrenamed
        prove = build_parser()._subparsers._group_actions[0].choices["prove"]
        dests = {action.dest for action in prove._actions if action.option_strings}
        assert dests - {"help", "k", "t", "output"} == {
            field.name for field in dataclasses.fields(CaseConfig)
        }


class TestOneParserPerProcess:
    # each call with its neighbours: a call after an argparse SystemExit, one
    # after an exit-2 usage error, and defaults read after a call that gave
    # the flag (qs --qs-limit, scan --seed)
    CALLS = [
        ["prove", "--k", "3", "--t", "2"],
        ["scan", "--n", "9", "--k", "3", "--bogus"],
        ["coeff", "--k", "4", "--monomial", "2,3,3,3"],
        ["qs", "--lambda", "3;2"],
        ["qs", "--lambda", "3,2", "--qs-limit", "2"],
        ["qs", "--lambda", "3,2"],
        ["scan", "--n", "25", "--k", "6", "--count", "5", "--seed", "4"],
        ["scan", "--n", "9", "--k", "3"],
        ["verify", "--p", "7", "--t", "2", "--lambda", "2,1", "--a", "0,0,1",
         "--max-subsets", "0"],
        ["verify", "--p", "5", "--t", "2", "--lambda", "3,2", "--a", "0,1,0,0,1"],
        ["applicable", "--n", "100", "--k", "5"],
        ["table1", "--name", "worked-3-2"],
    ]

    @staticmethod
    def _outcome(code, stdout_lines, stderr):
        records = [loads_record(line) for line in stdout_lines if line.strip()]
        for record in records:
            record.pop("elapsed", None)
        return code, records, stderr

    def test_back_to_back_calls_match_fresh_processes(self):
        assert build_parser() is build_parser()
        in_process = []
        for argv in self.CALLS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            in_process.append(self._outcome(code, out.getvalue().splitlines(), err.getvalue()))
        assert {argv[0] for argv in self.CALLS} == {
            "prove", "coeff", "qs", "scan", "verify", "applicable", "table1"
        }
        assert [outcome[0] for outcome in in_process] == [0, 2, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0]
        for argv, outcome in zip(self.CALLS, in_process):
            proc = subprocess.run([sys.executable, "-m", "nullseq", *argv],
                                  capture_output=True, text=True, timeout=120)
            alone = self._outcome(proc.returncode, proc.stdout.splitlines(), proc.stderr)
            assert outcome == alone, argv


class TestModuleEntrypoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nullseq", "applicable", "--n", "100",
             "--k", "5"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        rec = loads_record(proc.stdout.strip().splitlines()[-1])
        assert rec["verdict"] == "yes"


class TestClosedOutput:
    @pytest.mark.parametrize(
        "argv", [["table1", "--name", "worked-3-2"], ["prove", "--k", "3", "--t", "2"]]
    )
    def test_closed_stdout_exits_quietly(self, argv):
        # the reader is gone before the first record is written, as after
        # `| head -c 1`: no traceback, and the status the README names
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "nullseq", *argv],
                                  stdout=write, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")


class TestCrash:
    @pytest.mark.parametrize("argv", [
        ["prove", "--k", "4", "--t", "2"],
        ["coeff", "--k", "5", "--t", "2", "--lambda", "3,2", "--a", "0,1,0,0,1",
         "--monomial", "2,0,2,1,1"],
        ["table1", "--name", "worked-3-2"],
    ])
    def test_out_of_memory_is_not_a_result(self, monkeypatch, argv):
        # exit 1 means "some types unresolved", "zero" or "mismatch", so a
        # crash in the engine has its own code and one line on stderr
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setattr(certify, "multiply_factors", exhausted)
        code, recs, err = run_cli(argv)
        assert (code, recs) == (3, [])
        assert err == "nullseq: internal error: MemoryError: Unable to allocate 2.00 GiB\n"


class TestOutputFile:
    def test_output_written_and_parseable(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        code, recs, _ = run_cli(
            ["scan", "--n", "9", "--k", "3", "--output", str(out)]
        )
        assert code == 0 and recs == []
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        rec = loads_record(lines[0])
        assert rec["kind"] == "scan" and parse_exponents(rec["seed"] or "") == ()

    def test_unwritable_output_refused_before_the_work(self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the case was computed")

        monkeypatch.setattr(cli, "assemble_case", no_work)
        missing = tmp_path / "missing" / "x.jsonl"
        for argv in (["scan", "--n", "7", "--k", "2"], ["prove", "--k", "3", "--t", "2"]):
            code, recs, err = run_cli(argv + ["--output", str(missing)])
            assert (code, recs) == (2, [])
            assert err.startswith("nullseq: error: ") and len(err.splitlines()) == 1
        assert not missing.parent.exists()

    def test_unusable_checkpoint_dir_leaves_the_output_untouched(self, tmp_path):
        out = tmp_path / "old.jsonl"
        out.write_text("kept\n")
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code, recs, err = run_cli(
            ["table1", "--name", "8-2", "--op-cap", "1",
             "--checkpoint-dir", str(blocker), "--output", str(out)]
        )
        assert (code, recs) == (2, [])
        assert err.startswith("nullseq: error: ") and len(err.splitlines()) == 1
        assert out.read_text() == "kept\n"
