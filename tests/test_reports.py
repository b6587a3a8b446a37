import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullseq
from nullseq import certify, reports
from nullseq.applicability import applicability
from nullseq.certify import (
    AttemptRecord,
    CaseConfig,
    Certificate,
    CertificateEntry,
    CoefficientResult,
    Factorization,
    TypeResult,
    assemble_case,
    certify_type,
    factorize,
    unresolved_reason,
)
from nullseq.factors import REDUCED, product
from nullseq.oracle import (
    ROTATIONAL_ONLY,
    ScanReport,
    VerificationReport,
    scan_group,
    verify_nonvanishing_conclusion,
)
from nullseq.quotient import search_quotient
from nullseq.reports import (
    ENGINE_VERSION,
    applicability_record,
    case_from_records,
    case_records,
    certificate_from_record,
    certificate_record,
    coefficient_record,
    dumps_record,
    format_exponents,
    format_factorization,
    format_points,
    loads_record,
    parse_exponents,
    parse_factorization,
    quotient_record,
    read_records,
    scan_record,
    type_record,
    verification_record,
    write_records,
)


class TestScalarFormats:
    def test_exponents_round_trip(self):
        for vec in [(), (0,), (3, 0, 1), (10, 255)]:
            assert parse_exponents(format_exponents(vec)) == vec
        assert format_exponents(()) == ""
        assert format_exponents((1, 2)) == "1,2"

    def test_points_round_trip(self):
        assert format_points(()) == ""
        assert format_points(((1, 0),)) == "1:0"
        assert format_points(((3, 1), (0, 2))) == "3:1,0:2"

    def test_factorization_formatting(self):
        cases = {
            Factorization(1, ()): "+1",
            Factorization(-1, ()): "-1",
            Factorization(1, ((2, 5), (7, 1))): "+2^5*7",
            Factorization(-1, ((3, 1),)): "-3",
        }
        for f, text in cases.items():
            assert format_factorization(f) == text
            assert parse_factorization(text) == f

    def test_factorization_round_trip_values(self):
        for n in [595372941856, -46383022877233608, -4, 628, 10**18 + 9]:
            f = factorize(n)
            assert parse_factorization(format_factorization(f)) == f

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="sign"):
            parse_factorization("2^5*7")
        with pytest.raises(ValueError, match="bad factor"):
            parse_factorization("+2^^3")
        with pytest.raises(ValueError, match="bad factor"):
            parse_factorization("+C35*3")  # no unfactored remainder
        with pytest.raises(ValueError, match="bad factor"):
            parse_factorization("+x")
        with pytest.raises(ValueError):
            parse_factorization("")
        # parsed content is still validated by the dataclass
        with pytest.raises(ValueError):
            parse_factorization("+4")
        with pytest.raises(ValueError):
            parse_factorization("+7*3")


class TestRecordStream:
    def test_dumps_is_stable_and_compact(self):
        rec = {"b": 1, "a": "x", "kind": "scan"}
        line = dumps_record(rec)
        assert line == '{"a":"x","b":1,"kind":"scan"}'
        assert loads_record(line) == rec

    def test_write_read_round_trip(self):
        records = [
            {"kind": "scan", "n": 9},
            {"kind": "case", "k": 5, "note": "x/y é"},
        ]
        buf = io.StringIO()
        count = write_records(records, buf)
        assert count == 2
        buf.seek(0)
        assert list(read_records(buf)) == records

    def test_blank_lines_skipped(self):
        buf = io.StringIO('\n{"kind":"scan"}\n\n{"kind":"case"}\n')
        assert [r["kind"] for r in read_records(buf)] == ["scan", "case"]

    def test_base_fields(self):
        rec = scan_record(scan_group(9, 3), elapsed=1.23456)
        assert rec["engine"] == ENGINE_VERSION == f"nullseq {nullseq.__version__}"
        assert ENGINE_VERSION == "nullseq 0.1.0"
        assert rec["elapsed"] == 1.235
        assert rec["kind"] == "scan"


class TestCertificateRecords:
    def certificate(self):
        return certify_type((3, 2), 2).certificate

    def test_round_trip(self):
        cert = self.certificate()
        rec = certificate_record(cert)
        assert certificate_from_record(rec) == cert

    def test_big_ints_are_strings(self):
        cert = self.certificate()
        rec = certificate_record(cert)
        assert isinstance(rec["entry0_coefficient"], str)
        json.loads(dumps_record(rec))  # fully JSON-serializable

    def test_orbit_and_derivation_fields(self):
        cert = self.certificate()
        result = TypeResult((3, 2), ((3, 2), (2, 3)), cert, None, (), derived_from=(2, 3))
        rec = type_record(5, 2, result)
        assert rec["orbit"] == "3,2;2,3"
        assert rec["derived_from"] == "2,3"
        assert "attempts" not in rec
        assert certificate_from_record(rec) == cert

    def test_unresolved_round_trip_via_case(self):
        result = TypeResult(
            (3, 2), ((3, 2),), None,
            "every candidate monomial tried had coefficient zero", (),
        )
        rec = type_record(5, 2, result)
        assert rec["kind"] == "unresolved"
        assert (rec["k"], rec["t"], rec["lam"], rec["orbit"]) == (5, 2, "3,2", "3,2")
        assert "zero" in rec["reason"]
        assert "derived_from" not in rec and "attempts" not in rec

    def test_type_record_fields(self):
        # every field of the three shapes a type record takes
        base = {"engine": ENGINE_VERSION}
        unresolved = TypeResult(
            (9, 0), ((9, 0),), None,
            "work budget exhausted before a nonzero coefficient was found",
            (AttemptRecord((0,) * 9, (), None, "skipped-degree",
                           note="degree 71 above budget 60"),),
        )
        assert type_record(9, 2, unresolved) == dict(
            base, kind="unresolved", k=9, t=2, lam="9,0", orbit="9,0",
            reason="work budget exhausted before a nonzero coefficient was found",
            attempts=1, attempt0_a="0,0,0,0,0,0,0,0,0", attempt0_fixes="",
            attempt0_monomial="", attempt0_outcome="skipped-degree",
            attempt0_coefficient="", attempt0_note="degree 71 above budget 60",
        )
        computed = TypeResult(
            (4, 1), ((4, 1),),
            Certificate(5, 2, (4, 1), (0, 0, 1, 0, 0), (1, 3), "full", 5,
                        (0, 2, 0, 2, 2),
                        (CertificateEntry((0, 2, 0, 1, 2), -1, Factorization(-1, ())),),
                        ()),
            None,
            (AttemptRecord((0, 0, 1, 0, 0), (1, 3), (0, 1, 0, 2, 2), "zero", 0),
             AttemptRecord((0, 0, 1, 0, 0), (1, 3), (0, 2, 0, 1, 2), "nonzero", -1)),
        )
        certificate = dict(base, kind="certificate", k=5, t=2, variant="full")
        assert type_record(5, 2, computed) == dict(
            certificate, lam="4,1", a="0,0,1,0,0", fixes="1,3", degree=5,
            bound="0,2,0,2,2", exceptional="", entries=1,
            entry0_monomial="0,2,0,1,2", entry0_coefficient="-1",
            entry0_factorization="-1", orbit="4,1", attempts=2,
            attempt0_a="0,0,1,0,0", attempt0_fixes="1,3",
            attempt0_monomial="0,1,0,2,2", attempt0_outcome="zero",
            attempt0_coefficient="0", attempt0_note="",
            attempt1_a="0,0,1,0,0", attempt1_fixes="1,3",
            attempt1_monomial="0,2,0,1,2", attempt1_outcome="nonzero",
            attempt1_coefficient="-1", attempt1_note="",
        )
        derived = TypeResult(
            (1, 0, 1), ((1, 0, 1), (1, 1, 0)),
            Certificate(2, 3, (1, 0, 1), (0, 2), (1,), "full", 0, (0, 0),
                        (CertificateEntry((0, 0), 1, Factorization(1, ())),), ()),
            None, (), derived_from=(1, 1, 0),
        )
        assert type_record(2, 3, derived) == dict(
            certificate, k=2, t=3, lam="1,0,1", a="0,2", fixes="1", degree=0,
            bound="0,0", exceptional="", entries=1, entry0_monomial="0,0",
            entry0_coefficient="1", entry0_factorization="+1",
            orbit="1,0,1;1,1,0", derived_from="1,1,0",
        )


class TestCaseRecords:
    def test_full_round_trip(self):
        report = assemble_case(5, 2)
        records = case_records(report, elapsed=2.0)
        assert records[0]["kind"] == "case"
        assert records[0]["certified"] == 6
        assert records[0]["complete"] is True
        # line-protocol round trip, not just dict identity
        buf = io.StringIO()
        write_records(records, buf)
        buf.seek(0)
        assert case_from_records(read_records(buf)) == report

    def test_round_trip_with_unresolved_and_derived(self):
        report = assemble_case(4, 3, CaseConfig(max_degree=8))
        records = case_records(report)
        assert case_from_records(records) == report
        kinds = {r["kind"] for r in records}
        assert "unresolved" in kinds or report.complete

    def test_requires_single_summary(self):
        report = assemble_case(5, 2)
        records = case_records(report)
        with pytest.raises(ValueError):
            case_from_records(records[1:])
        with pytest.raises(ValueError):
            case_from_records(records + [records[0]])


class TestCoefficientAndQuotientRecords:
    def test_coefficient_record_shape(self):
        rec = coefficient_record(
            CoefficientResult(-2, factorization=factorize(-2)),
            *product((5, 2), (0, 0, 1, 0, 0, 0, 1), (6, 3)),
            (3, 3, 0, 3, 3, 0, 0),
            elapsed=None,
        )
        assert rec == {
            "kind": "coefficient", "engine": ENGINE_VERSION, "k": 7, "t": 2,
            "lam": "5,2", "a": "0,0,1,0,0,0,1", "fixes": "3,6", "variant": "full",
            "monomial": "3,3,0,3,3,0,0", "degree": 12, "bound": "3,3,0,3,3,0,0",
            "outcome": "nonzero", "coefficient": "-2", "factorization": "-2",
        }
        json.loads(dumps_record(rec))
        rec = coefficient_record(
            CoefficientResult(0), *product((3,), (0, 0, 0), (), "reduced"),
            (0, 1, 2), elapsed=None,
        )
        assert (rec["variant"], rec["degree"], rec["fixes"]) == ("reduced", 3, "")

    def test_coefficient_record_outcomes(self):
        job = dict(elapsed=None)
        args = (*product((2,), (0, 0)), (0, 1))
        rec = coefficient_record(CoefficientResult(0), *args, **job)
        assert (rec["coefficient"], rec["outcome"]) == ("0", "zero")
        assert "factorization" not in rec
        aborted = CoefficientResult(None, note="term count 8 exceeds cap 5",
                                    checkpoint="ckpt.bin")
        rec = coefficient_record(aborted, *args, **job)
        assert "coefficient" not in rec and "terms" not in rec
        assert (rec["outcome"], rec["note"], rec["checkpoint"]) == (
            "aborted", "term count 8 exceeds cap 5", "ckpt.bin"
        )
        rec = coefficient_record(CoefficientResult(None, note="cap"), *args, **job)
        assert "checkpoint" not in rec

    def test_quotient_record_shape(self):
        res = search_quotient((3, 2), limit=10)
        rec = quotient_record(0, (3, 2), res.candidates[0], res.scanned)
        assert rec["kind"] == "quotient"
        assert rec["a"] == "0,1,0,0,1"
        assert rec["degree"] == 6
        assert (rec["t"], rec["b"], rec["feasible"]) == (2, "0,0,1,1,1,0", True)
        json.loads(dumps_record(rec))
        # degree 10 is above the bounding degree 3*2 + 2*1 = 8
        last = quotient_record(9, (3, 2), res.candidates[9], res.scanned)
        assert (last["degree"], last["feasible"]) == (10, False)


class TestScanVerificationApplicability:
    def test_scan_round_trip(self):
        for report in [
            scan_group(9, 3),
            scan_group(25, 6, count=10, seed=4),
            scan_group(8, 3, ROTATIONAL_ONLY),
            ScanReport(8, 4, "linear", 5, 3, ((1, 2, 3, 4), (1, 3, 5, 7)), False, None),
        ]:
            rec = scan_record(report)
            assert rec["kind"] == "scan"
            assert (rec["n"], rec["k"], rec["scan_kind"]) == (
                report.n, report.k, report.kind
            )
            assert (rec["scanned"], rec["sequenceable"]) == (
                report.scanned, report.sequenceable
            )
            # no field restates another: an exhaustive scan always searches
            # one subset per unit-multiple class
            assert rec["sampled"] == report.sampled and "reduced" not in rec
            assert rec["seed"] == ("" if report.seed is None else str(report.seed))
            assert rec["all_sequenceable"] is report.all_sequenceable
            assert rec["failures"] == len(report.failures)
            for i, subset in enumerate(report.failures):
                assert rec[f"failure{i}"] == format_exponents(subset)
            assert f"failure{len(report.failures)}" not in rec
            json.loads(dumps_record(rec))
        assert rec["failure1"] == "1,3,5,7"

    def test_verification_round_trip(self):
        report = verify_nonvanishing_conclusion(5, 2, (3, 2), (0, 1, 0, 0, 1))
        rec = verification_record(report)
        assert rec["kind"] == "verification"
        assert (rec["p"], rec["t"], rec["lam"], rec["a"]) == (5, 2, "3,2", "0,1,0,0,1")
        assert rec["subsets"] == rec["subsets_checked"] == report.subsets_checked > 0
        assert rec["ok"] is True and rec["failures"] == 0
        assert not any(key.startswith("failure0") for key in rec)
        failed = VerificationReport(
            5, 2, (3, 2), (0, 1, 0, 0, 1), 40, 7, 9,
            (((1, 0), (2, 0), (3, 0), (1, 1), (2, 1)),),
        )
        rec = verification_record(failed)
        assert (rec["subsets"], rec["subsets_checked"], rec["searched"]) == (40, 7, 9)
        assert rec["ok"] is False and rec["failures"] == 1
        assert rec["failure0"] == "1:0,2:0,3:0,1:1,2:1"

    def test_applicability_round_trip(self):
        import math

        import sympy

        p10 = sympy.nextprime(math.factorial(10) // 2)
        q13 = sympy.nextprime(math.factorial(13) // 2)
        tri = {True: "true", False: "false", None: "unknown"}
        for res in [
            applicability(100, 5),
            applicability(2 * p10, 10),
            applicability(2 * 19958401, 11),
            applicability(2 * q13, 13),
            applicability(2 * q13, 13, subset=tuple(range(2, 26, 2))[:12] + (3,)),
        ]:
            rec = applicability_record(res)
            assert rec["kind"] == "applicability"
            assert rec["n"] == str(res.n) and rec["k"] == res.k
            assert rec["verdict"] == res.verdict
            assert rec["unconditional"] is res.unconditional
            assert rec["subset"] == (
                "" if res.subset is None else format_exponents(res.subset)
            )
            assert rec["splits"] == len(res.splits)
            for i, split in enumerate(res.splits):
                assert rec[f"split{i}_t"] == split.t
                assert rec[f"split{i}_m"] == str(split.m)
                assert rec[f"split{i}_prime_ok"] == tri[split.prime_ok]
                assert rec[f"split{i}_caveat"] == split.caveat
                assert rec[f"split{i}_caveat_ok"] == tri[split.caveat_ok]
                assert rec[f"split{i}_lam0"] == (
                    "" if split.lam0 is None else str(split.lam0)
                )
                assert rec[f"split{i}_verdict"] == split.verdict
            assert f"split{len(res.splits)}_t" not in rec
            json.loads(dumps_record(rec))


class TestCertificateRecordTamper:
    def test_tampered_record_rejected_on_parse(self):
        cert = certify_type((3, 2), 2).certificate
        rec = certificate_record(cert)
        rec["degree"] = rec["degree"] + 1
        with pytest.raises(ValueError):
            certificate_from_record(rec)

    def reduced_record(self):
        report = assemble_case(4, 2, CaseConfig(variant="reduced"))
        return certificate_record(report.certificates()[0])

    def test_reduced_record_round_trips(self):
        rec = self.reduced_record()
        cert = certificate_from_record(rec)
        assert cert.variant == "reduced"
        assert "mutually inverse" in cert.validity_condition

    def test_tampered_variant_rejected(self):
        # an unknown variant would rebuild as reduced but state the full
        # variant's validity condition
        rec = self.reduced_record()
        rec["variant"] = "bogus"
        with pytest.raises(ValueError, match="unknown variant"):
            certificate_from_record(rec)

    def test_tampered_t_rejected(self):
        rec = self.reduced_record()
        rec["t"] = 35
        with pytest.raises(ValueError, match="t = 35"):
            certificate_from_record(rec)

    def test_tampered_k_rejected(self):
        # k = 4 with a monomial cut to 4 entries of the right degree used to
        # parse and claim every prime p > 4 for a 5-element type
        rec = certificate_record(certify_type((3, 2), 2).certificate)
        rec.update(k=4, entry0_monomial="1,1,2,2")
        with pytest.raises(ValueError, match="k = 4"):
            certificate_from_record(rec)

    def test_tampered_coefficient_rejected(self):
        cert = certify_type((3, 2), 2).certificate
        rec = certificate_record(cert)
        rec["entry0_coefficient"] = "7"
        with pytest.raises(ValueError):
            certificate_from_record(rec)


class TestCaseRecordTamper:
    @pytest.fixture(scope="class")
    def records(self):
        return {k: case_records(assemble_case(k, 2)) for k in (5, 7)}

    def test_missing_type_rejected(self, records):
        # without the (0,7) record the other seven read as a complete case
        kept = [r for r in records[7] if r.get("lam") != "0,7"]
        assert len(kept) == len(records[7]) - 1
        kept[0] = dict(kept[0], types=7, certified=7, unresolved=0, complete=True)
        with pytest.raises(ValueError, match="not the types of k = 7"):
            case_from_records(kept)

    @pytest.mark.parametrize("k, t, lam", [(5, 2, "5,0"), (6, 2, "6,0"), (6, 3, "6,0,0")])
    def test_mixed_variants_rejected(self, k, t, lam):
        # one prove run writes one variant; a reduced certificate holds only
        # for subsets with no two mutually inverse elements
        full = case_records(assemble_case(k, t))
        reduced = case_records(assemble_case(k, t, CaseConfig(variant=REDUCED)))
        (swap,) = [r for r in reduced if r.get("lam") == lam]
        assert swap["kind"] == "certificate" and swap["variant"] == REDUCED
        mixed = [swap if r.get("lam") == lam else r for r in full]
        assert mixed != full
        with pytest.raises(ValueError, match="variants"):
            case_from_records(mixed)

    def test_type_records_of_another_case_rejected(self, records):
        with pytest.raises(ValueError, match="in a case with k = 5"):
            case_from_records(records[5][:1] + records[7][1:])

    def test_summary_fields_keep_their_types(self, records):
        # 0 == False and 1 == True in Python, but not in the record
        summary = records[5][0]
        assert (summary["complete"], summary["unresolved"]) == (True, 0)
        for forged in (dict(summary, complete=1), dict(summary, unresolved=False)):
            with pytest.raises(ValueError, match="case summary says"):
                case_from_records([forged] + records[5][1:])

    def test_summary_counts_must_match(self, records):
        # every type of k = 7, t = 2 is certified; claim one is not
        assert records[7][0]["complete"] is True
        summary = dict(records[7][0], certified=7, unresolved=1, complete=False)
        with pytest.raises(ValueError, match="case summary says"):
            case_from_records([summary] + records[7][1:])

    def test_exceptional_primes_must_match(self, monkeypatch):
        # one sampled monomial per arrangement leaves one type of k = 6,
        # t = 2 with p = 7 excluded; the summary must name it
        monkeypatch.setattr(certify, "MAX_CANDIDATES", 1)
        records = case_records(assemble_case(6, 2))
        summary = records[0]
        assert summary["complete"] is True and summary["exceptional"] == "7"
        assert [r["exceptional"] for r in records[1:] if r["exceptional"]] == ["7"]
        for forged in (dict(summary, exceptional=""), dict(summary, exceptional="7,11"),
                       {key: v for key, v in summary.items() if key != "exceptional"}):
            with pytest.raises(ValueError, match="case summary says"):
                case_from_records([forged] + records[1:])
        assert case_from_records(records).exceptional == (7,)

    # name: (forgery, whether certificate_from_record reads the forged key)
    MALFORMED = {
        "no kind": (lambda rec: rec.pop("kind"), False),
        "no lam": (lambda rec: rec.pop("lam"), True),
        "no entry key": (lambda rec: rec.pop("entry0_coefficient"), True),
        "no attempt key": (lambda rec: rec.pop("attempt0_outcome"), False),
        "string attempts": (lambda rec: rec.update(attempts="3"), False),
        "string entries": (lambda rec: rec.update(entries="1"), True),
        "string k": (lambda rec: rec.update(k="5"), True),
        "bogus outcome": (lambda rec: rec.update(attempt0_outcome="bogus"), False),
        "forged coefficient": (lambda rec: rec.update(attempt0_coefficient="0"), False),
    }

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_type_record_named_by_its_lam(self, records, name):
        # each of these used to raise KeyError or TypeError, or parse
        forge, in_certificate = self.MALFORMED[name]
        forged = [dict(rec) for rec in records[5]]
        assert forged[1]["lam"] == "5,0" and forged[1]["attempt0_outcome"] == "nonzero"
        forge(forged[1])
        label = "record lam='5,0'" if "lam" in forged[1] else "record without lam"
        with pytest.raises(ValueError, match=label):
            case_from_records(forged)
        if in_certificate:
            with pytest.raises(ValueError, match=label):
                certificate_from_record(forged[1])

    def test_attempt_log_must_back_each_entry(self):
        records = case_records(assemble_case(4, 2))
        rec = records[1]
        assert (rec["lam"], rec["attempts"], rec["entry0_coefficient"]) == ("4,0", 1, "1")
        assert rec["attempt0_monomial"] == rec["entry0_monomial"]
        second = {f"attempt1_{key[9:]}": value
                  for key, value in rec.items() if key.startswith("attempt0_")}
        bare = {key: value for key, value in rec.items() if not key.startswith("attempt")}
        forgeries = {
            "other coefficient": dict(rec, attempt0_coefficient="7"),
            "other monomial": dict(rec, attempt0_monomial="3,3,3,2"),
            "zero outcome": dict(rec, attempt0_outcome="zero", attempt0_coefficient="0"),
            "no attempts": dict(bare, attempts=0),
            "attempted twice": dict(rec, **second, attempts=2),
        }
        for name, forgery in forgeries.items():
            forged = list(records)
            forged[1] = forgery
            with pytest.raises(ValueError, match="record lam='4,0': entry 0"):
                case_from_records(forged)
            # the certificate alone carries no attempts to check
            certificate_from_record(forged[1])
        assert case_from_records(records) == assemble_case(4, 2)

    @pytest.fixture(scope="class")
    def unresolved(self):
        # k = 9, t = 2 leaves (9,0) unresolved with a one-attempt log
        records = case_records(assemble_case(9, 2))
        (at,) = [i for i, r in enumerate(records) if r.get("lam") == "9,0"]
        assert records[at]["kind"] == "unresolved" and records[at]["attempts"] == 1
        return records, at

    @pytest.mark.parametrize("count, match", [
        (-1, "attempts must be at least 0, got -1"),
        (0, "attempt0_a is past its 0 attempts"),
    ])
    def test_attempt_count_is_checked(self, unresolved, count, match):
        # a negative count used to parse with an empty log, and attempt keys
        # at or past the count were ignored
        records, at = unresolved
        forged = list(records)
        forged[at] = dict(records[at], attempts=count)
        with pytest.raises(ValueError, match=f"record lam='9,0': {match}"):
            case_from_records(forged)
        assert case_from_records(records).results[at - 1].attempts

    def test_unresolved_reason_is_checked(self, unresolved):
        # (9,0)'s one attempt was skipped at the degree budget; any other
        # reason used to parse
        records, at = unresolved
        assert records[at]["reason"] == unresolved_reason(["skipped-degree"])
        for reason in ("every candidate monomial tried had coefficient zero",
                       "no arrangement satisfied the degree condition", ""):
            forged = list(records)
            forged[at] = dict(records[at], reason=reason)
            with pytest.raises(ValueError, match="record lam='9,0': reason .* its attempts give"):
                case_from_records(forged)
        assert case_from_records(records).results[at - 1].reason == records[at]["reason"]

    def test_summary_with_a_string_k_rejected(self, records):
        summary = dict(records[5][0], k="5")
        with pytest.raises(ValueError, match="case record without lam: k must be int"):
            case_from_records([summary] + records[5][1:])

    @pytest.fixture(scope="class")
    def derived(self):
        # (4,0,0), then the orbit {(3,1,0), (3,0,1)} whose second type is derived
        return case_records(assemble_case(4, 3))

    def test_wrong_orbit_rejected(self, derived):
        assert derived[1]["orbit"] == "4,0,0"
        for orbit in ("1,2,1", "4,0,0;0,4,0", ""):
            forged = list(derived)
            forged[1] = dict(forged[1], orbit=orbit)
            with pytest.raises(ValueError, match="wrong orbit"):
                case_from_records(forged)

    def test_wrong_derived_from_rejected(self, derived):
        assert "derived_from" not in derived[2]
        assert derived[3]["derived_from"] == "3,1,0"
        forged = {
            "on a representative": (2, dict(derived[2], derived_from="0,0,4")),
            "from itself": (2, dict(derived[2], derived_from="3,1,0")),
            "from another orbit": (3, dict(derived[3], derived_from="4,0,0")),
            "missing": (3, {key: v for key, v in derived[3].items()
                            if key != "derived_from"}),
        }
        for i, record in forged.values():
            records = list(derived)
            records[i] = record
            with pytest.raises(ValueError, match="representative is"):
                case_from_records(records)
        assert case_from_records(derived) == assemble_case(4, 3)

    def test_derived_certificate_must_be_its_representatives(self):
        records = case_records(assemble_case(5, 3))
        i = next(i for i, rec in enumerate(records) if rec.get("lam") == "4,0,1")
        rec = records[i]
        assert (rec["derived_from"], rec["entry0_coefficient"]) == ("4,1,0", "-1")
        # a coefficient of its own, consistent within the record and with
        # the summary, but not the representative's
        forged = list(records)
        forged[0] = dict(records[0], exceptional="7")
        forged[i] = dict(rec, entry0_coefficient="-7", entry0_factorization="-7",
                         exceptional="7")
        certificate_from_record(forged[i])
        with pytest.raises(ValueError, match="representative 4,1,0 transferred"):
            case_from_records(forged)
        assert case_from_records(records) == assemble_case(5, 3)

    def test_derived_unresolved_must_be_its_representatives(self):
        config = CaseConfig(max_degree=0)
        records = case_records(assemble_case(5, 3, config))
        i = next(i for i, rec in enumerate(records) if rec.get("lam") == "4,0,1")
        rec = records[i]
        assert rec["kind"] == "unresolved" and rec["derived_from"] == "4,1,0"
        # another reason than the representative's
        forged = list(records)
        forged[i] = dict(rec, reason="every candidate monomial tried had coefficient zero")
        with pytest.raises(ValueError, match="representative 4,1,0 transferred"):
            case_from_records(forged)
        # unresolved while the representative is certified
        certified = case_records(assemble_case(5, 3))
        assert certified[i]["kind"] == "certificate"
        forged = list(certified)
        forged[0] = dict(certified[0], certified=20, unresolved=1, complete=False)
        forged[i] = rec
        with pytest.raises(ValueError, match="representative 4,1,0 transferred"):
            case_from_records(forged)
        assert case_from_records(records) == assemble_case(5, 3, config)


# ---------------------------------------------------------------------------
# property tests: a mutated case file is rejected or certifies the same


@functools.cache
def _property_case(k, t):
    """(report, records) of a default prove run."""
    report = assemble_case(k, t)
    return report, tuple(case_records(report))


def _certified_content(report, records):
    """What a case file certifies: per type its lam, orbit, representative
    and certificate (or none), as parsed, and the fields of its summary
    record, as written."""
    types = [(r.lam, r.orbit, r.derived_from, r.certificate) for r in report.results]
    (summary,) = [r for r in records if r["kind"] == "case"]
    fields = ("k", "t", *reports._summary(report))
    # typed, so that 0 does not pass for false
    return types, {name: (type(summary.get(name)), summary.get(name)) for name in fields}


def _digit_positions(value):
    if type(value) not in (int, str):
        return []
    return [i for i, ch in enumerate(str(value)) if ch.isdigit()]


# values a replaced field may take besides those of the same field elsewhere
_OTHER_VALUES = ("", "0", "1", "7", "2,1", "0,0,0", "full", "reduced", "zero",
                 "nonzero", 0, 1, 2, -1, True, False)


@st.composite
def _mutations(draw, records):
    """records with one mutation: a field's value replaced, one digit of a
    number changed, the exceptional primes of a record forged, two records
    swapped, or a record dropped or duplicated."""
    records = [dict(r) for r in records]
    kind = draw(st.sampled_from(
        ["replace", "digit", "exceptional", "swap", "drop", "duplicate"]))
    i = draw(st.integers(0, len(records) - 1))
    if kind == "swap":
        j = draw(st.integers(0, len(records) - 2))
        j += j >= i
        records[i], records[j] = records[j], records[i]
    elif kind == "drop":
        del records[i]
    elif kind == "duplicate":
        records.insert(draw(st.integers(0, len(records))), dict(records[i]))
    elif kind == "exceptional":
        # no small case has exceptional primes of its own
        i = draw(st.sampled_from([n for n, r in enumerate(records) if "exceptional" in r]))
        primes = draw(st.lists(st.sampled_from((5, 7, 11, 13, 157)),
                               min_size=1, max_size=3, unique=True))
        records[i]["exceptional"] = format_exponents(sorted(primes))
    elif kind == "digit":
        key = draw(st.sampled_from(
            sorted(key for key, v in records[i].items() if _digit_positions(v))))
        value = records[i][key]
        text = str(value)
        at = draw(st.sampled_from(_digit_positions(value)))
        digit = draw(st.sampled_from([d for d in "0123456789" if d != text[at]]))
        text = text[:at] + digit + text[at + 1:]
        records[i][key] = int(text) if type(value) is int else text
    else:
        key = draw(st.sampled_from(sorted(records[i])))
        value = records[i][key]
        seen = {(type(r[key]), r[key]) for r in records if key in r}
        pool = sorted(seen | {(type(v), v) for v in _OTHER_VALUES}, key=repr)
        pool.remove((type(value), value))
        records[i][key] = draw(st.sampled_from(pool))[1]
    return records


class TestCaseRecordProperties:
    """(4, 3) has six derived orbit members; (9, 2) leaves (9,0) unresolved
    with skipped-degree attempts."""

    @pytest.mark.parametrize("case", [(4, 3), (9, 2)])
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_a_mutation_is_rejected_or_certifies_the_same(self, case, data):
        report, records = _property_case(*case)
        mutated = data.draw(_mutations(records))
        try:
            parsed = case_from_records(mutated)
        except ValueError:
            return
        assert _certified_content(parsed, mutated) == _certified_content(report, records)
