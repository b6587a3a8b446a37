"""Line-delimited report records and the text formats they share.

Every command emits UTF-8 JSON objects, one per line.  Records are flat
key-value maps so they stay diff-able and stream-appendable; repeated
sub-structures (certificate entries, scan failures, splits) are indexed
fields like ``entry0_monomial``.  Integers that can grow beyond 64 bits
(coefficients, moduli) are encoded as decimal strings.

Shared text formats:

* exponent vectors: comma-separated decimals, ``"8,9,9"``;
* factorizations: ``±p1^e1*p2^e2`` with the sign always present, ``^1``
  omitted, and the unit values rendered ``+1`` / ``-1``;
* point sets in Z_p x Z_t: ``x:v`` pairs, comma-separated.

Each record kind has one writer, fed by the object it describes: a case is
its summary record (``case_records``) followed by one ``type_record`` per
``TypeResult``, and ``quotient_record`` takes one ranked candidate of
``search_quotient``.  Certificate and case records parse back
(``certificate_from_record``, ``case_from_records``), and parsing re-runs the
certificate validators, so a tampered record is rejected rather than
trusted; the summary's counts and exceptional primes are defined once
(``_summary``) for the writer and the parser.  The other record kinds are
write-only.
"""

from __future__ import annotations

import json
import math
import re
from typing import IO, Iterable, Iterator

from . import __version__
from .applicability import ApplicabilityResult
from .certify import (
    AttemptRecord,
    CaseReport,
    Certificate,
    CertificateEntry,
    CoefficientResult,
    Factorization,
    TypeResult,
    derived_result,
)
from .factors import FactorList
from .groups import canonical_type, enumerate_types, type_orbit
from .oracle import ScanReport, VerificationReport
from .quotient import QuotientSequencing, bounding_degree

ENGINE_VERSION = f"nullseq {__version__}"

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


# ---------------------------------------------------------------------------
# scalar text formats


def format_exponents(vec: Iterable[int]) -> str:
    return ",".join(str(v) for v in vec)


def parse_exponents(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def format_points(points: Iterable[tuple[int, int]]) -> str:
    return ",".join(f"{x}:{v}" for x, v in points)


def format_factorization(f: Factorization) -> str:
    sign = "+" if f.sign > 0 else "-"
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in f.primes]
    if not parts:
        return sign + "1"
    return sign + "*".join(parts)


def parse_factorization(text: str) -> Factorization:
    text = text.strip()
    if not text or text[0] not in "+-":
        raise ValueError(f"factorization must start with an explicit sign: {text!r}")
    sign = 1 if text[0] == "+" else -1
    body = text[1:]
    if body == "1":
        return Factorization(sign, ())
    primes: list[tuple[int, int]] = []
    for part in body.split("*"):
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValueError(f"bad factor {part!r} in {text!r}")
        primes.append((int(m.group(1)), int(m.group(2) or 1)))
    return Factorization(sign, tuple(primes))


def _tri(state: bool | None) -> str:
    if state is None:
        return "unknown"
    return "true" if state else "false"


# ---------------------------------------------------------------------------
# record streams


def dumps_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def loads_record(line: str) -> dict:
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("report records must be JSON objects")
    return record


def write_records(records: Iterable[dict], stream: IO[str]) -> int:
    count = 0
    for record in records:
        stream.write(dumps_record(record) + "\n")
        count += 1
    return count


def read_records(stream: IO[str]) -> Iterator[dict]:
    for line in stream:
        line = line.strip()
        if line:
            yield loads_record(line)


def _base(kind: str, elapsed: float | None) -> dict:
    record = {"kind": kind, "engine": ENGINE_VERSION}
    if elapsed is not None:
        record["elapsed"] = round(elapsed, 3)
    return record


# ---------------------------------------------------------------------------
# certificate records


def _put_attempts(record: dict, attempts: tuple[AttemptRecord, ...]) -> None:
    record["attempts"] = len(attempts)
    for i, at in enumerate(attempts):
        record[f"attempt{i}_a"] = format_exponents(at.a)
        record[f"attempt{i}_fixes"] = format_exponents(at.fixes)
        record[f"attempt{i}_monomial"] = (
            "" if at.monomial is None else format_exponents(at.monomial)
        )
        record[f"attempt{i}_outcome"] = at.outcome
        record[f"attempt{i}_coefficient"] = (
            "" if at.coefficient is None else str(at.coefficient)
        )
        record[f"attempt{i}_note"] = at.note


def _label(record: dict) -> str:
    """How a parse error names a record: by its lam."""
    if "lam" in record:
        return f"record lam={record['lam']!r}"
    return f"{record.get('kind', 'untyped')} record without lam"


def _field(record: dict, key: str, kind: type = str):
    """record[key], which must be present and of exactly the type kind (so
    not a bool for int); otherwise a ValueError naming the record."""
    value = record.get(key)
    if type(value) is not kind:
        got = repr(value) if key in record else "nothing"
        raise ValueError(f"{_label(record)}: {key} must be {kind.__name__}, got {got}")
    return value


def _get_attempts(record: dict) -> tuple[AttemptRecord, ...]:
    """The attempt log: `attempts` entries, none when it is absent.  A
    negative count, or an attempt key at or past the count, is a
    ValueError naming the record."""
    count = _field(record, "attempts", int) if "attempts" in record else 0
    if count < 0:
        raise ValueError(f"{_label(record)}: attempts must be at least 0, got {count}")
    for key in record:
        match = re.fullmatch(r"attempt(\d+)_\w+", key)
        if match and int(match[1]) >= count:
            raise ValueError(f"{_label(record)}: {key} is past its {count} attempts")
    out = []
    for i in range(count):
        a, fixes, monomial, outcome, coefficient, note = (
            _field(record, f"attempt{i}_{name}")
            for name in ("a", "fixes", "monomial", "outcome", "coefficient", "note")
        )
        try:
            out.append(
                AttemptRecord(
                    a=parse_exponents(a),
                    fixes=parse_exponents(fixes),
                    monomial=parse_exponents(monomial) if monomial else None,
                    outcome=outcome,
                    coefficient=int(coefficient) if coefficient else None,
                    note=note,
                )
            )
        except ValueError as exc:
            raise ValueError(f"{_label(record)}: attempt {i}: {exc}") from exc
    return tuple(out)


def _check_entries_attempted(record: dict, cert: Certificate, attempts) -> None:
    """Each entry of a computed certificate must come from the one attempt on
    the certificate's arrangement and fixes with the entry's monomial, and
    that attempt must be nonzero with the entry's coefficient."""
    for i, entry in enumerate(cert.entries):
        tried = [
            (rec.outcome, rec.coefficient)
            for rec in attempts
            if (rec.a, rec.fixes, rec.monomial) == (cert.a, cert.fixes, entry.monomial)
        ]
        if tried != [("nonzero", entry.coefficient)]:
            raise ValueError(
                f"{_label(record)}: entry {i} has coefficient {entry.coefficient}, "
                f"but the attempts on its arrangement, fixes and monomial give {tried}"
            )


def certificate_record(cert: Certificate) -> dict:
    record = _base("certificate", None)
    record.update(
        k=cert.k,
        t=cert.t,
        lam=format_exponents(cert.lam),
        a=format_exponents(cert.a),
        fixes=format_exponents(cert.fixes),
        variant=cert.variant,
        degree=cert.degree,
        bound=format_exponents(cert.bound),
        exceptional=format_exponents(cert.exceptional),
        entries=len(cert.entries),
    )
    for i, entry in enumerate(cert.entries):
        record[f"entry{i}_monomial"] = format_exponents(entry.monomial)
        record[f"entry{i}_coefficient"] = str(entry.coefficient)
        record[f"entry{i}_factorization"] = format_factorization(entry.factorization)
    return record


def certificate_from_record(record: dict) -> Certificate:
    entries = tuple(
        CertificateEntry(
            monomial=parse_exponents(_field(record, f"entry{i}_monomial")),
            coefficient=int(_field(record, f"entry{i}_coefficient")),
            factorization=parse_factorization(_field(record, f"entry{i}_factorization")),
        )
        for i in range(_field(record, "entries", int))
    )
    return Certificate(
        k=_field(record, "k", int),
        t=_field(record, "t", int),
        lam=parse_exponents(_field(record, "lam")),
        a=parse_exponents(_field(record, "a")),
        fixes=parse_exponents(_field(record, "fixes")),
        variant=_field(record, "variant"),
        degree=_field(record, "degree", int),
        bound=parse_exponents(_field(record, "bound")),
        entries=entries,
        exceptional=parse_exponents(_field(record, "exceptional")),
    )


def type_record(k: int, t: int, result: TypeResult) -> dict:
    """The record of one type of a case: its certificate record, or an
    unresolved record with the reason, then its orbit, the representative
    it is derived from (if any) and its attempts (if any)."""
    if result.certificate is not None:
        record = certificate_record(result.certificate)
    else:
        record = _base("unresolved", None)
        record.update(k=k, t=t, lam=format_exponents(result.lam), reason=result.reason)
    record["orbit"] = ";".join(format_exponents(lam) for lam in result.orbit)
    if result.derived_from is not None:
        record["derived_from"] = format_exponents(result.derived_from)
    if result.attempts:
        _put_attempts(record, result.attempts)
    return record


def _summary(report: CaseReport) -> dict:
    """The fields of a case summary record, as its type results give them."""
    certified = len(report.certificates())
    return dict(
        types=len(report.results),
        certified=certified,
        unresolved=len(report.results) - certified,
        complete=report.complete,
        exceptional=format_exponents(report.exceptional),
    )


def case_records(report: CaseReport, *, elapsed: float | None = None) -> list[dict]:
    """The summary record (k, t and _summary's counts and exceptional
    primes), then one type_record per type."""
    summary = _base("case", elapsed)
    summary.update(k=report.k, t=report.t, **_summary(report))
    return [summary] + [type_record(report.k, report.t, r) for r in report.results]


def case_from_records(records: Iterable[dict]) -> CaseReport:
    """The case a summary record and its type records describe.

    The type records must be those of every type of the summary's (k, t),
    in enumerate_types order, and the summary's counts and exceptional
    primes (the union of its certificates') must match them.  Each type
    record's orbit must be its type's, and derived_from must name the
    orbit's representative, or be absent on the representative itself.  A
    derived record must hold its representative's result as
    certify.derived_result transfers it, and a certificate that is not
    derived must carry the attempt behind each entry.  Every certificate of
    the case must have the same variant, as one prove run writes: a reduced
    one holds only for subsets with no two mutually inverse elements.
    """
    records = list(records)
    summaries = [r for r in records if _field(r, "kind") == "case"]
    if len(summaries) != 1:
        raise ValueError("expected exactly one case summary record")
    summary = summaries[0]
    k, t = _field(summary, "k", int), _field(summary, "t", int)
    results = []
    for record in records:
        if record["kind"] not in ("certificate", "unresolved"):
            continue
        lam = parse_exponents(_field(record, "lam"))
        if (_field(record, "k", int), _field(record, "t", int)) != (k, t):
            raise ValueError(
                f"type record {record['lam']} has k = {record['k']}, t = {record['t']} "
                f"in a case with k = {k}, t = {t}"
            )
        orbit = tuple(
            parse_exponents(part) for part in _field(record, "orbit").split(";") if part
        )
        if orbit != type_orbit(lam):
            raise ValueError(f"type record {record['lam']} gives a wrong orbit")
        derived = None
        if "derived_from" in record:
            derived = parse_exponents(_field(record, "derived_from"))
        rep = canonical_type(lam)
        if derived != (None if rep == lam else rep):
            raise ValueError(
                f"type record {record['lam']} says it is derived from {derived}; "
                f"its orbit representative is {rep}"
            )
        common = dict(orbit=orbit, attempts=_get_attempts(record), derived_from=derived)
        if record["kind"] == "certificate":
            cert = certificate_from_record(record)
            if derived is None:
                _check_entries_attempted(record, cert, common["attempts"])
            results.append(TypeResult(lam=cert.lam, certificate=cert, reason=None, **common))
        else:
            results.append(
                TypeResult(lam=lam, certificate=None, reason=_field(record, "reason"), **common)
            )
    lams = [r.lam for r in results]
    # count first, so that a forged k or t starts no huge enumeration
    if len(lams) != math.comb(k + t - 1, t - 1) or lams != enumerate_types(k, t):
        raise ValueError(f"the type records are not the types of k = {k}, t = {t} in order")
    by_lam = dict(zip(lams, results))
    for result in results:
        rep = result.derived_from
        if rep is not None and result != derived_result(by_lam[rep], result.lam):
            raise ValueError(
                f"type record {format_exponents(result.lam)} is not the result of "
                f"its representative {format_exponents(rep)} transferred to it"
            )
    report = CaseReport(k=k, t=t, results=tuple(results))
    variants = sorted({cert.variant for cert in report.certificates()})
    if len(variants) > 1:
        raise ValueError(f"the certificates of one case have the variants {variants}")
    parsed = _summary(report)
    declared = {name: summary.get(name) for name in parsed}
    # typed, so that 0 does not pass for false nor true for 1
    if [(type(v), v) for v in declared.values()] != [(type(v), v) for v in parsed.values()]:
        raise ValueError(f"case summary says {declared} but its type records give {parsed}")
    return report


# ---------------------------------------------------------------------------
# coefficient / quotient records


def coefficient_record(
    result: CoefficientResult,
    qs: QuotientSequencing,
    fl: FactorList,
    bound: tuple[int, ...],
    monomial: tuple[int, ...],
    *,
    elapsed: float | None,
) -> dict:
    """The record of one compute_coefficient result for the product
    (qs, fl, bound) of factors.product.

    An aborted result has no coefficient field; it gives the abort's note
    and, when one was saved, its checkpoint path instead; a nonzero one
    gives its factorization.
    """
    record = _base("coefficient", elapsed)
    record.update(
        k=qs.k,
        t=qs.t,
        lam=format_exponents(qs.type_vector()),
        a=format_exponents(qs.a),
        fixes=format_exponents(sorted(fl.fixed)),
        variant=fl.variant,
        monomial=format_exponents(monomial),
        degree=fl.degree,
        bound=format_exponents(bound),
        outcome=result.outcome,
    )
    if result.coefficient is None:
        record["note"] = result.note
        if result.checkpoint:
            record["checkpoint"] = result.checkpoint
    else:
        record["coefficient"] = str(result.coefficient)
    if result.factorization is not None:
        record["factorization"] = format_factorization(result.factorization)
    return record


def quotient_record(
    rank: int,
    lam: tuple[int, ...],
    candidate: tuple[int, int, tuple[int, ...]],
    scanned: int,
    *,
    elapsed: float | None = None,
) -> dict:
    """The record of one ranked (degree, max multiplicity, a) candidate of
    search_quotient for the type lam; feasible when its degree is at most
    the type's bounding degree."""
    degree, max_multiplicity, a = candidate
    record = _base("quotient", elapsed)
    record.update(
        rank=rank,
        t=len(lam),
        lam=format_exponents(lam),
        a=format_exponents(a),
        b=format_exponents(QuotientSequencing(a, len(lam)).b),
        degree=degree,
        max_multiplicity=max_multiplicity,
        feasible=degree <= bounding_degree(lam),
        scanned=scanned,
    )
    return record


# ---------------------------------------------------------------------------
# scan / verification / applicability records


def scan_record(report: ScanReport, *, elapsed: float | None = None) -> dict:
    record = _base("scan", elapsed)
    record.update(
        n=report.n,
        k=report.k,
        scan_kind=report.kind,
        scanned=report.scanned,
        sequenceable=report.sequenceable,
        sampled=report.sampled,
        seed="" if report.seed is None else str(report.seed),
        all_sequenceable=report.all_sequenceable,
        failures=len(report.failures),
    )
    for i, subset in enumerate(report.failures):
        record[f"failure{i}"] = format_exponents(subset)
    return record


def verification_record(
    report: VerificationReport, *, elapsed: float | None = None
) -> dict:
    record = _base("verification", elapsed)
    record.update(
        p=report.p,
        t=report.t,
        lam=format_exponents(report.lam),
        a=format_exponents(report.a),
        subsets=report.subsets,
        subsets_checked=report.subsets_checked,
        searched=report.searched,
        ok=report.ok,
        failures=len(report.failures),
    )
    for i, subset in enumerate(report.failures):
        record[f"failure{i}"] = format_points(subset)
    return record


def applicability_record(
    result: ApplicabilityResult, *, elapsed: float | None = None
) -> dict:
    record = _base("applicability", elapsed)
    record.update(
        n=str(result.n),
        k=result.k,
        verdict=result.verdict,
        unconditional=result.unconditional,
        subset="" if result.subset is None else format_exponents(result.subset),
        splits=len(result.splits),
    )
    for i, split in enumerate(result.splits):
        record[f"split{i}_t"] = split.t
        record[f"split{i}_m"] = str(split.m)
        record[f"split{i}_prime_ok"] = _tri(split.prime_ok)
        record[f"split{i}_caveat"] = split.caveat
        record[f"split{i}_caveat_ok"] = _tri(split.caveat_ok)
        record[f"split{i}_lam0"] = "" if split.lam0 is None else str(split.lam0)
        record[f"split{i}_verdict"] = split.verdict
    return record
