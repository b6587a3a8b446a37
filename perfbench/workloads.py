"""The four benchmark workloads: their CLI jobs, built from a seed, and the
gate that checks every job's output outside the timed section.

* ``table1-light``: ``table1 --name N`` for each of the 17 light-tier
  fixtures, known-answer coefficients of mid-size products.  Exercises
  mid-size engine calls and the ``table1`` path of ``cli`` and ``reports``.
* ``coeff-10-2-a``: one ``coeff`` job, catalog row 10-2-a (k=10, degree 89,
  about 417k peak terms).  Almost all engine time and term-dict memory.
* ``prove-sweep``: ``prove`` for k = 1..9 and t in {2, 3}, 18 cases and 273
  type records.  Thousands of small engine calls, most of which return zero,
  plus quotient search and fix choice; the only workload with unresolved
  types.
* ``oracle-crosscheck``: fixed ``scan`` jobs plus ``verify`` jobs drawn from
  the frozen pool of k <= 6 certificates.  The engine does no work here.

The seed fixes the order of the jobs, and for ``oracle-crosscheck`` which
certificates are verified.  The inputs of ``table1-light`` and
``coeff-10-2-a`` are fixed known-answer fixtures.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from nullseq import reports
from nullseq.certify import exceptional_primes
from nullseq.engine import multiply_factors, naive_expand
from nullseq.factors import FULL, bounding_monomial, build_p, build_q
from nullseq.quotient import validate_quotient

NAMES = ("table1-light", "coeff-10-2-a", "prove-sweep", "oracle-crosscheck")

POOL = Path(__file__).resolve().parent / "oracle_pool.json"

# Frozen expectations, independent of the program's catalog.
TABLE1_LIGHT = {
    "9-1": -4, "8-2": -42, "7-3": -42, "6-4": 10, "5-5-a": 628,
    "5-5-b": 323285, "4-6-a": 3120, "4-6-b": 2778, "3-7": -72,
    "2-8-a": -2554, "2-8-b": -578, "1-9-a": 578, "1-9-b": 2588,
    "0-10-a": 4398, "0-10-b": 1440, "worked-3-2": -1, "worked-5-2-fixed": -2,
}
COEFF_10_2_A = 595372941856
PROVE_CASES = [(k, t) for k in range(1, 10) for t in (2, 3)]
SCAN_JOBS = [(13, 6), (14, 6), (15, 5), (16, 5), (16, 6), (17, 5), (18, 6), (19, 5), (20, 6)]
# Verify jobs are drawn until their frozen cost reaches this total, from jobs
# whose cost lies in VERIFY_BAND, so every seed gets the same amount of work.
VERIFY_TARGET_MS = 1800.0
VERIFY_BAND_MS = (8.0, 60.0)
# naive_expand's own limits: beyond them the cross-check is skipped.
NAIVE_MAX_K, NAIVE_MAX_DEGREE = 8, 25


@dataclass
class Check:
    """What the gate found in one job's output."""

    attempted: int = 0
    failed: int = 0
    unresolved: int = 0
    engine_calls: int = 0
    quotient_calls: int = 0
    cert_attempts: int = 0
    scan_subsets: int = 0
    verify_subsets: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, other: "Check") -> None:
        for name, value in vars(other).items():
            if name == "errors":
                self.errors.extend(value)
            else:
                setattr(self, name, getattr(self, name) + value)


@dataclass
class Job:
    argv: list[str]
    check: Callable[[int | None, list[dict]], Check]


@dataclass
class Workload:
    name: str
    jobs: list[Job]


def _vec(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# gates


def table1_check(name: str, expected: int):
    def check(rc, records) -> Check:
        out = Check(attempted=1, engine_calls=len(records))
        rec = records[0] if len(records) == 1 else {}
        if rc != 0 or rec.get("name") != name or rec.get("match") is not True \
                or rec.get("coefficient") != str(expected):
            out.failed = 1
            out.errors.append(f"table1 {name}: exit {rc}, {rec.get('coefficient')} != {expected}")
        return out

    return check


def coeff_check(rc, records) -> Check:
    out = Check(attempted=1, engine_calls=1)
    value = records[0].get("coefficient") if len(records) == 1 else None
    if rc != 0 or value != str(COEFF_10_2_A):
        out.failed = 1
        out.errors.append(f"coeff 10-2-a exited {rc} with {value}, expected {COEFF_10_2_A}")
    return out


def recheck_certificates(records) -> tuple[int, list[str]]:
    """Recompute every entry of the certificate records.

    Parsing re-runs the certificates' validators.  Each coefficient is then
    recomputed with ``multiply_factors`` and, within its limits, with the
    unpruned ``naive_expand``; the exceptional primes are re-derived.  A
    certificate transferred to another type of its orbit has the same factor
    product, so each distinct product is expanded once.  Returns the number
    of records that failed and the mismatches found.
    """
    errors: list[str] = []
    bad: set[int] = set()
    groups: dict[tuple, list] = {}
    for i, record in enumerate(records):
        try:
            cert = reports.certificate_from_record(record)
        except (KeyError, ValueError) as exc:
            bad.add(i)
            errors.append(f"unreadable certificate {record.get('lam')}: {exc}")
            continue
        qs = validate_quotient(cert.a, cert.lam)
        fl = (build_p if cert.variant == FULL else build_q)(qs, cert.fixes)
        bound = bounding_monomial(cert.lam, qs, cert.fixes)
        key = (tuple(tuple(f.terms()) for f in fl.factors), bound)
        groups.setdefault(key, []).append((i, cert, fl, bound))
        primes = exceptional_primes([e.coefficient for e in cert.entries], cert.k, cert.t)
        if primes != tuple(cert.exceptional):
            bad.add(i)
            errors.append(f"lam={cert.lam}: exceptional {cert.exceptional}, re-derived {primes}")
    for members in groups.values():
        _, first, fl, bound = members[0]
        naive = None
        if first.k <= NAIVE_MAX_K and fl.degree <= NAIVE_MAX_DEGREE:
            naive = naive_expand(fl)
        pruned: dict[tuple, int] = {}
        for i, cert, _, _ in members:
            for entry in cert.entries:
                if entry.monomial not in pruned:
                    poly = multiply_factors(fl, bound=bound, target=entry.monomial)
                    pruned[entry.monomial] = poly.coefficient(entry.monomial)
                values = [pruned[entry.monomial]]
                if naive is not None:
                    values.append(naive.coefficient(entry.monomial))
                if any(v != entry.coefficient for v in values):
                    bad.add(i)
                    errors.append(
                        f"lam={cert.lam} a={cert.a} monomial={entry.monomial}: "
                        f"recorded {entry.coefficient}, recomputed {values}"
                    )
    return len(bad), errors


def prove_check(k: int, t: int):
    def check(rc, records) -> Check:
        out = Check()
        summary = records[0] if records and records[0].get("kind") == "case" else {}
        types = records[1:]
        expected_types = math.comb(k + t - 1, t - 1)
        out.attempted = expected_types
        if len(types) != expected_types or summary.get("types") != expected_types:
            out.errors.append(f"prove {k},{t}: {len(types)} type records, expected {expected_types}")
        unresolved = sum(1 for rec in types if rec.get("kind") == "unresolved")
        out.unresolved = unresolved
        if summary.get("unresolved") != unresolved or rc != (1 if unresolved else 0):
            out.errors.append(f"prove {k},{t}: exit {rc} with {unresolved} unresolved types")
        for rec in types:
            if "derived_from" not in rec:
                out.quotient_calls += 1
            for i in range(rec.get("attempts", 0)):
                if rec[f"attempt{i}_outcome"] in ("zero", "nonzero", "aborted"):
                    out.engine_calls += 1
            if rec.get("kind") not in ("certificate", "unresolved"):
                out.errors.append(f"prove {k},{t}: unexpected record {rec.get('kind')}")
        out.failed, problems = recheck_certificates(
            [rec for rec in types if rec.get("kind") == "certificate"]
        )
        out.errors.extend(problems)
        out.cert_attempts = out.engine_calls
        return out

    return check


def orbit_count(n: int, k: int) -> int:
    """Number of k-subsets of Z_n minus 0 up to multiplication by units.

    Burnside's lemma over the unit group: a subset is fixed by a unit u
    exactly when it is a union of cycles of x -> u*x, so the fixed subsets
    of size k are counted from the cycle lengths.
    """
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    total = 0
    for u in units:
        ways = [1] + [0] * k
        seen = set()
        for x in range(1, n):
            if x in seen:
                continue
            length, y = 0, x
            while y not in seen:
                seen.add(y)
                y = (u * y) % n
                length += 1
            for size in range(k, length - 1, -1):
                ways[size] += ways[size - length]
        total += ways[k]
    return total // len(units)


def subset_count(p: int, t: int, lam) -> int:
    """Subsets of Z_p x Z_t of type lam, the identity excluded."""
    count = 1
    for v, c in enumerate(lam):
        count *= math.comb(p - 1 if v == 0 else p, c)
    return count


def scan_check(n: int, k: int):
    def check(rc, records) -> Check:
        out = Check(attempted=1)
        rec = records[0] if len(records) == 1 else {}
        expected = orbit_count(n, k)
        out.scan_subsets = rec.get("scanned", 0)
        if rc != 0 or rec.get("scanned") != expected or rec.get("sequenceable") != expected \
                or rec.get("failures") != 0:
            out.failed = 1
            out.errors.append(f"scan {n},{k}: exit {rc}, {rec}, expected {expected} subsets")
        return out

    return check


def verify_check(p: int, t: int, lam, frozen: int):
    def check(rc, records) -> Check:
        out = Check(attempted=1)
        rec = records[0] if len(records) == 1 else {}
        expected = subset_count(p, t, lam)
        out.verify_subsets = rec.get("subsets_checked", 0)
        if expected != frozen:
            out.errors.append(f"verify p={p} lam={lam}: pool says {frozen}, counted {expected}")
        if rc != 0 or rec.get("subsets_checked") != expected or rec.get("ok") is not True \
                or rec.get("failures") != 0:
            out.failed = 1
            out.errors.append(f"verify p={p} lam={lam}: exit {rc}, {rec}, expected {expected}")
        return out

    return check


# ---------------------------------------------------------------------------
# inputs


def draw_verify_jobs(seed: int) -> list[dict]:
    """Pool jobs in the cost band, in seeded order, until the target is met."""
    with open(POOL, encoding="utf-8") as fh:
        pool = json.load(fh)["jobs"]
    lo, hi = VERIFY_BAND_MS
    candidates = [job for job in pool if lo <= job["est_ms"] <= hi]
    random.Random(seed).shuffle(candidates)
    chosen, total = [], 0.0
    for job in candidates:
        if total + job["est_ms"] <= VERIFY_TARGET_MS:
            chosen.append(job)
            total += job["est_ms"]
        if total > VERIFY_TARGET_MS - lo:
            break
    return chosen


def build(name: str, seed: int) -> Workload:
    """The jobs of one workload for one seed."""
    rng = random.Random(seed)
    if name == "table1-light":
        jobs = [Job(["table1", "--name", row], table1_check(row, value))
                for row, value in TABLE1_LIGHT.items()]
        rng.shuffle(jobs)
    elif name == "coeff-10-2-a":
        jobs = [Job(["coeff", "--k", "10", "--t", "2", "--lambda", "10,0",
                     "--a", _vec([0] * 10), "--monomial", _vec([8] + [9] * 9)],
                    coeff_check)]
    elif name == "prove-sweep":
        jobs = [Job(["prove", "--k", str(k), "--t", str(t)], prove_check(k, t))
                for k, t in PROVE_CASES]
        rng.shuffle(jobs)
    elif name == "oracle-crosscheck":
        jobs = [Job(["scan", "--n", str(n), "--k", str(k)], scan_check(n, k))
                for n, k in SCAN_JOBS]
        for job in draw_verify_jobs(seed):
            lam = tuple(int(x) for x in job["lam"].split(","))
            jobs.append(Job(
                ["verify", "--p", str(job["p"]), "--t", str(job["t"]),
                 "--lambda", job["lam"], "--a", job["a"]],
                verify_check(job["p"], job["t"], lam, job["subsets"]),
            ))
        rng.shuffle(jobs)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, jobs)
