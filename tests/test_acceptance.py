"""Acceptance checks: one test per criterion, each printing a single
pass/fail line under ``pytest -v``.

Criteria 3 and 6 also have opt-in long-running halves: set NULLSEQ_EXTENDED=1
for the exact large-k coefficient replications (27-30 s) and the n=25 scans
(9-12 s), and NULLSEQ_HEAVY=1 for the k=12 pair (8 minutes and 2.5 GB of
memory), all timed on one core of a shared 2-core host.
"""

import itertools
import math
import random
import time

import pytest
import sympy

from nullseq import engine
from nullseq.applicability import applicability
from nullseq.catalog import LIGHT, TABLE1, by_name
from nullseq.certify import assemble_case
from nullseq.engine import (
    EngineAbort,
    load_checkpoint,
    multiply_factors,
    naive_expand,
    save_checkpoint,
)
from nullseq.factors import bounding_monomial, build_p, build_q
from nullseq.groups import enumerate_types
from nullseq.oracle import scan_group, verify_nonvanishing_conclusion
from nullseq.quotient import (
    QuotientSequencing,
    bounding_degree,
    enumerate_arrangements,
    induced_degree,
    validate_quotient,
)


def _fixture_coefficient(fx, **engine_kwargs):
    qs = validate_quotient(fx.a, fx.lam)
    fl = build_p(qs, fx.fixes)
    bound = bounding_monomial(fx.lam, qs, fx.fixes)
    poly = multiply_factors(fl, bound=bound, target=fx.monomial, **engine_kwargs)
    return poly.coefficient(fx.monomial)


def test_criterion_1_worked_examples():
    for name, expected in [("worked-3-2", -1), ("worked-5-2-fixed", -2)]:
        fx = by_name(name)
        start = time.monotonic()
        assert _fixture_coefficient(fx) == expected
        assert time.monotonic() - start < 1.0, name


def test_criterion_2_light_table_rows():
    light = [fx for fx in TABLE1 if fx.tier == LIGHT]
    assert len(light) == 15
    start = time.monotonic()
    for fx in light:
        assert _fixture_coefficient(fx) == fx.coefficient, fx.name
    assert time.monotonic() - start < 30 * 60


def test_criterion_3_checkpoint_cleanly(tmp_path, monkeypatch):
    # the long k=11 computation must abort at a resource cap with a usable
    # checkpoint: bit-stable on disk, resumable, and strictly further along
    # after the resumed leg.  The caps are the engine's live-term guard,
    # lowered for the test.
    fx = by_name("11-a")
    qs = validate_quotient(fx.a, fx.lam)
    fl = build_p(qs, fx.fixes)
    bound = bounding_monomial(fx.lam, qs, fx.fixes)
    monkeypatch.setattr(engine, "TERM_CAP", 200_000)
    with pytest.raises(EngineAbort) as first:
        multiply_factors(fl, bound=bound, target=fx.monomial)
    cp1 = first.value.checkpoint
    path = tmp_path / "k11.bin"
    save_checkpoint(path, cp1)
    reloaded = load_checkpoint(path)
    assert reloaded == cp1
    path2 = tmp_path / "k11-again.bin"
    save_checkpoint(path2, reloaded)
    assert path.read_bytes() == path2.read_bytes()
    monkeypatch.setattr(engine, "TERM_CAP", 600_000)
    with pytest.raises(EngineAbort) as second:
        multiply_factors(fl, bound=bound, target=fx.monomial, resume=reloaded)
    cp2 = second.value.checkpoint
    assert cp2.factor_index > cp1.factor_index
    assert len(cp2.terms) > len(cp1.terms)


@pytest.mark.extended
def test_criterion_3_extended_exact_values():
    for name in ("10-2-a", "10-2-b", "11-a", "11-b"):
        fx = by_name(name)
        assert _fixture_coefficient(fx) == fx.coefficient, fx.name


@pytest.mark.heavy
def test_criterion_3_heavy_k12():
    for name in ("12-a", "12-b"):
        fx = by_name(name)
        assert _fixture_coefficient(fx) == fx.coefficient, fx.name


def test_criterion_4_engine_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(2026)
    compared = 0
    while compared < 200:
        k = rng.randint(2, 6)
        t = rng.randint(1, 3)
        a = tuple(rng.randrange(t) for _ in range(k))
        lam = tuple(a.count(v) for v in range(t))
        qs = validate_quotient(a, lam)
        fl = (build_p if rng.random() < 0.7 else build_q)(qs)
        bound = bounding_monomial(lam, qs)
        if not 1 <= fl.degree <= 12 or fl.degree > sum(bound):
            continue
        # every monomial of the product's degree dividing the bound, asked
        # for one at a time
        pruned = {}
        for target in itertools.product(*(range(b + 1) for b in bound)):
            if sum(target) == fl.degree:
                pruned.update(multiply_factors(fl, bound=bound, target=target).terms)
        naive = naive_expand(fl)
        expected = {
            key: c
            for key, c in naive.terms.items()
            if all(e <= b for e, b in zip(key.to_bytes(fl.k, "little"), bound))
        }
        assert pruned == expected
        compared += 1
    assert time.monotonic() - start < 60


def test_criterion_5_degree_formulas():
    start = time.monotonic()
    checked = 0
    for t in range(1, 6):
        for k in range(1, 9):
            for lam in enumerate_types(k, t):
                assert bounding_degree(lam) == sum(v * (v - 1) for v in lam)
                for a in enumerate_arrangements(lam):
                    qs = QuotientSequencing(a, t)
                    assert build_p(qs).degree == induced_degree(lam, qs.b), (
                        lam,
                        a,
                    )
                    checked += 1
    assert checked == 586_018
    assert time.monotonic() - start < 5 * 60


def _unit_classes(n, k):
    """The number of k-subsets of Z_n \\ {0} up to unit multiples, by
    Burnside's lemma: the mean over units u of the k-subsets that u fixes,
    which are the unions of cycles of x -> u*x."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    fixed = 0
    for u in units:
        unions = [1] + [0] * k  # unions[j]: unions of the cycles so far of size j
        left = set(range(1, n))
        while left:
            x = y = left.pop()
            length = 1
            while (y := u * y % n) != x:
                left.remove(y)
                length += 1
            unions = [c + (unions[j - length] if j >= length else 0)
                      for j, c in enumerate(unions)]
        fixed += unions[k]
    assert fixed % len(units) == 0
    return fixed // len(units)


def test_criterion_6_oracle_scans():
    start = time.monotonic()
    for n in range(2, 14):
        for k in range(1, n):
            report = scan_group(n, k)
            assert report.all_sequenceable, (n, k, report.failures[:3])
            # a scan that dropped classes would still read all sequenceable
            assert report.scanned == _unit_classes(n, k), (n, k)
    assert time.monotonic() - start < 10 * 60


@pytest.mark.extended
def test_criterion_6_extended_n25():
    for k in (10, 11):
        report = scan_group(25, k)
        assert report.all_sequenceable, (k, report.failures[:3])
        assert report.scanned == _unit_classes(25, k), k


def test_criterion_7_certificate_soundness():
    start = time.monotonic()
    for k, types in ((5, 6), (6, 7)):
        report = assemble_case(k, 2)
        assert report.complete
        certs = report.certificates()
        assert len(certs) == types
        for cert in certs:
            for p in (11, 13):
                ver = verify_nonvanishing_conclusion(p, 2, cert.lam, cert.a)
                assert ver.ok, (k, cert.lam, p, ver.failures[:2])
                lam0, lam1 = cert.lam
                assert ver.subsets_checked == math.comb(p - 1, lam0) * math.comb(
                    p, lam1
                )
    assert time.monotonic() - start < 20 * 60


def test_criterion_8_applicability_truth_table():
    p10 = sympy.nextprime(math.factorial(10) // 2)
    p12 = sympy.nextprime(math.factorial(12) // 2)
    q13 = sympy.nextprime(math.factorial(13) // 2)
    q14 = sympy.nextprime(math.factorial(14) // 2)
    q15 = sympy.nextprime(math.factorial(15) // 2)
    odd_one = tuple(range(2, 26, 2))[:12] + (3,)
    evens13 = tuple(range(2, 28, 2))
    evens14 = tuple(range(2, 30, 2))
    two_inside = (2, 4) + tuple(range(1, 27, 2))
    three_inside = (2, 4, 6) + tuple(range(1, 25, 2))
    cases = [
        # (n, k, subset, expected verdict)
        (12, 5, None, "yes"),
        (100, 9, None, "yes"),
        (p10, 10, None, "yes"),
        (2 * p10, 10, None, "yes"),
        (5 * p10, 10, None, "yes"),
        (22, 10, None, "no"),
        (2 * 19958401, 11, None, "no"),
        (3 * 19958443, 11, None, "yes"),
        (4 * 19958443, 11, None, "yes"),
        (2 * p12, 12, None, "yes"),
        (5 * p12, 12, None, "no"),
        (2 * q13, 13, None, "conditional"),
        (2 * q13, 13, odd_one, "yes"),
        (2 * q13, 13, evens13, "no"),
        (3 * q13, 13, None, "conditional"),
        (2 * q14, 14, None, "conditional"),
        (2 * q14, 14, evens14, "no"),
        (2 * q15, 15, None, "conditional"),
        (2 * q15, 15, two_inside, "no"),
        (2 * q15, 15, three_inside, "yes"),
    ]
    assert len(cases) == 20
    start = time.monotonic()
    for n, k, subset, expected in cases:
        got = applicability(n, k, subset=subset).verdict
        assert got == expected, (n, k, subset, expected, got)
    assert time.monotonic() - start < 1.0
