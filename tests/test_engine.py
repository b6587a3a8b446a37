import dataclasses
import hashlib
import math
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullseq import engine
from nullseq.catalog import ALL_FIXTURES, LIGHT, TABLE1, WORKED, by_name
from nullseq.certify import sample_monomials
from nullseq.engine import (
    EngineCheckpoint,
    OpCapExceeded,
    SparsePolynomial,
    TermCapExceeded,
    load_checkpoint,
    multiply_factors,
    naive_expand,
    pack,
    save_checkpoint,
)
from nullseq.factors import (
    FULL,
    REDUCED,
    Difference,
    FactorList,
    InfeasibleFixing,
    Window,
    apply_fixes,
    bounding_monomial,
    build_p,
    build_q,
    product,
)
from nullseq.quotient import validate_quotient

QS32 = validate_quotient((0, 1, 0, 0, 1), (3, 2))
# a monomial of build_p(QS32)'s degree dividing its bounding monomial
T32 = (2, 0, 2, 1, 1)
KERNELS = ("dict", "array")


def use_kernel(monkeypatch, kernel):
    """Run every call on one kernel: on arrays once the degree threshold is
    0, on dicts once it is above every product's degree."""
    monkeypatch.setattr(engine, "ARRAY_DEGREE", 0 if kernel == "array" else 1 << 30)


def term_cap_at(monkeypatch, cap):
    """Lower the engine's live-term guard for one test."""
    monkeypatch.setattr(engine, "TERM_CAP", cap)


def fixture_product(fx):
    qs = validate_quotient(fx.a, fx.lam)
    return build_p(qs, fx.fixes), bounding_monomial(fx.lam, qs, fx.fixes)


def random_factor_list(rng, max_k=6, max_degree=12):
    """Random small factor list built from a random type and arrangement."""
    while True:
        k = rng.randint(2, max_k)
        t = rng.randint(1, 3)
        a = tuple(rng.randrange(t) for _ in range(k))
        lam = tuple(a.count(v) for v in range(t))
        qs = validate_quotient(a, lam)
        build = build_p if rng.random() < 0.7 else build_q
        fl = build(qs)
        if 1 <= fl.degree <= max_degree:
            return fl, lam, qs


def unpack(key, k):
    """The exponents of a packed monomial, one byte per position: the
    inverse of engine.pack."""
    return tuple((key >> (8 * idx)) & 255 for idx in range(k))


def digit_loop_live_counts(plans):
    """Live terms after each step, classifying terms digit by digit.

    The reference for the engine's packed-lane test: the same rule (two
    digits below threshold kill a term, one leaves only its increment)
    applied by reading each digit of the key.
    """
    terms = {0: 1}
    counts = []
    for fac in plans:
        new = {}
        for key, coef in terms.items():
            below = [e for e in fac if (key >> e[0]) & 255 < e[2]]
            if len(below) > 1:
                continue
            for shift, sign, _, cap in below or fac:
                if (key >> shift) & 255 < cap:
                    nk = key + (1 << shift)
                    new[nk] = new.get(nk, 0) + sign * coef
        terms = {key: c for key, c in new.items() if c}
        counts.append(len(terms))
    return counts


def meet_walk(fl, target):
    """The engine's steps as (side, f, live), rebuilt from the digit loop.

    The head's live counts are those of fl's plan and the tail's those of
    the plan of the same factors in reverse order.  Each step goes to the
    side with fewer live terms, to the head on a tie, and to the tail only
    while it holds at most MEET_TERMS.  Once a side empties, each factor
    left follows with 0, in list order.
    """
    n = fl.degree
    reversed_fl = dataclasses.replace(fl, factors=fl.factors[::-1])
    head = digit_loop_live_counts(engine._factor_plan(fl, target))
    tail = digit_loop_live_counts(engine._factor_plan(reversed_fl, target))
    walk, lo, hi, h, t = [], 0, n, 1, 1
    while lo < hi:
        if t < h and t <= engine.MEET_TERMS:
            hi -= 1
            t = live = tail[n - 1 - hi]
            walk.append(("tail", hi, live))
        else:
            h = live = head[lo]
            walk.append(("head", lo, live))
            lo += 1
        if not live:
            return walk + [(None, g, 0) for g in range(lo, hi)]
    return walk


def meet_steps(fl, target):
    """The engine's on_step calls, (f, live) per factor."""
    return [(f, live) for _, f, live in meet_walk(fl, target)]


def tuple_dict(poly):
    """The polynomial's terms keyed by exponent tuples."""
    return {unpack(key, poly.k): c for key, c in poly.terms.items()}


def box_monomials(box, degree):
    """Every monomial of the given degree dividing box, in lexicographic order."""
    if not box:
        if degree == 0:
            yield ()
        return
    for e in range(min(box[0], degree) + 1):
        for rest in box_monomials(box[1:], degree - e):
            yield (e, *rest)


def targeted_expansion(fl, bound=None):
    """The product's terms dividing bound, by one targeted call per monomial
    of the product's degree dividing it.  Without a bound every monomial
    whose exponents stay within their variables' factor counts is asked,
    and every term of the product divides that box."""
    terms = {}
    for target in box_monomials(bound or fl.occurrences[0], fl.degree):
        got = tuple_dict(multiply_factors(fl, bound=bound, target=target))
        assert set(got) <= {target}
        terms.update(got)
    return terms


def naive_under(naive, bound):
    """naive's terms dividing bound, keyed by exponent tuples."""
    return {exps: c for exps, c in tuple_dict(naive).items()
            if all(e <= b for e, b in zip(exps, bound))}


def plain_factor_plan(fl, target):
    """The engine plan recomputed from fl.factors alone on every call: the
    reference for _factor_plan and FactorList.occurrences."""
    count = [0] * fl.k
    for factor in fl.factors:
        for v in factor.variables():
            count[v - 1] += 1
    caps = [min(e, c) for e, c in zip(target, count)]
    plans = []
    for f, factor in enumerate(fl.factors):
        entries = []
        for v, sign in factor.terms():
            later = sum(v in g.variables() for g in fl.factors[f + 1:])
            thr = min(max(target[v - 1] - later, 0), caps[v - 1] + 1)
            entries.append((8 * (v - 1), sign, thr, caps[v - 1]))
        plans.append(tuple(entries))
    return plans


class TestPacking:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            k = rng.randint(1, 12)
            exps = tuple(rng.randint(0, 255) for _ in range(k))
            assert unpack(pack(exps), k) == exps

    def test_position_one_is_lowest_byte(self):
        assert pack((3, 0, 0)) == 3
        assert pack((0, 1, 0)) == 256

    def test_exponent_overflow(self):
        with pytest.raises(ValueError):
            pack((256,))


class TestSparsePolynomial:
    def test_accessors(self):
        poly = SparsePolynomial(2, {pack((1, 0)): 4, pack((0, 2)): -7})
        assert poly.coefficient((1, 0)) == 4
        assert poly.coefficient((2, 0)) == 0
        assert tuple_dict(poly) == {(1, 0): 4, (0, 2): -7}
        assert poly.coefficient((0, 2)) == -7


class TestAgainstNaive:
    def test_full_expansion_matches(self):
        rng = random.Random(42)
        for _ in range(40):
            fl, lam, qs = random_factor_list(rng)
            assert targeted_expansion(fl) == tuple_dict(naive_expand(fl))

    # (ARRAY_DEGREE, MEET_TERMS): arrays from step 0, and a tail that stops
    # once it holds 3 terms
    SETTINGS = {"array": (0, engine.MEET_TERMS), "early-meet": (engine.ARRAY_DEGREE, 2)}

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_full_expansion_matches_in_other_settings(self, monkeypatch, setting):
        array_degree, meet = self.SETTINGS[setting]
        monkeypatch.setattr(engine, "ARRAY_DEGREE", array_degree)
        monkeypatch.setattr(engine, "MEET_TERMS", meet)
        self.test_full_expansion_matches()

    def test_bounded_expansion_matches_filtered_naive(self):
        rng = random.Random(43)
        for _ in range(30):
            fl, lam, qs = random_factor_list(rng)
            bound = bounding_monomial(lam, qs)
            if fl.degree > sum(bound):
                continue
            assert targeted_expansion(fl, bound) == naive_under(naive_expand(fl), bound)

    def test_target_coefficient_matches_naive(self):
        rng = random.Random(44)
        checked = 0
        while checked < 30:
            fl, lam, qs = random_factor_list(rng)
            bound = bounding_monomial(lam, qs)
            if fl.degree > sum(bound):
                continue
            naive = naive_expand(fl)
            live = [
                exps
                for exps in tuple_dict(naive)
                if all(e <= b for e, b in zip(exps, bound))
            ]
            if not live:
                continue
            target = live[rng.randrange(len(live))]
            got = multiply_factors(fl, bound=bound, target=target)
            assert got.coefficient(target) == naive.coefficient(target)
            checked += 1

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("order", ["canonical", "mirrored"])
    def test_both_orders_match_naive(self, monkeypatch, order, kernel):
        # canonical: the list as emitted; mirrored: the same list reversed
        use_kernel(monkeypatch, kernel)
        rng = random.Random(45)
        for _ in range(40):
            fl, lam, qs = random_factor_list(rng)
            if order == "mirrored":
                fl = dataclasses.replace(fl, factors=fl.factors[::-1])
            naive = naive_expand(fl)
            assert targeted_expansion(fl) == tuple_dict(naive)
            bound = bounding_monomial(lam, qs)
            if fl.degree > sum(bound):
                continue
            live = [
                exps
                for exps in tuple_dict(naive)
                if all(e <= b for e, b in zip(exps, bound))
            ]
            for target in live[:4]:
                got = multiply_factors(fl, bound=bound, target=target)
                assert tuple_dict(got) == {target: naive.coefficient(target)}

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_lane_test_keeps_the_digit_rule(self, monkeypatch, kernel):
        use_kernel(monkeypatch, kernel)
        rng = random.Random(46)
        checked = 0
        while checked < 40:
            fl, lam, qs = random_factor_list(rng, max_k=7, max_degree=16)
            bound = bounding_monomial(lam, qs)
            if fl.degree > sum(bound):
                continue
            full = naive_under(naive_expand(fl), bound)
            if not full:
                continue
            target = sorted(full)[rng.randrange(len(full))]
            seen = []
            multiply_factors(fl, bound=bound, target=target,
                             on_step=lambda f, n: seen.append((f, n)))
            assert seen == meet_steps(fl, target)
            checked += 1
        for fx in [f for f in TABLE1 if f.tier == LIGHT] + list(WORKED):
            fl, bound = fixture_product(fx)
            seen = []
            got = multiply_factors(fl, bound=bound, target=fx.monomial,
                                   on_step=lambda f, n: seen.append((f, n)))
            assert got.coefficient(fx.monomial) == fx.coefficient, fx.name
            assert seen == meet_steps(fl, fx.monomial), fx.name

    def test_naive_guards(self):
        fl = build_p(validate_quotient((0,) * 9, (9,)))
        with pytest.raises(ValueError):
            naive_expand(fl)
        small = build_p(QS32)
        with pytest.raises(ValueError):
            naive_expand(small, max_degree=3)


class TestPreconditions:
    def test_target_is_required(self):
        fl = build_p(QS32)
        with pytest.raises(TypeError, match="target"):
            multiply_factors(fl)
        with pytest.raises(TypeError, match="target"):
            multiply_factors(fl, bound=bounding_monomial((3, 2), QS32))

    def test_bound_arity(self):
        with pytest.raises(ValueError):
            multiply_factors(build_p(QS32), bound=(1, 2), target=T32)

    def test_bound_range(self):
        with pytest.raises(ValueError):
            multiply_factors(build_p(QS32), bound=(300, 1, 1, 1, 1), target=T32)

    def test_degree_exceeding_bound_is_an_error(self):
        with pytest.raises(ValueError, match="exceeds bound degree"):
            multiply_factors(build_p(QS32), bound=(1, 1, 1, 1, 1), target=T32)

    def test_target_arity_and_sign(self):
        fl = build_p(QS32)
        with pytest.raises(ValueError):
            multiply_factors(fl, target=(1, 2))
        with pytest.raises(ValueError):
            multiply_factors(fl, target=(-1, 2, 2, 2, 1))

    def test_target_must_divide_bound(self):
        fl = build_p(QS32)
        bound = bounding_monomial((3, 2), QS32)
        bad = (3, 0, 1, 1, 1)  # entry 0 exceeds bound entry 2
        with pytest.raises(ValueError, match="divide the bound"):
            multiply_factors(fl, bound=bound, target=bad)

    def test_target_degree_must_match(self):
        fl = build_p(QS32)
        with pytest.raises(ValueError, match="does not match product degree"):
            multiply_factors(fl, target=(1, 0, 1, 1, 1))


class TestDomain:
    """Every request has k <= 16 and target exponents of at most 15, so each
    exponent fits a 4-bit lane of the array kernel."""

    REQUESTS = {
        # k = 17 needs more than 64 bits of 4-bit lanes
        "k17": (FactorList(17, (Difference(16, 17),) * 3, frozenset(), "full"),
                (0,) * 15 + (1, 2)),
        # every cap fits a lane (x16 occurs in 15 factors), the target does not
        "x16^16": (FactorList(16, (Window((0, 3), (1, 2, 3)),) * 5
                              + (Window((14, 16), (15, 16)),) * 15, frozenset(), "full"),
                   (2, 1, 1) + (0,) * 12 + (16,)),
    }

    @pytest.mark.parametrize("request_", REQUESTS)
    def test_outside_requests_raise_before_any_step(self, request_):
        fl, target = self.REQUESTS[request_]
        seen = []
        with pytest.raises(ValueError, match="outside the engine's domain"):
            multiply_factors(fl, target=target, on_step=lambda f, n: seen.append(f))
        assert seen == []

    def test_binomial_at_the_edge(self):
        fl = FactorList(2, (Difference(1, 2),) * 30, frozenset(), "full")
        # (x2 - x1)^30: x1^15 x2^15 has coefficient (-1)^15 C(30, 15)
        got = multiply_factors(fl, target=(15, 15))
        assert got.coefficient((15, 15)) == -math.comb(30, 15)
        with pytest.raises(ValueError, match="outside the engine's domain"):
            multiply_factors(fl, target=(16, 14))

    def test_the_program_requests_fit(self):
        # what prove, coeff, table1 and the benchmark's re-check ask: every
        # catalog fixture, and the largest bounding monomial of the k <= 15
        # envelope, (15,) at t = 1, whose exponents are all 14.  The engine
        # does not run.
        for fx in ALL_FIXTURES:
            fl, bound = fixture_product(fx)
            assert fl.k <= 16 and max(fx.monomial) <= 15 and max(bound) <= 15, fx.name
        qs = validate_quotient((0,) * 15, (15,))
        assert bounding_monomial((15,), qs) == (14,) * 15

    def test_the_kernel_rule_falls_between_the_tiers(self):
        # the worked examples and 6-4 (degree 39) stay on dicts; every other
        # light row, and every heavy and massive row, runs on arrays from
        # step 0, so table1 --tier light checks both kernels.  The engine
        # does not run.
        on_dicts = set()
        for fx in ALL_FIXTURES:
            degree = len(fixture_product(fx)[0].factors)
            assert degree == fx.degree, fx.name
            if degree < engine.ARRAY_DEGREE:
                assert fx.tier == LIGHT, fx.name
                on_dicts.add(fx.name)
        assert on_dicts == {"6-4", "worked-3-2", "worked-5-2-fixed"}


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        terms = {
            pack((1, 2, 3)): 5,
            pack((0, 0, 7)): -(2**200 + 17),
            pack((4, 4, 4)): 2**64,
        }
        tail_terms = {pack((0, 5, 1)): -(2**70), pack((2, 2, 2)): 3}
        cp = EngineCheckpoint(3, 9, terms, 12, tail_terms)
        path1 = tmp_path / "a.bin"
        path2 = tmp_path / "b.bin"
        save_checkpoint(path1, cp)
        save_checkpoint(path2, cp)
        assert path1.read_bytes() == path2.read_bytes()
        back = load_checkpoint(path1)
        assert back.k == 3 and back.factor_index == 9 and back.tail_index == 12
        assert back.terms == terms and back.tail_terms == tail_terms

    def test_synced_before_renamed(self, tmp_path, monkeypatch):
        # without the sync an OS crash can leave the renamed file empty
        calls = []
        fsync, replace = os.fsync, os.replace

        def synced(fd):
            calls.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))
            fsync(fd)

        def renamed(src, dst):
            calls.append(("replace", os.stat(src).st_ino, os.stat(src).st_size))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(os, "replace", renamed)
        path = tmp_path / "a.bin"
        save_checkpoint(path, EngineCheckpoint(3, 9, {pack((1, 2, 3)): 5}, 9, {0: 1}))
        final = os.stat(path)
        assert calls == [("fsync", final.st_ino, final.st_size),
                         ("replace", final.st_ino, final.st_size)]
        assert final.st_size > 0

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)
        for old in (b"NSEQCKP1", b"NSEQCKP2", b"NSEQCKP3", b"NSEQCKP4"):
            path.write_bytes(old + bytes(14))
            with pytest.raises(ValueError, match="earlier engine"):
                load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path, monkeypatch):
        fx = by_name("6-4")
        qs = validate_quotient(fx.a, fx.lam)
        fl = build_p(qs)
        term_cap_at(monkeypatch, 50)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bounding_monomial(fx.lam, qs),
                             target=fx.monomial)
        path = tmp_path / "full.bin"
        save_checkpoint(path, info.value.checkpoint)
        data = path.read_bytes()
        for cut in (data[:20], data[:-1]):
            short = tmp_path / "short.bin"
            short.write_bytes(cut)
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(short)
        longer = tmp_path / "long.bin"
        longer.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(longer)

    def test_every_flipped_bit_is_refused(self, tmp_path, monkeypatch):
        fx = by_name("6-4")
        fl, bound = fixture_product(fx)
        term_cap_at(monkeypatch, 50)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bound, target=fx.monomial)
        cp = info.value.checkpoint
        # both term blocks hold terms the tail and the head multiplied
        assert 0 < cp.factor_index < cp.tail_index < fl.degree
        assert len(cp.terms) > 1 and len(cp.tail_terms) > 1
        path = tmp_path / "full.bin"
        save_checkpoint(path, cp)
        data = path.read_bytes()
        flipped = tmp_path / "flipped.bin"
        for at in range(len(data)):
            for bit in (0, 7):
                flipped.write_bytes(data[:at] + bytes([data[at] ^ 1 << bit])
                                    + data[at + 1:])
                with pytest.raises(ValueError):
                    load_checkpoint(flipped)

    # sha256 of the 6-4 checkpoint saved at a live-term cap of 50, pinned so
    # that no change to the abort path changes the file a resume reads; it
    # holds the head after factors 0 .. 4 and the tail after factors 31 .. 38
    TERM_CAP_50_SHA256 = "ce374a6924061df02ca886d38c042b08cdd26692154cc334594ffd003dc7fc2b"

    def test_term_cap_abort_and_resume(self, tmp_path, monkeypatch):
        fx = by_name("6-4")
        qs = validate_quotient(fx.a, fx.lam)
        fl = build_p(qs)
        bound = bounding_monomial(fx.lam, qs)
        default = engine.TERM_CAP
        for kernel in KERNELS:
            use_kernel(monkeypatch, kernel)
            term_cap_at(monkeypatch, 50)
            with pytest.raises(TermCapExceeded) as info:
                multiply_factors(fl, bound=bound, target=fx.monomial)
            assert str(info.value) == "term count 87 exceeds cap 50 at factor 5"
            cp = info.value.checkpoint
            assert cp is not None and cp.k == fl.k
            assert (cp.factor_index, cp.tail_index) == (5, 31)
            path = tmp_path / f"capped-{kernel}.bin"
            save_checkpoint(path, cp)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TERM_CAP_50_SHA256
            term_cap_at(monkeypatch, default)
            resumed = multiply_factors(fl, bound=bound, target=fx.monomial, resume=cp)
            assert resumed.coefficient(fx.monomial) == fx.coefficient

    def test_term_cap_is_a_fixed_guard(self):
        assert engine.TERM_CAP == 200_000_000
        with pytest.raises(TypeError, match="term_cap"):
            multiply_factors(build_p(QS32), target=T32, term_cap=50)

    def test_op_cap_abort_and_resume(self):
        fx = by_name("6-4")
        qs = validate_quotient(fx.a, fx.lam)
        fl = build_p(qs)
        bound = bounding_monomial(fx.lam, qs)
        with pytest.raises(OpCapExceeded) as info:
            multiply_factors(fl, bound=bound, target=fx.monomial, op_cap=500)
        cp = info.value.checkpoint
        assert cp.k == fl.k
        resumed = multiply_factors(fl, bound=bound, target=fx.monomial, resume=cp)
        assert resumed.coefficient(fx.monomial) == fx.coefficient

    def test_checkpoint_file_round_trip_mid_run(self, tmp_path, monkeypatch):
        fx = by_name("6-4")
        qs = validate_quotient(fx.a, fx.lam)
        fl = build_p(qs)
        bound = bounding_monomial(fx.lam, qs)
        term_cap_at(monkeypatch, 50)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bound, target=fx.monomial)
        monkeypatch.undo()
        path = tmp_path / "mid.bin"
        save_checkpoint(path, info.value.checkpoint)
        resumed = multiply_factors(
            fl, bound=bound, target=fx.monomial, resume=load_checkpoint(path)
        )
        assert resumed.coefficient(fx.monomial) == fx.coefficient

    def test_resume_rejects_an_edited_factor_index(self, tmp_path, monkeypatch):
        fx = by_name("6-4")
        fl, bound = fixture_product(fx)
        term_cap_at(monkeypatch, 50)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bound, target=fx.monomial)
        monkeypatch.undo()
        assert info.value.checkpoint.factor_index == 5
        path = tmp_path / "edited.bin"
        save_checkpoint(path, info.value.checkpoint)
        data = path.read_bytes()
        magic = len(engine.CHECKPOINT_MAGIC)
        offset = magic + 1  # after the magic and k
        for index in (4, 6):
            edited = data[:offset] + struct.pack("<I", index) + data[offset + 4:-32]
            path.write_bytes(edited + data[-32:])
            with pytest.raises(ValueError, match="digest"):
                load_checkpoint(path)
            # an edit with a matching digest still fails the resume checks
            path.write_bytes(edited + hashlib.sha256(edited[magic:]).digest())
            cp = load_checkpoint(path)
            assert cp.factor_index == index
            with pytest.raises(ValueError, match="factor index"):
                multiply_factors(fl, bound=bound, target=fx.monomial, resume=cp)
        path.write_bytes(data)
        resumed = multiply_factors(fl, bound=bound, target=fx.monomial,
                                   resume=load_checkpoint(path))
        assert resumed.coefficient(fx.monomial) == fx.coefficient == 10

    def test_resume_rejects_a_digit_above_its_cap(self, monkeypatch):
        fx = by_name("6-4")
        fl, bound = fixture_product(fx)
        term_cap_at(monkeypatch, 50)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bound, target=fx.monomial)
        cp = info.value.checkpoint
        assert cp.factor_index == 5 and fx.monomial[3] == 3
        bad = pack((1, 0, 0, 4) + (0,) * 6)  # degree 5, but x4's cap is 3
        with pytest.raises(ValueError, match="factor index 5"):
            multiply_factors(fl, bound=bound, target=fx.monomial,
                             resume=dataclasses.replace(cp, terms={**cp.terms, bad: 1}))
        # the tail has multiplied factors 31 .. 38, so its terms have degree 8
        assert cp.tail_index == 31
        bad = pack((0, 0, 0, 4, 4) + (0,) * 5)  # degree 8, but x4's cap is 3
        with pytest.raises(ValueError, match="tail index 31"):
            multiply_factors(fl, bound=bound, target=fx.monomial,
                             resume=dataclasses.replace(
                                 cp, tail_terms={**cp.tail_terms, bad: 1}))
        with pytest.raises(ValueError, match="tail index 30"):
            multiply_factors(fl, bound=bound, target=fx.monomial,
                             resume=dataclasses.replace(cp, tail_index=30))

    def test_resume_validation(self):
        fl = build_p(QS32)
        n = fl.degree
        with pytest.raises(ValueError):
            multiply_factors(fl, target=T32, resume=EngineCheckpoint(4, 0, {0: 1}, n, {0: 1}))
        with pytest.raises(ValueError):
            multiply_factors(fl, target=T32, resume=EngineCheckpoint(0, 0, {0: 1}, n, {0: 1}))
        for lo, hi in ((99, n), (0, n + 1), (3, 2), (-1, n)):
            with pytest.raises(ValueError, match="not in order"):
                multiply_factors(fl, target=T32,
                                 resume=EngineCheckpoint(5, lo, {0: 1}, hi, {0: 1}))


class TestPruningProperties:
    def test_on_step_callback(self):
        fl = build_p(QS32)
        seen = []
        multiply_factors(fl, target=T32, on_step=lambda f, n: seen.append((f, n)))
        # once per factor: the head's positions rise from 0, the tail's fall
        # from n - 1
        assert sorted(f for f, _ in seen) == list(range(fl.degree))
        assert [f for f, _ in seen] == [0, 1, 5, 4, 3, 2]
        assert all(n >= 1 for _, n in seen)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_coefficients_are_dropped_eagerly(self, monkeypatch, kernel):
        # (x2-x1)(x2-x1) * ... keeps dicts free of zero entries: a target
        # whose coefficient cancels comes back with no term
        use_kernel(monkeypatch, kernel)
        rng = random.Random(77)
        for _ in range(20):
            fl, lam, qs = random_factor_list(rng)
            box = list(box_monomials(fl.occurrences[0], fl.degree))
            for target in rng.sample(box, min(12, len(box))):
                poly = multiply_factors(fl, target=target)
                assert all(c != 0 for c in poly.terms.values())


class TestVanishingProduct:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_steps_after_the_last_term_are_not_multiplied(self, monkeypatch, kernel):
        # targets whose head or tail empties before the sides meet: on_step
        # and the result must match the walk rebuilt from the digit loop,
        # with the factors left reported as 0 in list order, and no empty
        # step runs
        use_kernel(monkeypatch, kernel)
        multiplied = []
        for name in ("_dict_step", "_array_step"):
            step = getattr(engine, name)

            def counted(*args, _step=step):
                multiplied.append(1)
                return _step(*args)

            monkeypatch.setattr(engine, name, counted)
        rng = random.Random(91)
        checked, sides = 0, set()
        while checked < 15:
            fl, lam, qs = random_factor_list(rng, max_k=7, max_degree=16)
            bound = bounding_monomial(lam, qs)
            if fl.degree > sum(bound):
                continue
            target = list(bound)
            while sum(target) > fl.degree:
                v = rng.randrange(len(target))
                target[v] -= target[v] > 0
            walk = meet_walk(fl, target)
            steps = [side for side, _, _ in walk if side is not None]
            if len(steps) == len(walk):
                continue
            seen, multiplied[:] = [], []
            got = multiply_factors(fl, bound=bound, target=target,
                                   on_step=lambda f, n: seen.append((f, n)))
            assert got.terms == {}
            assert seen == [(f, live) for _, f, live in walk]
            assert len(multiplied) == len(steps)
            sides.update(steps[-1:])
            checked += 1
        # products vanish on either side
        assert sides == {"head", "tail"}


class TestFactorOrder:
    """The engine multiplies 1-9-b's factors in the order build_p lists them,
    the head from the first and the tail from the last."""

    FX = by_name("1-9-b")

    def setup_method(self):
        qs = validate_quotient(self.FX.a, self.FX.lam)
        self.fl = build_p(qs)
        self.bound = bounding_monomial(self.FX.lam, qs)

    def test_on_step_reports_every_factor_once(self):
        seen = []
        got = multiply_factors(self.fl, bound=self.bound, target=self.FX.monomial,
                               on_step=lambda f, n: seen.append((f, n)))
        assert got.coefficient(self.FX.monomial) == self.FX.coefficient
        assert sorted(f for f, _ in seen) == list(range(self.fl.degree))
        # the head alone peaks at 5056 terms, and at 26 812 when the factors
        # over the lowest positions come first; the head stops at factor 27
        # and the tail at 28, before either reaches its peak
        assert max(n for _, n in seen) == 4285

    def test_op_cap_checkpoint_resume(self, tmp_path, monkeypatch):
        with pytest.raises(OpCapExceeded) as info:
            multiply_factors(self.fl, bound=self.bound, target=self.FX.monomial,
                             op_cap=50_000)
        cp = info.value.checkpoint
        # factor_index is the position in fl.factors of the head's next
        # factor, tail_index that of the tail's last; a head step aborted
        assert 0 < cp.factor_index < cp.tail_index < self.fl.degree
        assert str(info.value).endswith(f"at factor {cp.factor_index - 1}")
        path = tmp_path / "aborted.bin"
        save_checkpoint(path, cp)
        resumed = multiply_factors(self.fl, bound=self.bound,
                                   target=self.FX.monomial,
                                   resume=load_checkpoint(path))
        assert resumed.coefficient(self.FX.monomial) == 2588
        # the same abort inside an array step saves the same bytes, and the
        # dict-made checkpoint resumes on arrays
        monkeypatch.setattr(engine, "ARRAY_DEGREE", 0)
        with pytest.raises(OpCapExceeded) as again:
            multiply_factors(self.fl, bound=self.bound, target=self.FX.monomial,
                             op_cap=50_000)
        assert str(again.value) == str(info.value)
        on_arrays = tmp_path / "arrays.bin"
        save_checkpoint(on_arrays, again.value.checkpoint)
        assert on_arrays.read_bytes() == path.read_bytes()
        resumed = multiply_factors(self.fl, bound=self.bound,
                                   target=self.FX.monomial,
                                   resume=load_checkpoint(path))
        assert resumed.coefficient(self.FX.monomial) == 2588

    # sha256 of the op_cap 50 000 checkpoint above, pinned so that building
    # it lazily from arrays cannot change the file a resume reads; it holds
    # both sides, the head after factors 0 .. 17 and the tail after 32 .. 59
    OP_CAP_50K_SHA256 = "4aeacfea703219cc60dd412eb5cfa420b3889781896063cfcb1b4e16ff043ed4"

    def test_array_checkpoint_is_built_once_when_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "ARRAY_DEGREE", 0)
        built = []
        to_dict = engine._to_dict

        def spy(*args):
            built.append(len(args[0]))
            return to_dict(*args)

        monkeypatch.setattr(engine, "_to_dict", spy)
        with pytest.raises(OpCapExceeded) as info:
            multiply_factors(self.fl, bound=self.bound, target=self.FX.monomial,
                             op_cap=50_000)
        assert built == []  # nothing read the checkpoint yet
        cp = info.value.checkpoint
        assert info.value.checkpoint is cp
        # both sides are on arrays; each becomes a dict once
        assert built == [len(cp.terms), len(cp.tail_terms)] == [2909, 2572]
        assert (cp.factor_index, cp.tail_index) == (18, 32)
        path = tmp_path / "lazy.bin"
        save_checkpoint(path, cp)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.OP_CAP_50K_SHA256
        resumed = multiply_factors(self.fl, bound=self.bound,
                                   target=self.FX.monomial,
                                   resume=load_checkpoint(path))
        assert resumed.coefficient(self.FX.monomial) == self.FX.coefficient == 2588

    def test_capped_legs_resume(self):
        # legs under one cap, each resumed from the last one's checkpoint,
        # reach the coefficient, and every leg moves a side (every cap from
        # 1 000 to 250 000 in steps of 1 000 was checked once; this samples
        # them)
        for op_cap in range(1_000, 250_001, 27_000):
            resume = None
            while True:
                try:
                    got = multiply_factors(self.fl, bound=self.bound,
                                           target=self.FX.monomial, op_cap=op_cap,
                                           resume=resume)
                    break
                except OpCapExceeded as abort:
                    cp = abort.checkpoint
                    if resume is not None:
                        assert ((cp.factor_index, cp.tail_index)
                                != (resume.factor_index, resume.tail_index))
                        assert cp.factor_index >= resume.factor_index
                        assert cp.tail_index <= resume.tail_index
                    resume = cp
            assert got.coefficient(self.FX.monomial) == 2588, op_cap

    def test_reordered_checkpoint_is_refused(self, tmp_path):
        # the plan hash covers the factor order, so a checkpoint saved from
        # one order never resumes on another
        with pytest.raises(OpCapExceeded) as info:
            multiply_factors(self.fl, bound=self.bound, target=self.FX.monomial,
                             op_cap=50_000)
        path = tmp_path / "ordered.bin"
        save_checkpoint(path, info.value.checkpoint)
        reversed_fl = dataclasses.replace(self.fl, factors=self.fl.factors[::-1])
        with pytest.raises(ValueError, match="different computation"):
            multiply_factors(reversed_fl, bound=self.bound, target=self.FX.monomial,
                             resume=load_checkpoint(path))


class TestMeet:
    """The two frontiers meet where the term-ops are fewest."""

    LIGHT = [fx for fx in TABLE1 if fx.tier == LIGHT] + list(WORKED)

    def test_light_tier_term_ops(self):
        # each step costs its input's live terms times the factor's size; a
        # head alone spends 2 557 746 term-ops on these 17 products
        assert len(self.LIGHT) == 17
        total, tail_steps = 0, 0
        for fx in self.LIGHT:
            fl, bound = fixture_product(fx)
            live = {"head": 1, "tail": 1}
            bounds = [0, fl.degree]  # the factors [lo, hi) left

            def on_step(f, n):
                nonlocal total, tail_steps
                lo, hi = bounds
                # only the meeting factor could be either side's
                if f == lo and (lo < hi - 1 or not (
                        live["tail"] < live["head"] and live["tail"] <= engine.MEET_TERMS)):
                    side, bounds[0] = "head", lo + 1
                else:
                    assert f == hi - 1, fx.name
                    side, bounds[1] = "tail", hi - 1
                    assert live["tail"] <= engine.MEET_TERMS, fx.name
                    tail_steps += 1
                total += live[side] * len(fl.factors[f].terms())
                live[side] = n

            got = multiply_factors(fl, bound=bound, target=fx.monomial, on_step=on_step)
            assert got.coefficient(fx.monomial) == fx.coefficient, fx.name
            assert bounds[0] == bounds[1], fx.name
        assert total == 1_750_661
        assert tail_steps > 100


class TestSharedSetUp:
    """The plan skeleton is computed once per factor list and the successor
    tables once per factor shape; neither may change a live term."""

    def test_plan_matches_a_plain_recomputation(self):
        rng = random.Random(47)
        for _ in range(60):
            fl, lam, qs = random_factor_list(rng, max_k=8, max_degree=20)
            fixes = set()
            for pos in rng.sample(range(1, fl.k + 1), rng.randint(0, min(3, fl.k))):
                if not {pos - 1, pos + 1} & fixes:
                    fixes.add(pos)
            fl = apply_fixes(fl, fixes)
            bound = tuple(rng.randint(0, 6) for _ in range(fl.k))
            target = tuple(rng.randint(0, b) for b in bound)
            got = engine._factor_plan(fl, target)
            want = plain_factor_plan(fl, target)
            assert got == want
            # checkpoints hash the plan, so it keeps its type too
            assert engine._plan_hash(fl.k, got) == engine._plan_hash(fl.k, want)
            # the tail's counts: the factors before each one holding its variable
            for f, (terms, _, before) in enumerate(fl.occurrences[1]):
                assert before == tuple(sum(v in g.variables() for g in fl.factors[:f])
                                       for v, _ in terms)

    # QS52 with 3 and 6 fixed and unfixed share 8 factor shapes, among them
    # x4+x5 beside x5-x4 and x1+x2 beside x2-x1: tables keyed without signs
    # would hand one factor the other's successors
    PRODUCTS = ((), (3, 6))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("first", [0, 1])
    def test_tables_shared_across_targets_and_products(self, monkeypatch, kernel,
                                                       first):
        use_kernel(monkeypatch, kernel)
        monkeypatch.setattr(engine, "_SUCCESSORS", {})
        qs = validate_quotient((0, 0, 1, 0, 0, 0, 1), (5, 2))
        order = self.PRODUCTS[first:] + self.PRODUCTS[:first]
        nonzero = 0
        for fixes in order:
            fl = build_p(qs, fixes)
            bound = bounding_monomial((5, 2), qs, fixes)
            naive = naive_expand(fl)
            targets = [m for m in tuple_dict(naive)
                       if all(e <= b for e, b in zip(m, bound))][:4]
            targets += sample_monomials(bound, fl.degree, 8, f"shared:{fixes}")
            for target in targets:
                seen = []
                got = multiply_factors(fl, bound=bound, target=target,
                                       on_step=lambda f, n: seen.append((f, n)))
                assert seen == meet_steps(fl, target), (fixes, target)
                want = naive.coefficient(target)
                assert tuple_dict(got) == ({target: want} if want else {})
                nonzero += want != 0
        assert nonzero >= 5
        if kernel == "dict":
            shapes = {f.terms() for fixes in order for f in build_p(qs, fixes).factors}
            assert set(engine._SUCCESSORS) == shapes


class TestArrayKernel:
    FX = by_name("1-9-b")

    @staticmethod
    def spy_on_dtypes(monkeypatch):
        """Record the coefficient dtype kind ('i' or 'O') of every array step."""
        kinds = []
        array_step = engine._array_step

        def spy(fac, keys, coefs):
            kinds.append(coefs.dtype.kind)
            return array_step(fac, keys, coefs)

        monkeypatch.setattr(engine, "_array_step", spy)
        return kinds

    def test_int64_guard_widens_exactly(self, monkeypatch):
        fl, bound = fixture_product(self.FX)
        target = self.FX.monomial
        expect_counts = []
        expect = multiply_factors(fl, bound=bound, target=target,
                                  on_step=lambda f, n: expect_counts.append(n))
        monkeypatch.setattr(engine, "ARRAY_DEGREE", 0)
        monkeypatch.setattr(engine, "INT64_LIMIT", 2**8)
        kinds = self.spy_on_dtypes(monkeypatch)
        counts, to_dict_calls = [], []
        to_dict = engine._to_dict

        def spy(*args):
            to_dict_calls.append(len(counts))
            return to_dict(*args)

        monkeypatch.setattr(engine, "_to_dict", spy)
        got = multiply_factors(fl, bound=bound, target=target,
                               on_step=lambda f, n: counts.append(n))
        # each side's column widens once, mid-run, and the arrays stay to
        # the end, where the join reads them as they are
        sides = [side for side, _, _ in meet_walk(fl, target)]
        assert len(kinds) == len(sides) == fl.degree
        for side in ("head", "tail"):
            mine = [kind for kind, s in zip(kinds, sides) if s == side]
            widened = mine.index("O")
            assert 0 < widened < len(mine)
            assert mine == ["i"] * widened + ["O"] * (len(mine) - widened)
        assert to_dict_calls == []
        assert got.terms == expect.terms == {pack(target): 2588}
        assert counts == expect_counts

    def test_abort_after_widening_saves_the_dict_checkpoint(self, tmp_path, monkeypatch):
        fl, bound = fixture_product(self.FX)
        target = self.FX.monomial
        with pytest.raises(OpCapExceeded) as on_dicts:
            multiply_factors(fl, bound=bound, target=target, op_cap=100_000)
        dict_path = tmp_path / "dicts.bin"
        save_checkpoint(dict_path, on_dicts.value.checkpoint)
        monkeypatch.setattr(engine, "ARRAY_DEGREE", 0)
        monkeypatch.setattr(engine, "INT64_LIMIT", 2**8)
        kinds = self.spy_on_dtypes(monkeypatch)
        with pytest.raises(OpCapExceeded) as on_arrays:
            multiply_factors(fl, bound=bound, target=target, op_cap=100_000)
        assert kinds[-1] == "O"  # the aborting step ran on a widened column
        assert str(on_arrays.value) == str(on_dicts.value)
        array_path = tmp_path / "arrays.bin"
        save_checkpoint(array_path, on_arrays.value.checkpoint)
        assert array_path.read_bytes() == dict_path.read_bytes()
        resumed = multiply_factors(fl, bound=bound, target=target,
                                   resume=load_checkpoint(array_path))
        assert resumed.terms == {pack(target): 2588}

    @pytest.mark.parametrize(
        "start, kinds_on_resume",
        [
            (40, "iiiOO"),  # widens two steps after the resume
            (43, "OO"),  # max|c| * 3 reaches 2**63 at the first array step
            (44, "O"),  # a coefficient is past 2**63 when the job resumes
        ],
    )
    def test_switch_keeps_large_coefficients_exact(self, monkeypatch, start,
                                                   kinds_on_resume):
        # (x1 + x2 + x3)^45 at x1^15 x2^15 x3^15 is 45! / 15!^3, above 2**65.
        # With no tail the head alone carries coefficients that large.  The
        # dict calls run with ARRAY_DEGREE above the degree, and their
        # checkpoint resumes on an array call, with ARRAY_DEGREE the degree.
        monkeypatch.setattr(engine, "MEET_TERMS", 0)
        fl = FactorList(3, (Window((0, 3), (1, 2, 3)),) * 45, frozenset(), "full")
        monkeypatch.setattr(engine, "ARRAY_DEGREE", fl.degree + 1)
        target = (15, 15, 15)
        exact = math.factorial(45) // math.factorial(15) ** 3
        live = [1]
        multiply_factors(fl, target=target, on_step=lambda f, n: live.append(n))
        # each step costs 3 ops per live term; abort once steps 0 .. start-1 ran
        with pytest.raises(OpCapExceeded) as info:
            multiply_factors(fl, target=target, op_cap=3 * sum(live[:start]) - 1)
        cp = info.value.checkpoint
        assert (cp.factor_index, cp.tail_index, cp.tail_terms) == (start, 45, {0: 1})
        too_large = max(map(abs, cp.terms.values())) >= engine.INT64_LIMIT
        assert too_large == (start == 44)
        monkeypatch.setattr(engine, "ARRAY_DEGREE", fl.degree)
        kinds = self.spy_on_dtypes(monkeypatch)
        got = multiply_factors(fl, target=target, resume=cp)
        assert kinds == list(kinds_on_resume)
        assert got.terms == {pack(target): exact}

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_join_multiplies_exactly(self, monkeypatch, kernel):
        # (x1 + ... + x4)^60 at x1^15 ... x4^15: each side's coefficients
        # stay below 2**63, but their products, and the sum, do not
        use_kernel(monkeypatch, kernel)
        kinds = self.spy_on_dtypes(monkeypatch)
        fl = FactorList(4, (Window((0, 4), (1, 2, 3, 4)),) * 60, frozenset(), "full")
        target = (15, 15, 15, 15)
        seen = []
        got = multiply_factors(fl, target=target, on_step=lambda f, n: seen.append((f, n)))
        assert got.terms == {pack(target): math.factorial(60) // math.factorial(15) ** 4}
        assert got.coefficient(target) >= engine.INT64_LIMIT
        assert seen == meet_steps(fl, target)
        assert {side for side, _, _ in meet_walk(fl, target)} == {"head", "tail"}
        assert kinds == (["i"] * 60 if kernel == "array" else [])

    def test_negative_coefficients_widen_the_column(self):
        # x1 and x2 at -(2**62 + 1), times x1 + x2: x1 x2 gets -(2**63 + 2),
        # below int64.  The column widens on max|c| * 2 whatever the sign
        # of the coefficient that sets max|c|.
        c = -(2**62 + 1)
        keys, coefs = engine._to_arrays({pack((1, 0)): c, pack((0, 1)): c}, 2)
        assert coefs.dtype.kind == "i"
        fac = ((0, 1, 0, 15), (8, 1, 0, 15))  # (shift, sign, threshold, cap) per lane
        keys, coefs = engine._step(fac, ((1, 1), (2, 1)), (keys, coefs))
        assert coefs.dtype.kind == "O"
        assert engine._to_dict(keys, coefs, 2) == {
            pack((2, 0)): c, pack((1, 1)): 2 * c, pack((0, 2)): c}

    @staticmethod
    def high_lane_factor_list(rng):
        """Differences and windows over up to 16 variables, so the increments
        of high lanes (up to 2**60) exceed the first range cuts."""
        k = rng.randint(9, 16)
        factors = []
        for _ in range(rng.randint(3, 7)):
            i = rng.randrange(k - 1)
            j = rng.randint(i + 2, min(k, i + 3))
            if rng.random() < 0.5:
                factors.append(Difference(i + 1, j))
            else:
                factors.append(Window((i, j), tuple(range(i + 1, j + 1))))
        return FactorList(k, tuple(factors), frozenset(), "full")

    @pytest.mark.parametrize("merge_range", [1, 3])
    def test_ranges_keep_every_term(self, monkeypatch, merge_range):
        rng = random.Random(48)
        cases = []
        for _ in range(12):
            fl = self.high_lane_factor_list(rng)
            full = naive_expand(fl, max_k=16).terms
            for key in rng.sample(sorted(full), min(6, len(full))):
                cases.append((fl, unpack(key, fl.k), {key: full[key]}))
        # (x12 + ... + x16)^12: coefficients up to 12! / (3!^2 2!^3) in the
        # top five lanes, past INT64_LIMIT below, so ranges merge objects too
        fl = FactorList(16, (Window((11, 16), (12, 13, 14, 15, 16)),) * 12,
                        frozenset(), "full")
        for top in ((3, 3, 2, 2, 2), (2, 3, 2, 3, 2), (12, 0, 0, 0, 0), (0, 4, 0, 8, 0)):
            target = (0,) * 11 + top
            exact = math.factorial(12) // math.prod(map(math.factorial, top))
            cases.append((fl, target, {pack(target): exact}))
        monkeypatch.setattr(engine, "ARRAY_DEGREE", 0)
        monkeypatch.setattr(engine, "MERGE_RANGE", merge_range)
        monkeypatch.setattr(engine, "INT64_LIMIT", 2**8)
        kinds = self.spy_on_dtypes(monkeypatch)
        for fl, target, want in cases:
            seen = []
            got = multiply_factors(fl, target=target,
                                   on_step=lambda f, n: seen.append((f, n)))
            assert seen == meet_steps(fl, target)
            assert got.terms == want
        assert len(kinds) == sum(fl.degree for fl, _, _ in cases)
        assert "O" in kinds[-4 * 12:]

    @pytest.mark.parametrize("array_degree", [15, 16, 60, 61])
    def test_kernel_is_chosen_before_step_0(self, monkeypatch, array_degree):
        # (x2 - x1)^15 and 1-9-b (degree 60) run on arrays exactly when their
        # degree reaches ARRAY_DEGREE, both sides converted before the first
        # step and never again
        monkeypatch.setattr(engine, "ARRAY_DEGREE", array_degree)
        seen, converted = [], []
        to_arrays = engine._to_arrays

        def spy(terms, k):
            converted.append(len(seen))
            return to_arrays(terms, k)

        monkeypatch.setattr(engine, "_to_arrays", spy)
        kinds = self.spy_on_dtypes(monkeypatch)
        fl = FactorList(2, (Difference(1, 2),) * 15, frozenset(), "full")
        naive = naive_expand(fl)
        jobs = [(fl, (j, 15 - j), naive.coefficient((j, 15 - j))) for j in range(16)]
        jobs.append((fixture_product(self.FX)[0], self.FX.monomial, 2588))
        for fl, target, want in jobs:
            seen[:], converted[:], kinds[:] = [], [], []
            got = multiply_factors(fl, target=target,
                                   on_step=lambda f, n: seen.append((f, n)))
            assert got.coefficient(target) == want
            assert seen == meet_steps(fl, target)
            steps = sum(1 for side, _, _ in meet_walk(fl, target) if side is not None)
            if fl.degree >= array_degree:
                assert converted == [0, 0] and len(kinds) == steps
            else:
                assert converted == kinds == []


@st.composite
def engine_requests(draw):
    """A small factor list (k <= 6, fixes and variant drawn too, degree 1 ..
    14), a bound and a target of the product's degree dividing it.  When
    no monomial of that degree divides the bounding monomial, the bound is
    the box of occurrence counts, which every term of the product divides."""
    t = draw(st.integers(1, 3))
    a = tuple(draw(st.lists(st.integers(0, t - 1), min_size=2, max_size=6)))
    fixes = draw(st.sets(st.integers(1, len(a)), max_size=3))
    variant = draw(st.sampled_from([FULL, REDUCED]))
    try:
        _, fl, bound = product(tuple(a.count(v) for v in range(t)), a, fixes, variant)
    except InfeasibleFixing:
        assume(False)
    assume(1 <= fl.degree <= 14)
    targets = list(box_monomials(bound, fl.degree))
    if not targets:
        bound = fl.occurrences[0]
        targets = list(box_monomials(bound, fl.degree))
    return fl, bound, draw(st.sampled_from(targets))


class TestEngineSettings:
    """Every kernel and setting gives the naive coefficient, in one call and
    in a chain of capped legs, each resumed from the last one's checkpoint
    file."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(request_=engine_requests(),
           array_degree=st.sampled_from([0, 10**9]),
           meet=st.integers(0, engine.MEET_TERMS),
           merge_range=st.integers(1, engine.MERGE_RANGE),
           int64_limit=st.integers(1, engine.INT64_LIMIT),
           op_cap=st.integers(0, 1_000))
    def test_every_setting_gives_the_naive_coefficient(
            self, tmp_path_factory, request_, array_degree, meet, merge_range,
            int64_limit, op_cap):
        fl, bound, target = request_
        want = naive_expand(fl).coefficient(target)
        path = tmp_path_factory.mktemp("legs") / "leg.bin"
        with pytest.MonkeyPatch.context() as mp:
            for name, value in (("ARRAY_DEGREE", array_degree), ("MEET_TERMS", meet),
                                ("MERGE_RANGE", merge_range), ("INT64_LIMIT", int64_limit)):
                mp.setattr(engine, name, value)
            seen = []
            got = multiply_factors(fl, bound=bound, target=target,
                                   on_step=lambda f, n: seen.append((f, n)))
            assert got.coefficient(target) == want
            assert seen == meet_steps(fl, target)
            resume, legs = None, 0
            while True:
                try:
                    got = multiply_factors(fl, bound=bound, target=target,
                                           op_cap=op_cap, resume=resume)
                    break
                except OpCapExceeded as abort:
                    save_checkpoint(path, abort.checkpoint)
                    resume = load_checkpoint(path)
                    legs += 1
                    # every leg multiplies at least one factor
                    assert legs <= fl.degree
            assert got.coefficient(target) == want


# Runs the 10-2-a product (the head peaks at 356 021 live terms, on the
# array kernel) three times in one process and prints the process's peak RSS
# in KiB after each job.
_REPEAT = """
import resource
from nullseq.catalog import by_name
from nullseq.engine import multiply_factors
from nullseq.factors import bounding_monomial, build_p
from nullseq.quotient import validate_quotient
fx = by_name("10-2-a")
qs = validate_quotient(fx.a, fx.lam)
fl, bound = build_p(qs, fx.fixes), bounding_monomial(fx.lam, qs, fx.fixes)
for _ in range(3):
    poly = multiply_factors(fl, bound=bound, target=fx.monomial)
    assert poly.coefficient(fx.monomial) == fx.coefficient
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestRepeatedJobs:
    def test_big_jobs_peak_steadily(self):
        proc = subprocess.run(
            [sys.executable, "-c", _REPEAT],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # The first job peaks a few MB lower: glibc serves each array larger
        # than any it has freed by mmap, and raises its mmap threshold when
        # one is freed, so later jobs take those arrays from its heap.
        _, second, third = map(int, proc.stdout.split())
        assert third - second < 2048  # KiB
