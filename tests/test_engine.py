import random

import pytest

from nullseq.catalog import by_name
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
    unpack,
)
from nullseq.factors import bounding_monomial, build_p, build_q
from nullseq.quotient import validate_quotient

QS32 = validate_quotient((0, 1, 0, 0, 1), (3, 2))


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
        assert poly.num_terms() == 2
        assert poly.max_abs_coefficient() == 7
        assert poly.to_tuple_dict() == {(1, 0): 4, (0, 2): -7}
        assert list(poly.items()) == [((1, 0), 4), ((0, 2), -7)]
        assert poly.coefficient((0, 2)) == -7


class TestAgainstNaive:
    def test_full_expansion_matches(self):
        rng = random.Random(42)
        for _ in range(40):
            fl, lam, qs = random_factor_list(rng)
            pruned = multiply_factors(fl)
            naive = naive_expand(fl)
            assert pruned.to_tuple_dict() == naive.to_tuple_dict()

    def test_bounded_expansion_matches_filtered_naive(self):
        rng = random.Random(43)
        for _ in range(30):
            fl, lam, qs = random_factor_list(rng)
            bound = bounding_monomial(lam, qs)
            if fl.degree > sum(bound):
                continue
            pruned = multiply_factors(fl, bound=bound)
            naive = naive_expand(fl)
            expect = {
                exps: c
                for exps, c in naive.to_tuple_dict().items()
                if all(e <= b for e, b in zip(exps, bound))
            }
            assert pruned.to_tuple_dict() == expect

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
                for exps in naive.to_tuple_dict()
                if all(e <= b for e, b in zip(exps, bound))
            ]
            if not live:
                continue
            target = live[rng.randrange(len(live))]
            got = multiply_factors(fl, bound=bound, target=target)
            assert got.coefficient(target) == naive.coefficient(target)
            checked += 1

    def test_naive_guards(self):
        fl = build_p(validate_quotient((0,) * 9, (9,)))
        with pytest.raises(ValueError):
            naive_expand(fl)
        small = build_p(QS32)
        with pytest.raises(ValueError):
            naive_expand(small, max_degree=3)


class TestPreconditions:
    def test_bound_arity(self):
        with pytest.raises(ValueError):
            multiply_factors(build_p(QS32), bound=(1, 2))

    def test_bound_range(self):
        with pytest.raises(ValueError):
            multiply_factors(build_p(QS32), bound=(300, 1, 1, 1, 1))

    def test_degree_exceeding_bound_is_an_error(self):
        with pytest.raises(ValueError, match="exceeds bound degree"):
            multiply_factors(build_p(QS32), bound=(1, 1, 1, 1, 1))

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


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        terms = {
            pack((1, 2, 3)): 5,
            pack((0, 0, 7)): -(2**200 + 17),
            pack((4, 4, 4)): 2**64,
        }
        cp = EngineCheckpoint(3, 9, terms)
        path1 = tmp_path / "a.bin"
        path2 = tmp_path / "b.bin"
        save_checkpoint(path1, cp)
        save_checkpoint(path2, cp)
        assert path1.read_bytes() == path2.read_bytes()
        back = load_checkpoint(path1)
        assert back.k == 3 and back.factor_index == 9
        assert back.terms == terms

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        fx = by_name("6-4")
        qs = validate_quotient(fx.a, fx.lam)
        fl = build_p(qs)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bounding_monomial(fx.lam, qs),
                             target=fx.monomial, term_cap=50)
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

    def test_term_cap_abort_and_resume(self):
        fx = by_name("6-4")
        qs = validate_quotient(fx.a, fx.lam)
        fl = build_p(qs)
        bound = bounding_monomial(fx.lam, qs)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bound, target=fx.monomial, term_cap=50)
        cp = info.value.checkpoint
        assert cp is not None and cp.k == fl.k
        assert 0 <= cp.factor_index < fl.degree
        resumed = multiply_factors(fl, bound=bound, target=fx.monomial, resume=cp)
        assert resumed.coefficient(fx.monomial) == fx.coefficient

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

    def test_checkpoint_file_round_trip_mid_run(self, tmp_path):
        fx = by_name("6-4")
        qs = validate_quotient(fx.a, fx.lam)
        fl = build_p(qs)
        bound = bounding_monomial(fx.lam, qs)
        with pytest.raises(TermCapExceeded) as info:
            multiply_factors(fl, bound=bound, target=fx.monomial, term_cap=50)
        path = tmp_path / "mid.bin"
        save_checkpoint(path, info.value.checkpoint)
        resumed = multiply_factors(
            fl, bound=bound, target=fx.monomial, resume=load_checkpoint(path)
        )
        assert resumed.coefficient(fx.monomial) == fx.coefficient

    def test_resume_validation(self):
        fl = build_p(QS32)
        with pytest.raises(ValueError):
            multiply_factors(fl, resume=EngineCheckpoint(4, 0, {0: 1}))
        with pytest.raises(ValueError):
            multiply_factors(fl, resume=EngineCheckpoint(0, 0, {0: 1}))
        with pytest.raises(ValueError):
            multiply_factors(fl, resume=EngineCheckpoint(5, 99, {0: 1}))


class TestPruningProperties:
    def test_with_and_without_target_agree(self):
        for name in ("6-4", "7-3", "8-2"):
            fx = by_name(name)
            qs = validate_quotient(fx.a, fx.lam)
            fl = build_p(qs)
            bound = bounding_monomial(fx.lam, qs)
            bounded = multiply_factors(fl, bound=bound)
            targeted = multiply_factors(fl, bound=bound, target=fx.monomial)
            assert (
                bounded.coefficient(fx.monomial)
                == targeted.coefficient(fx.monomial)
                == fx.coefficient
            )

    def test_tightening_bound_never_grows_terms(self):
        fl = build_p(QS32)
        loose = multiply_factors(fl)
        mid = multiply_factors(fl, bound=(3, 2, 3, 3, 2))
        tight = multiply_factors(fl, bound=bounding_monomial((3, 2), QS32))
        assert loose.num_terms() >= mid.num_terms() >= tight.num_terms()
        # tightening never changes surviving coefficients
        for exps, c in tight.to_tuple_dict().items():
            assert mid.coefficient(exps) == c
            assert loose.coefficient(exps) == c

    def test_on_step_callback(self):
        fl = build_p(QS32)
        seen = []
        multiply_factors(fl, on_step=lambda f, n: seen.append((f, n)))
        assert [f for f, _ in seen] == list(range(fl.degree))
        assert all(n >= 1 for _, n in seen)

    def test_zero_coefficients_are_dropped_eagerly(self):
        # (x2-x1)(x2-x1) * ... keeps dicts free of zero entries
        rng = random.Random(77)
        for _ in range(20):
            fl, lam, qs = random_factor_list(rng)
            poly = multiply_factors(fl)
            assert all(c != 0 for c in poly.terms.values())
