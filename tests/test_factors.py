import itertools
import random

import pytest

from nullseq import catalog
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
    choose_fixes,
    fix_counts,
    product,
    validate_fixes,
)
from nullseq.groups import enumerate_types
from nullseq.quotient import (
    bounding_degree,
    enumerate_arrangements,
    induced_degree,
    validate_quotient,
)

QS32 = validate_quotient((0, 1, 0, 0, 1), (3, 2))
QS52 = validate_quotient((0, 0, 1, 0, 0, 0, 1), (5, 2))


class TestBuild:
    def test_small_example_labels(self):
        fl = build_p(QS32)
        assert fl.labels() == (
            "x5-x2", "x2+x3+x4+x5", "x4-x3", "x3+x4", "x4-x1", "x3-x1",
        )
        assert fl.degree == 6
        assert fl.variant == FULL and fl.fixed == frozenset()

    def test_reduced_drops_gap_two_windows(self):
        fl = build_q(QS32)
        # the pair (2,4) window x3+x4 spans exactly two steps and is dropped
        assert fl.labels() == (
            "x5-x2", "x2+x3+x4+x5", "x4-x3", "x4-x1", "x3-x1",
        )
        assert fl.variant == REDUCED

    def test_seven_position_example_labels(self):
        fl = build_p(QS52)
        assert fl.labels() == (
            "x7-x3", "x3+x4+x5+x6+x7", "x2+x3+x4+x5+x6+x7",
            "x6-x5", "x5+x6", "x6-x4", "x4+x5+x6", "x6-x2", "x6-x1",
            "x5-x4", "x4+x5", "x5-x2", "x5-x1", "x4-x2", "x4-x1",
            "x2-x1", "x1+x2",
        )
        assert fl.degree == 17

    def test_reduced_is_sublist(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(2, 8)
            t = rng.randint(1, 4)
            a = tuple(rng.randrange(t) for _ in range(k))
            qs = validate_quotient(a, tuple(a.count(v) for v in range(t)))
            full = build_p(qs).factors
            reduced = build_q(qs).factors
            assert set(reduced) <= set(full)
            dropped = [f for f in full if f not in set(reduced)]
            assert all(
                isinstance(f, Window) and f.pair[1] - f.pair[0] == 2 for f in dropped
            )

    def test_factor_primitives(self):
        d = Difference(2, 5)
        assert d.variables() == (2, 5)
        assert d.terms() == ((2, -1), (5, 1))
        w = Window((0, 3), (1, 2, 3))
        assert w.terms() == ((1, 1), (2, 1), (3, 1))

    def test_emission_never_revisits_early_variables(self):
        # the highest variable per factor never increases, so each x_v stops
        # appearing after the pairs ending at v and its exponent freezes early;
        # fixing keeps this, since it only removes factors and variables
        for qs in (QS32, QS52):
            for fl in (build_p(qs), build_q(qs), build_p(qs, (1, 3))):
                highs = [max(f.variables()) for f in fl.factors]
                assert highs == sorted(highs, reverse=True)


class TestDegreeFormulas:
    def test_induced_degree_matches_built_list(self):
        for t in (1, 2, 3):
            for lam in enumerate_types(6, t):
                if sum(lam) == 0:
                    continue
                for a in enumerate_arrangements(lam):
                    qs = validate_quotient(a, lam)
                    assert induced_degree(lam, qs.b) == build_p(qs).degree

    def test_bounding_monomial_sums_to_bounding_degree(self):
        rng = random.Random(5)
        for _ in range(80):
            k = rng.randint(1, 8)
            t = rng.randint(1, 5)
            a = tuple(rng.randrange(t) for _ in range(k))
            lam = tuple(a.count(v) for v in range(t))
            qs = validate_quotient(a, lam)
            gamma = bounding_monomial(lam, qs)
            assert sum(gamma) == bounding_degree(lam)
            assert all(gamma[i] == lam[a[i]] - 1 for i in range(k))


class TestFixes:
    def test_validate_rejects_adjacent(self):
        with pytest.raises(InfeasibleFixing):
            validate_fixes((3, 4), 7)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(InfeasibleFixing):
            validate_fixes((0,), 7)
        with pytest.raises(InfeasibleFixing):
            validate_fixes((8,), 7)

    def test_validate_rejects_duplicates(self):
        with pytest.raises(InfeasibleFixing):
            validate_fixes((2, 2), 7)

    def test_apply_is_identity_when_nothing_new(self):
        fl = build_p(QS52)
        assert apply_fixes(fl, ()) is fl
        fixed = apply_fixes(fl, (3, 6))
        assert apply_fixes(fixed, (3,)) is fixed

    def test_worked_fixing(self):
        fl = apply_fixes(build_p(QS52), (3, 6))
        assert fl.fixed == frozenset({3, 6})
        assert fl.degree == 12
        assert fl == build_p(QS52, (3, 6))
        # differences touching positions 3 or 6 are gone
        for f in fl.factors:
            if isinstance(f, Difference):
                assert 3 not in f.variables() and 6 not in f.variables()
        # windows lose the fixed positions of their range
        live = {f.pair: f.vars for f in fl.factors if isinstance(f, Window)}
        assert live[(1, 7)] == (2, 4, 5, 7)
        assert live[(2, 7)] == (4, 5, 7)
        assert live[(3, 6)] == (4, 5)
        assert live[(4, 6)] == (5,)
        assert live[(0, 2)] == (1, 2)
        assert live[(3, 5)] == (4, 5)

    def test_worked_fixed_bound(self):
        assert bounding_monomial((5, 2), QS52, (3, 6)) == (3, 3, 0, 3, 3, 0, 0)

    def test_fix_counts(self):
        assert fix_counts(QS52, (3, 6)) == [1, 1]

    def test_sequential_fixing_equals_joint(self):
        fl = build_p(QS52)
        assert apply_fixes(apply_fixes(fl, (3,)), (6,)) == apply_fixes(fl, (3, 6))

    def test_window_losing_all_variables_is_an_error(self):
        lone = FactorList(3, (Window((0, 2), (2,)),), frozenset(), FULL)
        with pytest.raises(InfeasibleFixing):
            apply_fixes(lone, (2,))

    def test_bound_type_mismatch(self):
        with pytest.raises(ValueError):
            bounding_monomial((2, 3), QS32)


def trial_list_choose_fixes(fl, lam, qs):
    """The greedy rule of choose_fixes computed with a whole trial list
    (apply_fixes) per candidate position: the reference."""
    current = fl
    fixes = set(fl.fixed)
    while True:
        candidates = []
        for pos in range(1, fl.k + 1):
            if pos in fixes or (pos - 1) in fixes or (pos + 1) in fixes:
                continue
            gain = sum(
                1
                for f in current.factors
                if isinstance(f, Difference) and pos in f.variables()
            )
            candidates.append((-gain, pos))
        candidates.sort()
        chosen = None
        for _, pos in candidates:
            trial = fixes | {pos}
            try:
                fixed_fl = apply_fixes(fl, trial)
                gamma = bounding_monomial(lam, qs, trial)
            except InfeasibleFixing:
                continue
            if fixed_fl.degree <= sum(gamma):
                chosen = pos
                current = fixed_fl
                break
        if chosen is None:
            return frozenset(fixes)
        fixes.add(chosen)


class TestGreedy:
    def test_worked_seven_position_case(self):
        assert sorted(choose_fixes(build_p(QS52), (5, 2), QS52)) == [1, 3, 7]

    def test_small_example_fixes_position_one(self):
        assert sorted(choose_fixes(build_p(QS32), (3, 2), QS32)) == [1]

    def test_greedy_output_is_always_usable(self):
        rng = random.Random(23)
        for _ in range(40):
            k = rng.randint(2, 8)
            t = rng.randint(1, 3)
            a = tuple(rng.randrange(t) for _ in range(k))
            lam = tuple(a.count(v) for v in range(t))
            qs = validate_quotient(a, lam)
            fl = build_p(qs)
            fixes = choose_fixes(fl, lam, qs)
            validate_fixes(fixes, k)
            fixed = apply_fixes(fl, fixes)
            gamma = bounding_monomial(lam, qs, fixes)
            if fixes:
                # every accepted fix preserves the degree condition
                assert fixed.degree <= sum(gamma)
            else:
                # nothing accepted: the unfixed list is returned unchanged
                assert fixed is fl

    @pytest.mark.parametrize("build", [build_p, build_q])
    def test_matches_trial_lists(self, build):
        # every arrangement with k <= 7 at t <= 3, and lists already fixed
        checked = 0
        for t in range(1, 4):
            for k in range(1, 8):
                for a in itertools.product(range(t), repeat=k):
                    lam = tuple(a.count(v) for v in range(t))
                    qs = validate_quotient(a, lam)
                    fl = build(qs)
                    assert choose_fixes(fl, lam, qs) == trial_list_choose_fixes(
                        fl, lam, qs
                    ), a
                    checked += 1
        assert checked == sum(t**k for t in range(1, 4) for k in range(1, 8))
        for fixes in [(3,), (1, 6), (2, 4, 7)]:
            fl = build(QS52, fixes)
            want = trial_list_choose_fixes(fl, (5, 2), QS52)
            assert choose_fixes(fl, (5, 2), QS52) == want >= set(fixes)

    def test_greedy_respects_preexisting_fixes(self):
        fl = apply_fixes(build_p(QS52), (3,))
        fixes = choose_fixes(fl, (5, 2), QS52)
        assert 3 in fixes


class TestProduct:
    def test_builder_per_variant(self):
        assert product((5, 2), QS52.a, (6, 3)) == (
            QS52, build_p(QS52, (3, 6)), bounding_monomial((5, 2), QS52, (3, 6))
        )
        assert product((3, 2), QS32.a, (), REDUCED)[1] == build_q(QS32)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown variant"):
            product((3, 2), QS32.a, (), "bogus")
        with pytest.raises(ValueError, match="not an arrangement"):
            product((2, 3), QS32.a)
        with pytest.raises(InfeasibleFixing):
            product((3, 2), QS32.a, (1, 2))

    def test_catalog_agrees_with_its_products(self):
        # factor lists only, no expansion: every tier, in milliseconds
        for fx in catalog.ALL_FIXTURES:
            qs, fl, bound = product(fx.lam, fx.a, fx.fixes)
            assert (fx.k, fx.t) == (len(fx.a), len(fx.lam)) == (qs.k, qs.t), fx.name
            assert fx.degree == fl.degree, fx.name
            assert len(fx.monomial) == fx.k and sum(fx.monomial) == fx.degree, fx.name
            assert all(m <= b for m, b in zip(fx.monomial, bound)), fx.name
