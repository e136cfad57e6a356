import itertools
import math

import numpy as np
import pytest

import timedchoice as tc
from timedchoice.errors import ConfigurationError, ValidationError
from timedchoice.generators import diffusion_schedule


def norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestTopN:
    def test_three_period_prefixes(self, menu3):
        rule = tc.gen_topn(menu3, 3, ("a", "b", "c"))
        enum = rule.set_index
        expected_masks = [0b001, 0b011, 0b111]
        for t, mask in enumerate(expected_masks):
            assert rule.block(0)[t, enum.index_of(mask)] == 1.0
            assert rule.block(0)[t].sum() == 1.0

    def test_single_period(self, menu3):
        rule = tc.gen_topn(menu3, 1, ("b", "a", "c"))
        assert rule.block(0)[0, rule.set_index.index_of(0b010)] == 1.0

    def test_periods_beyond_menu_saturate(self, menu3):
        rule = tc.gen_topn(menu3, 5, ("a", "b", "c"))
        full = rule.set_index.full_index
        assert rule.block(0)[3, full] == 1.0 and rule.block(0)[4, full] == 1.0

    def test_random_orders_always_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            menu = tc.Menu(items=tuple("abcd"[:n]))
            order = rng.permutation(n)
            d_t = int(rng.integers(1, 7))
            rule = tc.gen_topn(menu, d_t, order)
            assert tc.check_time_monotonicity(rule, tol=1e-12).passed

    @pytest.mark.parametrize("outside_mode", [False, True])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_prefix_loop(self, n, outside_mode):
        """Past the menu size, and for several types, each period holds its prefix mask."""
        menu = tc.Menu(items=tuple("abcdefg"[:n]), outside_index=n // 2)
        order = [int(i) for i in np.random.default_rng(n).permutation(n)]
        if outside_mode:
            order.remove(n // 2)
            order.insert(0, n // 2)
        enum = tc.enumerate_sets(menu, outside_mode=outside_mode)
        for d_t in (1, 2, n, n + 3):
            for d_pref in (1, 3):
                want = np.zeros((d_t, d_pref * enum.d_c))
                for t in range(d_t):
                    mask = 0
                    for item in order[: min(t + 1, n)]:
                        mask |= 1 << item
                    for i in range(d_pref):
                        want[t, i * enum.d_c + enum.index_of(mask)] = 1.0
                rule = tc.gen_topn(menu, d_t, order, d_pref=d_pref, outside_mode=outside_mode)
                np.testing.assert_array_equal(rule.u, want)

    def test_invalid_search_order(self, menu3):
        with pytest.raises(ValidationError):
            tc.gen_topn(menu3, 2, ("a", "a", "b"))


class TestIndependentConsideration:
    def test_certain_consideration_concentrates_on_full_menu(self, menu3):
        schedule = tc.GammaSchedule(np.ones((3, 3)))
        rule = tc.gen_mm(menu3, schedule)
        full = rule.set_index.full_index
        np.testing.assert_allclose(rule.block(0)[:, full], 1.0)

    def test_outside_mode_product_formula(self):
        menu = tc.Menu(items=("a", "b", "o"), outside_index=2)
        schedule = tc.GammaSchedule(np.array([[0.5, 0.5, 1.0]]))
        rule = tc.gen_mm(menu, schedule, outside_mode=True)
        enum = rule.set_index
        alpha_o = tc.accumulated_attention(rule, 0, 0, tc.ConsiderationSet(0b100))
        assert alpha_o == pytest.approx(0.25)  # (1-.5)(1-.5)

    def test_outside_mode_accumulation_matches_closed_form(self):
        menu = tc.Menu(items=("a", "b", "c", "o"), outside_index=3)
        rng = np.random.default_rng(1)
        g = np.sort(rng.uniform(size=(4, 3)), axis=0)
        gamma = np.concatenate([g, np.ones((4, 1))], axis=1)
        schedule = tc.GammaSchedule(gamma)
        rule = tc.gen_mm(menu, schedule, outside_mode=True)
        enum = rule.set_index
        alpha = tc.zeta_transform(rule.blocks(), enum)[:, 0, :]
        closed = tc.mm_accumulation(schedule, enum)
        np.testing.assert_allclose(alpha, closed, atol=1e-12)
        # And the closed form is the excluded-items product.
        member = enum.member_matrix()
        for t in range(4):
            for j, mask in enumerate(enum.masks):
                direct = np.prod(
                    [1 - gamma[t, i] for i in range(4) if not mask >> i & 1]
                )
                assert closed[t, j] == pytest.approx(direct, abs=1e-12)

    def test_nondecreasing_schedules_monotone_in_outside_mode(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            items = tuple("abcd"[:n]) + ("o",)
            menu = tc.Menu(items=items, outside_index=n)
            d_t = int(rng.integers(1, 7))
            g = np.sort(rng.uniform(size=(d_t, n)), axis=0)
            gamma = np.concatenate([g, np.ones((d_t, 1))], axis=1)
            rule = tc.gen_mm(menu, tc.GammaSchedule(gamma), outside_mode=True)
            assert tc.check_time_monotonicity(rule, tol=1e-12).passed

    def test_renormalization_can_break_monotonicity(self, menu2):
        # One item's probability rising while the other's stays put is the
        # canonical counterexample for the empty-set-renormalized variant.
        schedule = tc.GammaSchedule(np.array([[0.1, 0.5], [0.9, 0.5]]))
        rule = tc.gen_mm(menu2, schedule)
        assert not tc.check_time_monotonicity(rule).passed

    def test_all_zero_row_rejected_without_outside(self, menu2):
        with pytest.raises(ValidationError):
            tc.gen_mm(menu2, tc.GammaSchedule(np.array([[0.0, 0.0]])))

    def test_outside_mode_requires_certain_outside(self):
        menu = tc.Menu(items=("a", "o"), outside_index=1)
        with pytest.raises(ValidationError):
            tc.gen_mm(
                menu, tc.GammaSchedule(np.array([[0.5, 0.9]])), outside_mode=True
            )

    def test_per_preference_schedule(self):
        """A ``(d_pref, d_t, n)`` schedule gives each type its own consideration."""
        menu = tc.Menu(items=("a", "b", "o"), outside_index=2)
        gamma = np.array([[[0.2, 0.1, 1.0], [0.6, 0.3, 1.0]],
                          [[0.1, 0.5, 1.0], [0.2, 0.9, 1.0]]])
        rule = tc.gen_mm(menu, tc.GammaSchedule(gamma), outside_mode=True)
        assert rule.d_pref == 2
        for i in range(2):
            alone = tc.gen_mm(menu, tc.GammaSchedule(gamma[i]), outside_mode=True)
            np.testing.assert_array_equal(rule.block(i), alone.block(0))
        assert not np.array_equal(rule.block(0), rule.block(1))
        assert tc.check_time_monotonicity(rule, tol=1e-12).passed
        with pytest.raises(ValidationError, match="2 preference layers, need 3"):
            tc.gen_mm(menu, tc.GammaSchedule(gamma), outside_mode=True, d_pref=3)

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            tc.GammaSchedule(np.array([[0.5, 0.5], [0.4, 0.6]]))  # decreasing
        with pytest.raises(ValidationError):
            tc.GammaSchedule(np.array([[1.2, 0.0]]))


class TestSatisficing:
    def test_bottomless_threshold_yields_singletons(self, menu3):
        rule, data = tc.gen_satisficing(
            menu3,
            [3.0, 2.0, 1.0],
            [tc.FixedThreshold(-np.inf)] * 2,
            tc.SearchOrderDistribution.uniform(3),
            4000,
            seed=0,
        )
        enum = rule.set_index
        for j, mask in enumerate(enum.masks):
            if bin(mask).count("1") > 1:
                np.testing.assert_array_equal(rule.u[:, j], 0.0)
        # Choices equal first-searched items: uniform over the menu.
        np.testing.assert_allclose(data.pi, 1 / 3, atol=0.05)

    def test_sky_high_threshold_yields_full_search(self, menu3):
        rule, data = tc.gen_satisficing(
            menu3,
            [3.0, 2.0, 1.0],
            [tc.FixedThreshold(100.0)],
            tc.SearchOrderDistribution.uniform(3),
            1000,
            seed=1,
        )
        full = rule.set_index.full_index
        assert rule.u[0, full] == 1.0
        np.testing.assert_allclose(data.pi[0], [1.0, 0.0, 0.0])

    def test_fosd_violation_rejected(self, menu3):
        thresholds = [tc.NormalThreshold(2.0, 1.0), tc.NormalThreshold(1.0, 1.0)]
        with pytest.raises(ConfigurationError):
            tc.gen_satisficing(
                menu3,
                [3.0, 2.0, 1.0],
                thresholds,
                tc.SearchOrderDistribution.uniform(3),
                100,
                seed=0,
            )

    def test_utilities_must_be_strict(self, menu3):
        with pytest.raises(ValidationError):
            tc.gen_satisficing(
                menu3,
                [1.0, 1.0, 2.0],
                [tc.FixedThreshold(0.0)],
                tc.SearchOrderDistribution.uniform(3),
                10,
            )

    def test_deterministic_given_seed(self, menu3):
        args = (
            menu3,
            [3.0, 1.0, 2.0],
            [tc.NormalThreshold(1.0, 0.5), tc.NormalThreshold(2.0, 0.5)],
            tc.SearchOrderDistribution.uniform(3),
            2000,
        )
        r1, d1 = tc.gen_satisficing(*args, seed=5)
        r2, d2 = tc.gen_satisficing(*args, seed=5)
        np.testing.assert_array_equal(r1.u, r2.u)
        np.testing.assert_array_equal(d1.pi, d2.pi)

    def test_pair_accumulation_matches_closed_form(self, menu3):
        # Closed form for a two-item set {best, second} out of three:
        # P(u1 >= tau) * [P(s2 >= s1 >= s3) + P(s1 first)]
        # + P(u2 >= tau) * [P(s2 first) - P(s2 >= s1 >= s3)].
        utilities = [3.0, 2.0, 1.0]
        dist = tc.NormalThreshold(2.2, 0.8)
        search = tc.SearchOrderDistribution.uniform(3)
        n_draws = 400_000
        rule, _ = tc.gen_satisficing(
            menu3, utilities, [dist], search, n_draws, seed=11
        )
        alpha = tc.zeta_transform(rule.u[0], rule.set_index)
        j = rule.set_index.index_of(0b011)  # {a, b}: the top two items
        # Pr(u >= tau) is the threshold's CDF evaluated at the utility.
        pr_u1 = float(dist.cdf(np.array([utilities[0]]))[0])
        pr_u2 = float(dist.cdf(np.array([utilities[1]]))[0])
        p_a1 = search.prob_order(1, 0) + search.prob_first(0)
        p_a2 = search.prob_first(1) - search.prob_order(1, 0)
        closed = pr_u1 * p_a1 + pr_u2 * p_a2
        se = math.sqrt(closed * (1 - closed) / n_draws)
        assert abs(alpha[j] - closed) < 3 * se + 1e-9

    def test_error_shrinks_at_root_n_rate(self, menu3):
        # The same accumulation cell simulated at two sizes stays within a
        # few standard errors of the closed form at each size; the standard
        # error itself carries the 1/sqrt(n) scaling.
        utilities = [3.0, 2.0, 1.0]
        dist = tc.NormalThreshold(2.2, 0.8)
        search = tc.SearchOrderDistribution.uniform(3)
        pr_u1 = float(dist.cdf(np.array([utilities[0]]))[0])
        pr_u2 = float(dist.cdf(np.array([utilities[1]]))[0])
        closed = pr_u1 * (search.prob_order(1, 0) + search.prob_first(0)) + (
            pr_u2 * (search.prob_first(1) - search.prob_order(1, 0))
        )
        for n_draws in (10_000, 1_000_000):
            rule, _ = tc.gen_satisficing(
                menu3, utilities, [dist], search, n_draws, seed=99
            )
            alpha = tc.zeta_transform(rule.u[0], rule.set_index)
            j = rule.set_index.index_of(0b011)
            se = math.sqrt(closed * (1 - closed) / n_draws)
            assert abs(alpha[j] - closed) < 4 * se


class TestDiffusion:
    def test_threshold_equal_drift_times_time_gives_half(self, menu2):
        schedule = diffusion_schedule(
            menu2,
            [1.0, 2.0],
            1.0,
            np.arange(1.0, 5.0)[:, None] * np.array([1.0, 2.0]),
            4,
        )
        np.testing.assert_allclose(schedule.gamma, 0.5, atol=1e-12)

    def test_large_drift_saturates(self, menu2):
        schedule = diffusion_schedule(
            menu2, [50.0, 50.0], 1.0, np.ones((4, 2)), 4
        )
        assert schedule.gamma[-1].min() > 0.999

    def test_formula_matches_direct_evaluation(self, menu2):
        drifts = np.array([0.8, 0.3])
        tau = np.array([[2.0, 1.0], [1.5, 0.8], [1.2, 0.6]])
        schedule = diffusion_schedule(menu2, drifts, 1.3, tau, 3)
        for t in range(3):
            for i in range(2):
                z = (tau[t, i] - drifts[i] * (t + 1)) / (math.sqrt(t + 1) * 1.3)
                assert schedule.gamma[t, i] == pytest.approx(
                    1.0 - norm_cdf(z), abs=1e-12
                )

    def test_outside_mode_rules_monotone_for_random_configs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            items = tuple("abcd"[:n]) + ("o",)
            menu = tc.Menu(items=items, outside_index=n)
            d_t = int(rng.integers(1, 7))
            drifts = rng.uniform(0, 2, size=n)
            tau = np.sort(rng.uniform(0, 3, size=(d_t, n)), axis=0)[::-1].copy()
            rule = tc.gen_diffusion(
                menu, drifts, float(rng.uniform(0.3, 2.0)), tau, d_t,
                outside_mode=True,
            )
            assert tc.check_time_monotonicity(rule, tol=1e-12).passed

    def test_negative_drift_rejected(self, menu2):
        with pytest.raises(ConfigurationError):
            diffusion_schedule(menu2, [-0.5, 1.0], 1.0, np.ones((2, 2)), 2)

    def test_increasing_threshold_that_breaks_monotonicity_rejected(self, menu2):
        tau = np.array([[3.0, 0.0], [8.0, 0.0]])  # first item's tau shoots up
        with pytest.raises(ConfigurationError):
            diffusion_schedule(menu2, [0.1, 0.0], 0.5, tau, 2)

    def test_increasing_threshold_with_monotone_outcome_allowed(self, menu2):
        # Thresholds grow exactly in step with the drift: probabilities stay
        # flat, so the schedule is still admissible.
        schedule = diffusion_schedule(
            menu2, [1.0, 1.0], 1.0, np.repeat(np.arange(1.0, 4.0)[:, None], 2, axis=1), 3
        )
        np.testing.assert_allclose(schedule.gamma, 0.5, atol=1e-12)


class TestSurvivalSoundness:
    def test_generator_data_keeps_the_true_ordering(self, menu3):
        # All homogeneous generators produce data whose generating ordering
        # survives the contour tests exactly.
        enum = tc.enumerate_sets(menu3)
        rng = np.random.default_rng(3)
        for perm in itertools.permutations(range(3)):
            ordering = tc.PreferenceOrdering(perm)
            transform = tc.build_choice_transform(
                menu3, enum, tc.OrderingSet((ordering,))
            )
            g = np.sort(rng.uniform(size=(3, 3)), axis=0)
            g[:, 0] = np.maximum(g[:, 0], 0.05)  # keep rows off all-zero
            rules = [
                tc.gen_topn(menu3, 3, rng.permutation(3)),
            ]
            for rule in rules:
                pi = tc.predict_choices(
                    rule, transform, tc.PreferenceDistribution(np.array([1.0]))
                )
                report = tc.survivor_search(pi, menu3, never_chosen_rule=False)
                assert ordering.rank in {o.rank for o in report.survivors}
