import numpy as np
import pytest

import timedchoice as tc
import timedchoice.estimator as est
import timedchoice.hyptest as ht
from timedchoice.errors import ConfigurationError, SolverError, ValidationError
from timedchoice.solvers import constrained_lstsq_batch

from conftest import random_attention_rule


@pytest.fixture
def setup3(menu3, orderings3):
    enum = tc.enumerate_sets(menu3)
    transform = tc.build_choice_transform(menu3, enum, orderings3)
    rule = tc.sample_attention_rule(
        menu3, orderings3, tc.SamplerConfig(d_t=3, seed=21, outside_mode=False)
    )
    return enum, transform, rule


def sampled_dataset(rule, transform, p, counts, seed):
    pop = tc.predict_choices(rule, transform, p).pi
    rng = np.random.default_rng(seed)
    draws = np.stack(
        [rng.multinomial(c, pop[t]) / c for t, c in enumerate(counts)]
    )
    return tc.ChoiceDataset(pi=draws, period_counts=tuple(counts))


def grid_statistic_2d(pi, m, weights, tau, n_total, resolution=1e-3):
    """Brute-force the two-type statistic on the shrunk simplex."""
    lo = tau / 2
    best = np.inf
    b = pi.vec()
    for p0 in np.arange(lo, 1 - lo + 1e-12, resolution):
        p = np.array([p0, 1 - p0])
        r = b - m @ p
        best = min(best, float(np.sum(weights.inverse * r * r)))
    return n_total * best


class TestVarianceWeights:
    def test_binomial_formula(self):
        pi = tc.ChoiceDataset(
            pi=np.array([[0.5, 0.5]]), period_counts=(100,)
        )
        w = tc.variance_weights(pi)
        np.testing.assert_allclose(w.omega, [0.0025, 0.0025])
        np.testing.assert_allclose(w.inverse, [400.0, 400.0])

    def test_degenerate_cells_dropped(self):
        pi = tc.ChoiceDataset(pi=np.array([[0.0, 1.0]]), period_counts=(50,))
        w = tc.variance_weights(pi)
        np.testing.assert_array_equal(w.inverse, [0.0, 0.0])

    def test_experiment_first_period_all_dropped(self, experiment_data):
        pi, _ = experiment_data
        w = tc.variance_weights(pi)
        np.testing.assert_array_equal(w.inverse[: pi.n], np.zeros(pi.n))
        assert w.inverse[pi.n :].max() > 0

    def test_missing_counts_raise(self):
        pi = tc.ChoiceDataset(pi=np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            tc.variance_weights(pi)


class TestTestStatistic:
    def test_exact_fit_with_zero_shrinkage_is_zero(self, setup3, orderings3):
        _, transform, rule = setup3
        p = tc.PreferenceDistribution.uniform(6)
        pop = tc.predict_choices(rule, transform, p)
        pi = tc.ChoiceDataset(pi=pop.pi, period_counts=(200, 200, 200))
        w = tc.variance_weights(pi)
        t_n, p_min, eta = tc.test_statistic(pi, rule, transform, w, 0.0)
        assert t_n < 1e-12
        np.testing.assert_allclose(eta, pop.vec(), atol=1e-6)

    def test_all_zero_weights_degenerate_with_warning(self, menu2):
        enum = tc.enumerate_sets(menu2)
        orderings = tc.OrderingSet(
            (tc.PreferenceOrdering((0, 1)), tc.PreferenceOrdering((1, 0)))
        )
        transform = tc.build_choice_transform(menu2, enum, orderings)
        rule = random_attention_rule(enum, 2, 2, np.random.default_rng(0))
        pi = tc.ChoiceDataset(
            pi=np.array([[1.0, 0.0], [1.0, 0.0]]), period_counts=(10, 10)
        )
        w = tc.variance_weights(pi)
        with pytest.warns(RuntimeWarning):
            t_n, _, _ = tc.test_statistic(pi, rule, transform, w, 0.0)
        assert t_n == 0.0

    def test_matches_grid_oracle_two_types(self, menu2):
        enum = tc.enumerate_sets(menu2)
        orderings = tc.OrderingSet(
            (tc.PreferenceOrdering((0, 1)), tc.PreferenceOrdering((1, 0)))
        )
        transform = tc.build_choice_transform(menu2, enum, orderings)
        rng = np.random.default_rng(6)
        rule = random_attention_rule(enum, 2, 3, rng)
        pi = tc.ChoiceDataset(
            pi=rng.dirichlet(np.ones(2), size=3), period_counts=(60, 80, 50)
        )
        w = tc.variance_weights(pi)
        tau = 0.1
        t_n, _, _ = tc.test_statistic(pi, rule, transform, w, tau)
        m = tc.design_matrix(rule, transform)
        oracle = grid_statistic_2d(pi, m, w, tau, pi.total_count)
        assert t_n <= oracle + 1e-4
        assert abs(t_n - oracle) <= max(1e-4 * max(oracle, 1.0), 1e-4)

    def test_infeasible_shrinkage_rejected(self, setup3):
        _, transform, rule = setup3
        pi = tc.ChoiceDataset(
            pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3),
            period_counts=(50, 50, 50),
        )
        w = tc.variance_weights(pi)
        with pytest.raises(ConfigurationError):
            tc.test_statistic(pi, rule, transform, w, 0.5)

    def test_statistic_nonnegative_and_grows_with_shrinkage(self, setup3):
        _, transform, rule = setup3
        pi = tc.ChoiceDataset(
            pi=np.random.default_rng(1).dirichlet(np.ones(3), size=3),
            period_counts=(80, 80, 80),
        )
        w = tc.variance_weights(pi)
        t0, _, _ = tc.test_statistic(pi, rule, transform, w, 0.0)
        t1, _, _ = tc.test_statistic(pi, rule, transform, w, 0.08)
        assert 0.0 <= t0 <= t1 + 1e-9

    def test_orthant_statistic_is_the_unsummed_minimum(self, setup3):
        """Without the sum constraint ``p_min`` is the raw minimizer divided by its sum."""
        _, transform, rule = setup3
        pi = tc.ChoiceDataset(
            pi=np.random.default_rng(3).dirichlet(np.ones(3), size=3),
            period_counts=(70, 90, 60),
        )
        w = tc.variance_weights(pi)
        t_n, p_min, eta = tc.test_statistic(pi, rule, transform, w, 0.06, simplex_sum=False)
        m = tc.design_matrix(rule, transform)
        p, obj, _ = constrained_lstsq_batch(
            m[None], pi.vec(), weights=w.inverse, lower=0.06 / 6, sum_constraint=False
        )
        assert abs(p[0].sum() - 1.0) > 1e-3  # the raw minimizer is not a distribution
        assert t_n == pi.total_count * obj[0]
        np.testing.assert_array_equal(p_min.p, p[0] / p[0].sum())
        np.testing.assert_array_equal(eta, m @ p[0])


class TestBootstrapTest:
    def test_deterministic_given_seed(self, setup3, orderings3):
        _, transform, rule = setup3
        pi = sampled_dataset(
            rule, transform, tc.PreferenceDistribution.uniform(6), (300,) * 3, 5
        )
        cfg = tc.TestConfig(n_boot=99, seed=7)
        a = tc.bootstrap_test(pi, rule, transform, cfg)
        b = tc.bootstrap_test(pi, rule, transform, cfg)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        np.testing.assert_array_equal(a.bootstrap_stats, b.bootstrap_stats)

    def test_fails_to_reject_its_own_data(self, setup3, orderings3):
        _, transform, rule = setup3
        pi = sampled_dataset(
            rule, transform, tc.PreferenceDistribution.uniform(6), (500,) * 3, 9
        )
        res = tc.bootstrap_test(pi, rule, transform, tc.TestConfig(n_boot=199, seed=3))
        assert not res.reject

    def test_decision_consistent_with_critical_value(self, setup3):
        _, transform, rule = setup3
        pi = sampled_dataset(
            rule, transform, tc.PreferenceDistribution.uniform(6), (200,) * 3, 13
        )
        res = tc.bootstrap_test(pi, rule, transform, tc.TestConfig(n_boot=99, seed=1))
        assert res.reject == (res.statistic > res.critical_value)
        assert 0.0 <= res.p_value <= 1.0
        assert res.tau_n == pytest.approx(tc.default_tau(6, pi.total_count))

    def test_recentered_replications_average_to_eta(self, setup3):
        _, transform, rule = setup3
        pi = sampled_dataset(
            rule, transform, tc.PreferenceDistribution.uniform(6), (400,) * 3, 2
        )
        cfg = tc.TestConfig(n_boot=400, seed=11)
        res = tc.bootstrap_test(pi, rule, transform, cfg)
        # Reconstruct the recentered replications' mean: resamples center on
        # pi-hat, so recentered draws center on eta-hat.
        w = tc.variance_weights(pi)
        se = np.sqrt(np.maximum(w.omega, 0.0) / cfg.n_boot).max()
        rng = np.random.default_rng(11)
        counts = np.asarray(pi.period_counts)
        mean_star = np.zeros(pi.d_t * pi.n)
        for t in range(pi.d_t):
            draws = rng.multinomial(counts[t], pi.pi[t], size=cfg.n_boot)
            mean_star[t * pi.n : (t + 1) * pi.n] = (
                draws / counts[t]
            ).mean(axis=0)
        recentered_mean = mean_star - pi.vec() + res.eta_hat
        assert np.abs(recentered_mean - res.eta_hat).max() < max(5 * se, 5e-3)

    def test_weight_rescaling_leaves_p_value_alone_at_zero_shrinkage(
        self, setup3, monkeypatch
    ):
        _, transform, rule = setup3
        pi = sampled_dataset(
            rule, transform, tc.PreferenceDistribution.uniform(6), (250,) * 3, 4
        )
        import timedchoice.hyptest as ht

        base = tc.bootstrap_test(
            pi, rule, transform, tc.TestConfig(tau_n=0.0, n_boot=99, seed=5)
        )
        real = ht._omega

        def scaled(pi_flat, counts):
            omega, inverse = real(pi_flat, counts)
            return omega * 3.0, inverse / 3.0

        monkeypatch.setattr(ht, "_omega", scaled)
        scaled_res = tc.bootstrap_test(
            pi, rule, transform, tc.TestConfig(tau_n=0.0, n_boot=99, seed=5)
        )
        assert scaled_res.p_value == base.p_value
        assert scaled_res.statistic == pytest.approx(base.statistic / 3.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "row", [[0.6, 0.4000000005, 0.0], [-5e-13, 0.5, 0.5 + 5e-13], [1.0 + 5e-13, 0.0, -5e-13]]
    )
    def test_row_numpy_refuses_is_resampled(self, setup3, row):
        """The dataset accepts these rows; ``multinomial`` refused them with a ValueError."""
        _, transform, rule = setup3
        pi = tc.ChoiceDataset(
            pi=np.array([row, [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]]), period_counts=(50,) * 3
        )
        res = tc.bootstrap_test(pi, rule, transform, tc.TestConfig(n_boot=49, seed=0))
        assert res.bootstrap_stats.size == 49 and np.isfinite(res.bootstrap_stats).all()
        assert 0.0 < res.p_value <= 1.0

    def test_requires_period_counts(self, setup3):
        _, transform, rule = setup3
        pi = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3))
        with pytest.raises(ValidationError):
            tc.bootstrap_test(pi, rule, transform)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            tc.TestConfig(alpha=0.7)
        with pytest.raises(ConfigurationError):
            tc.TestConfig(n_boot=0)
        with pytest.raises(ConfigurationError):
            tc.TestConfig(tau_n=-0.1)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_is_rejected(self, tau):
        with pytest.raises(ConfigurationError, match="finite"):
            tc.TestConfig(tau_n=tau)


class TestFitTestRule:
    def test_selects_injectable_quality_rule(self, menu3, orderings3):
        truth = tc.sample_attention_rule(
            menu3, orderings3, tc.SamplerConfig(d_t=3, seed=2, outside_mode=False)
        )
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        pi = sampled_dataset(
            truth, transform, tc.PreferenceDistribution.uniform(6), (400,) * 3, 8
        )
        rule, tr2 = tc.fit_test_rule(
            pi, menu3, orderings3, 200,
            tc.SamplerConfig(d_t=3, seed=3, outside_mode=False),
            tc.TestConfig(seed=0),
        )
        assert rule.d_pref == 6 and tr2.menu == menu3
        res = tc.bootstrap_test(pi, rule, tr2, tc.TestConfig(n_boot=99, seed=1))
        assert np.isfinite(res.statistic)

    def test_seed_sequence_seed_is_reproducible(self, setup3, menu3, orderings3):
        _, transform, truth = setup3
        pi = sampled_dataset(
            truth, transform, tc.PreferenceDistribution.uniform(6), (400,) * 3, 5
        )
        seed = np.random.SeedSequence(42)
        config = tc.SamplerConfig(d_t=3, seed=seed, outside_mode=False)
        a, _ = tc.fit_test_rule(pi, menu3, orderings3, 12, config)
        b, _ = tc.fit_test_rule(pi, menu3, orderings3, 12, config)
        assert seed.n_children_spawned == 0
        np.testing.assert_array_equal(a.u, b.u)

    def test_infeasible_shrinkage_raises_before_any_draw(
        self, setup3, menu3, orderings3, monkeypatch
    ):
        _, transform, rule = setup3
        pi = sampled_dataset(
            rule, transform, tc.PreferenceDistribution.uniform(6), (400,) * 3, 8
        )
        config = tc.TestConfig(tau_n=0.5)  # above 1 / d_pref = 1/6

        def no_draws(*args, **kwargs):
            raise AssertionError("a rule pool was drawn")

        monkeypatch.setattr(est, "_draw_children", no_draws)
        with pytest.raises(ConfigurationError) as fit_error:
            tc.fit_test_rule(
                pi, menu3, orderings3, 50,
                tc.SamplerConfig(d_t=3, seed=0, outside_mode=False), config,
            )
        with pytest.raises(ConfigurationError) as boot_error:
            tc.bootstrap_test(pi, rule, transform, config)
        assert str(fit_error.value) == str(boot_error.value)

    def test_unconverged_draws_are_never_selected(self, menu3, orderings3, monkeypatch):
        truth = tc.sample_attention_rule(
            menu3, orderings3, tc.SamplerConfig(d_t=3, seed=2, outside_mode=False)
        )
        transform = tc.build_choice_transform(menu3, tc.enumerate_sets(menu3), orderings3)
        pi = sampled_dataset(
            truth, transform, tc.PreferenceDistribution.uniform(6), (400,) * 3, 8
        )
        config = tc.SamplerConfig(d_t=3, seed=3, outside_mode=False)
        k = 16
        real_batch = est.constrained_lstsq_batch

        def only_last_converges(*args, **kwargs):
            p, obj, res = real_batch(*args, **kwargs)
            res = np.ones_like(res)
            res[-1] = 0.0
            return p, obj, res

        monkeypatch.setattr(est, "constrained_lstsq_batch", only_last_converges)
        rule, _ = tc.fit_test_rule(pi, menu3, orderings3, k, config, tc.TestConfig())
        last = tc.sample_attention_rules(menu3, orderings3, config, k)[-1]
        np.testing.assert_array_equal(rule.blocks(), last)

    def test_all_unconverged_draws_raise(self, menu3, orderings3, monkeypatch):
        pi = tc.ChoiceDataset(
            pi=np.random.default_rng(4).dirichlet(np.ones(3), size=3),
            period_counts=(200,) * 3,
        )
        real_batch = est.constrained_lstsq_batch

        def never_converged(*args, **kwargs):
            p, obj, _ = real_batch(*args, **kwargs)
            return p, obj, np.ones_like(obj)

        monkeypatch.setattr(est, "constrained_lstsq_batch", never_converged)
        with pytest.raises(SolverError):
            tc.fit_test_rule(
                pi, menu3, orderings3, 4,
                tc.SamplerConfig(d_t=3, seed=0, outside_mode=False),
            )


class TestConvergenceContract:
    """The test path acts on the solver's KKT residual, as the pool does."""

    @pytest.fixture
    def data(self, setup3):
        _, transform, rule = setup3
        pi = sampled_dataset(
            rule, transform, tc.PreferenceDistribution.uniform(6), (300,) * 3, 5
        )
        return pi, rule, transform

    @staticmethod
    def patch(monkeypatch, mark):
        """Let ``mark(res)`` flag replications of the bootstrap batch as unconverged."""
        real_batch = ht.constrained_lstsq_batch

        def patched(M, b, **kwargs):
            p, obj, res = real_batch(M, b, **kwargs)
            res = res.copy()
            mark(res)
            return p, obj, res

        monkeypatch.setattr(ht, "constrained_lstsq_batch", patched)

    def test_unconverged_statistic_raises(self, data, monkeypatch):
        pi, rule, transform = data
        self.patch(monkeypatch, lambda res: res.fill(1.0))
        with pytest.raises(SolverError) as err:
            tc.test_statistic(pi, rule, transform, tc.variance_weights(pi), 0.05)
        assert err.value.residual == 1.0
        with pytest.raises(SolverError):
            tc.bootstrap_test(pi, rule, transform, tc.TestConfig(n_boot=49, seed=7))

    def test_unconverged_replications_are_left_out_and_counted(self, data, monkeypatch):
        pi, rule, transform = data
        cfg = tc.TestConfig(n_boot=99, seed=7)
        full = tc.bootstrap_test(pi, rule, transform, cfg)
        assert full.n_unconverged == 0 and full.bootstrap_stats.size == 99

        def every_third(res):
            if res.size > 1:
                res[::3] = 1.0

        self.patch(monkeypatch, every_third)
        part = tc.bootstrap_test(pi, rule, transform, cfg)
        kept = np.delete(full.bootstrap_stats, np.s_[::3])
        L = kept.size
        assert part.n_boot == 99 and part.n_unconverged == 99 - L == 33
        assert part.statistic == full.statistic
        np.testing.assert_array_equal(part.bootstrap_stats, kept)
        assert part.p_value == (1.0 + np.sum(kept >= part.statistic)) / (L + 1.0)
        k = int(np.ceil((1.0 - cfg.alpha) * (L + 1)))
        assert part.critical_value == np.sort(kept)[k - 1]
        assert "33 unconverged" in part.summary()

    def test_no_converged_replication_raises(self, data, monkeypatch):
        pi, rule, transform = data

        def all_replications(res):
            if res.size > 1:
                res.fill(1.0)

        self.patch(monkeypatch, all_replications)
        with pytest.raises(SolverError):
            tc.bootstrap_test(pi, rule, transform, tc.TestConfig(n_boot=49, seed=7))
