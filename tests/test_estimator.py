import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import timedchoice as tc
import timedchoice.estimator as est
from timedchoice import dataio
from timedchoice.errors import SolverError, ValidationError

from conftest import random_attention_rule


@pytest.fixture
def recovery_setup(menu3, orderings3):
    """Exact data from a sampled rule with a full-column-rank design."""
    enum = tc.enumerate_sets(menu3)
    transform = tc.build_choice_transform(menu3, enum, orderings3)
    rule = tc.sample_attention_rule(
        menu3, orderings3, tc.SamplerConfig(d_t=4, seed=777, outside_mode=False)
    )
    m = tc.design_matrix(rule, transform)
    assert np.linalg.matrix_rank(m) == 6
    p_star = tc.PreferenceDistribution(np.array([0.3, 0.2, 0.15, 0.15, 0.1, 0.1]))
    pi = tc.predict_choices(rule, transform, p_star)
    return transform, rule, p_star, pi


class TestSolveP:
    def test_exact_self_consistency(self, recovery_setup):
        transform, rule, p_star, pi = recovery_setup
        p_hat, distance = tc.solve_p(rule, transform, pi)
        assert distance < 1e-10
        assert np.abs(p_hat.p - p_star.p).max() < 1e-6

    def test_single_preference_distance_is_residual(self, menu3):
        enum = tc.enumerate_sets(menu3)
        orderings = tc.OrderingSet((tc.PreferenceOrdering((0, 1, 2)),))
        transform = tc.build_choice_transform(menu3, enum, orderings)
        rule = random_attention_rule(enum, 1, 3, np.random.default_rng(0))
        pi = tc.ChoiceDataset(pi=np.random.default_rng(1).dirichlet(np.ones(3), size=3))
        p_hat, distance = tc.solve_p(rule, transform, pi)
        np.testing.assert_array_equal(p_hat.p, [1.0])
        m = tc.design_matrix(rule, transform)
        assert distance == pytest.approx(
            float(np.sum((m[:, 0] - pi.vec()) ** 2)), abs=1e-12
        )

    def test_unreachable_data_reports_positive_distance(self, menu2):
        # Degenerate rule only ever shows {a}; data put all mass on b.
        enum = tc.enumerate_sets(menu2)
        orderings = tc.OrderingSet(
            (tc.PreferenceOrdering((0, 1)), tc.PreferenceOrdering((1, 0)))
        )
        transform = tc.build_choice_transform(menu2, enum, orderings)
        u = np.zeros((2, 2 * enum.d_c))
        u[:, enum.index_of(0b01)] = 1.0
        u[:, enum.d_c + enum.index_of(0b01)] = 1.0
        rule = tc.AttentionRule(u=u, set_index=enum, d_pref=2)
        pi = tc.ChoiceDataset(pi=np.array([[0.0, 1.0], [0.0, 1.0]]))
        p_hat, distance = tc.solve_p(rule, transform, pi)
        assert distance == pytest.approx(4.0)  # two cells off by 1, per period

    def test_solution_is_exactly_on_the_simplex(self, recovery_setup):
        transform, rule, _, pi = recovery_setup
        p_hat, _ = tc.solve_p(rule, transform, pi)
        assert p_hat.p.min() >= 0.0
        assert abs(p_hat.p.sum() - 1.0) < 1e-12

    def test_objective_matches_independent_evaluation(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rng = np.random.default_rng(15)
        rule = random_attention_rule(enum, 6, 3, rng)
        pi = tc.ChoiceDataset(pi=rng.dirichlet(np.ones(3), size=3))
        p_hat, distance = tc.solve_p(rule, transform, pi)
        m = tc.design_matrix(rule, transform)
        direct = float(np.sum((m @ p_hat.p - pi.vec()) ** 2))
        assert distance == pytest.approx(direct, abs=1e-10)

    def test_shape_mismatch(self, recovery_setup, menu3, orderings3):
        transform, rule, _, _ = recovery_setup
        short = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=2))
        with pytest.raises(ValidationError):
            tc.solve_p(rule, transform, short)

    def test_preference_block_mismatch(self, recovery_setup, menu3):
        transform, _, _, pi = recovery_setup
        two_blocks = random_attention_rule(
            tc.enumerate_sets(menu3), 2, 4, np.random.default_rng(0)
        )
        with pytest.raises(ValidationError):
            tc.solve_p(two_blocks, transform, pi)

    def test_unconverged_solve_raises(self, recovery_setup, monkeypatch):
        transform, rule, _, pi = recovery_setup
        real_batch = est.constrained_lstsq_batch

        def never_converged(*args, **kwargs):
            p, obj, res = real_batch(*args, **kwargs)
            return p, obj, np.ones_like(res)

        monkeypatch.setattr(est, "constrained_lstsq_batch", never_converged)
        with pytest.raises(SolverError) as err:
            tc.solve_p(rule, transform, pi)
        assert err.value.residual == 1.0
        assert isinstance(err.value.iterate, np.ndarray)
        assert err.value.iterate.shape == (6,)


class TestEstimate:
    def test_k1_equals_solve_p_on_the_sampled_rule(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(8).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=5, outside_mode=False)
        result = tc.estimate(pi, menu3, orderings3, 1, config)
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        p_direct, d_direct = tc.solve_p(result.best_rule, transform, pi)
        assert result.best_distance == pytest.approx(d_direct, abs=1e-12)
        np.testing.assert_allclose(result.best_p.p, p_direct.p, atol=1e-10)

    def test_deterministic_given_seed(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(2).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=42, outside_mode=False)
        a = tc.estimate(pi, menu3, orderings3, 25, config)
        b = tc.estimate(pi, menu3, orderings3, 25, config)
        assert a.best_distance == b.best_distance
        np.testing.assert_array_equal(a.best_p.p, b.best_p.p)
        np.testing.assert_array_equal(a.per_sim_distances, b.per_sim_distances)

    def test_nested_budgets_share_their_prefix(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(3).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=9, outside_mode=False)
        small = tc.estimate(pi, menu3, orderings3, 6, config)
        large = tc.estimate(pi, menu3, orderings3, 24, config)
        np.testing.assert_allclose(
            small.per_sim_distances, large.per_sim_distances[:6], atol=1e-12
        )
        assert large.best_distance <= small.best_distance

    def test_injected_truth_wins_and_recovers(self, recovery_setup, menu3, orderings3):
        transform, rule, p_star, pi = recovery_setup
        config = tc.SamplerConfig(d_t=4, seed=1, outside_mode=False)
        result = tc.estimate(
            pi, menu3, orderings3, 40, config, extra_rules=(rule,)
        )
        assert result.best_index == 40
        assert result.best_distance < 1e-10
        assert np.abs(result.best_p.p - p_star.p).max() < 1e-4

    def test_injected_rules_straddle_chunks(self, recovery_setup, menu3, orderings3, monkeypatch):
        transform, rule, _, pi = recovery_setup
        rng = np.random.default_rng(6)
        extras = tuple(random_attention_rule(transform.sets, 6, 4, rng) for _ in range(2))
        extras = (extras[0], rule, extras[1])
        config = tc.SamplerConfig(d_t=4, seed=1, outside_mode=False)
        whole = tc.estimate(pi, menu3, orderings3, 6, config, extra_rules=extras)
        # Chunks [0, 4), [4, 8), [8, 9): draws and injected rules share one.
        monkeypatch.setattr(est, "CHUNK", 4)
        split = tc.estimate(pi, menu3, orderings3, 6, config, extra_rules=extras)
        np.testing.assert_allclose(split.per_sim_distances, whole.per_sim_distances, atol=1e-12)
        assert split.best_index == whole.best_index == 7
        assert split.best_rule is rule

    def test_winner_from_an_earlier_chunk_survives_buffer_reuse(
        self, menu3, orderings3, monkeypatch
    ):
        """Later chunks overwrite the draw buffer; the winner keeps its own rows."""
        transform = tc.build_choice_transform(menu3, tc.enumerate_sets(menu3), orderings3)
        config = tc.SamplerConfig(d_t=4, seed=1, outside_mode=False)
        pool = tc.sample_attention_rules(menu3, orderings3, config, 12)
        truth = tc.AttentionRule(u=pool[1].reshape(4, -1), set_index=transform.sets, d_pref=6)
        pi = tc.predict_choices(truth, transform, tc.PreferenceDistribution.uniform(6))
        monkeypatch.setattr(est, "CHUNK", 4)  # chunks [0, 4), [4, 8), [8, 12)
        result = tc.estimate(pi, menu3, orderings3, 12, config)
        assert result.best_index == 1
        np.testing.assert_array_equal(result.best_rule.blocks(), pool[result.best_index])

    def test_pool_past_one_chunk_is_unchanged(self):
        """Digest recorded with the sampler that drew every rule on its own
        (numpy 2.4, x86_64); the lockstep draw keeps the bytes."""
        pi, menu = tc.load_experiment_dataset()
        orderings, _ = tc.crra_ordering_set()
        config = tc.SamplerConfig(d_t=6, seed=0, outside_mode=True)
        result = tc.estimate(pi, menu, orderings, est.CHUNK + 1, config)
        assert hashlib.sha256(result.per_sim_distances.tobytes()).hexdigest() == (
            "ac9af1260fa821dec9628c8a88349e60e268ece6b7f08349225a9988bf1a35f0"
        )
        assert result.best_index == 660

    def test_incompatible_injected_rule_rejected(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        enum = tc.enumerate_sets(menu3)
        wrong = random_attention_rule(enum, 2, 3, np.random.default_rng(1))
        with pytest.raises(ValidationError):
            tc.estimate(pi, menu3, orderings3, 2, config, extra_rules=(wrong,))

    def test_one_unconverged_draw_is_skipped(self, menu3, orderings3, monkeypatch):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(4).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=11, outside_mode=False)
        real_batch = est.constrained_lstsq_batch

        def first_draw_unconverged(*args, **kwargs):
            p, obj, res = real_batch(*args, **kwargs)
            res = res.copy()
            res[0] = 1.0
            return p, obj, res

        monkeypatch.setattr(est, "constrained_lstsq_batch", first_draw_unconverged)
        result = tc.estimate(pi, menu3, orderings3, 4, config)
        assert result.failed_indices == (0,)
        assert np.isinf(result.per_sim_distances[0])
        assert np.all(np.isfinite(result.per_sim_distances[1:]))
        assert result.best_index != 0
        assert np.isfinite(result.best_distance)

    def test_all_unconverged_draws_raise(self, menu3, orderings3, monkeypatch):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(4).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=11, outside_mode=False)
        real_batch = est.constrained_lstsq_batch

        def never_converged(*args, **kwargs):
            p, obj, _ = real_batch(*args, **kwargs)
            return p, obj, np.ones_like(obj)

        monkeypatch.setattr(est, "constrained_lstsq_batch", never_converged)
        with pytest.raises(SolverError):
            tc.estimate(pi, menu3, orderings3, 3, config)

    def test_seed_sequence_seed_is_reproducible(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(2).dirichlet(np.ones(3), size=3))
        seed = np.random.SeedSequence(42)
        config = tc.SamplerConfig(d_t=3, seed=seed, outside_mode=False)
        a = tc.estimate(pi, menu3, orderings3, 12, config)
        b = tc.estimate(pi, menu3, orderings3, 12, config)
        as_int = tc.estimate(
            pi, menu3, orderings3, 12, tc.SamplerConfig(d_t=3, seed=42, outside_mode=False)
        )
        assert seed.n_children_spawned == 0
        np.testing.assert_array_equal(a.per_sim_distances, b.per_sim_distances)
        np.testing.assert_array_equal(a.per_sim_distances, as_int.per_sim_distances)
        assert a.best_distance == b.best_distance

    def test_fresh_entropy_seed_builds_one_root_per_pool(self, menu3, orderings3, monkeypatch):
        """``SeedSequence(None)`` draws new entropy each time: every chunk must share one."""
        pi = tc.ChoiceDataset(pi=np.random.default_rng(2).dirichlet(np.ones(3), size=3))
        roots, real = [], est._seed_sequence

        def recorded(seed):
            roots.append(real(seed))
            return roots[-1]

        monkeypatch.setattr(est, "_seed_sequence", recorded)
        monkeypatch.setattr(est, "CHUNK", 4)
        config = tc.SamplerConfig(d_t=3, seed=None, outside_mode=False)
        result = tc.estimate(pi, menu3, orderings3, 10, config)
        assert len(roots) == 1
        again = tc.estimate(pi, menu3, orderings3, 10, replace(config, seed=roots[0]))
        np.testing.assert_array_equal(result.per_sim_distances, again.per_sim_distances)

    def test_numpy_integer_seed_is_echoed(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(2).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=np.int64(3), outside_mode=False)
        result = tc.estimate(pi, menu3, orderings3, 4, config)
        assert result.seed == 3 and type(result.seed) is int
        doc = dataio.estimation_to_json(result, menu3, orderings3)
        assert json.loads(json.dumps(doc))["seed"] == 3
        seq = replace(config, seed=np.random.SeedSequence(3))
        assert tc.estimate(pi, menu3, orderings3, 4, seq).seed is None

    def test_needs_at_least_one_simulation(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3))
        with pytest.raises(ValidationError):
            tc.estimate(
                pi, menu3, orderings3, 0, tc.SamplerConfig(d_t=3, outside_mode=False)
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [2.5, 3.0, True, np.True_, "3", None, float("nan")])
    def test_pool_size_must_be_an_integer(self, menu3, orderings3, k):
        """``k = 2.5`` failed inside seeding; ``k = True`` ran a one-rule pool."""
        pi = tc.ChoiceDataset(
            pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3), period_counts=(50,) * 3
        )
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        with pytest.raises(ValidationError, match="must be an integer"):
            tc.estimate(pi, menu3, orderings3, k, config)
        with pytest.raises(ValidationError, match="must be an integer"):
            tc.fit_test_rule(pi, menu3, orderings3, k, config, tc.TestConfig())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [np.int64(4), np.uint8(4), np.int32(4)])
    def test_numpy_integer_pool_size(self, menu3, orderings3, k):
        """An unsigned ``k`` used as is wrapped in the chunk arithmetic (``0 - k``)."""
        pi = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3))
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        want = tc.estimate(pi, menu3, orderings3, 4, config)
        got = tc.estimate(pi, menu3, orderings3, k, config)
        assert got.n_sims == 4
        np.testing.assert_array_equal(got.per_sim_distances, want.per_sim_distances)

    def test_period_mismatch_raises(self, menu3, orderings3):
        pi = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3))
        with pytest.raises(ValidationError):
            tc.estimate(
                pi, menu3, orderings3, 1, tc.SamplerConfig(d_t=5, outside_mode=False)
            )
