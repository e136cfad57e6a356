import numpy as np
import pytest

import timedchoice as tc
from timedchoice.errors import ConfigurationError
from timedchoice.sampler import _step_rows


@pytest.fixture
def menu6():
    return tc.Menu(items=("l1", "l2", "l3", "l4", "l5", "lO"), outside_index=5)


@pytest.fixture
def orderings6(menu6):
    ords, _ = tc.crra_ordering_set()
    return ords


class TestInitialRows:
    def test_outside_start_is_unit_vector_of_length_32(self, menu6):
        row = tc.initial_row_outside(menu6)
        assert row.shape == (32,)
        assert row[0] == 1.0 and row[1:].sum() == 0.0

    def test_two_item_outside_menu(self):
        menu = tc.Menu(items=("a", "o"), outside_index=1)
        row = tc.initial_row_outside(menu)
        np.testing.assert_array_equal(row, [1.0, 0.0])
        enum = tc.enumerate_sets(menu, outside_mode=True)
        alpha = tc.zeta_transform(row, enum)
        assert alpha[0] == 1.0  # attention certainly within {o}

    def test_outside_start_requires_outside_option(self, menu3):
        with pytest.raises(ConfigurationError):
            tc.initial_row_outside(menu3)

    def test_singleton_start(self, menu3):
        row = tc.initial_row_singletons(menu3)
        enum = tc.enumerate_sets(menu3)
        assert row.sum() == pytest.approx(1.0)
        for i in range(3):
            assert row[enum.index_of(1 << i)] == pytest.approx(1 / 3)


class TestStep:
    def test_zero_direction_returns_row_unchanged(self, menu3):
        enum = tc.enumerate_sets(menu3)
        config = tc.SamplerConfig(d_t=2, outside_mode=False)
        row = np.full(enum.d_c, 1.0 / enum.d_c)
        rng = np.random.default_rng(0)
        result = tc.step(row, enum, config, rng, direction=np.zeros(enum.d_c))
        assert result.degenerate
        np.testing.assert_array_equal(result.row, row)

    def test_invalid_direction_rejected(self, menu3):
        enum = tc.enumerate_sets(menu3)
        config = tc.SamplerConfig(d_t=2, outside_mode=False)
        rng = np.random.default_rng(0)
        bad = np.zeros(enum.d_c)
        bad[0] = 1.0
        bad[enum.full_index] = -1.0  # raises attention on the singleton
        with pytest.raises(Exception):
            tc.step(np.full(enum.d_c, 1.0 / enum.d_c), enum, config, rng, direction=bad)

    def test_outside_singleton_mass_never_increases(self):
        menu = tc.Menu(items=("a", "b", "o"), outside_index=2)
        enum = tc.enumerate_sets(menu, outside_mode=True)
        rng = np.random.default_rng(1)
        rows = np.tile(tc.initial_row_outside(menu), (50, 1))
        stepped, _, _ = _step_rows(rows, enum, rng)
        assert np.all(stepped[:, 0] <= rows[:, 0] + 1e-12)

    def test_long_chain_stays_monotone(self):
        menu = tc.Menu(items=("a", "b", "c", "d"))
        orderings = tc.OrderingSet((tc.PreferenceOrdering((0, 1, 2, 3)),))
        config = tc.SamplerConfig(d_t=1000, seed=4, outside_mode=False)
        rule = tc.sample_attention_rule(menu, orderings, config)
        assert tc.check_time_monotonicity(rule).passed

    def test_rows_remain_probability_vectors(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=8, seed=9, outside_mode=True)
        rule = tc.sample_attention_rule(menu6, orderings6, config)
        blocks = rule.blocks()
        assert blocks.min() >= 0.0 and blocks.max() <= 1.0
        np.testing.assert_allclose(blocks.sum(axis=2), 1.0, atol=1e-9)


class TestSampleAttentionRule:
    def test_single_period_returns_initial_row(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=1, seed=0, outside_mode=True)
        rule = tc.sample_attention_rule(menu6, orderings6, config)
        expected = tc.initial_row_outside(menu6)
        for i in range(rule.d_pref):
            np.testing.assert_array_equal(rule.block(i)[0], expected)

    def test_deterministic_given_seed(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=6, seed=123, outside_mode=True)
        a = tc.sample_attention_rule(menu6, orderings6, config)
        b = tc.sample_attention_rule(menu6, orderings6, config)
        np.testing.assert_array_equal(a.u, b.u)

    def test_different_seeds_differ(self, menu6, orderings6):
        a = tc.sample_attention_rule(
            menu6, orderings6, tc.SamplerConfig(d_t=6, seed=1, outside_mode=True)
        )
        b = tc.sample_attention_rule(
            menu6, orderings6, tc.SamplerConfig(d_t=6, seed=2, outside_mode=True)
        )
        assert not np.array_equal(a.u, b.u)

    def test_bulk_monotonicity_three_items(self, menu3, orderings3):
        violations = 0
        for seed in range(400):
            rule = tc.sample_attention_rule(
                menu3, orderings3, tc.SamplerConfig(d_t=3, seed=seed, outside_mode=False)
            )
            if not tc.check_time_monotonicity(rule).passed:
                violations += 1
        assert violations == 0

    def test_explicit_initial_row(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        init = np.zeros(enum.d_c)
        init[enum.full_index] = 1.0
        config = tc.SamplerConfig(
            d_t=4, seed=0, outside_mode=False, initial_row=init
        )
        rule = tc.sample_attention_rule(menu3, orderings3, config)
        # Full-menu vertex is absorbing: attention cannot shrink later.
        for t in range(4):
            np.testing.assert_array_equal(rule.block(0)[t], init)

    def test_wrong_initial_row_length(self, menu3, orderings3):
        with pytest.raises(ConfigurationError):
            tc.sample_attention_rule(
                menu3,
                orderings3,
                tc.SamplerConfig(
                    d_t=2, outside_mode=False, initial_row=np.array([0.5, 0.5])
                ),
            )

    def test_chain_leaves_the_outside_vertex(self):
        menu = tc.Menu(items=("a", "b", "o"), outside_index=2)
        orderings = tc.OrderingSet((tc.PreferenceOrdering((0, 1, 2)),))
        config = tc.SamplerConfig(d_t=100, seed=5, outside_mode=True)
        rule = tc.sample_attention_rule(menu, orderings, config)
        drift = np.abs(rule.block(0) - rule.block(0)[0]).max()
        assert drift > 0.01

    def test_rule_stream_is_prefix_stable(self, menu3, orderings3):
        config = tc.SamplerConfig(d_t=3, seed=77, outside_mode=False)
        few = list(tc.sample_attention_rules(menu3, orderings3, config, 3))
        many = list(tc.sample_attention_rules(menu3, orderings3, config, 8))
        for a, b in zip(few, many):
            np.testing.assert_array_equal(a.u, b.u)

    def test_seed_sequence_stream_is_reproducible(self, menu3, orderings3):
        seed = np.random.SeedSequence(77)
        config = tc.SamplerConfig(d_t=3, seed=seed, outside_mode=False)
        first = list(tc.sample_attention_rules(menu3, orderings3, config, 4))
        again = list(tc.sample_attention_rules(menu3, orderings3, config, 4))
        as_int = list(
            tc.sample_attention_rules(
                menu3, orderings3, tc.SamplerConfig(d_t=3, seed=77, outside_mode=False), 4
            )
        )
        assert seed.n_children_spawned == 0
        for a, b, c in zip(first, again, as_int):
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.u, c.u)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            tc.SamplerConfig(d_t=0)
        with pytest.raises(ConfigurationError):
            tc.SamplerConfig(d_t=2, initial_row=np.array([0.5, 0.2]))
