import tracemalloc

import numpy as np
import pytest

import timedchoice as tc
from timedchoice.errors import ValidationError
from timedchoice.transform import design_matrix_batch

from conftest import MEMBERSHIP_CASES, brute_force_best, random_attention_rule


@pytest.fixture
def two_item_setup(menu2):
    enum = tc.enumerate_sets(menu2)
    orderings = tc.OrderingSet(
        (tc.PreferenceOrdering((0, 1)), tc.PreferenceOrdering((1, 0)))
    )
    return menu2, enum, orderings


class TestChoiceTransform:
    def test_two_item_two_preference_matrix(self, two_item_setup):
        menu, enum, orderings = two_item_setup
        transform = tc.build_choice_transform(menu, enum, orderings)
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 1],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(transform.a, expected)

    def test_single_preference_rows_sum_to_one(self, menu3):
        enum = tc.enumerate_sets(menu3)
        orderings = tc.OrderingSet((tc.PreferenceOrdering((2, 0, 1)),))
        transform = tc.build_choice_transform(menu3, enum, orderings)
        assert transform.a.shape == (7, 3)
        np.testing.assert_array_equal(transform.a.sum(axis=1), np.ones(7))

    def test_all_rows_have_exactly_one_entry_matching_brute_force(self, menu3):
        enum = tc.enumerate_sets(menu3)
        orderings = tc.all_orderings(3)
        transform = tc.build_choice_transform(menu3, enum, orderings)
        assert transform.a.shape == (42, 18)
        np.testing.assert_array_equal(transform.a.sum(axis=1), np.ones(42))
        for i, ordering in enumerate(orderings):
            for j, mask in enumerate(enum.masks):
                best = brute_force_best(ordering, mask)
                row = i * enum.d_c + j
                assert transform.a[row, best * orderings.d_pref + i] == 1.0
                assert transform.best[i, j] == best

    @pytest.mark.parametrize("menu, outside_mode", MEMBERSHIP_CASES)
    def test_best_is_best_in_of_each_set(self, menu, outside_mode):
        rng = np.random.default_rng(menu.n)
        perms = sorted({tuple(rng.permutation(menu.n)) for _ in range(8)})
        orderings = tc.OrderingSet(tuple(tc.PreferenceOrdering(p) for p in perms))
        enum = tc.enumerate_sets(menu, outside_mode=outside_mode)
        best = tc.build_choice_transform(menu, enum, orderings).best
        assert best.dtype == np.int64 and not best.flags.writeable
        np.testing.assert_array_equal(
            best, [[tc.best_in(o, s) for s in enum.sets()] for o in orderings]
        )

    def test_build_allocates_no_dense_matrix(self):
        # The dense form for 6 items and all 720 orderings is 45,360 x 4,320
        # float64 (about 1.5 GB); building the transform must not create it.
        menu = tc.Menu(items=tuple("abcdef"))
        enum = tc.enumerate_sets(menu, outside_mode=False)
        orderings = tc.all_orderings(6)
        tracemalloc.start()
        try:
            transform = tc.build_choice_transform(menu, enum, orderings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert transform.best.shape == (720, 63)
        assert peak < 50 * 2**20


class TestBlockDiag:
    def test_single_preference_identity(self):
        p = tc.PreferenceDistribution(np.array([1.0]))
        np.testing.assert_array_equal(tc.block_diag(p, 2), np.eye(2))

    def test_half_half(self):
        p = tc.PreferenceDistribution(np.array([0.5, 0.5]))
        expected = np.array([[0.5, 0], [0.5, 0], [0, 0.5], [0, 0.5]])
        np.testing.assert_array_equal(tc.block_diag(p, 2), expected)

    def test_column_sums_are_one_for_uniform(self):
        p = tc.PreferenceDistribution.uniform(6)
        mat = tc.block_diag(p, 6)
        assert mat.shape == (36, 6)
        np.testing.assert_allclose(mat.sum(axis=0), np.ones(6))


class TestPredictChoices:
    def test_degenerate_rule_concentrates_choice(self, two_item_setup):
        menu, enum, orderings = two_item_setup
        transform = tc.build_choice_transform(menu, enum, orderings)
        u = np.zeros((3, 2 * enum.d_c))
        u[:, enum.index_of(0b01)] = 1.0  # {a} for preference block 0
        u[:, enum.d_c + enum.index_of(0b01)] = 1.0  # and for block 1
        rule = tc.AttentionRule(u=u, set_index=enum, d_pref=2)
        p = tc.PreferenceDistribution(np.array([1.0, 0.0]))
        predicted = tc.predict_choices(rule, transform, p)
        np.testing.assert_allclose(predicted.pi[:, 0], 1.0)

    def test_worked_two_period_example(self, menu3):
        # Only {b, c} considered early, the whole menu late, common a>b>c.
        enum = tc.enumerate_sets(menu3)
        orderings = tc.OrderingSet((tc.PreferenceOrdering((0, 1, 2)),))
        transform = tc.build_choice_transform(menu3, enum, orderings)
        u = np.zeros((2, enum.d_c))
        u[0, enum.index_of(0b110)] = 1.0
        u[1, enum.index_of(0b111)] = 1.0
        rule = tc.AttentionRule(u=u, set_index=enum, d_pref=1)
        predicted = tc.predict_choices(
            rule, transform, tc.PreferenceDistribution(np.array([1.0]))
        )
        np.testing.assert_allclose(predicted.pi, [[0, 1, 0], [1, 0, 0]])

    def test_rows_sum_to_one_for_random_inputs(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rng = np.random.default_rng(11)
        for _ in range(25):
            rule = random_attention_rule(enum, 6, 4, rng)
            p = tc.PreferenceDistribution(rng.dirichlet(np.ones(6)))
            predicted = tc.predict_choices(rule, transform, p)
            np.testing.assert_allclose(
                predicted.pi.sum(axis=1), np.ones(4), atol=1e-12
            )

    def test_linearity_in_the_preference_vector(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rng = np.random.default_rng(5)
        rule = random_attention_rule(enum, 6, 3, rng)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        lam = 0.3
        mix = tc.PreferenceDistribution(lam * p + (1 - lam) * q)
        left = tc.predict_choices(rule, transform, mix).pi
        right = lam * tc.predict_choices(
            rule, transform, tc.PreferenceDistribution(p)
        ).pi + (1 - lam) * tc.predict_choices(
            rule, transform, tc.PreferenceDistribution(q)
        ).pi
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_matrix_product_agreement(self, menu3, orderings3):
        # The einsum shortcut must equal the literal triple matrix product.
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rng = np.random.default_rng(17)
        rule = random_attention_rule(enum, 6, 3, rng)
        p = tc.PreferenceDistribution(rng.dirichlet(np.ones(6)))
        direct = rule.u @ transform.a @ tc.block_diag(p, menu3.n)
        predicted = tc.predict_choices(rule, transform, p).pi
        np.testing.assert_allclose(predicted, direct, atol=1e-12)

    def test_dimension_mismatch_raises(self, menu3, orderings3, menu2):
        enum3 = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum3, orderings3)
        enum2 = tc.enumerate_sets(menu2)
        rng = np.random.default_rng(0)
        rule2 = random_attention_rule(enum2, 2, 3, rng)
        with pytest.raises(ValidationError):
            tc.predict_choices(rule2, transform, tc.PreferenceDistribution.uniform(6))


class TestDesignMatrix:
    def test_single_preference_column_is_vec_of_conditionals(self, menu3):
        enum = tc.enumerate_sets(menu3)
        orderings = tc.OrderingSet((tc.PreferenceOrdering((1, 2, 0)),))
        transform = tc.build_choice_transform(menu3, enum, orderings)
        rng = np.random.default_rng(2)
        rule = random_attention_rule(enum, 1, 3, rng)
        m = tc.design_matrix(rule, transform)
        assert m.shape == (9, 1)
        pred = tc.predict_choices(
            rule, transform, tc.PreferenceDistribution(np.array([1.0]))
        )
        np.testing.assert_allclose(m[:, 0], pred.vec())

    def test_point_mass_selects_column(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rng = np.random.default_rng(4)
        rule = random_attention_rule(enum, 6, 3, rng)
        m = tc.design_matrix(rule, transform)
        e2 = tc.PreferenceDistribution.point_mass(6, 2)
        np.testing.assert_allclose(m @ e2.p, m[:, 2])

    def test_consistency_with_prediction(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rng = np.random.default_rng(9)
        for _ in range(20):
            rule = random_attention_rule(enum, 6, 3, rng)
            p = tc.PreferenceDistribution(rng.dirichlet(np.ones(6)))
            m = tc.design_matrix(rule, transform)
            pred = tc.predict_choices(rule, transform, p).vec()
            assert np.linalg.norm(m @ p.p - pred) < 1e-12

    def test_columns_are_row_stochastic_when_reshaped(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rule = random_attention_rule(enum, 6, 4, np.random.default_rng(1))
        m = tc.design_matrix(rule, transform)
        for i in range(6):
            np.testing.assert_allclose(
                m[:, i].reshape(4, 3).sum(axis=1), np.ones(4), atol=1e-12
            )

    def test_batch_matches_single(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rng = np.random.default_rng(21)
        rules = [random_attention_rule(enum, 6, 3, rng) for _ in range(5)]
        batch = design_matrix_batch(
            np.stack([r.blocks() for r in rules]), transform
        )
        for k, rule in enumerate(rules):
            np.testing.assert_array_equal(batch[k], tc.design_matrix(rule, transform))
        # Written into a slice of a larger stack, as the estimator stacks slabs.
        stack = np.zeros((7, 3 * 3, 6))
        got = design_matrix_batch(
            np.stack([r.blocks() for r in rules]), transform, out=stack[1:6]
        )
        assert np.shares_memory(got, stack)
        np.testing.assert_array_equal(stack[1:6], batch)
        assert not stack[0].any() and not stack[6].any()


class TestConditionalChoiceMatrix:
    """The design matrix read as (period, item-major then preference)."""

    def test_shape_and_block_content(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        transform = tc.build_choice_transform(menu3, enum, orderings3)
        rule = random_attention_rule(enum, 6, 3, np.random.default_rng(8))
        cond = tc.design_matrix(rule, transform).reshape(rule.d_t, -1)
        assert cond.shape == (3, 18)
        np.testing.assert_allclose(cond, rule.u @ transform.a, rtol=0, atol=1e-15)
        # Column item*d_pref + i holds preference-i's probability of the item.
        for i in range(6):
            block = cond[:, [j * 6 + i for j in range(3)]]
            np.testing.assert_allclose(block.sum(axis=1), np.ones(3), atol=1e-12)
