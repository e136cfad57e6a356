import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timedchoice as tc
from timedchoice.errors import ConfigurationError, ValidationError

from conftest import MEMBERSHIP_CASES, brute_force_best, random_attention_rule


class TestPublicSurface:
    def test_every_exported_name_resolves_once(self):
        assert len(tc.__all__) == len(set(tc.__all__))
        for name in tc.__all__:
            getattr(tc, name)

    @pytest.mark.parametrize(
        "name",
        [
            "step",
            "StepResult",
            "initial_row_singletons",
            "conditional_choice_matrix",
            "crra_utility",
            "load_experiment_lotteries",
        ],
    )
    def test_removed_names_are_not_exported(self, name):
        assert name not in tc.__all__
        assert not hasattr(tc, name)


class TestMenu:
    def test_needs_two_items(self):
        with pytest.raises(ValidationError):
            tc.Menu(items=("solo",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            tc.Menu(items=("a", "a"))

    def test_rejects_bad_outside_index(self):
        with pytest.raises(ValidationError):
            tc.Menu(items=("a", "b"), outside_index=5)


class TestEnumerateSets:
    def test_six_items_outside_mode_gives_32_sets(self):
        menu = tc.Menu(items=tuple("abcdef"), outside_index=5)
        enum = tc.enumerate_sets(menu, outside_mode=True)
        assert enum.d_c == 32
        assert all(m >> 5 & 1 for m in enum.masks)  # outside always present

    def test_two_items_without_outside(self, menu2):
        enum = tc.enumerate_sets(menu2)
        assert [s.labels(menu2) for s in enum.sets()] == [
            ("a",),
            ("b",),
            ("a", "b"),
        ]

    def test_three_items_without_outside(self, menu3):
        assert tc.enumerate_sets(menu3).d_c == 7

    def test_outside_mode_without_outside_index_fails(self, menu3):
        with pytest.raises(ConfigurationError):
            tc.enumerate_sets(menu3, outside_mode=True)

    def test_order_is_ascending_and_full_set_last(self):
        menu = tc.Menu(items=("x", "o", "y"), outside_index=1)
        enum = tc.enumerate_sets(menu, outside_mode=True)
        assert enum.masks[0] == 0b010  # outside-only singleton first
        assert enum.masks[enum.full_index] == 0b111
        assert enum.d_c == 4


def _reduced_bit_masks(menu):
    """Outside-mode masks built bit by bit from each reduced lattice index."""
    o = menu.outside_index
    free = [i for i in range(menu.n) if i != o]
    return tuple(
        1 << o | sum(1 << item for b, item in enumerate(free) if r >> b & 1)
        for r in range(1 << (menu.n - 1))
    )


@pytest.mark.parametrize("menu, outside_mode", MEMBERSHIP_CASES)
class TestMembershipTable:
    """The masks and member matrix against the loops they replaced."""

    def test_masks_are_the_reduced_bit_construction(self, menu, outside_mode):
        enum = tc.enumerate_sets(menu, outside_mode=outside_mode)
        want = _reduced_bit_masks(menu) if outside_mode else tuple(range(1, 1 << menu.n))
        assert enum.masks == want

    def test_member_matrix_is_the_per_bit_test(self, menu, outside_mode):
        enum = tc.enumerate_sets(menu, outside_mode=outside_mode)
        member = enum.member_matrix()
        assert member.dtype == bool
        np.testing.assert_array_equal(
            member, [[bool(m >> i & 1) for i in range(menu.n)] for m in enum.masks]
        )
        with pytest.raises(ValueError):
            member[0, 0] = True


class TestBestIn:
    def test_worked_pair(self, menu3):
        ordering = tc.PreferenceOrdering((0, 1, 2))  # a > b > c
        assert tc.best_in(ordering, tc.ConsiderationSet(0b110)) == 1  # b

    def test_full_pair(self, menu2):
        assert tc.best_in(tc.PreferenceOrdering((0, 1)), tc.ConsiderationSet(0b11)) == 0

    def test_singleton(self):
        ordering = tc.PreferenceOrdering((0, 1, 2))
        assert tc.best_in(ordering, tc.ConsiderationSet(0b100)) == 2

    def test_empty_set_cannot_be_built(self):
        with pytest.raises(ValidationError):
            tc.ConsiderationSet(0)

    def test_agrees_with_brute_force_up_to_four_items(self):
        for n in (2, 3, 4):
            for perm in itertools.permutations(range(n)):
                ordering = tc.PreferenceOrdering(perm)
                for mask in range(1, 1 << n):
                    assert tc.best_in(
                        ordering, tc.ConsiderationSet(mask)
                    ) == brute_force_best(ordering, mask)


class TestAccumulatedAttention:
    def test_full_menu_is_one(self, menu3):
        enum = tc.enumerate_sets(menu3)
        rng = np.random.default_rng(0)
        rule = random_attention_rule(enum, 2, 3, rng)
        for pref in range(2):
            for t in range(3):
                assert tc.accumulated_attention(
                    rule, pref, t, tc.ConsiderationSet(0b111)
                ) == pytest.approx(1.0)

    def test_forgetting_rule_pair_set_first_period(self, forgetting_rule):
        got = tc.accumulated_attention(forgetting_rule, 0, 0, tc.ConsiderationSet(0b110))
        assert got == pytest.approx(0.5)

    def test_forgetting_rule_singleton_second_period(self, forgetting_rule):
        # Direct subset sum over the stated masses: only {c} itself.
        got = tc.accumulated_attention(forgetting_rule, 0, 1, tc.ConsiderationSet(0b100))
        assert got == pytest.approx(0.5)

    @pytest.mark.parametrize("outside_mode", [False, True])
    def test_matches_zeta_transform(self, menu3_outside, outside_mode):
        enum = tc.enumerate_sets(menu3_outside, outside_mode=outside_mode)
        rule = random_attention_rule(enum, 2, 3, np.random.default_rng(5))
        alpha = tc.zeta_transform(rule.blocks(), enum)
        for pref in range(2):
            for t in range(3):
                for j, mask in enumerate(enum.masks):
                    got = tc.accumulated_attention(rule, pref, t, tc.ConsiderationSet(mask))
                    assert got == pytest.approx(alpha[t, pref, j], abs=1e-12)
        if outside_mode:
            # {a, b} lacks the outside item o, so it contains no admissible set.
            assert tc.accumulated_attention(rule, 0, 0, tc.ConsiderationSet(0b011)) == 0.0
        for pref, t in ((2, 0), (-1, 0), (0, 3), (0, -1)):
            with pytest.raises(ValidationError, match="out of range"):
                tc.accumulated_attention(rule, pref, t, tc.ConsiderationSet(0b111))


class TestTimeMonotonicity:
    def test_fixed_search_order_passes(self, menu3):
        rule = tc.gen_topn(menu3, 3, ("a", "b", "c"))
        assert tc.check_time_monotonicity(rule).passed

    def test_forgetting_rule_fails_on_exactly_the_lone_singleton(
        self, forgetting_rule
    ):
        report = tc.check_time_monotonicity(forgetting_rule)
        assert not report.passed
        assert [(v.cset.mask, v.t, v.t_prime) for v in report.violations] == [
            (0b100, 0, 1)
        ]
        assert report.violations[0].gap == pytest.approx(0.5)

    def test_constant_rule_passes(self, menu3):
        enum = tc.enumerate_sets(menu3)
        row = np.random.default_rng(3).dirichlet(np.ones(enum.d_c))
        rule = tc.AttentionRule(
            u=np.tile(row, (4, 1)), set_index=enum, d_pref=1
        )
        assert tc.check_time_monotonicity(rule).passed

    def test_marginals_can_rise_while_joint_check_fails(
        self, menu3, forgetting_rule
    ):
        # Per-item consideration probability: sum of mass on sets holding it.
        enum = forgetting_rule.set_index
        member = enum.member_matrix()
        marginals = forgetting_rule.block(0) @ member.astype(float)
        assert np.all(np.diff(marginals, axis=0) >= -1e-12)
        assert not tc.check_time_monotonicity(forgetting_rule).passed

    def test_reports_every_violating_pair(self, menu3):
        enum = tc.enumerate_sets(menu3)
        # Mass walks down the lattice: full set, then a pair, then a singleton.
        u = np.zeros((3, enum.d_c))
        u[0, enum.index_of(0b111)] = 1.0
        u[1, enum.index_of(0b011)] = 1.0
        u[2, enum.index_of(0b001)] = 1.0
        rule = tc.AttentionRule(u=u, set_index=enum, d_pref=1)
        report = tc.check_time_monotonicity(rule)
        # alpha rises for {a,b} (t0->t1, t0->t2), {a} and {b} (t0->t1 ... )
        assert not report.passed
        pairs = {(v.cset.mask, v.t, v.t_prime) for v in report.violations}
        assert (0b011, 0, 1) in pairs and (0b001, 0, 2) in pairs
        assert all(v.gap > 0 for v in report.violations)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tolerance_must_be_finite_and_nonnegative(self, forgetting_rule, tol):
        with pytest.raises(ValidationError):
            tc.check_time_monotonicity(forgetting_rule, tol=tol)

    def test_full_menu_mass_checked_against_tolerance(self, menu3):
        # A row-sum slip small enough to pass construction still trips the
        # full-menu clause when the check runs at a tighter tolerance.
        enum = tc.enumerate_sets(menu3)
        u = np.full((2, enum.d_c), 1.0 / enum.d_c)
        u[0, 0] += 5e-10
        rule = tc.AttentionRule(u=u, set_index=enum, d_pref=1)
        report = tc.check_time_monotonicity(rule, tol=1e-12)
        assert not report.passed
        assert any(t == 0 for _, t, _ in report.normalization_errors)


def _index_sweep(values, enum, sign):
    """The lattice sweep as fancy-indexed gathers and scatters, one pass per bit."""
    full = 1 << enum.n_bits
    grid = np.zeros(values.shape[:-1] + (full,))
    grid[..., full - enum.d_c :] = values
    idx = np.arange(full)
    for b in range(enum.n_bits):
        hi = idx[(idx >> b & 1) == 1]
        grid[..., hi] += sign * grid[..., hi ^ (1 << b)]
    return grid[..., full - enum.d_c :]


class TestLatticeTransforms:
    def test_indicator_of_full_set(self, menu3):
        enum = tc.enumerate_sets(menu3)
        mu = np.zeros(enum.d_c)
        mu[enum.full_index] = 1.0
        alpha = tc.zeta_transform(mu, enum)
        expected = np.zeros(enum.d_c)
        expected[enum.full_index] = 1.0
        np.testing.assert_allclose(alpha, expected)

    def test_uniform_singletons_two_items(self, menu2):
        enum = tc.enumerate_sets(menu2)
        alpha = tc.zeta_transform(np.array([0.5, 0.5, 0.0]), enum)
        np.testing.assert_allclose(alpha, [0.5, 0.5, 1.0])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        outside = bool(rng.integers(2)) and n >= 2
        menu = tc.Menu(
            items=tuple("abcd"[:n]),
            outside_index=(n - 1) if outside else None,
        )
        enum = tc.enumerate_sets(menu, outside_mode=outside)
        v = rng.uniform(size=enum.d_c)
        back = tc.moebius_inverse(tc.zeta_transform(v, enum), enum)
        np.testing.assert_allclose(back, v, atol=1e-12)
        forth = tc.zeta_transform(tc.moebius_inverse(v, enum), enum)
        np.testing.assert_allclose(forth, v, atol=1e-12)

    def test_zeta_matches_exhaustive_subset_sum(self):
        for n in (2, 3, 4):
            menu = tc.Menu(items=tuple("wxyz"[:n]))
            enum = tc.enumerate_sets(menu)
            rng = np.random.default_rng(n)
            v = rng.uniform(size=enum.d_c)
            alpha = tc.zeta_transform(v, enum)
            for j, mask in enumerate(enum.masks):
                direct = sum(
                    v[i]
                    for i, sub in enumerate(enum.masks)
                    if sub & mask == sub
                )
                assert alpha[j] == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch(self, menu3):
        enum = tc.enumerate_sets(menu3)
        with pytest.raises(ValidationError):
            tc.zeta_transform(np.ones(5), enum)

    @pytest.mark.parametrize(
        "n_bits, outside",
        [(b, True) for b in range(1, 7)] + [(b, False) for b in range(2, 7)],
    )
    def test_reshaped_sweeps_equal_the_index_sweeps(self, n_bits, outside):
        """Bytes equal to the per-bit gather/scatter sweep on rows, stacks, strided and empty input.

        A menu has at least two items, so without the outside option the
        lattice has at least two bits.
        """
        n = n_bits + 1 if outside else n_bits
        menu = tc.Menu(items=tuple("abcdefg"[:n]), outside_index=n - 1 if outside else None)
        enum = tc.enumerate_sets(menu, outside_mode=outside)
        rng = np.random.default_rng(n_bits)
        stack = rng.normal(size=(3, 5, 2 * enum.d_c))
        empty = np.empty((0, enum.d_c))
        for values in (stack[0, 0, : enum.d_c], stack[..., : enum.d_c], stack[..., ::2], empty):
            for fn, sign in ((tc.zeta_transform, 1.0), (tc.moebius_inverse, -1.0)):
                got = fn(values, enum)
                want = _index_sweep(values, enum, sign)
                assert got.shape == values.shape
                assert got.tobytes() == want.tobytes()


class TestValidation:
    def test_choice_dataset_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            tc.ChoiceDataset(pi=np.array([[0.5, 0.4]]))

    def test_choice_dataset_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            tc.ChoiceDataset(pi=np.array([[1.5, -0.5]]))

    def test_attention_rule_block_rows_must_sum_to_one(self, menu2):
        enum = tc.enumerate_sets(menu2)
        u = np.array([[0.5, 0.5, 0.0, 0.9, 0.0, 0.0]])
        with pytest.raises(ValidationError):
            tc.AttentionRule(u=u, set_index=enum, d_pref=2)

    def test_attention_rule_rejects_nan(self, menu2):
        enum = tc.enumerate_sets(menu2)
        u = np.full((2, 2 * enum.d_c), 1.0 / enum.d_c)
        for where in [(0, 0), (1, 2 * enum.d_c - 1)]:
            bad = u.copy()
            bad[where] = np.nan
            with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
                tc.AttentionRule(u=bad, set_index=enum, d_pref=2)

    def test_attention_rule_with_no_periods(self, menu2):
        enum = tc.enumerate_sets(menu2)
        rule = tc.AttentionRule(u=np.zeros((0, 2 * enum.d_c)), set_index=enum, d_pref=2)
        assert rule.d_t == 0

    def test_preference_distribution_validation(self):
        with pytest.raises(ValidationError):
            tc.PreferenceDistribution(np.array([0.5, 0.6]))
        with pytest.raises(ValidationError):
            tc.PreferenceDistribution(np.array([1.2, -0.2]))

    def test_ordering_must_be_permutation(self):
        with pytest.raises(ValidationError):
            tc.PreferenceOrdering((0, 0, 1))

    def test_ordering_set_rejects_duplicates(self):
        o = tc.PreferenceOrdering((0, 1))
        with pytest.raises(ValidationError):
            tc.OrderingSet((o, o))

    def test_core_types_are_immutable(self, menu3):
        pi = tc.ChoiceDataset(pi=np.array([[0.2, 0.3, 0.5]]))
        with pytest.raises(ValueError):
            pi.pi[0, 0] = 1.0
