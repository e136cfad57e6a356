import numpy as np
import pytest

import timedchoice as tc
from timedchoice import lotteries
from timedchoice.errors import CutoffTieError, ValidationError


def brute_eu(lottery, sigma):
    """Independent expected-utility oracle (sigma < 1)."""
    s = 1.0 - sigma
    return sum(q * x**s / s for x, q in lottery.outcomes)


@pytest.fixture
def lots():
    return tc.experiment_lotteries()


class TestLottery:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            tc.Lottery("bad", ((10, 0.5), (20, 0.4)))

    def test_payoffs_nonnegative(self):
        with pytest.raises(ValidationError):
            tc.Lottery("bad", ((-1, 1.0),))

    def test_outcomes_are_python_float_pairs(self):
        """Whatever numbers come in, ``utility_key`` sums over Python floats."""
        lottery = tc.Lottery("l", [[50, np.float32(0.5)], np.array([0, 0.5])])
        assert lottery.outcomes == ((50.0, 0.5), (0.0, 0.5))
        assert {type(v) for pair in lottery.outcomes for v in pair} == {float}

    def test_experiment_moments(self, lots):
        by_label = {l.label: l for l in lots}
        assert by_label["l1"].expectation == pytest.approx(25.0)
        assert by_label["l1"].variance == pytest.approx(625.0)
        assert by_label["l2"].expectation == pytest.approx(20.0)
        assert by_label["l2"].variance == pytest.approx(100.0)
        assert by_label["l3"].expectation == pytest.approx(22.5)
        assert by_label["l3"].variance == pytest.approx(368.75)
        assert by_label["lO"].variance == pytest.approx(0.0)

    def test_mixture_structure(self, lots):
        # l3 is the even mixture of l1 and l2; l5 shifts l4 by half the
        # signed difference between l2 and l1.  These identities make the
        # expected-utility crossings coincide, which is why exactly six
        # orderings appear.
        def as_measure(l):
            m = {}
            for x, q in l.outcomes:
                m[x] = m.get(x, 0.0) + q
            return m

        l1, l2, l3, l4, l5, _ = lots
        mix = {}
        for x, q in list(l1.outcomes) + list(l2.outcomes):
            mix[x] = mix.get(x, 0.0) + q / 2
        assert {x: round(q, 12) for x, q in as_measure(l3).items()} == {
            x: round(q, 12) for x, q in mix.items()
        }
        shifted = as_measure(l4)
        for x, q in l2.outcomes:
            shifted[x] = shifted.get(x, 0.0) + q / 2
        for x, q in l1.outcomes:
            shifted[x] = shifted.get(x, 0.0) - q / 2
        shifted = {x: q for x, q in shifted.items() if abs(q) > 1e-12}
        assert {x: round(q, 12) for x, q in as_measure(l5).items()} == {
            x: round(q, 12) for x, q in shifted.items()
        }


class TestCrraRank:
    @pytest.mark.parametrize(
        "sigma, expected_ranks",
        [
            (-1.0, [1, 5, 3, 2, 4, 6]),
            (0.0, [1, 5, 3, 2, 4, 6]),
            (0.25, [2, 5, 4, 1, 3, 6]),
            (0.3, [5, 2, 4, 3, 1, 6]),
            (0.5, [5, 1, 3, 4, 2, 6]),
            (0.75, [6, 1, 4, 5, 3, 2]),
            (1.0, [6, 1, 4, 5, 3, 2]),
        ],
    )
    def test_rank_columns(self, lots, sigma, expected_ranks):
        ordering = tc.crra_rank(lots, sigma)
        ranks = [ordering.rank.index(i) + 1 for i in range(6)]
        assert ranks == expected_ranks

    def test_risk_neutral_matches_expectation_oracle(self, lots):
        ordering = tc.crra_rank(lots, 0.0)
        expectations = [l.expectation for l in lots]
        assert list(ordering.rank) == sorted(
            range(6), key=lambda i: -expectations[i]
        )

    def test_matches_expected_utility_oracle_on_grid(self, lots):
        for sigma in np.linspace(-1, 0.95, 21):
            ordering = tc.crra_rank(lots, float(sigma))
            eus = [brute_eu(l, sigma) for l in lots]
            assert list(ordering.rank) == sorted(range(6), key=lambda i: -eus[i])

    def test_outside_option_second_at_high_risk_aversion(self, lots):
        # The sure payment overtakes every zero-carrying lottery near the
        # log end; its exact rank pins the zero-payoff convention.
        ordering = tc.crra_rank(lots, 0.75)
        assert ordering.rank.index(5) + 1 == 2

    def test_sigma_out_of_range(self, lots):
        with pytest.raises(ValidationError):
            tc.crra_rank(lots, 1.5)

    def test_exact_tie_reports_boundary(self):
        twins = (
            tc.Lottery("x", ((10, 1.0),)),
            tc.Lottery("y", ((10, 1.0),)),
        )
        with pytest.raises(CutoffTieError) as err:
            tc.crra_rank(twins, 0.3)
        assert err.value.sigma == 0.3
        assert ("x", "y") in err.value.pairs


class TestOrderingTable:
    def test_experiment_cutoffs(self):
        lots = tc.experiment_lotteries(include_outside=False)
        table = tc.crra_ordering_table(lots)
        cutoffs = [iv.hi for iv in table[:-1]]
        expected = [0.2287, 0.2606, 0.2728, 0.2832, 0.3001]
        assert len(table) == 6
        for got, want in zip(cutoffs, expected):
            assert got == pytest.approx(want, abs=1e-3)

    def test_six_orderings_match_published_sequence(self):
        lots = tc.experiment_lotteries(include_outside=False)
        labels = [l.label for l in lots]
        table = tc.crra_ordering_table(lots)
        got = [
            tuple(labels[i] for i in iv.ordering.rank) for iv in table
        ]
        assert got == [
            ("l1", "l4", "l3", "l5", "l2"),
            ("l4", "l1", "l5", "l3", "l2"),
            ("l4", "l5", "l1", "l3", "l2"),
            ("l5", "l4", "l2", "l3", "l1"),
            ("l5", "l2", "l4", "l3", "l1"),
            ("l2", "l5", "l3", "l4", "l1"),
        ]

    def test_cutoffs_stable_under_grid_refinement(self, monkeypatch):
        lots = tc.experiment_lotteries(include_outside=False)
        monkeypatch.setattr(lotteries, "CUTOFF_TOL", 1e-7)
        monkeypatch.setattr(lotteries, "GRID_STEP", 1e-3)
        coarse = tc.crra_ordering_table(lots)
        monkeypatch.setattr(lotteries, "GRID_STEP", 1e-4)
        fine = tc.crra_ordering_table(lots)
        for a, b in zip(coarse[:-1], fine[:-1]):
            assert abs(a.hi - b.hi) < 1e-5

    def test_exact_tie_at_the_upper_end(self):
        """Equal expected log payoff ties at sigma = 1; the table reads just below it."""
        lots = (
            tc.Lottery("A", ((2, 0.5), (8, 0.5))),
            tc.Lottery("B", ((4, 1.0),)),
        )
        with pytest.raises(CutoffTieError):
            tc.crra_rank(lots, 1.0)
        # By AM-GM, A's expected utility exceeds B's at every sigma below 1.
        assert tc.crra_ordering_table(lots) == (
            lotteries.OrderingInterval(-1.0, 1.0, tc.PreferenceOrdering((0, 1))),
        )

    def test_intervals_tile_the_range(self):
        lots = tc.experiment_lotteries(include_outside=False)
        table = tc.crra_ordering_table(lots)
        assert table[0].lo == -1.0 and table[-1].hi == 1.0
        for left, right in zip(table[:-1], table[1:]):
            assert left.hi == right.lo


class TestOrderingSet:
    def test_outside_ranked_last_by_default(self):
        ordset, intervals = tc.crra_ordering_set()
        menu = tc.experiment_menu()
        assert len(ordset) == 6
        for ordering in ordset:
            assert ordering.rank[-1] == menu.outside_index
        assert len(intervals) == 6

    def test_outside_in_regular_ranking_gives_more_types(self):
        ordset, intervals = tc.crra_ordering_set(include_outside_in_ranking=True)
        assert len(ordset) >= 6
        # The sure payment's position varies, so at least one type ranks it
        # above the bottom.
        menu = tc.experiment_menu()
        assert any(o.rank[-1] != menu.outside_index for o in ordset)
