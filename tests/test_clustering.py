import itertools

import numpy as np
import pytest

import timedchoice as tc
from timedchoice import clustering
from timedchoice.errors import ValidationError

# A division by zero or an overflow inside the clustering path fails loudly.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def obs(times, choices, start=0):
    return [
        tc.RawObservation(f"r{start + i}", t, c)
        for i, (t, c) in enumerate(zip(times, choices))
    ]


def brute_force_kmeans_cost(values, k):
    """Optimal contiguous-partition cost by exhaustive enumeration."""
    values = np.sort(values)
    n = len(values)
    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = [0, *cuts, n]
        cost = 0.0
        ok = True
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = values[a:b]
            cost += float(np.sum((seg - seg.mean()) ** 2))
        # Disallow splitting ties across a boundary.
        for cut in cuts:
            if values[cut - 1] == values[cut]:
                ok = False
        if ok:
            best = min(best, cost)
    return best


def _reference_kmeans_1d(values, k):
    """Exact 1-D k-means as a triple loop over (layer, end, start).

    The oracle for :func:`kmeans_1d`, which scores blocks of cells in one
    numpy pass; candidates are the same doubles, and the strict ``<`` keeps
    the first of tied minima.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    distinct, weights = np.unique(values, return_counts=True)
    m = distinct.size
    w = weights.astype(np.float64)
    s0 = np.concatenate([[0.0], np.cumsum(w)])
    s1 = np.concatenate([[0.0], np.cumsum(w * distinct)])
    s2 = np.concatenate([[0.0], np.cumsum(w * distinct * distinct)])

    def cost(i, j):
        wt = s0[j + 1] - s0[i]
        sm = s1[j + 1] - s1[i]
        sq = s2[j + 1] - s2[i]
        return sq - sm * sm / wt

    dp = np.full((k + 1, m + 1), np.inf)
    back = np.zeros((k + 1, m + 1), dtype=int)
    dp[0, 0] = 0.0
    for c in range(1, k + 1):
        for j in range(c, m + 1):
            best, arg = np.inf, c - 1
            for i in range(c - 1, j):
                cand = dp[c - 1, i] + cost(i, j - 1)
                if cand < best:
                    best, arg = cand, i
            dp[c, j] = best
            back[c, j] = arg
    cuts = [m]
    j = m
    for c in range(k, 0, -1):
        j = back[c, j]
        cuts.append(j)
    cuts.reverse()
    clusters = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        lo, hi = distinct[a], distinct[b - 1]
        clusters.append(values[(values >= lo) & (values <= hi)])
    return clusters


def _cell_kmeans_1d(values, k):
    """Exact 1-D k-means with one numpy pass per table cell (layer, end).

    A second oracle for :func:`kmeans_1d`, fast enough for thousands of
    distinct values: each cell scores all its starts at once, with the
    same doubles as the block passes, and argmin keeps the first of tied
    minima.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    distinct, weights = np.unique(values, return_counts=True)
    m = distinct.size
    w = weights.astype(np.float64)
    s0 = np.concatenate([[0.0], np.cumsum(w)])
    s1 = np.concatenate([[0.0], np.cumsum(w * distinct)])
    s2 = np.concatenate([[0.0], np.cumsum(w * distinct * distinct)])
    dp = np.full((k + 1, m + 1), np.inf)
    back = np.zeros((k + 1, m + 1), dtype=int)
    sm = s1[1:] - s1[0]
    dp[1, 1:] = (s2[1:] - s2[0]) - sm * sm / (s0[1:] - s0[0])
    for c in range(2, k + 1):
        for j in range(c, m + 1):
            sm = s1[j] - s1[c - 1 : j]
            cand = (
                (s2[j] - s2[c - 1 : j]) - sm * sm / (s0[j] - s0[c - 1 : j])
                + dp[c - 1, c - 1 : j]
            )
            arg = int(np.argmin(cand))
            dp[c, j] = cand[arg]
            back[c, j] = c - 1 + arg
    cuts = [m]
    j = m
    for c in range(k, 0, -1):
        j = back[c, j]
        cuts.append(j)
    cuts.reverse()
    clusters = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        lo, hi = distinct[a], distinct[b - 1]
        clusters.append(values[(values >= lo) & (values <= hi)])
    return clusters


def _reference_cluster_times(observations, menu, k):
    """Period assignment and tabulation as per-observation loops.

    The oracle for :func:`cluster_times` on valid input; returns
    ``(bounds, centroids, assignments, pi, counts)``.
    """
    times = np.array([o.stopping_time for o in observations])
    zero = times == 0.0
    positive = times[~zero]
    if positive.size == 0:
        assignments = np.zeros(len(observations), dtype=int)
        bounds = ((0.0, 0.0),)
        centroids = ()
    else:
        clusters = _reference_kmeans_1d(positive, k - 1)
        edges = [(float(cl.min()), float(cl.max())) for cl in clusters]
        centroids = tuple(float(cl.mean()) for cl in clusters)
        assignments = np.zeros(len(observations), dtype=int)
        for i, t in enumerate(times):
            if t == 0.0:
                continue
            for c, (lo, hi) in enumerate(edges):
                if t <= hi or c == len(edges) - 1:
                    assignments[i] = c + 1
                    break
        bounds = ((0.0, 0.0),) + tuple(edges)
    d_t = len(bounds)
    pi = np.zeros((d_t, menu.n))
    counts = np.zeros(d_t, dtype=int)
    for o, period in zip(observations, assignments):
        pi[period, menu.index_of(o.choice)] += 1
        counts[period] += 1
    empty = counts == 0
    pi[empty] = 1.0 / menu.n
    pi[~empty] /= counts[~empty, None]
    return bounds, centroids, tuple(int(a) for a in assignments), pi, tuple(int(c) for c in counts)


def _assert_same_clusters(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _random_values(rng, n):
    """n values with ties: uniform, rounded to 0-2 decimals, sometimes shifted."""
    values = np.round(rng.uniform(0, 10, size=n), int(rng.integers(0, 3)))
    if rng.integers(2):
        values = values * float(rng.choice([1e-3, 1.0, 1e3])) - float(rng.uniform(-5, 5))
    return values


def _millisecond_times(rng, n):
    """Lognormal stopping times around five period means, rounded to 1 ms."""
    return np.round(rng.lognormal(np.log(2.0 * 1.6 ** rng.integers(1, 6, n)), 0.3), 3)


class TestKmeans1dMatchesLoop:
    """The vectorised DP gives the triple loop's partitions byte for byte."""

    def test_random_inputs_with_ties(self):
        rng = np.random.default_rng(20250611)
        for _ in range(200):
            values = _random_values(rng, int(rng.integers(2, 151)))
            m = np.unique(values).size
            # Every k up to m on small inputs; the loop is O(k m^2) in Python.
            k = int(rng.integers(1, m + 1 if m <= 40 else min(m, 8) + 1))
            _assert_same_clusters(tc.kmeans_1d(values, k), _reference_kmeans_1d(values, k))

    def test_millisecond_stopping_times(self):
        """The shape of raw experiment data: lognormal times rounded to 1 ms."""
        times = _millisecond_times(np.random.default_rng(5), 300)
        _assert_same_clusters(tc.kmeans_1d(times, 5), _reference_kmeans_1d(times, 5))

    def test_equal_cost_partitions_take_the_earliest_start(self):
        # {0}{1, 2} and {0, 1}{2} cost the same; the loop keeps the first.
        values = np.array([0.0, 1.0, 2.0])
        got = tc.kmeans_1d(values, 2)
        _assert_same_clusters(got, _reference_kmeans_1d(values, 2))
        assert [list(c) for c in got] == [[0.0], [1.0, 2.0]]


class TestKmeans1dBlocks:
    """Block passes give the per-cell scan's partitions byte for byte.

    At a 64-cell budget the blocks are ends 2-8, 9-12, 13-16, 17-19, ...,
    and from end 65 on a row is wider than the budget and is a block of its
    own, so small inputs reach every kind of block edge.
    """

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(clustering, "_BLOCK_CELLS", 64)

    def test_every_size_across_small_block_edges(self, small_blocks):
        rng = np.random.default_rng(31)
        for m in range(2, 91):
            values = rng.permutation(np.round(np.cumsum(rng.uniform(0.1, 1.0, m)), 6))
            for k in sorted({1, min(m, 2), min(m, 3), min(m, 5), m}):
                _assert_same_clusters(tc.kmeans_1d(values, k), _cell_kmeans_1d(values, k))

    def test_rounded_ties_with_small_blocks(self, small_blocks):
        rng = np.random.default_rng(32)
        for _ in range(60):
            values = _random_values(rng, int(rng.integers(2, 300)))
            m = np.unique(values).size
            k = int(rng.integers(1, min(m, 7) + 1))
            got = tc.kmeans_1d(values, k)
            _assert_same_clusters(got, _cell_kmeans_1d(values, k))
            _assert_same_clusters(got, _reference_kmeans_1d(values, k))

    def test_equal_cost_partitions_across_a_block_edge(self, small_blocks):
        # Evenly spaced values: many partitions tie, and the cuts fall inside
        # later blocks than the first.
        values = np.arange(40.0)
        for k in (2, 3, 4, 5):
            _assert_same_clusters(tc.kmeans_1d(values, k), _reference_kmeans_1d(values, k))

    def test_sizes_around_the_first_block_edge(self):
        # The first block at the real budget is ends 2..128 (127 rows of at
        # most 128 starts), so m = 128 fills it and m = 129 opens the next.
        assert 127 * 128 <= clustering._BLOCK_CELLS < 128 * 129
        rng = np.random.default_rng(33)
        for m in (126, 127, 128, 129, 130):
            values = np.round(np.cumsum(rng.uniform(0.001, 0.01, m)), 3)
            values = rng.permutation(np.repeat(values, rng.integers(1, 4, m)))
            assert np.unique(values).size == m
            for k in (2, 4, 6):
                _assert_same_clusters(tc.kmeans_1d(values, k), _cell_kmeans_1d(values, k))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_millisecond_times_in_the_low_thousands(self, k):
        values = _millisecond_times(np.random.default_rng(34), 3_000)
        assert 2_000 <= np.unique(values).size <= 4_000
        _assert_same_clusters(tc.kmeans_1d(values, k), _cell_kmeans_1d(values, k))

    def test_rows_wider_than_the_real_budget(self):
        # Ends past the budget's width are scored one row per pass.
        values = np.arange(clustering._BLOCK_CELLS + 40) * 0.001
        values[-30:] += 5.0
        _assert_same_clusters(tc.kmeans_1d(values, 2), _cell_kmeans_1d(values, 2))


class TestKmeans1dRejects:
    @pytest.mark.parametrize(
        "values",
        [[1.0, 2.0, np.nan, 4.0, 5.0], [1.0, 2.0, np.inf, 4.0], [-np.inf, 1.0, 2.0]],
    )
    def test_non_finite_values(self, values):
        with pytest.raises(ValidationError, match="finite"):
            tc.kmeans_1d(np.array(values), 2)

    def test_sum_of_squares_overflow(self):
        with pytest.raises(ValidationError, match="overflow"):
            tc.kmeans_1d(np.array([1e200, 2e200, 3e200, 1.0]), 2)

    def test_cost_overflow_with_finite_sum_of_squares(self):
        # Each square and their sum are finite, but a squared cluster sum is not.
        values = np.linspace(1.0, 2.0, 50) * 1e153
        assert np.isfinite(np.sum(values * values))
        with pytest.raises(ValidationError, match="overflow"):
            tc.kmeans_1d(values, 2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            tc.kmeans_1d(np.array([1.0, 2.0]), 0)


class TestKmeans1d:
    def test_symmetric_toy_case(self):
        clusters = tc.kmeans_1d(np.array([1.0, 1.0, 10.0, 10.0]), 2)
        assert [list(c) for c in clusters] == [[1.0, 1.0], [10.0, 10.0]]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = np.round(rng.uniform(0, 10, size=int(rng.integers(5, 10))), 1)
            k = int(rng.integers(2, 4))
            if np.unique(values).size < k:
                continue
            clusters = tc.kmeans_1d(values, k)
            cost = sum(float(np.sum((c - c.mean()) ** 2)) for c in clusters)
            oracle = brute_force_kmeans_cost(values, k)
            assert cost == pytest.approx(oracle, abs=1e-9)

    def test_ties_never_split(self):
        clusters = tc.kmeans_1d(np.array([1.0, 2.0, 2.0, 2.0, 3.0]), 2)
        flat = [list(c) for c in clusters]
        # All the 2.0s sit in one cluster.
        counts = [c.count(2.0) for c in flat]
        assert max(counts) == 3

    def test_needs_enough_distinct_values(self):
        with pytest.raises(ValidationError):
            tc.kmeans_1d(np.array([1.0, 1.0, 1.0]), 2)


class TestClusterTimes:
    def test_zero_period_plus_symmetric_positives(self, menu2):
        observations = obs([0.0, 1.0, 1.0, 10.0, 10.0], ["a", "a", "b", "a", "b"])
        clustering, dataset = tc.cluster_times(observations, menu2, 3)
        assert clustering.bounds == ((0.0, 0.0), (1.0, 1.0), (10.0, 10.0))
        assert dataset.period_counts == (1, 2, 2)
        np.testing.assert_allclose(dataset.pi[0], [1.0, 0.0])
        np.testing.assert_allclose(dataset.pi[1], [0.5, 0.5])

    def test_all_zero_times_collapse_to_one_period(self, menu2):
        observations = obs([0.0, 0.0, 0.0], ["a", "b", "a"])
        clustering, dataset = tc.cluster_times(observations, menu2, 4)
        assert dataset.d_t == 1
        np.testing.assert_allclose(dataset.pi[0], [2 / 3, 1 / 3])

    def test_missing_zero_period_is_an_error(self, menu2):
        observations = obs([1.0, 2.0, 3.0], ["a", "b", "a"])
        with pytest.raises(ValidationError):
            tc.cluster_times(observations, menu2, 3)
        clustering, dataset = tc.cluster_times(
            observations, menu2, 3, allow_empty_first=True
        )
        assert dataset.period_counts[0] == 0

    def test_ingestion_is_lossless(self, menu2):
        rng = np.random.default_rng(1)
        times = np.concatenate([[0.0] * 5, rng.uniform(0.5, 30, size=40)])
        choices = rng.choice(["a", "b"], size=45)
        observations = obs(times, choices)
        clustering, dataset = tc.cluster_times(observations, menu2, 4)
        assert sum(dataset.period_counts) == 45
        # Frequencies reproduce period-wise empirical counts exactly.
        for period in range(dataset.d_t):
            members = [
                o for o, a in zip(observations, clustering.assignments)
                if a == period
            ]
            count_a = sum(1 for o in members if o.choice == "a")
            assert dataset.pi[period, 0] * len(members) == pytest.approx(count_a)

    def test_deterministic(self, menu2):
        rng = np.random.default_rng(2)
        times = np.concatenate([[0.0] * 3, rng.uniform(0, 20, size=30)])
        choices = rng.choice(["a", "b"], size=33)
        observations = obs(times, choices)
        a = tc.cluster_times(observations, menu2, 5)
        b = tc.cluster_times(observations, menu2, 5)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1].pi, b[1].pi)

    def test_too_few_distinct_times_names_the_periods(self, menu2):
        observations = obs([0.0, 1.5, 2.0, 2.0, 3.0], ["a", "b", "a", "b", "a"])
        for k in (5, 9):
            with pytest.raises(
                ValidationError,
                match=rf"^{k} periods need at least {k - 1} distinct positive stopping "
                "times, found 3$",
            ):
                tc.cluster_times(observations, menu2, k)
        result, _ = tc.cluster_times(observations, menu2, 4)
        assert result.k == 4

    def test_unknown_choice_label(self, menu2):
        with pytest.raises(ValidationError):
            tc.cluster_times(obs([0.0, 1.0], ["a", "zzz"]), menu2, 2)

    def test_matches_loop_on_random_observations(self, menu3):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(3, 80))
            times = np.round(rng.lognormal(1.0, 0.8, size=n), int(rng.integers(0, 3)))
            times[rng.uniform(size=n) < 0.1] = 0.0
            times[0] = 0.0
            choices = rng.choice(list(menu3.items), size=n)
            observations = obs(times, choices)
            m = np.unique(times[times > 0]).size
            if m == 0:
                continue
            k = int(rng.integers(2, min(m, 7) + 2))
            self._assert_matches(observations, menu3, k)

    def test_matches_loop_with_empty_first_period(self, menu3):
        rng = np.random.default_rng(12)
        times = np.round(rng.uniform(0.5, 30, size=50), 1)
        choices = rng.choice(list(menu3.items), size=50)
        observations = obs(times, choices)
        clustering, dataset = self._assert_matches(
            observations, menu3, 5, allow_empty_first=True
        )
        assert dataset.period_counts[0] == 0
        np.testing.assert_array_equal(dataset.pi[0], np.full(3, 1 / 3))

    def test_matches_loop_when_all_times_are_zero(self, menu3):
        observations = obs([0.0] * 4, ["a", "c", "c", "b"])
        self._assert_matches(observations, menu3, 3)

    @staticmethod
    def _assert_matches(observations, menu, k, **kw):
        clustering, dataset = tc.cluster_times(observations, menu, k, **kw)
        bounds, centroids, assignments, pi, counts = _reference_cluster_times(
            observations, menu, k
        )
        assert clustering.bounds == bounds
        assert clustering.centroids == centroids
        assert clustering.assignments == assignments
        assert dataset.pi.tobytes() == pi.tobytes()
        assert dataset.period_counts == counts
        return clustering, dataset

    def test_observation_validation(self):
        with pytest.raises(ValidationError):
            tc.RawObservation("r", -1.0, "a")
        with pytest.raises(ValidationError):
            tc.RawObservation("r", float("nan"), "a")
