"""One table of malformed inputs: every input invariant fails with its typed error.

Each site is one row: a builder that puts the bad value where the invariant
applies, the values that must fail there, and the error class.  Every case
runs with ``RuntimeWarning`` as an error, so a NaN comparison cannot warn
either.  Sites whose own tests already feed these values (``tol``, ``tau_n``,
pool sizes, solver weights) keep them where they are.
"""

import numpy as np
import pytest

import timedchoice as tc
from timedchoice.errors import ConfigurationError, ValidationError
from timedchoice import generators
from timedchoice.generators import diffusion_schedule

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NAN, INF = float("nan"), float("inf")
MENU3 = tc.Menu(items=("a", "b", "c"))
ENUM3 = tc.enumerate_sets(MENU3)
MENU3_OUT = tc.Menu(items=("a", "b", "o"), outside_index=2)
PI3 = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])


def _cell(x, shape=(2, 2), fill=0.5):
    """A ``shape`` table of ``fill`` whose first entry is ``x``."""
    a = np.full(shape, fill)
    a.flat[0] = x
    return a


def _satisficing(n_draws):
    return tc.gen_satisficing(
        MENU3, [3.0, 2.0, 1.0], [tc.FixedThreshold(1.5)],
        tc.SearchOrderDistribution.uniform(3), n_draws, seed=0,
    )


def _diffusion(sigma=1.0, drift=0.5, threshold=1.0, d_t=2):
    return diffusion_schedule(tc.Menu(items=("a", "b")), [drift, 0.5], sigma,
                              [[threshold, 1.0], [0.5, 0.5]], d_t)


TABLES = [NAN, INF, -INF, 2.5]
COUNTS = [NAN, 2.5, 2.0, True, np.True_]
BOUNDS = [NAN, INF, -INF, -1.0]
# SeedSequence refuses the negatives, strings and floats; it reads True as 1.
SEEDS = [-1, "x", 1.5, [1, -1], True, np.True_, [1, True]]

# (site, builder of the bad value, values that must fail, error class)
SITES = [
    # Probability tables: entries in [0, 1] and last-axis slices summing to one.
    ("ChoiceDataset.pi", lambda x: tc.ChoiceDataset(pi=_cell(x)), TABLES, ValidationError),
    ("AttentionRule.u",
     lambda x: tc.AttentionRule(u=_cell(x, (2, 2 * ENUM3.d_c), 1 / ENUM3.d_c),
                                set_index=ENUM3, d_pref=2),
     TABLES, ValidationError),
    ("PreferenceDistribution.p",
     lambda x: tc.PreferenceDistribution(_cell(x, (2,))), TABLES, ValidationError),
    ("GammaSchedule.gamma",
     lambda x: tc.GammaSchedule(np.array([[x, 0.2], [1.0, 0.4]])), TABLES, ValidationError),
    ("SearchOrderDistribution.probs",
     lambda x: tc.SearchOrderDistribution(((0, 1), (1, 0)), (x, 0.5)), TABLES, ValidationError),
    ("Lottery probabilities",
     lambda x: tc.Lottery("l", ((10.0, x), (0.0, 0.5))), TABLES, ValidationError),
    # Counts: Python or numpy integers, never bools.
    ("SamplerConfig.d_t", lambda x: tc.SamplerConfig(d_t=x), COUNTS, ConfigurationError),
    ("TestConfig.n_boot", lambda x: tc.TestConfig(n_boot=x), COUNTS, ConfigurationError),
    ("ChoiceDataset.period_counts",
     lambda x: tc.ChoiceDataset(pi=PI3, period_counts=(50, x, 50)), COUNTS, ValidationError),
    ("AttentionRule.d_pref",
     lambda x: tc.AttentionRule(u=np.full((1, ENUM3.d_c), 1 / ENUM3.d_c), set_index=ENUM3,
                                d_pref=x),
     COUNTS, ValidationError),
    ("kmeans_1d k", lambda x: tc.kmeans_1d(np.arange(6.0), x), COUNTS, ValidationError),
    ("cluster_times k",
     # Every time is zero, so no later check sees k.
     lambda x: tc.cluster_times([tc.RawObservation(str(i), 0.0, "a") for i in range(3)], MENU3, x),
     COUNTS, ValidationError),
    ("gen_satisficing n_draws", _satisficing, COUNTS, ValidationError),
    ("default_tau n_total", lambda x: tc.default_tau(6, x), COUNTS + [0], ValidationError),
    ("gen_topn d_t", lambda x: tc.gen_topn(MENU3, x, ("a", "b", "c")), COUNTS + [0],
     ValidationError),
    ("diffusion_schedule d_t", lambda x: _diffusion(d_t=x), COUNTS, ConfigurationError),
    # Finite scalar bounds: nonnegative, or positive where zero is meaningless.
    ("RawObservation.stopping_time", lambda x: tc.RawObservation("r", x, "a"), BOUNDS,
     ValidationError),
    ("Lottery payoffs", lambda x: tc.Lottery("l", ((x, 0.5), (0.0, 0.5))), BOUNDS,
     ValidationError),
    ("NormalThreshold.sd", lambda x: tc.NormalThreshold(0.0, x), BOUNDS + [0.0, "1.0"],
     ValidationError),
    ("diffusion_schedule sigma", lambda x: _diffusion(sigma=x), BOUNDS + [0.0, "1.0", None],
     ConfigurationError),
    ("diffusion_schedule drifts", lambda x: _diffusion(drift=x), BOUNDS, ConfigurationError),
    ("diffusion_schedule thresholds", lambda x: _diffusion(threshold=x), BOUNDS,
     ConfigurationError),
    # Finite scalars of either sign; a fixed threshold may be infinite.
    ("NormalThreshold.mean", lambda x: tc.NormalThreshold(x, 1.0), [NAN, INF, -INF],
     ValidationError),
    ("FixedThreshold.value", tc.FixedThreshold, [NAN], ValidationError),
    # Menu labels: a list or tuple of strings; tuple("abc") made three items.
    ("Menu.items", lambda x: tc.Menu(items=x), ["abc", 5, None, ["a", 1]], ValidationError),
    # Lottery outcomes: (payoff, probability) pairs of numbers, never strings or bools.
    ("Lottery outcomes", lambda x: tc.Lottery("l", x),
     [(("50", 0.5), (0, 0.5)), ((True, 0.5), (0, 0.5)), ((50, 0.5, 1),), ((50,),), 5,
      ((None, 1.0),), ()],
     ValidationError),
    ("Lottery.label", lambda x: tc.Lottery(x, ((50, 1.0),)), [5, None, ("a",)], ValidationError),
    # Seeds: what SeedSequence takes, without bools.
    ("SamplerConfig.seed", lambda x: tc.SamplerConfig(d_t=2, seed=x), SEEDS, ConfigurationError),
    ("TestConfig.seed", lambda x: tc.TestConfig(seed=x), SEEDS, ConfigurationError),
    ("gen_satisficing seed",
     lambda x: tc.gen_satisficing(MENU3, [3.0, 2.0, 1.0], [tc.FixedThreshold(1.5)],
                                  tc.SearchOrderDistribution.uniform(3), 10, seed=x),
     SEEDS, ValidationError),
]


@pytest.mark.parametrize(
    "build, value, error",
    [
        pytest.param(build, value, error, id=f"{site}={value!r}")
        for site, build, values, error in SITES
        for value in values
    ],
)
def test_malformed_input_raises_typed_error(build, value, error):
    with pytest.raises(error):
        build(value)


# (site, builder putting the value in a nested list, error class)
NUMBER_SITES = [
    ("ChoiceDataset.pi", lambda x: tc.ChoiceDataset(pi=[[x, 0.5], [0.5, 0.5]]), ValidationError),
    ("AttentionRule.u",
     lambda x: tc.AttentionRule(u=[[x] + [0.0] * (ENUM3.d_c - 1)], set_index=ENUM3),
     ValidationError),
    ("PreferenceDistribution.p", lambda x: tc.PreferenceDistribution([x, 0.5]), ValidationError),
    ("GammaSchedule.gamma", lambda x: tc.GammaSchedule([[x, 0.2], [1.0, 0.4]]), ValidationError),
    ("SearchOrderDistribution.probs",
     lambda x: tc.SearchOrderDistribution(((0, 1), (1, 0)), (x, 0.5)), ValidationError),
    ("gen_satisficing utilities",
     lambda x: tc.gen_satisficing(MENU3, [x, 2.0, 1.0], [tc.FixedThreshold(1.5)],
                                  tc.SearchOrderDistribution.uniform(3), 10, seed=0),
     ValidationError),
    ("diffusion_schedule drifts", lambda x: _diffusion(drift=x), ConfigurationError),
    ("diffusion_schedule thresholds", lambda x: _diffusion(threshold=x), ConfigurationError),
    ("NormalThreshold.mean", lambda x: tc.NormalThreshold(x, 1.0), ValidationError),
    ("FixedThreshold.value", tc.FixedThreshold, ValidationError),
]


@pytest.mark.parametrize(
    "build, value, error",
    [
        pytest.param(build, value, error, id=f"{site}={value!r}")
        for site, build, error in NUMBER_SITES
        for value in ["x", "0.5", None, [0.5]]
    ] + [
        pytest.param(lambda x: tc.NormalThreshold(x, 1.0), True, ValidationError,
                     id="NormalThreshold.mean=True"),
        pytest.param(tc.FixedThreshold, True, ValidationError, id="FixedThreshold.value=True"),
    ],
)
def test_non_number_raises_typed_error(build, value, error):
    """A string, None or list in a number's place names the field, and so does a lone bool.

    ``float("0.5")`` and ``np.asarray(..., dtype=float)`` took ``"0.5"``,
    the latter made None a NaN, and ``"x"`` ended in a bare ``ValueError``.
    """
    with pytest.raises(error, match=r"must be (a number|numbers), got"):
        build(value)


@pytest.mark.parametrize(
    "build, value, error",
    [
        pytest.param(build, value, error, id=f"{site}={value!r}")
        # Every site but the two scalar thresholds puts the value in a list.
        for site, build, error in NUMBER_SITES[:-2]
        for value in [True, np.True_, False]
    ],
)
def test_bool_in_a_list_raises_typed_error(build, value, error):
    """numpy reads ``[True, 0.0]`` as numbers: ``PreferenceDistribution`` made it ``[1, 0]``."""
    with pytest.raises(error, match=r"must be numbers, got"):
        build(value)


@pytest.mark.parametrize(
    "seed",
    [None, 0, 2**70, np.uint64(3), [1, 2], np.array([4, 5]), np.random.SeedSequence(6)],
    ids=["None", "0", "2**70", "uint64", "list", "array", "SeedSequence"],
)
def test_a_valid_seed_passes_unchanged(seed):
    assert tc.SamplerConfig(d_t=2, seed=seed).seed is seed
    assert tc.TestConfig(seed=seed).seed is seed


def _ordering(*rank):
    return tc.PreferenceOrdering(rank)


def _dataset(n, d_t=2, counts=None):
    return tc.ChoiceDataset(pi=np.full((d_t, n), 1.0 / n), period_counts=counts)


# (site, call, error class, text of the message): inputs whose shape or size
# does not fit the rest of the call.
CHECKS = [
    # core
    ("SetEnumeration.index_of", lambda: tc.enumerate_sets(MENU3_OUT, True).index_of(0b001),
     ValidationError, "not admissible"),
    ("OrderingSet empty", lambda: tc.OrderingSet(()), ValidationError, "at least one"),
    ("OrderingSet sizes", lambda: tc.OrderingSet((_ordering(0, 1), _ordering(0, 1, 2))),
     ValidationError, "same number of items"),
    ("all_orderings cap", lambda: tc.all_orderings(8), ConfigurationError, "capped at 7"),
    ("best_in unranked member",
     lambda: tc.best_in(_ordering(0, 1), tc.ConsiderationSet(0b100)), ValidationError,
     "no member ranked"),
    ("ChoiceDataset 1-D", lambda: tc.ChoiceDataset(pi=[0.5, 0.5]), ValidationError,
     "(periods, items) matrix"),
    ("ChoiceDataset counts", lambda: tc.ChoiceDataset(pi=PI3, period_counts=(50, 50)),
     ValidationError, "one period count per row"),
    ("ChoiceDataset labels", lambda: tc.ChoiceDataset(pi=PI3, period_labels=("x",)),
     ValidationError, "one period label per row"),
    ("AttentionRule 1-D",
     lambda: tc.AttentionRule(u=np.full(ENUM3.d_c, 1 / ENUM3.d_c), set_index=ENUM3),
     ValidationError, "2-D"),
    ("AttentionRule columns",
     lambda: tc.AttentionRule(u=np.full((1, 6), 1 / 6), set_index=ENUM3), ValidationError,
     "expected d_pref*d_c = 7"),
    ("PreferenceDistribution 2-D", lambda: tc.PreferenceDistribution([[0.5, 0.5]]),
     ValidationError, "vector"),
    # generators
    ("GammaSchedule 1-D", lambda: tc.GammaSchedule([0.2, 0.3]), ValidationError, "shape"),
    ("gen_topn outside not first",
     lambda: tc.gen_topn(MENU3_OUT, 2, ("a", "o", "b"), outside_mode=True),
     ConfigurationError, "searched first"),
    ("gen_mm width", lambda: tc.gen_mm(MENU3, tc.GammaSchedule([[0.2, 0.3]])),
     ValidationError, "width"),
    ("gen_mm no outside item",
     lambda: tc.gen_mm(MENU3, tc.GammaSchedule([[0.2, 0.3, 1.0]]), outside_mode=True),
     ConfigurationError, "outside option"),
    ("SearchOrderDistribution lengths",
     lambda: tc.SearchOrderDistribution(((0, 1),), (0.5, 0.5)), ValidationError,
     "one probability per search order"),
    ("SearchOrderDistribution permutation",
     lambda: tc.SearchOrderDistribution(((0, 1), (0, 0)), (0.5, 0.5)), ValidationError,
     "permutation"),
    ("gen_satisficing utilities",
     lambda: tc.gen_satisficing(MENU3, [3.0, 2.0], [tc.FixedThreshold(1.5)],
                                tc.SearchOrderDistribution.uniform(3), 10, seed=0),
     ValidationError, "one utility per menu item"),
    ("diffusion_schedule thresholds shape",
     lambda: diffusion_schedule(MENU3, [0.5, 0.5, 0.5], 1.0, [[1.0, 1.0]], 2),
     ConfigurationError, "shape (2, 3)"),
    ("diffusion_schedule no outside item",
     lambda: diffusion_schedule(MENU3, [0.5, 0.5], 1.0, [[1.0, 1.0]], 1, outside_mode=True),
     ConfigurationError, "outside option"),
    ("diffusion_schedule outside drifts",
     lambda: diffusion_schedule(MENU3_OUT, [0.5, 0.5, 0.5], 1.0, [[1.0, 1.0, 1.0]], 1,
                                outside_mode=True),
     ConfigurationError, "non-outside items"),
    ("diffusion_schedule drifts",
     lambda: diffusion_schedule(MENU3, [0.5, 0.5], 1.0, [[1.0, 1.0]], 1), ConfigurationError,
     "one drift per menu item"),
    # transform
    ("build_choice_transform orderings",
     lambda: tc.build_choice_transform(MENU3, ENUM3, tc.all_orderings(2)), ValidationError,
     "menu size"),
    ("build_choice_transform sets",
     lambda: tc.build_choice_transform(MENU3_OUT, ENUM3, tc.all_orderings(3)),
     ValidationError, "different menu"),
    ("predict_choices p",
     lambda: tc.predict_choices(
         tc.gen_topn(MENU3, 2, ("a", "b", "c")),
         tc.build_choice_transform(MENU3, ENUM3, tc.OrderingSet((_ordering(0, 1, 2),))),
         tc.PreferenceDistribution.uniform(2)),
     ValidationError, "preference vector length"),
    # survival
    ("lower_contour_sum width", lambda: tc.lower_contour_sum(_dataset(3), _ordering(0, 1), 0, 0),
     ValidationError, "dataset width"),
    ("rejection_test width", lambda: tc.rejection_test(_dataset(3), _ordering(0, 1)),
     ValidationError, "dataset width"),
    ("survivor_search width", lambda: tc.survivor_search(_dataset(2), MENU3), ValidationError,
     "menu size"),
    ("survivor_search cap",
     lambda: tc.survivor_search(_dataset(9), tc.Menu(items=tuple("abcdefghi"))),
     ValidationError, "capped at 8"),
    # clustering, hyptest
    ("cluster_times empty", lambda: tc.cluster_times([], MENU3, 2), ValidationError,
     "no observations"),
    ("variance_weights zero count", lambda: tc.variance_weights(_dataset(3, 2, (50, 0))),
     ValidationError, "must be positive"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [pytest.param(call, error, message, id=site) for site, call, error, message in CHECKS],
)
def test_input_that_does_not_fit_raises_typed_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)


def test_diffusion_schedule_error_not_from_rising_thresholds_propagates(monkeypatch):
    """Only rising thresholds explain a bad schedule; any other error passes unchanged."""

    def refuse(gamma):
        raise ValidationError("refused")

    monkeypatch.setattr(generators, "GammaSchedule", refuse)
    with pytest.raises(ValidationError, match="^refused$"):
        _diffusion()


@pytest.mark.parametrize(
    "build",
    [
        lambda x: tc.ChoiceDataset(pi=_cell(x)),
        lambda x: tc.PreferenceDistribution(_cell(x, (2,))),
        lambda x: tc.SearchOrderDistribution(((0, 1), (1, 0)), (x, 0.5)),
        lambda x: tc.Lottery("l", ((10.0, x), (0.0, 0.5))),
    ],
    ids=["ChoiceDataset", "PreferenceDistribution", "SearchOrderDistribution", "Lottery"],
)
def test_a_sum_within_the_row_tolerance_is_accepted(build):
    """A sum 1e-10 above one is inside :data:`~timedchoice.core.ROW_SUM_TOL`, as before."""
    build(0.5 + 1e-10)


def test_search_order_probability_a_hair_below_zero_draws():
    """The distribution allows -1e-12, which ``Generator.choice`` would refuse."""
    search = tc.SearchOrderDistribution(((0, 1, 2), (2, 1, 0)), (-5e-13, 1.0 + 5e-13))
    tc.gen_satisficing(MENU3, [3.0, 2.0, 1.0], [tc.FixedThreshold(1.5)], search, 10, seed=0)


class TestRuleFitsData:
    """A rule must match its transform, and the dataset's periods and items."""

    @pytest.fixture
    def setup(self):
        orderings = tc.all_orderings(3)
        transform = tc.build_choice_transform(MENU3, ENUM3, orderings)
        rule4 = tc.sample_attention_rule(
            MENU3, orderings, tc.SamplerConfig(d_t=4, seed=0, outside_mode=False)
        )
        data = tc.ChoiceDataset(pi=PI3, period_counts=(50, 50, 50))
        return orderings, transform, rule4, data

    def test_statistic_and_bootstrap(self, setup):
        """A 4-period rule on 3-period data raised numpy's broadcast error."""
        _, transform, rule4, data = setup
        weights = tc.variance_weights(data)
        with pytest.raises(ValidationError, match="periods x items"):
            tc.test_statistic(data, rule4, transform, weights, 0.0)
        with pytest.raises(ValidationError, match="periods x items"):
            tc.bootstrap_test(data, rule4, transform, tc.TestConfig(n_boot=9, seed=0))

    def test_solve_p(self, setup):
        _, transform, rule4, data = setup
        with pytest.raises(ValidationError, match="periods x items"):
            tc.solve_p(rule4, transform, data)

    def test_items_of_the_data(self, setup):
        orderings, transform, _, _ = setup
        rule = tc.sample_attention_rule(
            MENU3, orderings, tc.SamplerConfig(d_t=2, seed=0, outside_mode=False)
        )
        wide = tc.ChoiceDataset(pi=np.full((2, 4), 0.25))
        with pytest.raises(ValidationError, match="periods x items"):
            tc.solve_p(rule, transform, wide)

    def test_injected_rule(self, setup):
        orderings, _, rule4, data = setup
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        with pytest.raises(ValidationError, match="periods x items"):
            tc.estimate(data, MENU3, orderings, 2, config, extra_rules=(rule4,))

    def test_sampler_periods(self, setup):
        orderings, _, _, data = setup
        config = tc.SamplerConfig(d_t=4, seed=0, outside_mode=False)
        want = "sampler is configured for 4 periods, dataset has 3"
        with pytest.raises(ValidationError, match=want):
            tc.estimate(data, MENU3, orderings, 2, config)
        with pytest.raises(ValidationError, match=want):
            tc.fit_test_rule(data, MENU3, orderings, 2, config, tc.TestConfig(n_boot=9))
