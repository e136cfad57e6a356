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
from timedchoice.generators import diffusion_schedule

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NAN, INF = float("nan"), float("inf")
MENU3 = tc.Menu(items=("a", "b", "c"))
ENUM3 = tc.enumerate_sets(MENU3)
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


def _diffusion(sigma=1.0, drift=0.5, threshold=1.0):
    return diffusion_schedule(tc.Menu(items=("a", "b")), [drift, 0.5], sigma,
                              [[threshold, 1.0], [0.5, 0.5]], 2)


TABLES = [NAN, INF, -INF, 2.5]
COUNTS = [NAN, 2.5, 2.0, True, np.True_]
BOUNDS = [NAN, INF, -INF, -1.0]

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
    # Finite scalar bounds: nonnegative, or positive where zero is meaningless.
    ("RawObservation.stopping_time", lambda x: tc.RawObservation("r", x, "a"), BOUNDS,
     ValidationError),
    ("Lottery payoffs", lambda x: tc.Lottery("l", ((x, 0.5), (0.0, 0.5))), BOUNDS,
     ValidationError),
    ("NormalThreshold.sd", lambda x: tc.NormalThreshold(0.0, x), BOUNDS + [0.0],
     ValidationError),
    ("diffusion_schedule sigma", lambda x: _diffusion(sigma=x), BOUNDS + [0.0],
     ConfigurationError),
    ("diffusion_schedule drifts", lambda x: _diffusion(drift=x), BOUNDS, ConfigurationError),
    ("diffusion_schedule thresholds", lambda x: _diffusion(threshold=x), BOUNDS,
     ConfigurationError),
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
