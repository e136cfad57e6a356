"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here; nothing is calibrated at
run time.  The heavy Monte-Carlo criteria use fixed seeds and finish well
inside their stated budgets.
"""

import itertools
import math
import time

import numpy as np
import pytest

import timedchoice as tc
from timedchoice.sampler import _draw_rules, _Workspace
from timedchoice.transform import design_matrix_batch


def report(name, elapsed, budget, detail=""):
    line = f"[criterion] {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_01_choice_transform_fidelity():
    """The two-item, two-preference transform matches the known 6x4 matrix."""
    t0 = time.perf_counter()
    menu = tc.Menu(items=("a", "b"))
    enum = tc.enumerate_sets(menu)
    orderings = tc.OrderingSet(
        (tc.PreferenceOrdering((0, 1)), tc.PreferenceOrdering((1, 0)))
    )
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
    assert np.array_equal(transform.a, expected)
    report("01 choice-transform fidelity", time.perf_counter() - t0, 1.0)


def test_criterion_02_worked_survival_example():
    """The two-period dataset leaves exactly one surviving ordering."""
    t0 = time.perf_counter()
    menu = tc.Menu(items=("a", "b", "c"))
    pi = tc.ChoiceDataset(pi=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    result = tc.survivor_search(pi, menu, never_chosen_rule=True)
    assert [o.labels(menu) for o in result.survivors] == [("a", "b", "c")]
    report("02 worked survival example", time.perf_counter() - t0, 1.0)


def test_criterion_03_monotonicity_check_power_and_size():
    """The forgetting rule fails; 1000 random configs per generator pass."""
    t0 = time.perf_counter()
    menu3 = tc.Menu(items=("a", "b", "c"))
    enum = tc.enumerate_sets(menu3)
    u = np.zeros((2, enum.d_c))
    u[0, enum.index_of(0b001)] = 0.5
    u[0, enum.index_of(0b110)] = 0.5
    u[1, enum.index_of(0b011)] = 0.5
    u[1, enum.index_of(0b100)] = 0.5
    forgetting = tc.AttentionRule(u=u, set_index=enum, d_pref=1)
    rep = tc.check_time_monotonicity(forgetting)
    assert not rep.passed
    assert any(v.cset.mask == 0b100 for v in rep.violations)

    rng = np.random.default_rng(31)
    letters = "abcd"
    for _ in range(1000):  # fixed-order search
        n = int(rng.integers(2, 5))
        menu = tc.Menu(items=tuple(letters[:n]))
        rule = tc.gen_topn(menu, int(rng.integers(1, 7)), rng.permutation(n))
        assert tc.check_time_monotonicity(rule).passed
    for _ in range(1000):  # independent consideration, growing probabilities
        n = int(rng.integers(2, 5))
        menu = tc.Menu(items=tuple(letters[: n - 1]) + ("o",), outside_index=n - 1)
        d_t = int(rng.integers(1, 7))
        g = np.sort(rng.uniform(size=(d_t, n - 1)), axis=0)
        gamma = np.concatenate([g, np.ones((d_t, 1))], axis=1)
        rule = tc.gen_mm(menu, tc.GammaSchedule(gamma), outside_mode=True)
        assert tc.check_time_monotonicity(rule).passed
    for _ in range(1000):  # saliency diffusion, nonincreasing thresholds
        n = int(rng.integers(2, 5))
        menu = tc.Menu(items=tuple(letters[: n - 1]) + ("o",), outside_index=n - 1)
        d_t = int(rng.integers(1, 7))
        drifts = rng.uniform(0, 2, size=n - 1)
        tau = np.sort(rng.uniform(0, 3, size=(d_t, n - 1)), axis=0)[::-1].copy()
        rule = tc.gen_diffusion(
            menu, drifts, float(rng.uniform(0.3, 2.0)), tau, d_t, outside_mode=True
        )
        assert tc.check_time_monotonicity(rule).passed
    report("03 monotonicity power and size", time.perf_counter() - t0, 60.0)


def test_criterion_04_sampler_validity_bulk():
    """10,000 sampled rules (6 items, outside mode, 6 periods) are valid."""
    t0 = time.perf_counter()
    menu = tc.Menu(items=("l1", "l2", "l3", "l4", "l5", "lO"), outside_index=5)
    orderings, _ = tc.crra_ordering_set()
    expected_init = tc.initial_row_outside(menu)
    enum = tc.enumerate_sets(menu, outside_mode=True)
    # Rule i is drawn from integer seed i, as sample_attention_rule(seed=i)
    # would, in lockstep chunks of 1,000 rules.
    config = tc.SamplerConfig(d_t=6, seed=None, outside_mode=True)
    chunk = np.empty((1_000, 6, orderings.d_pref, enum.d_c))
    workspace = _Workspace(orderings.d_pref, enum.d_c, len(chunk))
    bad_monotone = bad_rows = 0
    for first in range(0, 10_000, len(chunk)):
        states = np.stack([
            np.random.SeedSequence(seed).generate_state(4, np.uint64)
            for seed in range(first, first + len(chunk))
        ])
        _draw_rules(enum, orderings.d_pref, config, states, chunk, workspace)
        for seed, blocks in enumerate(chunk, first):
            rule = tc.AttentionRule(
                u=blocks.reshape(6, -1), set_index=enum, d_pref=orderings.d_pref
            )
            if np.abs(rule.blocks().sum(axis=2) - 1.0).max() > 1e-9:
                bad_rows += 1
            if not tc.check_time_monotonicity(rule, tol=1e-9).passed:
                bad_monotone += 1
            if seed == 0:
                for i in range(rule.d_pref):
                    assert np.array_equal(rule.block(i)[0], expected_init)
    assert bad_monotone == 0 and bad_rows == 0
    report(
        "04 sampler validity",
        time.perf_counter() - t0,
        300.0,
        "10000 rules, zero violations",
    )


def test_criterion_05_risk_aversion_table():
    """Six orderings with the five published cutoffs within +-0.001."""
    t0 = time.perf_counter()
    lots = tc.experiment_lotteries(include_outside=False)
    table = tc.crra_ordering_table(lots)
    assert len(table) == 6
    labels = [l.label for l in lots]
    got_orderings = [tuple(labels[i] for i in iv.ordering.rank) for iv in table]
    assert got_orderings == [
        ("l1", "l4", "l3", "l5", "l2"),
        ("l4", "l1", "l5", "l3", "l2"),
        ("l4", "l5", "l1", "l3", "l2"),
        ("l5", "l4", "l2", "l3", "l1"),
        ("l5", "l2", "l4", "l3", "l1"),
        ("l2", "l5", "l3", "l4", "l1"),
    ]
    cutoffs = [iv.hi for iv in table[:-1]]
    for got, want in zip(cutoffs, (0.2287, 0.2606, 0.2728, 0.2832, 0.3001)):
        assert abs(got - want) <= 1e-3, (got, want)
    report(
        "05 risk-aversion table",
        time.perf_counter() - t0,
        10.0,
        "cutoffs " + ", ".join(f"{c:.4f}" for c in cutoffs),
    )


def test_criterion_06_rule_pool_coverage_trend():
    """Two-layer exercise: pool coverage strictly improves with pool size.

    Each outer run draws a true rule, forms the exact choice table under the
    uniform preference mix, and asks whether some rule in an independent
    pool of size N reproduces it within Euclidean distance 0.05 (preference
    mix held at the truth).  The hit fraction must rise strictly over
    N in {10, 100, 1000} and reach at least 0.8 at N = 1000.
    """
    t0 = time.perf_counter()
    menu = tc.Menu(items=("a", "b", "c"))
    orderings = tc.all_orderings(3)
    enum = tc.enumerate_sets(menu)
    transform = tc.build_choice_transform(menu, enum, orderings)
    p_star = tc.PreferenceDistribution.uniform(6)
    delta = 0.05
    T = 1000
    sizes = (10, 100, 1000)
    hits = dict.fromkeys(sizes, 0)
    root = np.random.SeedSequence(20240810)
    for _ in range(T):
        outer, *inner = root.spawn(1 + len(sizes))
        truth = tc.sample_attention_rule(
            menu, orderings, tc.SamplerConfig(d_t=3, seed=outer, outside_mode=False)
        )
        target = tc.predict_choices(truth, transform, p_star).vec()
        for size, seq in zip(sizes, inner):
            # Rule i is drawn from child i of seq, as seq.spawn(size)[i].
            pool = tc.sample_attention_rules(
                menu, orderings,
                tc.SamplerConfig(d_t=3, seed=seq, outside_mode=False), size,
            )
            predictions = design_matrix_batch(pool, transform) @ p_star.p
            if np.linalg.norm(predictions - target, axis=1).min() <= delta:
                hits[size] += 1
    eta = {size: hits[size] / T for size in sizes}
    assert eta[10] < eta[100] < eta[1000], eta
    assert eta[1000] >= 0.8, eta
    report(
        "06 pool coverage trend",
        time.perf_counter() - t0,
        1800.0,
        f"eta = {eta[10]:.3f} / {eta[100]:.3f} / {eta[1000]:.3f}",
    )


def test_criterion_07_estimator_recovery():
    """Exact data with the truth injected into the pool is recovered."""
    t0 = time.perf_counter()
    menu = tc.Menu(items=("a", "b", "c"))
    orderings = tc.all_orderings(3)
    enum = tc.enumerate_sets(menu)
    transform = tc.build_choice_transform(menu, enum, orderings)
    truth = tc.sample_attention_rule(
        menu, orderings, tc.SamplerConfig(d_t=4, seed=777, outside_mode=False)
    )
    assert np.linalg.matrix_rank(tc.design_matrix(truth, transform)) == 6
    p_star = tc.PreferenceDistribution(np.array([0.3, 0.2, 0.15, 0.15, 0.1, 0.1]))
    pi = tc.predict_choices(truth, transform, p_star)
    result = tc.estimate(
        pi,
        menu,
        orderings,
        100,
        tc.SamplerConfig(d_t=4, seed=5, outside_mode=False),
        extra_rules=(truth,),
    )
    err = np.abs(result.best_p.p - p_star.p).max()
    assert result.best_distance < 1e-8
    assert err < 1e-4
    report(
        "07 estimator recovery",
        time.perf_counter() - t0,
        60.0,
        f"|p-p*|_inf = {err:.2e}, distance = {result.best_distance:.2e}",
    )


def _mc_test_run(seed, pi_pop, n_per_period, pool_size, n_boot):
    menu = tc.Menu(items=("a", "b", "c"))
    orderings = tc.all_orderings(3)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s_noise, s_pool, s_boot = root.spawn(3)
    rng = np.random.default_rng(s_noise)
    draws = np.stack(
        [rng.multinomial(n_per_period, pi_pop[t]) / n_per_period for t in range(3)]
    )
    data = tc.ChoiceDataset(pi=draws, period_counts=(n_per_period,) * 3)
    sampler = tc.SamplerConfig(d_t=3, seed=s_pool, outside_mode=False)
    config = tc.TestConfig(n_boot=n_boot, seed=s_boot)
    rule, transform = tc.fit_test_rule(data, menu, orderings, pool_size, sampler, config)
    return tc.bootstrap_test(data, rule, transform, config).reject


def test_criterion_08_test_size_and_power():
    """Valid data rejected in at most 10% of runs; a gross violation in 90%+."""
    t0 = time.perf_counter()
    menu = tc.Menu(items=("a", "b", "c"))
    orderings = tc.all_orderings(3)
    enum = tc.enumerate_sets(menu)
    transform = tc.build_choice_transform(menu, enum, orderings)
    runs = 200

    rejections_null = 0
    for i in range(runs):
        seed_root = np.random.SeedSequence(9_000 + i)
        s_truth, s_run = seed_root.spawn(2)
        truth = tc.sample_attention_rule(
            menu, orderings, tc.SamplerConfig(d_t=3, seed=s_truth, outside_mode=False)
        )
        p_mix = tc.PreferenceDistribution(
            np.random.default_rng(s_truth).dirichlet(np.ones(6))
        )
        pi_pop = tc.predict_choices(truth, transform, p_mix).pi
        rejections_null += _mc_test_run(s_run, pi_pop, 500, 1000, 199)
    size = rejections_null / runs
    assert size <= 0.10, f"size {size:.3f}"

    # Gross violation: the bottom item's mass rises by one half between the
    # first two periods and snaps back, which no monotone rule can track
    # under any candidate ordering.
    pi_alt = np.array([[0.6, 0.4, 0.0], [0.1, 0.4, 0.5], [0.6, 0.4, 0.0]])
    rejections_alt = 0
    for i in range(runs):
        rejections_alt += _mc_test_run(
            np.random.SeedSequence(77_000 + i), pi_alt, 500, 1000, 199
        )
    power = rejections_alt / runs
    assert power >= 0.90, f"power {power:.3f}"
    report(
        "08 test size and power",
        time.perf_counter() - t0,
        1800.0,
        f"size = {size:.3f}, power = {power:.3f}",
    )


def test_criterion_09_experiment_pipeline():
    """Bundled data: support on types 1, 4, 6 only; test fails to reject."""
    t0 = time.perf_counter()
    pi, menu = tc.load_experiment_dataset()
    orderings, _ = tc.crra_ordering_set()

    result = tc.estimate(
        pi, menu, orderings, 10_000,
        tc.SamplerConfig(d_t=6, seed=0, outside_mode=True),
    )
    support = tuple(i + 1 for i, w in enumerate(result.best_p.p) if w > 0.05)
    assert support == (1, 4, 6), (support, result.best_p.p)

    rule, transform = tc.fit_test_rule(
        pi, menu, orderings, 10_000,
        tc.SamplerConfig(d_t=6, seed=0, outside_mode=True),
        tc.TestConfig(seed=1),
    )
    outcome = tc.bootstrap_test(
        pi, rule, transform, tc.TestConfig(n_boot=999, seed=1)
    )
    assert not outcome.reject, outcome.summary()
    weights = "/".join(f"{w:.3f}" for w in result.best_p.p)
    report(
        "09 experiment pipeline",
        time.perf_counter() - t0,
        1800.0,
        f"p-hat = {weights}; test p-value = {outcome.p_value:.3f}",
    )


def test_criterion_10_satisficing_oracle():
    """Simulated accumulation matches the closed form within 3 MC errors."""
    t0 = time.perf_counter()
    menu = tc.Menu(items=("a", "b", "c"))
    utilities = [3.0, 2.0, 1.0]  # a > b > c; labels already utility-sorted
    thresholds = [tc.NormalThreshold(1.2, 0.7), tc.NormalThreshold(2.1, 0.7)]
    orders = tuple(itertools.permutations(range(3)))
    probs = (0.3, 0.25, 0.15, 0.1, 0.12, 0.08)
    search = tc.SearchOrderDistribution(orders, probs)
    n_draws = 1_000_000
    rule, _ = tc.gen_satisficing(
        menu, utilities, thresholds, search, n_draws, seed=2024
    )
    enum = rule.set_index

    def pr_first(item):
        return search.prob_first(item)

    def pr_order3(first, second):
        return search.prob_order(first, second)

    checked = 0
    for t, dist in enumerate(thresholds):
        alpha = tc.zeta_transform(rule.block(0)[t], enum)
        pr_above = {
            i: float(dist.cdf(np.array([utilities[i]]))[0]) for i in range(3)
        }
        for j, mask in enumerate(enum.masks):
            members = sorted(
                [i for i in range(3) if mask >> i & 1],
                key=lambda i: -utilities[i],
            )
            if len(members) == 3:
                continue  # full menu: identically one
            if len(members) == 1:
                y = members[0]
                closed = pr_above[y] * pr_first(y)
            else:
                hi, lo = members
                excluded = ({0, 1, 2} - set(members)).pop()
                closed = pr_above[hi] * (pr_order3(lo, hi) + pr_first(hi)) + (
                    pr_above[lo] * (pr_first(lo) - pr_order3(lo, hi))
                )
            se = math.sqrt(max(closed * (1 - closed), 1e-12) / n_draws)
            assert abs(alpha[j] - closed) <= 3 * se + 1e-9, (
                t, members, alpha[j], closed,
            )
            checked += 1
    assert checked == 12  # six proper sets per period
    report(
        "10 satisficing oracle",
        time.perf_counter() - t0,
        120.0,
        f"{checked} accumulation cells within 3 standard errors",
    )
