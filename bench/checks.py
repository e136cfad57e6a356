"""Output checks of the benchmark workloads.

Each check returns a list of failure messages; an empty list means the
output passed.  They run outside the timed region and never inside a trace.
"""

from __future__ import annotations

import itertools

import numpy as np

import timedchoice as tc

SIMPLEX_TOL = 1e-9


def rule_monotone(rule: tc.AttentionRule, what: str) -> list[str]:
    report = tc.check_time_monotonicity(rule)
    if report.passed:
        return []
    return [
        f"{what}: not time-monotone ({len(report.violations)} violations, "
        f"{len(report.normalization_errors)} normalization errors)"
    ]


def on_simplex(p, what: str) -> list[str]:
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        return [f"{what}: non-finite weights"]
    if p.min() < -SIMPLEX_TOL or abs(p.sum() - 1.0) > SIMPLEX_TOL:
        return [f"{what}: not on the simplex (min {p.min():g}, sum {p.sum():.12g})"]
    return []


def best_is_min(result: tc.EstimationResult) -> list[str]:
    d = np.asarray(result.per_sim_distances)
    if result.best_distance != d.min() or d[result.best_index] != result.best_distance:
        return [
            f"estimate: best_distance {result.best_distance!r} is not the pool "
            f"minimum {d.min()!r}"
        ]
    return []


def test_outcome(result: tc.TestResult, what: str) -> list[str]:
    out = []
    if not 0.0 < result.p_value <= 1.0:
        out.append(f"{what}: p-value {result.p_value!r} outside (0, 1]")
    stats = np.asarray(result.bootstrap_stats)
    if not (np.isfinite(result.statistic) and np.all(np.isfinite(stats))):
        out.append(f"{what}: non-finite statistic or bootstrap statistics")
    return out


def brute_force_survivors(
    pi: tc.ChoiceDataset, never_chosen_rule: bool, tol: float
) -> list[tuple[int, ...]]:
    """Orderings passing ``rejection_test``, tested one by one over all n!.

    With ``never_chosen_rule`` an ordering must also rank every item that is
    never chosen (no frequency above ``tol``, as ``survivor_search`` counts
    it) below every item that is.
    """
    never = [bool(np.all(pi.pi[:, x] <= tol)) for x in range(pi.n)]
    out = []
    for perm in itertools.permutations(range(pi.n)):
        if never_chosen_rule:
            ranks = [never[x] for x in perm]
            if ranks != sorted(ranks):
                continue
        if tc.rejection_test(pi, tc.PreferenceOrdering(perm), tol) is None:
            out.append(perm)
    return out


def survivors_match(reported, expected, what: str) -> list[str]:
    if sorted(map(tuple, reported)) != sorted(map(tuple, expected)):
        return [
            f"{what}: {len(reported)} survivors reported, brute force finds "
            f"{len(expected)} (sets differ)"
        ]
    return []


def counts_total(counts, n_obs: int) -> list[str]:
    if sum(counts) != n_obs:
        return [f"cluster: period counts sum to {sum(counts)}, expected {n_obs}"]
    return []


def _identical(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape or x.dtype != y.dtype:
        return False
    if x.dtype.kind in "biufc":
        return x.tobytes() == y.tobytes()
    return bool(np.all(x == y))


def same_outputs(a: dict, b: dict) -> list[str]:
    """Keys whose values differ bit for bit between two runs of one task."""
    bad = [
        k for k in sorted(set(a) | set(b))
        if k not in a or k not in b or not _identical(a[k], b[k])
    ]
    return [f"traced run differs from untraced run on {bad}"] if bad else []
