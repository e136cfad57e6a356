"""Specification test: can a fixed attention rule rationalize the data?

Given choice frequencies with per-period sample sizes and a candidate
attention rule (typically the best fit from a simulated pool), the test
statistic is the sample size times the variance-weighted squared distance
between the observed frequencies and the closest model prediction, with
the preference distribution constrained slightly inside the simplex by a
tuning parameter.  Critical values come from a recentered multinomial
bootstrap: resampled frequencies are shifted so the fitted prediction is
exactly true under the resampling scheme, which makes the bootstrap
distribution mimic the statistic's null distribution at the least
favorable point of the constraint cone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import AttentionRule, ChoiceDataset, Menu, OrderingSet, PreferenceDistribution
from .core import _check_count, _check_tol, enumerate_sets
from .errors import ConfigurationError, SolverError, ValidationError
from .estimator import _score_pool
from .solvers import KKT_TOL, constrained_lstsq_batch, single_solution
from .transform import ChoiceTransform, _check_compatible, build_choice_transform, design_matrix

# Not called here; bench/tracing.py looks both names up in this module.
from .sampler import sample_attention_rule  # noqa: F401
from .transform import design_matrix_batch  # noqa: F401

#: Cell variances at or below this are dropped by the generalized inverse.
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class TestConfig:
    """Configuration of the bootstrap specification test.

    Attributes:
        tau_n: simplex-shrinkage tuning parameter; ``None`` selects
            ``sqrt(log(d_pref) / n)`` capped at ``1 / (2 d_pref)``.
        n_boot: bootstrap replications (L).
        alpha: nominal level, in (0, 0.5).
        seed: RNG seed for the bootstrap resampling.
        simplex_sum: keep the unit-sum constraint on the preference vector
            (matching the model).  Disable for the literal lower-bound-only
            minimization.

    Cell variances at or below :data:`WEIGHT_FLOOR` are dropped from the
    weighting (see :func:`variance_weights`).
    """

    tau_n: float | None = None
    n_boot: int = 999
    alpha: float = 0.05
    seed: int | np.random.SeedSequence | None = None
    simplex_sum: bool = True

    def __post_init__(self):
        n_boot = _check_count(self.n_boot, "n_boot", 1, error=ConfigurationError)
        object.__setattr__(self, "n_boot", n_boot)
        if not (0.0 < self.alpha < 0.5):
            raise ConfigurationError("alpha must lie in (0, 0.5)")
        if self.tau_n is not None:
            _check_tol(self.tau_n, "tau_n", error=ConfigurationError)


@dataclass(frozen=True)
class VarianceWeights:
    """Per-cell variance estimates and their generalized inverse.

    ``omega[i]`` estimates the variance of the i-th flattened choice
    frequency (``pi * (1 - pi) / n_t`` for its period); ``inverse[i]`` is
    ``1 / omega[i]`` where the variance exceeds :data:`WEIGHT_FLOOR` and
    zero otherwise, dropping degenerate cells from the quadratic form.
    """

    omega: NDArray[np.float64]
    inverse: NDArray[np.float64]


@dataclass(frozen=True)
class TestResult:
    """Outcome of :func:`bootstrap_test`.

    ``bootstrap_stats`` holds the statistics of the converged replications
    only; ``n_unconverged`` of the ``n_boot`` replications did not converge
    and take no part in the critical value or the p-value.
    """

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    eta_hat: NDArray[np.float64]
    p_min: PreferenceDistribution
    tau_n: float
    alpha: float
    n_boot: int
    bootstrap_stats: NDArray[np.float64]
    degenerate: bool = False
    n_unconverged: int = 0

    def summary(self) -> str:
        verdict = "reject" if self.reject else "fail to reject"
        reps = f"{self.n_boot} replications"
        if self.n_unconverged:
            reps += f", {self.n_unconverged} unconverged"
        return (
            f"statistic T_n   : {self.statistic:.6g}\n"
            f"critical value  : {self.critical_value:.6g} "
            f"(level {self.alpha:g}, {reps})\n"
            f"p-value         : {self.p_value:.4f}\n"
            f"decision        : {verdict}"
        )


def _omega(pi_flat: NDArray, counts_per_cell: NDArray):
    omega = pi_flat * (1.0 - pi_flat) / counts_per_cell
    kept = omega > WEIGHT_FLOOR
    inverse = np.where(kept, 1.0 / np.where(kept, omega, 1.0), 0.0)
    return omega, inverse


def variance_weights(pi: ChoiceDataset) -> VarianceWeights:
    """Binomial variance estimates per cell with a generalized inverse.

    Raises:
        ValidationError: the dataset carries no period counts.
    """
    if pi.period_counts is None:
        raise ValidationError("variance weights need per-period sample sizes")
    counts = np.repeat(np.asarray(pi.period_counts, dtype=np.float64), pi.n)
    if np.any(counts <= 0):
        raise ValidationError("period counts must be positive for weighting")
    omega, inverse = _omega(pi.vec(), counts)
    return VarianceWeights(omega=omega, inverse=inverse)


def default_tau(d_pref: int, n_total: int) -> float:
    """Default shrinkage: sqrt(log d / n), capped at 1/(2d)."""
    n_total = _check_count(n_total, "the total sample size", 1)
    return float(min(np.sqrt(np.log(d_pref) / n_total), 0.5 / d_pref))


def _tau(tau_n: float | None, d_pref: int, pi: ChoiceDataset) -> float:
    """``tau_n``, or :func:`default_tau` when it is ``None``, checked to be feasible."""
    tau = tau_n if tau_n is not None else default_tau(d_pref, pi.total_count)
    if tau > 1.0 / d_pref + 1e-12:
        raise ConfigurationError(
            f"tau_n={tau:g} exceeds 1/d_pref={1.0 / d_pref:g}; the constraint "
            f"set is empty"
        )
    return tau


def test_statistic(
    pi: ChoiceDataset,
    rule: AttentionRule,
    transform: ChoiceTransform,
    weights: VarianceWeights,
    tau_n: float,
    *,
    simplex_sum: bool = True,
) -> tuple[float, PreferenceDistribution, NDArray[np.float64]]:
    """Weighted minimum-distance statistic for a fixed attention rule.

    Minimizes ``n * (pi - M p)' diag(inverse) (pi - M p)``, ``n`` the total
    count, over preference vectors with every component at least
    ``tau_n / d_pref`` (and unit sum unless ``simplex_sum`` is off).  Returns the statistic, the minimizer,
    and the fitted frequency vector used to recenter the bootstrap.

    Raises:
        ValidationError: the rule, transform and dataset do not fit together.
        ConfigurationError: infeasible shrinkage (``tau_n > 1 / d_pref``).
        SolverError: the solve did not reach the KKT tolerance; the error
            carries the ``p`` array found and its residual.
    """
    _check_compatible(rule, transform, pi)
    _tau(tau_n, transform.d_pref, pi)
    return _statistic(pi, design_matrix(rule, transform), weights, tau_n, simplex_sum)


def _statistic(pi, m, weights, tau_n, simplex_sum):
    """:func:`test_statistic` on the rule's design matrix ``m``."""
    d = m.shape[1]
    if np.all(weights.inverse == 0.0):
        warnings.warn(
            "all variance weights are zero; the statistic degenerates to 0",
            RuntimeWarning,
        )
        p0 = np.full(d, 1.0 / d)
        return 0.0, PreferenceDistribution(p0), m @ p0
    p, obj = single_solution(
        constrained_lstsq_batch(
            m[None], pi.vec(), weights=weights.inverse, lower=tau_n / d,
            sum_constraint=simplex_sum,
        ),
        "test statistic",
    )
    if not simplex_sum:
        # Without the sum constraint p is only bounded below; it is not a
        # distribution, so report the raw minimizer normalized for storage.
        p_store = p / p.sum() if p.sum() > 0 else np.full(d, 1.0 / d)
    else:
        p_store = p
    eta = m @ p
    return pi.total_count * obj, PreferenceDistribution(p_store), eta


def fit_test_rule(
    pi: ChoiceDataset,
    menu: Menu,
    orderings: OrderingSet,
    n_sims: int,
    sampler_config,
    config: TestConfig = TestConfig(),
) -> tuple[AttentionRule, ChoiceTransform]:
    """Select the candidate rule to test from a simulated pool.

    Draws ``n_sims`` rules and keeps the one minimizing the test's own
    weighted objective (the inner problem of the statistic, including the
    shrinkage bound).  Selecting by the unweighted fit instead routinely
    hands the test a rule that is fine on high-variance cells but poor on
    precisely measured ones, which drives the statistic up and makes the
    test reject data the pool could in fact explain.  A draw whose solve
    does not converge is skipped; only a fully failed pool raises
    :class:`~timedchoice.errors.SolverError`.

    Raises:
        ConfigurationError: infeasible shrinkage (``tau_n > 1 / d_pref``),
            before any rule is drawn.
    """
    enum = enumerate_sets(menu, outside_mode=sampler_config.outside_mode)
    transform = build_choice_transform(menu, enum, orderings)
    weights = variance_weights(pi)
    d = orderings.d_pref
    tau = _tau(config.tau_n, d, pi)
    pool = _score_pool(
        pi, transform, n_sims, sampler_config,
        weights=weights.inverse, lower=tau / d, sum_constraint=config.simplex_sum,
    )
    return pool.best_rule, transform


def bootstrap_test(
    pi: ChoiceDataset,
    rule: AttentionRule,
    transform: ChoiceTransform,
    config: TestConfig = TestConfig(),
) -> TestResult:
    """Recentered-bootstrap specification test of a fixed attention rule.

    Resamples choices within each period (multinomial with the observed
    period sizes), recenters every replication so the fitted prediction
    holds exactly, recomputes the variance weights per replication, and
    compares the statistic to the bootstrap distribution's upper quantile.

    A replication whose solve does not converge is left out and counted
    in ``n_unconverged``.  Over the ``L`` converged replications, the
    p-value is ``(1 + #{T*_l >= T_n}) / (L + 1)`` and the decision compares
    T_n with the ``ceil((1 - alpha) (L + 1))``-th order statistic.

    Raises:
        ValidationError: the rule, transform and dataset do not fit together,
            or the dataset carries no period counts.
        ConfigurationError: infeasible shrinkage (``tau_n > 1 / d_pref``).
        SolverError: the statistic's own solve, or every replication's,
            did not converge.
    """
    _check_compatible(rule, transform, pi)
    d = transform.d_pref
    tau = _tau(config.tau_n, d, pi)

    weights = variance_weights(pi)
    m = design_matrix(rule, transform)
    t_n, p_min, eta = _statistic(pi, m, weights, tau, config.simplex_sum)
    degenerate = bool(np.all(weights.inverse == 0.0))

    rng = np.random.default_rng(config.seed)
    L = config.n_boot
    counts = np.asarray(pi.period_counts)
    d_t, n_items = pi.d_t, pi.n

    # Per-period multinomial resamples, stacked as (L, d_t * n_items).
    pi_star = np.empty((L, d_t, n_items))
    for t in range(d_t):
        row = pi.pi[t]
        try:
            draws = rng.multinomial(counts[t], row, size=L)
        except ValueError:
            # numpy refuses a row a hair outside the simplex, before drawing.
            row = np.clip(row, 0.0, 1.0)
            draws = rng.multinomial(counts[t], row / row.sum(), size=L)
        pi_star[:, t, :] = draws / counts[t]
    pi_star = pi_star.reshape(L, d_t * n_items)

    counts_per_cell = np.repeat(counts.astype(np.float64), n_items)
    _, inv_star = _omega(pi_star, counts_per_cell[None, :])
    targets = pi_star - pi.vec()[None, :] + eta[None, :]

    _, obj_star, res_star = constrained_lstsq_batch(
        np.broadcast_to(m, (L,) + m.shape),
        targets,
        weights=inv_star,
        lower=tau / d,
        sum_constraint=config.simplex_sum,
    )
    converged = res_star <= KKT_TOL
    t_star = pi.total_count * obj_star[converged]
    L = t_star.size
    if L == 0:
        raise SolverError("no bootstrap replication converged")

    k = int(np.ceil((1.0 - config.alpha) * (L + 1)))
    k = min(max(k, 1), L)
    critical = float(np.sort(t_star)[k - 1])
    p_value = float((1.0 + np.sum(t_star >= t_n)) / (L + 1.0))
    return TestResult(
        statistic=t_n,
        critical_value=critical,
        p_value=p_value,
        reject=bool(t_n > critical),
        eta_hat=eta,
        p_min=p_min,
        tau_n=float(tau),
        alpha=config.alpha,
        n_boot=config.n_boot,
        bootstrap_stats=t_star,
        degenerate=degenerate,
        n_unconverged=config.n_boot - L,
    )
