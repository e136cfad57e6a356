"""Synthetic attention rules and datasets with known structure.

These generators produce rules whose monotonicity status is known
analytically, which makes them the ground truth for the checker, for
survival soundness tests, and for estimator recovery experiments:

* fixed-order search that reveals one more item per period;
* independent per-item consideration probabilities that grow over time
  (no forgetting), with closed-form accumulated attention;
* a satisficing search simulation where agents stop at the first item
  clearing a period-specific threshold drawn from distributions ordered
  by first-order stochastic dominance;
* a diffusion process in which an item enters consideration once its
  noisy saliency score clears a nonincreasing threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import AttentionRule, ChoiceDataset, Menu, SetEnumeration, enumerate_sets
from .core import _check_count, _check_probabilities, _check_tol
from .errors import ConfigurationError, ValidationError


def _norm_cdf(x: NDArray) -> NDArray:
    flat = np.asarray(x, dtype=np.float64).ravel()
    out = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in flat])
    return out.reshape(np.shape(x))


@dataclass(frozen=True)
class GammaSchedule:
    """Per-item consideration probabilities by period.

    ``gamma`` has shape (d_t, n) or (d_pref, d_t, n).  Columns must be
    nondecreasing in the period axis: once an item tends to be noticed, it
    stays noticed at least as often later (no forgetting).
    """

    gamma: NDArray[np.float64]

    def __post_init__(self):
        g = np.array(self.gamma, dtype=np.float64, copy=True)
        if g.ndim not in (2, 3):
            raise ValidationError("gamma must have shape (d_t, n) or (d_pref, d_t, n)")
        _check_probabilities(g, "consideration probabilities", sums=False)
        if np.any(np.diff(g, axis=-2) < -1e-12):
            raise ValidationError(
                "consideration probabilities must be nondecreasing over periods"
            )
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def d_t(self) -> int:
        return self.gamma.shape[-2]

    @property
    def n(self) -> int:
        return self.gamma.shape[-1]

    def per_pref(self, d_pref: int) -> NDArray[np.float64]:
        """(d_pref, d_t, n) view, tiling a shared schedule when needed."""
        if self.gamma.ndim == 3:
            if self.gamma.shape[0] != d_pref:
                raise ValidationError(
                    f"schedule has {self.gamma.shape[0]} preference layers, "
                    f"need {d_pref}"
                )
            return self.gamma
        return np.broadcast_to(self.gamma, (d_pref,) + self.gamma.shape)


def gen_topn(
    menu: Menu,
    d_t: int,
    search_order,
    d_pref: int = 1,
    outside_mode: bool = False,
) -> AttentionRule:
    """Deterministic fixed-order search: period t reveals the first t items.

    All mass sits on the prefix set of ``search_order`` of length
    ``min(t, n)`` (1-based periods), so accumulated attention can only fall
    over time.  In outside mode the outside item must be searched first.
    """
    order = [
        menu.index_of(x) if isinstance(x, str) else int(x) for x in search_order
    ]
    if sorted(order) != list(range(menu.n)):
        raise ValidationError("search_order must be a permutation of the menu")
    if outside_mode and order[0] != menu.outside_index:
        raise ConfigurationError(
            "outside mode requires the outside item to be searched first"
        )
    enum = enumerate_sets(menu, outside_mode=outside_mode)
    u = np.zeros((d_t, d_pref * enum.d_c))
    for t in range(d_t):
        depth = min(t + 1, menu.n)
        mask = 0
        for item in order[:depth]:
            mask |= 1 << item
        j = enum.index_of(mask)
        for i in range(d_pref):
            u[t, i * enum.d_c + j] = 1.0
    return AttentionRule(u=u, set_index=enum, d_pref=d_pref)


def gen_mm(
    menu: Menu, schedule: GammaSchedule, outside_mode: bool = False,
    d_pref: int | None = None,
) -> AttentionRule:
    """Independent per-item consideration with growing probabilities.

    Each item enters the consideration set independently with its scheduled
    probability; the attention mass of a set is the inclusion/exclusion
    product.  In outside mode the outside item's probability must be one in
    every period, which rules out the empty set and makes accumulated
    attention exactly the product of (1 - gamma) over excluded items, a
    nonincreasing quantity for nondecreasing schedules.

    Without an outside option the empty set has positive probability and
    the rule is renormalized over nonempty sets.  The renormalization can
    break time monotonicity (e.g. one item's probability rising sharply
    while another's stays flat), so only the outside-mode construction is
    guaranteed monotone.

    Raises:
        ValidationError: a period gives every item probability zero without
            an outside option (all mass on the empty set).
    """
    if schedule.n != menu.n:
        raise ValidationError("schedule width does not match the menu")
    if d_pref is None:
        d_pref = schedule.gamma.shape[0] if schedule.gamma.ndim == 3 else 1
    layers = schedule.per_pref(d_pref)
    d_pref = layers.shape[0]
    if outside_mode:
        if menu.outside_index is None:
            raise ConfigurationError("outside mode requires an outside option")
        if np.any(np.abs(layers[:, :, menu.outside_index] - 1.0) > 1e-12):
            raise ValidationError(
                "outside mode requires the outside item's consideration "
                "probability to be one in every period"
            )
    enum = enumerate_sets(menu, outside_mode=outside_mode)
    member = enum.member_matrix()  # (d_c, n)
    # mu[p, t, j] = prod_in gamma * prod_out (1 - gamma)
    g = layers[:, :, None, :]  # (d_pref, d_t, 1, n)
    factors = np.where(member[None, None, :, :], g, 1.0 - g)
    mu = factors.prod(axis=-1)  # (d_pref, d_t, d_c)
    if not outside_mode:
        p_empty = (1.0 - layers).prod(axis=-1)  # (d_pref, d_t)
        if np.any(p_empty > 1.0 - 1e-12):
            raise ValidationError(
                "a period leaves every item unconsidered; the empty "
                "consideration set is inadmissible"
            )
        mu = mu / (1.0 - p_empty)[:, :, None]
    u = mu.transpose(1, 0, 2).reshape(schedule.d_t, d_pref * enum.d_c)
    return AttentionRule(u=u, set_index=enum, d_pref=d_pref)


def mm_accumulation(
    schedule: GammaSchedule, enum: SetEnumeration, pref: int = 0
) -> NDArray[np.float64]:
    """Closed-form accumulated attention of the independent-consideration rule.

    Valid in outside mode (no empty-set renormalization): the probability
    that attention stays within a set equals the product of (1 - gamma)
    over the items outside it.  Shape (d_t, d_c).
    """
    layers = schedule.per_pref(max(pref + 1, 1))[pref]  # (d_t, n)
    member = enum.member_matrix()
    outside = ~member  # items excluded from each set
    g = layers[:, None, :]  # (d_t, 1, n)
    return np.where(outside[None, :, :], 1.0 - g, 1.0).prod(axis=-1)


class NormalThreshold:
    """Gaussian satisficing threshold."""

    def __init__(self, mean: float, sd: float):
        _check_tol(sd, "threshold sd", positive=True)
        self.mean = float(mean)
        self.sd = float(sd)

    def cdf(self, x: NDArray) -> NDArray:
        return _norm_cdf((np.asarray(x) - self.mean) / self.sd)

    def draw(self, rng: np.random.Generator, size: int) -> NDArray:
        return rng.normal(self.mean, self.sd, size=size)

    def grid(self) -> NDArray:
        return self.mean + self.sd * np.linspace(-8.0, 8.0, 129)


class FixedThreshold:
    """Degenerate satisficing threshold (point mass)."""

    def __init__(self, value: float):
        self.value = float(value)

    def cdf(self, x: NDArray) -> NDArray:
        return (np.asarray(x, dtype=np.float64) >= self.value).astype(np.float64)

    def draw(self, rng: np.random.Generator, size: int) -> NDArray:
        return np.full(size, self.value)

    def grid(self) -> NDArray:
        if not np.isfinite(self.value):
            return np.array([])
        return np.array([self.value - 1.0, self.value, self.value + 1.0])


@dataclass(frozen=True)
class SearchOrderDistribution:
    """A distribution over search orders (permutations of item indices)."""

    orders: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.orders) != len(self.probs):
            raise ValidationError("need one probability per search order")
        _check_probabilities(np.asarray(self.probs, dtype=float), "search-order probabilities")
        n = len(self.orders[0])
        for o in self.orders:
            if sorted(o) != list(range(n)):
                raise ValidationError("each search order must be a permutation")

    @classmethod
    def uniform(cls, n: int) -> "SearchOrderDistribution":
        import itertools

        perms = tuple(itertools.permutations(range(n)))
        return cls(perms, tuple(1.0 / len(perms) for _ in perms))

    def prob_first(self, item: int) -> float:
        """Probability that ``item`` is searched first."""
        return sum(p for o, p in zip(self.orders, self.probs) if o[0] == item)

    def prob_order(self, first: int, second: int) -> float:
        """Probability that ``first`` is searched immediately before ``second``
        at the head of the order."""
        return sum(
            p
            for o, p in zip(self.orders, self.probs)
            if o[0] == first and o[1] == second
        )


def _check_fosd(threshold_dists) -> None:
    """Later thresholds must first-order stochastically dominate earlier ones."""
    grid = np.unique(np.concatenate([np.asarray(d.grid()) for d in threshold_dists]))
    if grid.size == 0:
        return
    for t in range(len(threshold_dists) - 1):
        early = threshold_dists[t].cdf(grid)
        late = threshold_dists[t + 1].cdf(grid)
        if np.any(late > early + 1e-9):
            raise ConfigurationError(
                f"threshold distribution for period {t + 2} does not "
                f"first-order stochastically dominate period {t + 1}"
            )


def gen_satisficing(
    menu: Menu,
    utilities,
    threshold_dists,
    search_dist: SearchOrderDistribution,
    n_draws: int,
    seed: int | np.random.SeedSequence | None = None,
) -> tuple[AttentionRule, ChoiceDataset]:
    """Monte-Carlo simulation of satisficing search with timed stopping.

    For each period, agents draw a search order and a threshold from that
    period's distribution, inspect items in order, and stop at the first
    one whose utility clears the threshold (that item is also the best
    inspected so far, hence the choice).  Agents who exhaust the search
    consider everything and choose the utility maximum.  Periods model
    stopping-time regimes: the threshold distributions must be ordered by
    first-order stochastic dominance so that later stoppers are more
    demanding.

    Returns the empirical attention rule (one preference block; subject to
    Monte-Carlo noise) and the empirical choice dataset.
    """
    util = np.asarray(utilities, dtype=np.float64)
    if util.shape != (menu.n,):
        raise ValidationError("need one utility per menu item")
    if np.unique(util).size != menu.n:
        raise ValidationError("utilities must be strict (no ties)")
    n_draws = _check_count(n_draws, "n_draws", 1)
    _check_fosd(threshold_dists)
    d_t = len(threshold_dists)
    enum = enumerate_sets(menu, outside_mode=False)
    rng = np.random.default_rng(seed)
    orders = np.asarray(search_dist.orders, dtype=np.int64)
    # numpy's choice refuses the 1e-12 below zero that a distribution may have.
    order_p = np.maximum(np.asarray(search_dist.probs, dtype=np.float64), 0.0)
    best_item = int(np.argmax(util))

    mu = np.zeros((d_t, enum.d_c))
    pi = np.zeros((d_t, menu.n))
    counts = []
    for t, dist in enumerate(threshold_dists):
        perm = orders[rng.choice(orders.shape[0], size=n_draws, p=order_p)]
        tau = np.asarray(dist.draw(rng, n_draws), dtype=np.float64)
        u_seen = util[perm]  # (n_draws, n) utilities in search order
        above = u_seen >= tau[:, None]
        hit = above.any(axis=1)
        stop = np.where(hit, np.argmax(above, axis=1), menu.n - 1)
        # Consideration set = searched prefix through the stopping position.
        masks_by_pos = np.cumsum(1 << perm, axis=1)
        cmask = masks_by_pos[np.arange(n_draws), stop]
        choice = np.where(hit, perm[np.arange(n_draws), stop], best_item)
        mu[t] = np.bincount(cmask - 1, minlength=enum.d_c) / n_draws
        pi[t] = np.bincount(choice, minlength=menu.n) / n_draws
        counts.append(n_draws)
    rule = AttentionRule(u=mu, set_index=enum, d_pref=1)
    data = ChoiceDataset(pi=pi, period_counts=tuple(counts))
    return rule, data


def diffusion_schedule(
    menu: Menu,
    drifts,
    sigma: float,
    thresholds,
    d_t: int,
    outside_mode: bool = False,
) -> GammaSchedule:
    """Consideration probabilities from a saliency-diffusion process.

    An item's saliency follows a drift-plus-noise accumulation; it enters
    consideration at period t (time value t on an integer grid) when the
    accumulated score clears the item's threshold, giving consideration
    probability ``1 - Phi((threshold - drift * t) / (sqrt(t) * sigma))``.
    Nonnegative drifts and nonincreasing nonnegative thresholds guarantee
    the probabilities are nondecreasing over time; as with any
    independent-consideration schedule, the induced *rule* is guaranteed
    monotone in outside mode only (see :func:`gen_mm`).

    ``thresholds`` is a (d_t, n_free) array: row t - 1 holds the per-item
    thresholds at time value ``t``; ``n_free`` excludes the outside item in
    outside mode (it is pinned to certain consideration).

    Raises:
        ConfigurationError: a negative or non-finite drift or threshold, a
            sigma that is not finite and positive, or thresholds that
            increase over time and actually break the monotone schedule.
    """
    _check_tol(sigma, "sigma", positive=True, error=ConfigurationError)
    # A negative drift can push consideration probabilities down over time.
    drifts = np.asarray(drifts, dtype=np.float64)
    _check_tol(drifts, "drifts", error=ConfigurationError)
    n_free = drifts.shape[0]
    times = np.arange(1, d_t + 1, dtype=np.float64)
    tau = np.asarray(thresholds, dtype=np.float64)
    if tau.shape != (d_t, n_free):
        raise ConfigurationError(
            f"thresholds must have shape ({d_t}, {n_free}), got {tau.shape}"
        )
    _check_tol(tau, "saliency thresholds", error=ConfigurationError)
    increasing = bool(np.any(np.diff(tau, axis=0) > 1e-12))
    gamma_free = 1.0 - _norm_cdf(
        (tau - drifts[None, :] * times[:, None]) / (np.sqrt(times)[:, None] * sigma)
    )
    if outside_mode:
        if menu.outside_index is None:
            raise ConfigurationError("outside mode requires an outside option")
        if n_free != menu.n - 1:
            raise ConfigurationError(
                "outside mode expects drifts/thresholds for the non-outside items"
            )
        gamma = np.ones((d_t, menu.n))
        free_cols = [i for i in range(menu.n) if i != menu.outside_index]
        gamma[:, free_cols] = gamma_free
    else:
        if n_free != menu.n:
            raise ConfigurationError("need one drift per menu item")
        gamma = gamma_free
    try:
        return GammaSchedule(gamma)
    except ValidationError as exc:
        if increasing:
            raise ConfigurationError(
                "thresholds increase over time and the induced "
                "consideration probabilities are not monotone"
            ) from exc
        raise


def gen_diffusion(
    menu: Menu,
    drifts,
    sigma: float,
    thresholds,
    d_t: int,
    outside_mode: bool = False,
    d_pref: int = 1,
) -> AttentionRule:
    """Attention rule induced by the saliency-diffusion schedule."""
    schedule = diffusion_schedule(
        menu, drifts, sigma, thresholds, d_t, outside_mode=outside_mode
    )
    return gen_mm(menu, schedule, outside_mode=outside_mode, d_pref=d_pref)
