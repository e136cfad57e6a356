"""Turning raw timed observations into a per-period choice dataset.

Observations that took literally zero seconds form their own first
period; the remaining stopping times are split into contiguous intervals
by exact 1-D k-means.  The one-dimensional problem admits an exact
dynamic program over sorted distinct values (Wang & Song, R Journal
2011), so the clustering is deterministic and free of initialization
artifacts.  For m distinct values and k clusters the program does
O(k·m²) arithmetic in k·m vectorised passes and holds O(k·m) memory;
ties between equal-cost partitions always go to the earliest cluster
start, so a given input always yields the same partition.  Non-finite
times are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import ChoiceDataset, Menu
from .errors import ValidationError


@dataclass(frozen=True)
class RawObservation:
    """One decision: who made it, how long it took, what was chosen."""

    respondent_id: str
    stopping_time: float
    choice: str

    def __post_init__(self):
        if not np.isfinite(self.stopping_time) or self.stopping_time < 0:
            raise ValidationError("stopping_time must be finite and nonnegative")


@dataclass(frozen=True)
class TimeClustering:
    """Period structure produced by :func:`cluster_times`.

    ``bounds[k]`` is the half-open stopping-time interval of period k
    (period 0 is the zero-time period); ``centroids`` are the positive-time
    cluster means, and ``assignments`` maps each observation to its period.
    """

    bounds: tuple[tuple[float, float], ...]
    centroids: tuple[float, ...]
    assignments: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.bounds)


def kmeans_1d(values: NDArray, k: int) -> list[NDArray]:
    """Exact k-means on one-dimensional data.

    Optimal clusters of 1-D data are contiguous runs of the sorted values,
    so the globally optimal partition is found by dynamic programming over
    distinct values (ties can never straddle a boundary).  Each of the
    k·m table cells scores all its candidate cluster starts in one numpy
    pass over prefix sums, so the work is O(k·m²) for m distinct values and
    the tables take O(k·m) memory.  Among equal-cost candidates the earliest
    start wins.  Returns the clusters as sorted arrays.

    Raises:
        ValidationError: a non-finite value, values whose sum of squares
            overflows, ``k < 1``, or fewer distinct values than clusters.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    if not np.isfinite(values).all():
        raise ValidationError("values must be finite")
    distinct, weights = np.unique(values, return_counts=True)
    m = distinct.size
    if k < 1:
        raise ValidationError("k must be positive")
    if m < k:
        raise ValidationError(f"need at least {k} distinct values, have {m}")

    # Prefix sums for O(1) within-cluster cost queries.
    w = weights.astype(np.float64)
    with np.errstate(over="ignore"):
        s0 = np.concatenate([[0.0], np.cumsum(w)])
        s1 = np.concatenate([[0.0], np.cumsum(w * distinct)])
        s2 = np.concatenate([[0.0], np.cumsum(w * distinct * distinct)])
        # Every sm*sm below is at most s0[-1] * s2[-1] (Cauchy-Schwarz), so
        # when that is finite no cost overflows and no candidate is NaN.
        total = s0[-1] * s2[-1]
    if not np.isfinite(total):
        raise ValidationError("values too large: the sum of squares overflows")

    # dp[c, j]: least cost of c clusters over distinct values 0..j-1, the
    # last cluster being i..j-1 with i = back[c, j].  Each cell scores all
    # starts i in one pass; argmin keeps the first of tied minima.
    dp = np.full((k + 1, m + 1), np.inf)
    back = np.zeros((k + 1, m + 1), dtype=int)
    dp[0, 0] = 0.0
    for c in range(1, k + 1):
        for j in range(c, m + 1):
            sm = s1[j] - s1[c - 1 : j]
            cand = (
                (s2[j] - s2[c - 1 : j]) - sm * sm / (s0[j] - s0[c - 1 : j])
                + dp[c - 1, c - 1 : j]
            )
            arg = int(np.argmin(cand))
            dp[c, j] = cand[arg]
            back[c, j] = c - 1 + arg
    # Backtrack boundaries in distinct-value space.
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


def cluster_times(
    observations,
    menu: Menu,
    k: int,
    *,
    allow_empty_first: bool = False,
) -> tuple[TimeClustering, ChoiceDataset]:
    """Cluster observations into ``k`` periods and tabulate choices.

    Period 1 contains exactly the zero-time observations; the positive
    stopping times are split into ``k - 1`` contiguous intervals by exact
    1-D k-means with centroids in ascending order.  Each period's row of
    the returned dataset holds the empirical choice frequencies of its
    observations, and the per-period counts are recorded.

    If every observation took zero seconds the result collapses to the
    single zero-time period.

    Raises:
        ValidationError: no zero-time observations (unless
            ``allow_empty_first``), unknown choice labels, or fewer
            distinct positive times than clusters.
    """
    obs = list(observations)
    if not obs:
        raise ValidationError("no observations")
    if k < 2:
        raise ValidationError("need at least two periods")
    items = np.array([menu.index_of(o.choice) for o in obs])

    times = np.array([o.stopping_time for o in obs])
    zero = times == 0.0
    if not zero.any() and not allow_empty_first:
        raise ValidationError(
            "no zero-time observations for the first period; pass "
            "allow_empty_first to proceed without one"
        )
    positive = times[~zero]

    if positive.size == 0:
        assignments = np.zeros(len(obs), dtype=int)
        bounds = ((0.0, 0.0),)
        centroids: tuple[float, ...] = ()
    else:
        clusters = kmeans_1d(positive, k - 1)
        edges = tuple((float(cl.min()), float(cl.max())) for cl in clusters)
        centroids = tuple(float(cl.mean()) for cl in clusters)
        # Period of a positive time: the first cluster whose upper edge is at
        # least the time, the last cluster catching anything above.
        upper = np.array([hi for _, hi in edges])
        period = np.minimum(np.searchsorted(upper, times), len(edges) - 1) + 1
        assignments = np.where(zero, 0, period)
        bounds = ((0.0, 0.0),) + edges

    d_t = len(bounds)
    counts = np.bincount(assignments, minlength=d_t)
    pi = (
        np.bincount(assignments * menu.n + items, minlength=d_t * menu.n)
        .reshape(d_t, menu.n)
        .astype(np.float64)
    )
    if not allow_empty_first and counts[0] == 0:
        raise ValidationError("first period is empty")
    empty = counts == 0
    if empty.any():
        # An empty period carries no information; give it a uniform row so
        # the dataset stays row-stochastic, with a zero count marking it.
        pi[empty] = 1.0 / menu.n
        with np.errstate(invalid="ignore"):
            pi[~empty] /= counts[~empty, None]
    else:
        pi /= counts[:, None]
    labels = ["t=0"] + [f"({lo:g}..{hi:g})" for lo, hi in bounds[1:]]
    clustering = TimeClustering(
        bounds=bounds,
        centroids=centroids,
        assignments=tuple(int(a) for a in assignments),
    )
    dataset = ChoiceDataset(
        pi=pi, period_counts=tuple(int(c) for c in counts),
        period_labels=tuple(labels),
    )
    return clustering, dataset
