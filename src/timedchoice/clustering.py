"""Turning raw timed observations into a per-period choice dataset.

Observations that took literally zero seconds form their own first
period; the remaining stopping times are split into contiguous intervals
by exact 1-D k-means.  The one-dimensional problem admits an exact
dynamic program over sorted distinct values (Wang & Song, R Journal
2011), so the clustering is deterministic and free of initialization
artifacts.  For m distinct values and k clusters the program does
O(k·m²) arithmetic and holds O(k·m) tables.  It runs in blocks of
cluster ends, each scored against all its starts in a few numpy passes
over at most ``_BLOCK_CELLS`` cells, not in one pass per table cell.
Ties between equal-cost partitions always go to the earliest cluster
start, so a given input always yields the same partition.  Non-finite
times are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import ChoiceDataset, Menu, _check_count, _check_tol
from .errors import ValidationError

#: (end, start) cells that one block of :func:`kmeans_1d` scores at most, so
#: its two work arrays take 128 KiB each (one row of m doubles where a
#: single row is wider).
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class RawObservation:
    """One decision: who made it, how long it took, what was chosen."""

    respondent_id: str
    stopping_time: float
    choice: str

    def __post_init__(self):
        _check_tol(self.stopping_time, "stopping_time")


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
    distinct values (ties can never straddle a boundary).  The table cells
    go in blocks of consecutive ends: one broadcast over prefix sums gives
    the cost of every (start, end) cluster of a block, and each layer adds
    the previous layer's table to it and takes the row minima.  A block has
    at most ``_BLOCK_CELLS`` cells, and a row wider than that is a block of
    its own.  The work is O(k·m²) for m distinct values and the tables take
    O(k·m) memory.  Every candidate is the double that a per-cell scan
    computes, and among equal-cost candidates the earliest start wins.
    Returns the clusters as slices of the sorted values.

    Raises:
        ValidationError: a non-integer ``k`` or ``k < 1``, a non-finite value,
            an overflowing sum of squares, or fewer distinct values than clusters.
    """
    k = _check_count(k, "k", 1)
    values = np.sort(np.asarray(values, dtype=np.float64))
    if not np.isfinite(values).all():
        raise ValidationError("values must be finite")
    distinct, weights = np.unique(values, return_counts=True)
    m = distinct.size
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
    # last cluster being i..j-1 with i = back[c, j].
    dp = np.full((k + 1, m + 1), np.inf)
    back = np.zeros((k + 1, m + 1), dtype=int)
    # One cluster can only start at value 0 (dp[0, i] is inf for i >= 1), so
    # layer 1 is its cost from 0, all j at once, with back[1] = 0.
    sm = s1[1:] - s1[0]
    dp[1, 1:] = (s2[1:] - s2[0]) - sm * sm / (s0[1:] - s0[0])
    # Layers c >= 2 go in blocks of ends j0..j1-1 against starts 0..j1-2.  A
    # block's cluster costs are computed once and serve every layer in turn,
    # so layer c reads dp[c - 1] of the block's own rows after layer c - 1
    # has filled them.  Starts below c - 1 cost inf through dp[c - 1], and
    # starts i >= j, the upper triangle of the block's last r - 1 columns,
    # are set to inf; argmin keeps the first of tied minima.
    side = math.isqrt(_BLOCK_CELLS)
    upper = np.triu(np.ones((side, side), dtype=bool))
    rows = np.arange(side)
    size = max(_BLOCK_CELLS, m)
    cost_buf, a_buf = np.empty(size), np.empty(size)
    j0 = 2
    while k >= 2 and j0 <= m:
        # The most rows r with r * (j0 - 1 + r) <= _BLOCK_CELLS, so r <= side;
        # a row wider than the budget is a block of its own.
        r = max(1, min((math.isqrt((j0 - 1) ** 2 + 4 * _BLOCK_CELLS) - (j0 - 1)) // 2,
                       m + 1 - j0))
        j1 = j0 + r
        width = j1 - 1
        cost, a = (buf[: r * width].reshape(r, width) for buf in (cost_buf, a_buf))
        ends = slice(j0, j1)
        masked = upper[:r, : r - 1]
        np.subtract(s1[ends, None], s1[None, :width], out=a)
        np.subtract(s0[ends, None], s0[None, :width], out=cost)
        np.copyto(cost[:, j0:], 1.0, where=masked)  # no 0/0 in the masked cells
        np.multiply(a, a, out=a)
        np.divide(a, cost, out=a)
        np.subtract(s2[ends, None], s2[None, :width], out=cost)
        np.subtract(cost, a, out=cost)
        np.copyto(cost[:, j0:], np.inf, where=masked)
        for c in range(2, k + 1):
            np.add(cost, dp[c - 1, None, :width], out=a)
            arg = a.argmin(axis=1)
            dp[c, ends] = a[rows[:r], arg]
            back[c, ends] = arg
        j0 = j1
    # Backtrack boundaries in distinct-value space, then cut the sorted values
    # at the matching cumulative counts.
    cuts = [m]
    j = m
    for c in range(k, 0, -1):
        j = back[c, j]
        cuts.append(j)
    cuts.reverse()
    starts = np.concatenate([[0], np.cumsum(weights)])
    return [values[starts[a] : starts[b]] for a, b in zip(cuts[:-1], cuts[1:])]


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
        ValidationError: a non-integer ``k`` or ``k < 2``, no zero-time
            observations (unless ``allow_empty_first``), unknown choice labels,
            or fewer than ``k - 1`` distinct positive stopping times.
    """
    obs = list(observations)
    if not obs:
        raise ValidationError("no observations")
    k = _check_count(k, "the number of periods", 2)
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
        # Counted from sorted differences: np.unique without counts imports
        # numpy.ma, which adds about 1.5 MB to the process.
        n_distinct = 1 + np.count_nonzero(np.diff(np.sort(positive)))
        if n_distinct < k - 1:
            raise ValidationError(
                f"{k} periods need at least {k - 1} distinct positive stopping "
                f"times, found {n_distinct}"
            )
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
