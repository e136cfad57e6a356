"""Expected-utility ranking of lotteries under constant relative risk aversion.

Ranking a fixed family of lotteries by expected CRRA utility partitions
the risk-aversion axis into intervals, each carrying one strict ordering.
:func:`crra_ordering_table` locates the interval boundaries by scanning a
grid and bisecting each ordering change, which is how the candidate
preference types for the bundled lottery-choice experiment are derived.

At the log-utility point (sigma = 1) lotteries with a zero payoff have
utility negative infinity; ranks there are taken as the limit from below,
which orders lotteries first by their probability of a positive payoff
and then by expected log payoff on the positive part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Menu, OrderingSet, PreferenceOrdering
from .core import _as_floats, _check_probabilities, _check_tol
from .errors import CutoffTieError, ValidationError


@dataclass(frozen=True)
class Lottery:
    """A finite-support lottery over nonnegative token payoffs."""

    label: str
    outcomes: tuple[tuple[float, float], ...]  # (payoff, probability)

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValidationError(f"a lottery label must be a string, got {self.label!r}")
        outs = _as_floats(self.outcomes, "lottery outcomes")
        if outs.ndim != 2 or outs.shape[1] != 2 or not outs.size:
            raise ValidationError(
                f"a lottery needs (payoff, probability) pairs, got {self.outcomes!r}"
            )
        _check_tol(outs[:, 0], "payoffs")
        _check_probabilities(outs[:, 1], "outcome probabilities")
        # Python floats: utility_key sums over them at every grid point.
        object.__setattr__(self, "outcomes", tuple(map(tuple, outs.tolist())))

    @property
    def expectation(self) -> float:
        return sum(x * q for x, q in self.outcomes)

    @property
    def variance(self) -> float:
        e = self.expectation
        return sum(x * x * q for x, q in self.outcomes) - e * e


def utility_key(lottery: Lottery, sigma: float):
    """Sort key ordering lotteries by expected CRRA utility at ``sigma``.

    For sigma < 1 this is the expected utility itself.  At sigma = 1 it is
    the lexicographic pair (probability of positive payoff, expected log
    payoff over positive outcomes), the limit ordering from below; for
    zero-free lotteries the pair reduces to expected log utility.
    """
    if sigma == 1.0:
        q_pos = sum(q for x, q in lottery.outcomes if x > 0)
        log_part = sum(q * math.log(x) for x, q in lottery.outcomes if x > 0)
        return (q_pos, log_part)
    s = 1.0 - sigma
    return (sum(q * x**s / s for x, q in lottery.outcomes),)


def crra_rank(lotteries, sigma: float) -> PreferenceOrdering:
    """Strict ordering of ``lotteries`` by descending expected CRRA utility.

    Indices in the returned ordering refer to positions in ``lotteries``.

    Raises:
        ValidationError: sigma outside [-1, 1].
        CutoffTieError: two lotteries tie exactly (sigma sits on a cutoff).
    """
    if not (-1.0 <= sigma <= 1.0):
        raise ValidationError("sigma must lie in [-1, 1]")
    lots = list(lotteries)
    keys = [utility_key(l, sigma) for l in lots]
    order = sorted(range(len(lots)), key=lambda i: keys[i], reverse=True)
    ties = [
        (lots[order[j]].label, lots[order[j + 1]].label)
        for j in range(len(order) - 1)
        if keys[order[j]] == keys[order[j + 1]]
    ]
    if ties:
        raise CutoffTieError(sigma, ties)
    return PreferenceOrdering(tuple(order))


@dataclass(frozen=True)
class OrderingInterval:
    """A maximal risk-aversion interval carrying one strict ordering."""

    lo: float
    hi: float
    ordering: PreferenceOrdering


#: Grid spacing and bisection width of :func:`crra_ordering_table`.
GRID_STEP = 1e-4
CUTOFF_TOL = 1e-6


def crra_ordering_table(lotteries) -> tuple[OrderingInterval, ...]:
    """Partition the risk-aversion range [-1, 1] into constant-ordering intervals.

    Scans a grid of at most :data:`GRID_STEP` spacing, then bisects every
    ordering change down to :data:`CUTOFF_TOL`.  Interval endpoints are the
    located cutoffs; the first and last endpoints are -1 and 1.
    """
    lo, hi = -1.0, 1.0

    def ordering_at(s: float) -> PreferenceOrdering:
        # Nudge off exact ties, toward the interior at the upper end; the
        # grid never lands on one generically.
        try:
            return crra_rank(lotteries, s)
        except CutoffTieError:
            nudge = CUTOFF_TOL * 0.5
            return crra_rank(lotteries, s + nudge if s + nudge <= hi else s - nudge)

    steps = math.ceil((hi - lo) / GRID_STEP)
    grid = np.linspace(lo, hi, steps + 1)
    intervals: list[OrderingInterval] = []
    cur_lo = lo
    cur_ord = ordering_at(lo)
    for a, b in zip(grid[:-1], grid[1:]):
        ord_b = ordering_at(b)
        if ord_b == cur_ord:
            continue
        left, right = float(a), float(b)
        while right - left > CUTOFF_TOL:
            mid = 0.5 * (left + right)
            if ordering_at(mid) == cur_ord:
                left = mid
            else:
                right = mid
        cut = 0.5 * (left + right)
        intervals.append(OrderingInterval(cur_lo, cut, cur_ord))
        cur_lo, cur_ord = cut, ordering_at(right)
    intervals.append(OrderingInterval(cur_lo, hi, cur_ord))
    return tuple(intervals)


# ---------------------------------------------------------------------------
# Bundled experiment: five lotteries plus a certain outside payment.
# Payoffs are in tokens.  The mixture structure is deliberate: lottery 3 is
# an even mixture of lotteries 1 and 2, and lottery 5 equals lottery 4 plus
# half the (signed) difference between lotteries 2 and 1, so several
# expected-utility crossings coincide and exactly six orderings of the five
# risky lotteries appear on sigma in [-1, 1].
# ---------------------------------------------------------------------------

def experiment_lotteries(include_outside: bool = True) -> tuple[Lottery, ...]:
    """The bundled experiment's lotteries, in menu column order."""
    lots = (
        Lottery("l1", ((50, 0.5), (0, 0.5))),
        Lottery("l2", ((30, 0.5), (10, 0.5))),
        Lottery("l3", ((50, 0.25), (30, 0.25), (10, 0.25), (0, 0.25))),
        Lottery("l4", ((50, 0.25), (48, 0.2), (14, 0.15), (0, 0.4))),
        Lottery(
            "l5", ((48, 0.2), (30, 0.25), (14, 0.15), (10, 0.25), (0, 0.15))
        ),
    )
    if include_outside:
        lots = lots + (Lottery("lO", ((12, 1.0),)),)
    return lots


def experiment_menu() -> Menu:
    """Menu of the bundled experiment: five lotteries and the sure payment."""
    return Menu(items=("l1", "l2", "l3", "l4", "l5", "lO"), outside_index=5)


def crra_ordering_set(
    include_outside_in_ranking: bool = False,
) -> tuple[OrderingSet, tuple[OrderingInterval, ...]]:
    """Candidate preference types for the bundled experiment.

    With the default outside-option treatment, the five risky lotteries are
    ranked by CRRA expected utility on sigma in [-1, 1] (six distinct
    orderings) and the sure payment is appended as everyone's least
    preferred item.  With ``include_outside_in_ranking`` the sure payment
    competes in the ranking, which yields more orderings because its
    position moves within the risky lotteries' intervals.

    Returns the ordering set over the six menu items together with the
    risk-aversion intervals that generated it.
    """
    intervals = crra_ordering_table(
        experiment_lotteries(include_outside=include_outside_in_ranking)
    )
    # Left out of the ranking, the sure payment is everyone's last choice.
    last = () if include_outside_in_ranking else (experiment_menu().outside_index,)
    ranks = dict.fromkeys(iv.ordering.rank + last for iv in intervals)  # first-seen order
    return OrderingSet(tuple(PreferenceOrdering(rank) for rank in ranks)), intervals
