"""Revealed-preference elimination under a single common preference.

When everyone shares one strict ordering and attention only grows with
time, the total choice probability of any lower-contour set (an item and
everything ranked below it) cannot rise between an earlier and a later
stopping-time period.  A candidate ordering is rejected as soon as one of
its contour sums increases; the orderings that survive every comparison
are exactly the ones consistent with the data.

The search over orderings prunes on shared prefixes: placing the first k
items of a candidate already fixes its k largest contour sets, so a violated
prefix removes (n-k)! candidates at once without changing the answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ChoiceDataset, Menu, PreferenceOrdering, _check_tol
from .errors import ValidationError

#: Tolerance added to the strict inequality test on exact data.
REJECTION_TOL = 1e-9


@dataclass(frozen=True)
class RejectionWitness:
    """A contour comparison that failed for a candidate ordering.

    ``tail`` holds the offending lower-contour set: the items from 0-based
    rank position ``position`` downward.  Its choice mass rose from
    ``sum_early`` (period ``t``) to ``sum_late`` (period ``t_prime``).
    ``item`` is the contour's top item when the candidate fixes it (a full
    ordering) and ``None`` when only a prefix was placed.
    """

    position: int
    tail: tuple[int, ...]
    t: int
    t_prime: int
    sum_early: float
    sum_late: float
    item: int | None = None


@dataclass(frozen=True)
class NeverChosenWitness:
    """A prefix placed a never-chosen item above items that are chosen."""

    item: int
    position: int
    chosen_below: tuple[int, ...]


@dataclass(frozen=True)
class RejectedPrefix:
    """An ordering prefix eliminated by the search, with its witness."""

    prefix: tuple[int, ...]
    witness: RejectionWitness | NeverChosenWitness


@dataclass(frozen=True)
class SurvivorReport:
    """Outcome of :func:`survivor_search`.

    Every ordering of the menu either appears in ``survivors`` or extends
    one of the ``rejected`` prefixes.  ``vacuous`` marks the degenerate
    single-period case where no comparison exists and everything survives.
    """

    survivors: tuple[PreferenceOrdering, ...]
    rejected: tuple[RejectedPrefix, ...]
    vacuous: bool = False


def lower_contour_sum(
    pi: ChoiceDataset, ordering: PreferenceOrdering, item: int, t: int
) -> float:
    """Choice mass at period ``t`` of ``item`` and everything ranked below it.

    The contour is inclusive: it contains ``item`` itself.  For the
    top-ranked item it is the whole menu and the sum is one at every period.
    """
    if ordering.n != pi.n:
        raise ValidationError("ordering does not match dataset width")
    pos = ordering.position(item)
    tail = ordering.rank[pos:]
    return float(pi.pi[t, list(tail)].sum())


def rejection_test(
    pi: ChoiceDataset, ordering: PreferenceOrdering, tol: float = REJECTION_TOL
) -> RejectionWitness | None:
    """Test one candidate ordering against every contour comparison.

    Returns ``None`` when the ordering survives, otherwise a witness for
    the first inclusive lower-contour set whose choice mass rises by more
    than ``tol`` between two ordered periods.

    Raises:
        ValidationError: fewer than two periods (no comparisons exist, so
            every ordering would survive vacuously), or ``tol`` is
            negative, infinite or NaN.
    """
    _check_tol(tol)
    if pi.d_t < 2:
        raise ValidationError(
            "rejection test needs at least two periods; with one period "
            "every ordering survives vacuously"
        )
    if ordering.n != pi.n:
        raise ValidationError("ordering does not match dataset width")
    # tails[k] = choice mass of the contour starting at rank position k.
    cols = list(ordering.rank)
    tail_sums = np.cumsum(pi.pi[:, cols][:, ::-1], axis=1)[:, ::-1]
    for k in range(1, ordering.n):  # position 0 is the full row, always 1
        witness = _first_rise(tail_sums[:, k], tol, k, ordering.rank[k:], ordering.rank[k])
        if witness is not None:
            return witness
    return None


def _first_rise(sums, tol, position, tail, item=None) -> RejectionWitness | None:
    """The witness of the first period pair over which ``sums`` rises by more than ``tol``.

    ``sums`` is the per-period choice mass of the contour ``tail`` (any
    sequence of items, made a tuple only for a witness); ``position`` and
    ``item`` are as in :class:`RejectionWitness`.
    """
    d_t = sums.shape[0]
    for t in range(d_t - 1):
        for tp in range(t + 1, d_t):
            if sums[tp] > sums[t] + tol:
                return RejectionWitness(
                    position, tuple(tail), t, tp, float(sums[t]), float(sums[tp]), item
                )
    return None


def survivor_search(
    pi: ChoiceDataset,
    menu: Menu,
    never_chosen_rule: bool = True,
    tol: float = REJECTION_TOL,
) -> SurvivorReport:
    """Enumerate the orderings surviving every contour comparison.

    Performs a depth-first search over ordering prefixes: appending an item
    fixes the contour set of everything not yet placed, whose per-period
    choice mass must be nonincreasing.  Pruned prefixes are reported with
    witnesses; the surviving set is identical to brute-force testing of all
    n! orderings.

    With ``never_chosen_rule`` on (the default), an item that is never
    chosen in any period additionally may not be placed while some item
    that *is* chosen remains unplaced.  This sharpening matches how a
    never-chosen item is treated in worked eliminations, but it is not
    implied by the contour inequalities themselves: data generated with a
    never-considered yet highly ranked item would violate it.  Disable the
    flag for a test that is sound against every data-generating rule.
    """
    _check_tol(tol)
    if pi.n != menu.n:
        raise ValidationError("dataset width does not match menu size")
    if menu.n > 8:
        raise ValidationError("survivor search enumerates n! orderings; capped at 8")
    if pi.d_t < 2:
        surv = tuple(
            PreferenceOrdering(p) for p in itertools.permutations(range(menu.n))
        )
        return SurvivorReport(survivors=surv, rejected=(), vacuous=True)

    n = menu.n
    never_chosen = [bool(np.all(pi.pi[:, x] <= tol)) for x in range(n)]
    survivors: list[PreferenceOrdering] = []
    rejected: list[RejectedPrefix] = []

    def extend(prefix: list[int], remaining: list[int], tail_sums: np.ndarray):
        # tail_sums: per-period choice mass of ``remaining`` (the contour
        # set determined by the prefix placed so far).
        if not remaining:
            survivors.append(PreferenceOrdering(tuple(prefix)))
            return
        for x in list(remaining):
            rest = [y for y in remaining if y != x]
            if never_chosen_rule and never_chosen[x]:
                chosen_below = tuple(y for y in rest if not never_chosen[y])
                if chosen_below:
                    rejected.append(
                        RejectedPrefix(
                            prefix=tuple(prefix + [x]),
                            witness=NeverChosenWitness(
                                item=x,
                                position=len(prefix),
                                chosen_below=chosen_below,
                            ),
                        )
                    )
                    continue
            new_sums = tail_sums - pi.pi[:, x]
            if (witness := _first_rise(new_sums, tol, len(prefix) + 1, rest)) is not None:
                rejected.append(RejectedPrefix(prefix=tuple(prefix + [x]), witness=witness))
                continue
            extend(prefix + [x], rest, new_sums)

    extend([], list(range(n)), np.ones(pi.d_t))
    return SurvivorReport(survivors=tuple(survivors), rejected=tuple(rejected))
