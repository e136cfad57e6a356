"""Simulation-based estimation of the preference distribution.

The attention rule is a nuisance object living in a huge monotone
polytope, so it is not optimized over directly.  Instead a large number of
admissible rules is drawn at random; for each draw the preference
distribution solving the simplex-constrained least-squares fit to the
observed choice frequencies is computed, and the draw with the smallest
minimized distance wins.  With enough draws the pool covers a
neighborhood of the data-generating rule and the winning fit recovers the
preference distribution (exactly, when the design has full column rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .core import (
    AttentionRule,
    ChoiceDataset,
    Menu,
    OrderingSet,
    PreferenceDistribution,
    _check_count,
    enumerate_sets,
)
from .errors import SolverError, ValidationError
from .sampler import SamplerConfig, _child_states, _draw_rules, _seed_sequence
from .solvers import KKT_TOL, constrained_lstsq_batch, single_solution
from .transform import (
    ChoiceTransform,
    _check_compatible,
    build_choice_transform,
    design_matrix,
    design_matrix_batch,
)

# Not called here; bench/tracing.py looks it up in this module.
from .sampler import sample_attention_rule  # noqa: F401

#: Rules are sampled and solved in chunks of this many at a time.  The
#: batched solver's per-iteration overhead dominates on small problems, so
#: fewer, larger chunks are faster; this size solves a 1,000-rule pool at once.
CHUNK = 1024


@dataclass(frozen=True)
class EstimationResult:
    """Best-of-K bundle from :func:`estimate`.

    ``per_sim_distances`` holds the minimized squared distance of every
    draw (sampled draws first, injected extras after), with ``inf`` marking
    draws whose solve failed and was skipped.  ``seed`` echoes an integer
    sampler seed (NumPy integers included) and is ``None`` otherwise.
    """

    best_rule: AttentionRule
    best_p: PreferenceDistribution
    best_distance: float
    best_index: int
    per_sim_distances: NDArray[np.float64]
    n_sims: int
    seed: int | None
    failed_indices: tuple[int, ...] = ()

    def summary(self) -> str:
        lines = [
            f"simulated rules : {self.n_sims}"
            + (f" (+{len(self.per_sim_distances) - self.n_sims} injected)"
               if len(self.per_sim_distances) > self.n_sims else ""),
            f"best draw       : #{self.best_index}",
            f"best distance   : {self.best_distance:.6g}",
            "preference weights:",
        ]
        for i, w in enumerate(self.best_p.p):
            lines.append(f"  type {i}: {w:.5f}")
        return "\n".join(lines)


def solve_p(
    rule: AttentionRule,
    transform: ChoiceTransform,
    pi: ChoiceDataset,
) -> tuple[PreferenceDistribution, float]:
    """Best-fitting preference distribution for one attention rule.

    Minimizes the squared Euclidean distance between the model's choice
    frequencies and ``pi`` over the probability simplex.  Returns the
    minimizer and the minimized squared distance.

    Raises:
        ValidationError: the rule, transform and dataset do not fit together.
        SolverError: the KKT residual did not reach
            :data:`~timedchoice.solvers.KKT_TOL`; the error carries the ``p``
            array found and its residual.
    """
    _check_compatible(rule, transform, pi)
    m = design_matrix(rule, transform)
    p, distance = single_solution(constrained_lstsq_batch(m[None], pi.vec()), "the fit")
    return PreferenceDistribution(p), distance


class _Pool(NamedTuple):
    objectives: NDArray[np.float64]
    best_index: int
    best_p: NDArray[np.float64]
    best_rule: AttentionRule


def _score_pool(
    pi: ChoiceDataset,
    transform: ChoiceTransform,
    k: int,
    sampler_config: SamplerConfig,
    *,
    extra_rules: tuple[AttentionRule, ...] = (),
    weights: NDArray[np.float64] | None = None,
    lower: float = 0.0,
    sum_constraint: bool = True,
) -> _Pool:
    """Draw ``k`` rules, append ``extra_rules`` and fit every one to ``pi``.

    Draw i is sampled from child i of the sampler seed, so it depends only
    on the seed and i.  Each draw is scored by the (weighted) constrained
    least-squares objective; a draw whose KKT residual stays above
    :data:`~timedchoice.solvers.KKT_TOL` scores ``inf`` and can never win.
    Ties go to the earliest draw.

    Raises:
        ValidationError: ``k`` is not an integer or is below one, or the
            sampler's periods are not the dataset's.
        SolverError: no draw converged.
    """
    k = _check_count(k, "the number of simulations", 1)
    enum, d_pref, d_t = transform.sets, transform.d_pref, sampler_config.d_t
    if d_t != pi.d_t:
        raise ValidationError(f"sampler is configured for {d_t} periods, dataset has {pi.d_t}")
    # Built once per pool: SeedSequence(None) draws fresh entropy each time.
    root = _seed_sequence(sampler_config.seed)
    b = pi.vec()
    n = k + len(extra_rules)
    objectives = np.full(n, np.inf)
    # One draw buffer, reused by every chunk; the winner copies its rows.
    buffer = np.empty((min(n, CHUNK), d_t, d_pref, enum.d_c))
    best_obj, best_index, best_p, best_rule = np.inf, -1, None, None
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        blocks = buffer[: stop - start]
        drawn = max(0, min(stop, k) - start)
        states = _child_states(root, root.n_children_spawned + start, drawn)
        _draw_rules(enum, d_pref, sampler_config, states, blocks[:drawn])
        for row, rule in zip(blocks[drawn:], extra_rules[max(start - k, 0) :]):
            row[...] = rule.blocks()
        ms = design_matrix_batch(blocks, transform)
        p, obj, res = constrained_lstsq_batch(
            ms, b, weights=weights, lower=lower, sum_constraint=sum_constraint
        )
        obj = np.where(res <= KKT_TOL, obj, np.inf)
        objectives[start:stop] = obj
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj, best_index, best_p = obj[j], start + j, p[j]
            best_rule = (
                extra_rules[best_index - k] if best_index >= k
                else AttentionRule(u=blocks[j].reshape(d_t, -1), set_index=enum, d_pref=d_pref)
            )
    if best_rule is None:
        raise SolverError("every simulated rule failed to solve")
    return _Pool(objectives, best_index, best_p, best_rule)


def estimate(
    pi: ChoiceDataset,
    menu: Menu,
    orderings: OrderingSet,
    k: int,
    sampler_config: SamplerConfig,
    *,
    extra_rules: tuple[AttentionRule, ...] = (),
) -> EstimationResult:
    """Best-of-K simulation estimator of the preference distribution.

    Draws ``k`` attention rules (deterministically from the sampler seed;
    draw i depends only on the seed and i, so results for nested budgets
    share their common prefix), fits each by constrained least squares and
    returns the minimizer.  ``extra_rules`` are appended to the candidate
    pool after the sampled draws, which is useful for injecting known
    candidates.  A draw whose solve fails is recorded and skipped; only a
    fully failed pool raises.
    """
    enum = enumerate_sets(menu, outside_mode=sampler_config.outside_mode)
    transform = build_choice_transform(menu, enum, orderings)
    for rule in extra_rules:
        _check_compatible(rule, transform, pi)
    pool = _score_pool(pi, transform, k, sampler_config, extra_rules=extra_rules)
    seed = sampler_config.seed
    return EstimationResult(
        best_rule=pool.best_rule,
        best_p=PreferenceDistribution(pool.best_p),
        best_distance=float(pool.objectives[pool.best_index]),
        best_index=pool.best_index,
        per_sim_distances=pool.objectives,
        n_sims=k,
        seed=int(seed) if isinstance(seed, Integral) else None,
        failed_indices=tuple(np.flatnonzero(np.isinf(pool.objectives)).tolist()),
    )
