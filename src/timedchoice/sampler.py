"""Random generation of attention rules that respect time monotonicity.

Each preference block is grown as a chain of attention rows.  A step
perturbs the current row along a random direction whose accumulated
(subset-sum) image is nonpositive everywhere and zero on the full menu;
any nonnegative step size then moves every accumulated coordinate weakly
down while preserving total mass, so the stacked rows satisfy the
monotonicity requirement by construction.  The step size is drawn
uniformly from the interval keeping every set probability inside [0, 1].

Directions are drawn in accumulated space (independent negative
half-normal coordinates on proper subsets) and mapped back by Moebius
inversion, which guarantees the sign structure without rejection.  Draws
whose feasible step interval collapses to zero are redrawn a bounded
number of times; rows that still cannot move (typical when many
coordinates sit on the boundary) take a guaranteed-feasible fallback
that shifts mass from each loaded set onto a few of its strict
supersets, which is always a monotone move.

A pool of rules draws rule ``i`` from child ``i`` of the configured seed
(see :func:`child_seeds`), so a pool is reproducible for integer and
:class:`numpy.random.SeedSequence` seeds alike and a larger pool extends a
smaller one without changing its draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .core import (
    AttentionRule,
    Menu,
    OrderingSet,
    SetEnumeration,
    enumerate_sets,
    moebius_inverse,
    zeta_transform,
)
from .errors import ConfigurationError, ValidationError

#: Step intervals shorter than this count as degenerate.
GAMMA_FLOOR = 1e-12

#: Constructive redraws allowed before the superset-spread fallback kicks in.
#: Draws only fail on rows with boundary coordinates, so a small budget suffices.
MAX_DIRECTION_RETRIES = 8

#: Superset-spread moves feed at most this many target sets per donor.
FALLBACK_MAX_TARGETS = 3


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration of the attention-rule sampler.

    Attributes:
        d_t: number of periods (chain length including the initial row).
        seed: RNG seed or :class:`numpy.random.SeedSequence`.
        outside_mode: enumerate only sets containing the menu's outside
            item and start every chain from the outside-only row; otherwise
            all nonempty sets are enumerated and each preference block
            starts from an independent uniform draw on the probability
            simplex over sets (a deterministic function of the seed).
        initial_row: optional explicit starting row over the enumeration
            (overrides the mode default for every block).
    """

    d_t: int
    seed: int | np.random.SeedSequence | None = None
    outside_mode: bool = True
    initial_row: NDArray[np.float64] | None = None

    def __post_init__(self):
        if self.d_t < 1:
            raise ConfigurationError("d_t must be at least 1")
        if self.initial_row is not None:
            row = np.asarray(self.initial_row, dtype=np.float64)
            if row.ndim != 1 or np.any(row < 0) or abs(row.sum() - 1.0) > 1e-9:
                raise ConfigurationError(
                    "initial_row must be a probability vector over the "
                    "canonical set enumeration"
                )
            object.__setattr__(self, "initial_row", row)


@dataclass(frozen=True)
class StepResult:
    """One chain move: the next row, the step size, and a degeneracy flag."""

    row: NDArray[np.float64]
    gamma: float
    degenerate: bool


def initial_row_outside(menu: Menu) -> NDArray[np.float64]:
    """Starting row in outside mode: all mass on the outside-only set.

    The outside-only singleton is index 0 of the canonical enumeration, so
    this is the unit vector e_0 of length ``2**(n-1)``.
    """
    if menu.outside_index is None:
        raise ConfigurationError("menu has no outside option configured")
    enum = enumerate_sets(menu, outside_mode=True)
    row = np.zeros(enum.d_c)
    row[0] = 1.0
    return row


def initial_row_singletons(menu: Menu) -> NDArray[np.float64]:
    """Starting row without an outside option: uniform over singletons."""
    enum = enumerate_sets(menu, outside_mode=False)
    row = np.zeros(enum.d_c)
    for i in range(menu.n):
        row[enum.index_of(1 << i)] = 1.0 / menu.n
    return row


@lru_cache(maxsize=64)
def _superset_matrix(enum_key: tuple[int, bool]) -> NDArray:
    """Boolean (d_c, d_c) matrix: [j, s] = enumerated set s strictly contains j."""
    n_bits, outside = enum_key
    full = 1 << n_bits
    offset = 0 if outside else 1
    d_c = full - offset
    out = np.zeros((d_c, d_c), dtype=bool)
    for j in range(d_c):
        rj = j + offset
        for s in range(d_c):
            rs = s + offset
            out[j, s] = rs != rj and (rs & rj) == rj
    out.setflags(write=False)
    return out


def _lattice_index(enum: SetEnumeration, j: int) -> int:
    """Map an enumeration index to its reduced lattice mask."""
    return j if (1 << enum.n_bits) == enum.d_c else j + 1


def _superset_transfer(states, enum, rng, stuck):
    """Guaranteed-feasible directions: spread mass onto strict supersets.

    Shifting probability from a set onto its strict supersets can only
    lower accumulated attention (on the sets separating donor from
    target), so a random nonnegative combination of such transfers is a
    monotone direction with a positive feasible step whenever some
    non-full set carries mass.  Used when random accumulated-space draws
    keep hitting a zero feasible interval, which is the norm at sparse
    rows where most coordinates sit on the boundary.

    Each donor feeds at most :data:`FALLBACK_MAX_TARGETS` supersets.
    Spreading any wider leaves every coordinate barely positive, after
    which all subsequent feasible steps are microscopic and the chain's
    rows barely change across periods.
    """
    outside = (1 << enum.n_bits) == enum.d_c
    sup = _superset_matrix((enum.n_bits, outside))
    sub = states[stuck]  # (q, d_c)
    q, d_c = sub.shape
    donors = sub > GAMMA_FLOOR  # (q, d_c); full set has no supersets anyway
    receivers = sub < 1.0 - GAMMA_FLOOR
    # admissible[i, j, s]: donor j may send mass to its strict superset s
    admissible = donors[:, :, None] & receivers[:, None, :] & sup[None, :, :]
    w = rng.uniform(size=(q, d_c, d_c)) * admissible
    if d_c > FALLBACK_MAX_TARGETS:
        cut = np.sort(w, axis=2)[:, :, -FALLBACK_MAX_TARGETS][:, :, None]
        w = np.where(w >= np.maximum(cut, 1e-300), w, 0.0)
    totals = w.sum(axis=2, keepdims=True)
    live = totals[:, :, 0] > 0.0
    np.divide(w, totals, out=w, where=totals > 0)
    outflow = rng.uniform(0.2, 1.0, size=(q, d_c)) * live
    w *= outflow[:, :, None]
    direction = w.sum(axis=1) - outflow  # inflow minus outflow per set
    neg = direction < -GAMMA_FLOOR
    pos = direction > GAMMA_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(neg, sub / np.where(neg, -direction, 1.0), np.inf)
        hi = np.where(pos, (1.0 - sub) / np.where(pos, direction, 1.0), np.inf)
    gmax = np.minimum(lo.min(axis=1), hi.min(axis=1))
    bad = ~np.isfinite(gmax) | ~live.any(axis=1)
    gmax[bad] = 0.0  # only the full-menu vertex carries mass: absorbing
    direction[bad] = 0.0
    return direction, gmax


def _draw_directions(states, enum, rng):
    """Candidate directions and their feasible step bounds for each row."""
    b, d_c = states.shape
    psi = -np.abs(rng.normal(size=(b, d_c)))
    psi[:, enum.full_index] = 0.0
    xi = moebius_inverse(psi, enum)
    neg = xi < -GAMMA_FLOOR
    pos = xi > GAMMA_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        bound_lo = np.where(neg, states / np.where(neg, -xi, 1.0), np.inf)
        bound_hi = np.where(pos, (1.0 - states) / np.where(pos, xi, 1.0), np.inf)
    gmax = np.minimum(bound_lo.min(axis=1), bound_hi.min(axis=1))
    gmax[~np.isfinite(gmax)] = 0.0  # no binding constraint: null direction
    return xi, gmax


def _step_rows(states, enum, rng):
    """Advance a stack of rows one period; returns (rows, gammas, degenerate)."""
    b, d_c = states.shape
    xi = np.zeros((b, d_c))
    gmax = np.zeros(b)
    # Random accumulated-space draws only clear the feasibility bound when
    # few coordinates sit on the boundary; rows with many zeros go straight
    # to the superset-spread move.
    zeros = (states <= GAMMA_FLOOR).sum(axis=1)
    pending = np.nonzero(zeros <= 2)[0]
    for _ in range(MAX_DIRECTION_RETRIES):
        if pending.size == 0:
            break
        cand_xi, cand_g = _draw_directions(states[pending], enum, rng)
        ok = cand_g > GAMMA_FLOOR
        take = pending[ok]
        xi[take] = cand_xi[ok]
        gmax[take] = cand_g[ok]
        pending = pending[~ok]
    stuck = np.nonzero(gmax <= GAMMA_FLOOR)[0]
    if stuck.size:
        fb_xi, fb_g = _superset_transfer(states, enum, rng, stuck)
        xi[stuck] = fb_xi
        gmax[stuck] = fb_g
    gamma = rng.uniform(size=b) * gmax
    new = states + gamma[:, None] * xi
    np.clip(new, 0.0, 1.0, out=new)
    return new, gamma, gmax <= GAMMA_FLOOR


def step(
    row: NDArray[np.float64],
    enum: SetEnumeration,
    config: SamplerConfig,
    rng: np.random.Generator,
    direction: NDArray[np.float64] | None = None,
) -> StepResult:
    """One chain move from ``row``.

    The returned row is a valid probability vector whose accumulated
    attention is componentwise no larger than that of ``row`` (equal on the
    full menu).  A degenerate feasible interval produces a zero step with
    ``degenerate=True``.  ``direction`` overrides the random draw (used for
    diagnostics and tests); it must keep accumulated attention nonincreasing.
    """
    states = np.asarray(row, dtype=np.float64)[None, :]
    if states.shape[1] != enum.d_c:
        raise ValidationError("row length does not match the set enumeration")
    if direction is not None:
        xi = np.asarray(direction, dtype=np.float64)[None, :]
        psi = zeta_transform(xi, enum)
        if np.any(np.delete(psi, enum.full_index, axis=1) > 1e-9) or (
            abs(psi[0, enum.full_index]) > 1e-9
        ):
            raise ValidationError(
                "direction must have nonpositive accumulated image and "
                "preserve total mass"
            )
        neg = xi < -GAMMA_FLOOR
        pos = xi > GAMMA_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.where(neg, states / np.where(neg, -xi, 1.0), np.inf)
            hi = np.where(pos, (1.0 - states) / np.where(pos, xi, 1.0), np.inf)
        gmax = float(min(lo.min(), hi.min()))
        if not np.isfinite(gmax):
            gmax = 0.0
        gamma = float(rng.uniform()) * gmax
        new = np.clip(states + gamma * xi, 0.0, 1.0)
        return StepResult(new[0], gamma, gmax <= GAMMA_FLOOR)
    new, gamma, degen = _step_rows(states, enum, rng)
    return StepResult(new[0], float(gamma[0]), bool(degen[0]))


def _initial_states(
    menu: Menu,
    enum: SetEnumeration,
    config: SamplerConfig,
    d_pref: int,
    rng: np.random.Generator,
) -> NDArray[np.float64]:
    if config.initial_row is not None:
        init = np.asarray(config.initial_row, dtype=np.float64)
        if init.shape[0] != enum.d_c:
            raise ConfigurationError(
                f"initial_row has length {init.shape[0]}, enumeration has "
                f"{enum.d_c} sets"
            )
        return np.tile(init, (d_pref, 1))
    if config.outside_mode:
        return np.tile(initial_row_outside(menu), (d_pref, 1))
    # A fixed starting row would make every sampled rule (and anything
    # generated from one) agree exactly in the first period, collapsing the
    # pool's diversity there; draw each block's start uniformly instead.
    return rng.dirichlet(np.ones(enum.d_c), size=d_pref)


def sample_attention_rule(
    menu: Menu, orderings: OrderingSet, config: SamplerConfig
) -> AttentionRule:
    """Draw one attention rule satisfying time monotonicity.

    Runs an independent chain per preference block from the configured
    initial row.  One seeded generator drives the whole rule; the blocks
    advance in lockstep on jointly independent draws.  Identical
    (menu, orderings, config) inputs reproduce the rule bit for bit.
    """
    enum = enumerate_sets(menu, outside_mode=config.outside_mode)
    d_pref = orderings.d_pref
    rng = np.random.default_rng(config.seed)
    states = _initial_states(menu, enum, config, d_pref, rng)
    rows = [states]
    for _ in range(config.d_t - 1):
        states, _, _ = _step_rows(states, enum, rng)
        rows.append(states)
    u = np.stack(rows, axis=0).reshape(config.d_t, d_pref * enum.d_c)
    return AttentionRule(u=u, set_index=enum, d_pref=d_pref)


def child_seeds(seed: int | np.random.SeedSequence | None, count: int):
    """Yield the first ``count`` child seeds of ``seed`` without spawning.

    Child ``i`` equals ``root.spawn(count)[i]`` for ``root`` the seed's
    :class:`~numpy.random.SeedSequence` as passed in, but ``root`` is left
    untouched (``spawn`` would advance it), so every call with the same
    seed yields the same children.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    first = root.n_children_spawned
    for i in range(count):
        yield np.random.SeedSequence(
            root.entropy,
            spawn_key=root.spawn_key + (first + i,),
            pool_size=root.pool_size,
        )


def sample_attention_rules(
    menu: Menu, orderings: OrderingSet, config: SamplerConfig, count: int
):
    """Yield ``count`` independent rules on child streams of ``config.seed``.

    Rule ``i`` depends only on ``config.seed`` and ``i``, so enlarging
    ``count`` extends the sequence without changing earlier draws.
    """
    for child in child_seeds(config.seed, count):
        yield sample_attention_rule(menu, orderings, replace(config, seed=child))
