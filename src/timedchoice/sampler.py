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

A pool of rules draws rule ``i`` from child ``i`` of the configured seed,
so a pool is reproducible for integer and
:class:`numpy.random.SeedSequence` seeds alike and a larger pool extends a
smaller one without changing its draws.  The children's seeds are hashed
in one vectorised pass (see :func:`_child_states`) instead of building a
``SeedSequence`` per rule.

Pools are drawn in lockstep: a block of rules is stepped as one stack of
rows.  Each rule's PCG64 is seeded from the bulk hash as ``default_rng``
would seed it, so every rule draws the same numbers in the same order as it
would alone.  A rule drawn in a pool is therefore bit-identical to the same
rule drawn one at a time by :func:`sample_attention_rule` from its child
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from numpy.typing import NDArray

from .core import (
    AttentionRule,
    Menu,
    OrderingSet,
    SetEnumeration,
    _check_count,
    enumerate_sets,
    moebius_inverse,
)
from .errors import ConfigurationError, ValidationError

#: Step intervals shorter than this count as degenerate.
GAMMA_FLOOR = 1e-12

#: Constructive redraws allowed before the superset-spread fallback kicks in.
#: Draws only fail on rows with boundary coordinates, so a small budget suffices.
MAX_DIRECTION_RETRIES = 8

#: Superset-spread moves feed at most this many target sets per donor.
FALLBACK_MAX_TARGETS = 3

#: Rules step together in blocks of at most ``_BLOCK_RULES`` rules and of at
#: most ``_BLOCK_CELLS`` (row, set, set) cells of fallback draws, as many as
#: 64 rules of 6 preference blocks over 32 sets have (3 MB), so no temporary
#: grows with the pool: 256 rules of 3 items, 64 of 6 items in outside mode,
#: 16 without it.  The fallback draws its weights in pieces of at most that
#: many cells, so a single rule with more rows stays bounded too.
_BLOCK_RULES = 256
_BLOCK_CELLS = 64 * 6 * 32 * 32

#: :func:`sample_attention_rules` hashes child seeds this many at a time, so
#: the hash's temporaries (about 90 bytes a rule) do not grow with the pool.
_STATE_ROWS = 1024


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
    """

    d_t: int
    seed: int | np.random.SeedSequence | None = None
    outside_mode: bool = True

    def __post_init__(self):
        d_t = _check_count(self.d_t, "d_t", 1, error=ConfigurationError)
        object.__setattr__(self, "d_t", d_t)


def initial_row_outside(menu: Menu) -> NDArray[np.float64]:
    """Starting row in outside mode: all mass on the outside-only set.

    The outside-only singleton is index 0 of the canonical enumeration, so
    this is the unit vector e_0 of length ``2**(n-1)``.
    """
    if menu.outside_index is None:
        raise ConfigurationError("menu has no outside option configured")
    row = np.zeros(1 << (menu.n - 1))
    row[0] = 1.0
    return row


@lru_cache(maxsize=64)
def _superset_matrix(enum_key: tuple[int, bool]) -> NDArray:
    """Boolean (d_c, d_c) matrix: [j, s] = enumerated set s strictly contains j."""
    n_bits, outside = enum_key
    masks = np.arange(0 if outside else 1, 1 << n_bits)
    out = (masks[None] & masks[:, None]) == masks[:, None]
    np.fill_diagonal(out, False)
    out.setflags(write=False)
    return out


def _runs(owner, rngs):
    """``(generator, start, stop)`` for each run of rows owned by one rule.

    ``owner`` is the nondecreasing rule index of every row of a stack.
    """
    starts = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()
    return zip([rngs[i] for i in owner[starts].tolist()], starts, [*starts[1:], owner.size])


def _superset_transfer(sub, enum, runs):
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

    ``sub`` holds the stuck rows; ``runs`` gives each rule's generator and
    its rows' ``(start, stop)`` in ``sub``.  Every row draws a ``(d_c, d_c)``
    block of target weights (row j for donor j), then each rule draws
    ``d_c`` outflow shares per row, but only the donors' weight rows are
    read: sets without mass send nothing.  The weights are drawn and cut
    down to each donor's kept targets in pieces of at most
    :data:`_BLOCK_CELLS` cells, so a rule with many preference blocks over
    many sets never holds all of its draw at once.
    """
    q, d_c = sub.shape
    runs = list(runs)
    piece = max(1, _BLOCK_CELLS // (d_c * d_c))
    weights = np.empty((min(q, piece), d_c, d_c))
    shares = np.empty((q, d_c))
    supersets = _superset_matrix((enum.n_bits, enum.outside_mode))
    kth = d_c - FALLBACK_MAX_TARGETS
    pairs, totals, kept, kept_w = [], [], [], []
    n_pairs = 0
    for p0 in range(0, q, piece):
        p1 = min(p0 + piece, q)
        for rng, a, z in runs:
            lo, hi = max(a, p0), min(z, p1)
            if lo < hi:
                rng.random(out=weights[lo - p0 : hi - p0])
                if hi == z:
                    rng.random(out=shares[a:z])
        rows = sub[p0:p1]
        # One (row, donor) pair per set carrying mass; the full set has no
        # supersets, so it never sends anything.
        pair = np.flatnonzero(rows > GAMMA_FLOOR)
        row = pair // d_c
        targets = (rows < 1.0 - GAMMA_FLOOR)[row]
        targets &= supersets[pair - row * d_c]
        w = np.take(weights[: p1 - p0].reshape(-1, d_c), pair, axis=0)
        w *= targets
        # Keep each donor's FALLBACK_MAX_TARGETS heaviest targets (ties kept).
        wide = np.flatnonzero(np.count_nonzero(targets, axis=1) > FALLBACK_MAX_TARGETS)
        cut = np.partition(w[wide], kth, axis=1)[:, kth, None]
        targets[wide] = w[wide] >= cut
        w *= targets
        keep = np.flatnonzero(targets)
        pairs.append(pair + p0 * d_c)
        totals.append(w.sum(axis=1))
        kept.append(keep + n_pairs * d_c)
        kept_w.append(w.reshape(-1)[keep])
        n_pairs += pair.size
    shares *= 1.0 - 0.2  # uniform on [0.2, 1), as rng.uniform(0.2, 1.0)
    shares += 0.2
    pair, totals, kept = np.concatenate(pairs), np.concatenate(totals), np.concatenate(kept)
    row = pair // d_c
    live = totals > 0.0
    outflow = shares.reshape(-1)[pair] * live
    # Inflow per set: each kept weight, normalised and scaled by its donor's
    # outflow, summed over donors in ascending order (bincount adds in input
    # order).  Rounding depends on that order, so it must not change.
    donor_of = kept // d_c
    flow = np.concatenate(kept_w) / totals[donor_of] * outflow[donor_of]
    into = row[donor_of] * d_c + (kept - donor_of * d_c)
    direction = np.bincount(into, flow, q * d_c).astype(np.float64, copy=False)
    direction[pair] -= outflow
    direction = direction.reshape(q, d_c)
    gmax = _max_step(sub, direction)
    moving = np.zeros(q, dtype=bool)
    moving[row[live]] = True
    bad = ~np.isfinite(gmax) | ~moving
    gmax[bad] = 0.0  # only the full-menu vertex carries mass: absorbing
    direction[bad] = 0.0
    return direction, gmax


def _max_step(rows, xi):
    """Largest step along each row's ``xi`` keeping every entry in [0, 1].

    ``inf`` for a row whose direction has no coordinate above the floor.
    """
    # A coordinate bounds the step from below (rows / -xi) or from above
    # ((1 - rows) / xi), never both, and -xi = |xi| where xi < 0: one
    # division over |xi| gives both ratios, the same bytes as two.
    bound = np.abs(xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(xi > 0.0, 1.0 - rows, rows)
        step /= bound
    step[bound <= GAMMA_FLOOR] = np.inf
    # min(axis=1) pays a fixed cost per row; over the outer axis of a
    # transposed copy numpy folds whole columns, about 8 times faster on a
    # (1536, 7) stack and up to 3 us slower on one rule's rows, and a
    # minimum is exact in any order.
    return step.T.copy().min(axis=0)


def _draw_directions(states, psi, enum):
    """Candidate directions from standard normals ``psi`` (overwritten), with step bounds."""
    np.abs(psi, out=psi)
    np.negative(psi, out=psi)
    psi[:, enum.full_index] = 0.0
    xi = moebius_inverse(psi, enum)
    gmax = _max_step(states, xi)
    gmax[~np.isfinite(gmax)] = 0.0  # no binding constraint: null direction
    return xi, gmax


def _step_rows(states, enum, rngs):
    """Advance a block of rules one period in lockstep.

    ``states`` is ``(n, d_pref, d_c)``: rule i's rows, stepped on generator
    ``rngs[i]``.  Each generator draws the same numbers in the same order
    as it would stepping its rule alone, so the block's rows equal those of
    one rule at a time bit for bit.  Returns the stepped rows.
    """
    n, d_pref, d_c = states.shape
    rows = states.reshape(n * d_pref, d_c)
    xi = np.zeros_like(rows)
    gmax = np.zeros(n * d_pref)
    # Random accumulated-space draws only clear the feasibility bound when
    # few coordinates sit on the boundary; rows with many zeros go straight
    # to the superset-spread move.
    zeros = (rows <= GAMMA_FLOOR).sum(axis=1)
    pending = np.flatnonzero(zeros <= 2)
    for _ in range(MAX_DIRECTION_RETRIES):
        if pending.size == 0:
            break
        psi = np.empty((pending.size, d_c))
        if pending.size == rows.shape[0]:
            # Every row pends, as in every round of criterion 08's 3-item
            # pools and in none of the bundled experiment's: rule i owns
            # rows i * d_pref, ..., (i + 1) * d_pref - 1.
            for rng, block in zip(rngs, psi.reshape(n, d_pref, d_c)):
                rng.standard_normal(out=block)
        else:
            for rng, a, z in _runs(pending // d_pref, rngs):
                rng.standard_normal(out=psi[a:z])
        cand_xi, cand_g = _draw_directions(rows[pending], psi, enum)
        ok = cand_g > GAMMA_FLOOR
        take = pending[ok]
        xi[take] = cand_xi[ok]
        gmax[take] = cand_g[ok]
        pending = pending[~ok]
    stuck = np.flatnonzero(gmax <= GAMMA_FLOOR)
    if stuck.size:
        fb_xi, fb_g = _superset_transfer(rows[stuck], enum, _runs(stuck // d_pref, rngs))
        xi[stuck] = fb_xi
        gmax[stuck] = fb_g
    gamma = np.empty((n, d_pref))
    for rng, g in zip(rngs, gamma):
        rng.random(out=g)
    gamma = gamma.reshape(-1) * gmax
    new = rows + gamma[:, None] * xi
    np.clip(new, 0.0, 1.0, out=new)
    return new.reshape(n, d_pref, d_c)


def _initial_states(
    enum: SetEnumeration,
    config: SamplerConfig,
    d_pref: int,
    rngs: list[np.random.Generator],
) -> NDArray[np.float64]:
    """``(n, d_pref, d_c)`` starting rows, one rule per generator."""
    if config.outside_mode:
        return np.tile(initial_row_outside(enum.menu), (len(rngs), d_pref, 1))
    # A fixed starting row would make every sampled rule (and anything
    # generated from one) agree exactly in the first period, collapsing the
    # pool's diversity there; draw each block's start uniformly instead.
    # This is ``rng.dirichlet(np.ones(d_c), size=d_pref)`` bit for bit: with
    # alpha = 1 numpy draws standard exponentials, sums each row left to
    # right and multiplies it by the sum's reciprocal.  A pairwise sum
    # (``x.sum(axis=-1)``) rounds differently.
    x = np.empty((len(rngs), d_pref, enum.d_c))
    for rng, rows in zip(rngs, x):
        rng.standard_exponential(out=rows)
    x *= 1.0 / np.add.accumulate(x, axis=2)[:, :, -1:]
    return x


# numpy.random.SeedSequence's hash (O'Neill's seed_seq design, as numpy's
# bit_generator.pyx implements it).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` as the :class:`~numpy.random.SeedSequence` ``default_rng`` would use."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _uint32_words(x) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from entropy or a spawn key."""
    if isinstance(x, str):
        x = int(x, 16 if x.startswith("0x") else 10)
    if isinstance(x, (int, np.integer)):
        n = int(x)
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    return [w for v in x for w in _uint32_words(v)]


def _hash_constants(init, mult):
    """SeedSequence's running hash constant: ``(xor, multiplier)`` of each hash."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _hashmix(value, constants):
    """One SeedSequence hash of Python ints or ``uint32`` arrays (which wrap)."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` (a Python int) with ``y``."""
    value = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _child_states(root: np.random.SeedSequence, first: int, count: int) -> NDArray[np.uint64]:
    """``generate_state(4, np.uint64)`` of children ``first, ..., first + count - 1``.

    Returns a C-contiguous ``(count, 4)`` ``uint64`` array whose row ``i``
    equals ``SeedSequence(root.entropy, spawn_key=root.spawn_key + (first +
    i,), pool_size=root.pool_size).generate_state(4, np.uint64)`` bit for
    bit.  Children differ only in the last spawn-key word, so the
    shared prefix (entropy padded to the pool size, the root's spawn key and
    the cross-mix) is hashed once in Python ints, and the child index is
    mixed in, and the state generated, as ``uint32`` array arithmetic over
    all children at once.  A child index of 2**32 or more spans two words;
    those children take numpy's own ``SeedSequence``.
    """
    size = root.pool_size
    entropy = _uint32_words(root.entropy)
    words = entropy + [0] * (size - len(entropy)) + _uint32_words(root.spawn_key)
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, consts) for w in words[:size]]
    for src in range(size):
        for dst in range(size):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for w in words[size:]:
        for dst in range(size):
            pool[dst] = _mix(pool[dst], _hashmix(w, consts))
    split = min(max(first, 1 << 32), first + count)
    index = np.arange(first, split, dtype=np.int64).astype(np.uint32)
    pool = [_mix(p, _hashmix(index, consts)) for p in pool]
    consts = _hash_constants(_INIT_B, _MULT_B)
    hashed = np.empty((len(index), 8), dtype="<u4")
    for j in range(8):
        hashed[:, j] = _hashmix(pool[j % size], consts)
    out = np.empty((count, 4), dtype=np.uint64)
    out[: len(index)] = hashed.view("<u8")
    for row, i in zip(out[len(index) :], range(split, first + count)):
        child = np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (i,), pool_size=size
        )
        row[:] = child.generate_state(4, np.uint64)
    return out


@cache
def _hashed_seed() -> type:
    """The type of a seed whose ``generate_state(4, np.uint64)`` words are already computed.

    ``PCG64(_hashed_seed()(words))`` seeds itself from ``words`` exactly as
    ``PCG64(seed)`` does from ``seed.generate_state(4, np.uint64)``, the only
    call PCG64 makes, so its generator equals ``default_rng(seed)`` bit for
    bit.  ``words`` must be 4 contiguous ``uint64``: PCG64 reads them through
    a raw pointer.  The type is built on first use, so importing the package
    does not load ``numpy.random`` (6 MB).
    """

    class HashedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return HashedSeed


def _draw_rules(enum, d_pref, config, states, out):
    """Draw rule ``i`` into ``out[i]``, ``out`` being ``(len(states), d_t, d_pref, d_c)``.

    ``states`` is ``(n, 4)`` ``uint64``: row i is ``generate_state(4,
    np.uint64)`` of rule i's seed (see :func:`_child_states`), and rule i runs
    on a PCG64 seeded from that row, the stream ``np.random.default_rng`` of
    the seed gives, without hashing the seed again.  Rules step in lockstep
    blocks (see :func:`_step_rows`) and equal the rules drawn alone by
    :func:`sample_attention_rule` bit for bit.  Blocks hold at most
    ``_BLOCK_RULES`` rules and at most ``_BLOCK_CELLS / (d_pref d_c^2)``, so a
    block's fallback draws fit in one piece (see :func:`_superset_transfer`).
    """
    states = np.ascontiguousarray(states, dtype=np.uint64)
    if states.ndim != 2 or states.shape[1] != 4:
        raise ValidationError(f"states must be (n, 4), got {states.shape}")
    block = max(1, min(_BLOCK_RULES, _BLOCK_CELLS // (d_pref * enum.d_c * enum.d_c)))
    hashed_seed = _hashed_seed()
    for a in range(0, len(states), block):
        rngs = [
            np.random.Generator(np.random.PCG64(hashed_seed(words)))
            for words in states[a : a + block]
        ]
        rules = out[a : a + len(rngs)]
        rules[:, 0] = rows = _initial_states(enum, config, d_pref, rngs)
        for t in range(1, config.d_t):
            rules[:, t] = rows = _step_rows(rows, enum, rngs)


def sample_attention_rule(
    menu: Menu, orderings: OrderingSet, config: SamplerConfig
) -> AttentionRule:
    """Draw one attention rule satisfying time monotonicity.

    Runs an independent chain per preference block from the mode's
    starting row (see :class:`SamplerConfig`).  One seeded generator drives the whole rule; the blocks
    advance in lockstep on jointly independent draws.  Identical
    (menu, orderings, config) inputs reproduce the rule bit for bit.
    """
    enum = enumerate_sets(menu, outside_mode=config.outside_mode)
    blocks = np.empty((1, config.d_t, orderings.d_pref, enum.d_c))
    state = _seed_sequence(config.seed).generate_state(4, np.uint64)[None]
    _draw_rules(enum, orderings.d_pref, config, state, blocks)
    return AttentionRule(
        u=blocks[0].reshape(config.d_t, -1), set_index=enum, d_pref=orderings.d_pref
    )


def sample_attention_rules(
    menu: Menu, orderings: OrderingSet, config: SamplerConfig, count: int
) -> NDArray[np.float64]:
    """The whole ``(count, d_t, d_pref, d_c)`` pool drawn on child streams of ``config.seed``.

    ``[i]`` is rule ``i``'s :meth:`AttentionRule.blocks`, drawn from child
    ``i`` of ``config.seed`` (``root.spawn(count)[i]`` for ``root`` the seed's
    :class:`~numpy.random.SeedSequence`, which is left unspawned).  It depends
    only on ``config.seed`` and ``i``, so a larger ``count`` extends the pool.

    Raises:
        ValidationError: ``count`` is not an integer or is negative.
    """
    count = _check_count(count, "count")
    enum = enumerate_sets(menu, outside_mode=config.outside_mode)
    pool = np.empty((count, config.d_t, orderings.d_pref, enum.d_c))
    root = _seed_sequence(config.seed)
    for start in range(0, count, _STATE_ROWS):
        states = _child_states(
            root, root.n_children_spawned + start, min(_STATE_ROWS, count - start)
        )
        _draw_rules(enum, orderings.d_pref, config, states, pool[start : start + len(states)])
    return pool
