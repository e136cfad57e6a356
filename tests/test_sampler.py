import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import timedchoice as tc
from timedchoice import sampler
from timedchoice.errors import ConfigurationError, ValidationError
from timedchoice.estimator import CHUNK
from timedchoice.sampler import (
    FALLBACK_MAX_TARGETS,
    GAMMA_FLOOR,
    MAX_DIRECTION_RETRIES,
    _child_states,
    _draw_children,
    _draw_rules,
    _hashed_seed,
    _initial_states,
    _max_step,
    _step_rows,
    _superset_matrix,
    _Workspace,
)

from conftest import MEMBERSHIP_CASES


@pytest.fixture
def menu6():
    return tc.Menu(items=("l1", "l2", "l3", "l4", "l5", "lO"), outside_index=5)


@pytest.fixture
def orderings6(menu6):
    ords, _ = tc.crra_ordering_set()
    return ords


class TestInitialRows:
    def test_outside_start_is_unit_vector_of_length_32(self, menu6):
        row = tc.initial_row_outside(menu6)
        assert row.shape == (32,)
        assert row[0] == 1.0 and row[1:].sum() == 0.0

    def test_two_item_outside_menu(self):
        menu = tc.Menu(items=("a", "o"), outside_index=1)
        row = tc.initial_row_outside(menu)
        np.testing.assert_array_equal(row, [1.0, 0.0])
        enum = tc.enumerate_sets(menu, outside_mode=True)
        alpha = tc.zeta_transform(row, enum)
        assert alpha[0] == 1.0  # attention certainly within {o}

    def test_outside_start_requires_outside_option(self, menu3):
        with pytest.raises(ConfigurationError):
            tc.initial_row_outside(menu3)


class TestStep:
    def test_outside_singleton_mass_never_increases(self):
        menu = tc.Menu(items=("a", "b", "o"), outside_index=2)
        enum = tc.enumerate_sets(menu, outside_mode=True)
        rng = np.random.default_rng(1)
        rows = np.tile(tc.initial_row_outside(menu), (50, 1))
        stepped = _step_rows(rows[None], enum, [rng], _Workspace(50, enum.d_c, 1))
        assert np.all(stepped[0, :, 0] <= rows[:, 0] + 1e-12)

    def test_long_chain_stays_monotone(self):
        menu = tc.Menu(items=("a", "b", "c", "d"))
        orderings = tc.OrderingSet((tc.PreferenceOrdering((0, 1, 2, 3)),))
        config = tc.SamplerConfig(d_t=1000, seed=4, outside_mode=False)
        rule = tc.sample_attention_rule(menu, orderings, config)
        assert tc.check_time_monotonicity(rule).passed

    def test_rows_remain_probability_vectors(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=8, seed=9, outside_mode=True)
        rule = tc.sample_attention_rule(menu6, orderings6, config)
        blocks = rule.blocks()
        assert blocks.min() >= 0.0 and blocks.max() <= 1.0
        np.testing.assert_allclose(blocks.sum(axis=2), 1.0, atol=1e-9)


class TestMaxStep:
    def test_hand_computed_rows(self):
        rows = np.array([[0.5, 0.0, 0.6, 1.0], [0.3, 0.3, 0.3, 0.1]])
        xi = np.array([[-0.25, -1e-13, 0.4, 0.0], [1e-13, -1e-13, 0.0, -0.0]])
        # Row 0: 0.5 / 0.25 = 2 from below, 0.4 / 0.4 = 1 from above; the
        # coordinate inside the floor bounds nothing.  Row 1 is unbounded.
        np.testing.assert_array_equal(_max_step(rows, xi), [1.0, np.inf])

    def test_matches_two_sided_reference(self):
        rng = np.random.default_rng(12)
        rows = rng.random((500, 15))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[rng.random(rows.shape) < 0.05] = 1.0
        xi = rng.normal(size=rows.shape)
        xi[rng.random(rows.shape) < 0.2] = 0.0
        xi[rng.random(rows.shape) < 0.05] *= 1e-12
        xi[:20] = 0.0
        np.testing.assert_array_equal(_max_step(rows, xi), _reference_max_step(rows, xi))

    @pytest.mark.parametrize("d_c", [1, 3, 7, 32])
    def test_column_fold_at_every_width(self, d_c):
        """The column-by-column minimum equals the reference at the menus' widths."""
        rng = np.random.default_rng(d_c)
        rows = rng.random((400, d_c))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[rng.random(rows.shape) < 0.05] = 1.0
        xi = rng.normal(size=rows.shape)
        xi[rng.random(rows.shape) < 0.2] = 0.0
        xi[rng.random(rows.shape) < 0.1] *= 1e-12
        # Every coordinate below the floor, in sign, in size, or both.
        xi[:10] = 0.0
        xi[10:20] = rng.uniform(-GAMMA_FLOOR, GAMMA_FLOOR, size=(10, d_c))
        xi[20:30, ::2] = 0.0
        xi[20:30, 1::2] = GAMMA_FLOOR
        got = _max_step(rows, xi)
        np.testing.assert_array_equal(got, _reference_max_step(rows, xi))
        assert np.all(got[:30] == np.inf)


def _grid_menu(n_bits, outside):
    """The menu of ``n_bits`` free bits: with the outside item last, or without one."""
    items = tuple("abcdefgh"[: n_bits + outside])
    return pytest.param(
        tc.Menu(items=items, outside_index=len(items) - 1 if outside else None), outside,
        id=f"{n_bits}-{outside}",
    )


class TestSupersetMatrix:
    # The membership menus, and the (n_bits, outside) grid this test was once
    # keyed by, under its old ids.  One free bit without an outside item
    # would be a 1-item menu, which no enumeration has.
    @pytest.mark.parametrize(
        "menu, outside",
        MEMBERSHIP_CASES
        + [_grid_menu(b, o) for b in range(1, 7) for o in (False, True) if b + o > 1],
    )
    def test_matches_the_pairwise_loop(self, menu, outside):
        """[j, s] is set exactly when enumerated set s strictly contains set j.

        The loop reads the reduced lattice index of each set (its free bits),
        which is what the enumeration's order must match.
        """
        enum = tc.enumerate_sets(menu, outside_mode=outside)
        offset = 0 if outside else 1
        d_c = (1 << enum.n_bits) - offset
        assert enum.d_c == d_c
        want = np.zeros((d_c, d_c), dtype=bool)
        for j in range(d_c):
            for s in range(d_c):
                rj, rs = j + offset, s + offset
                want[j, s] = rs != rj and (rs & rj) == rj
        got = _superset_matrix(enum)
        assert got.dtype == bool and not got.flags.writeable
        np.testing.assert_array_equal(got, want)


class TestSampleAttentionRule:
    def test_single_period_returns_initial_row(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=1, seed=0, outside_mode=True)
        rule = tc.sample_attention_rule(menu6, orderings6, config)
        expected = tc.initial_row_outside(menu6)
        for i in range(rule.d_pref):
            np.testing.assert_array_equal(rule.block(i)[0], expected)

    def test_deterministic_given_seed(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=6, seed=123, outside_mode=True)
        a = tc.sample_attention_rule(menu6, orderings6, config)
        b = tc.sample_attention_rule(menu6, orderings6, config)
        np.testing.assert_array_equal(a.u, b.u)

    def test_different_seeds_differ(self, menu6, orderings6):
        a = tc.sample_attention_rule(
            menu6, orderings6, tc.SamplerConfig(d_t=6, seed=1, outside_mode=True)
        )
        b = tc.sample_attention_rule(
            menu6, orderings6, tc.SamplerConfig(d_t=6, seed=2, outside_mode=True)
        )
        assert not np.array_equal(a.u, b.u)

    def test_bulk_monotonicity_three_items(self, menu3, orderings3):
        violations = 0
        for seed in range(400):
            rule = tc.sample_attention_rule(
                menu3, orderings3, tc.SamplerConfig(d_t=3, seed=seed, outside_mode=False)
            )
            if not tc.check_time_monotonicity(rule).passed:
                violations += 1
        assert violations == 0

    def test_explicit_initial_row(self, menu3, orderings3):
        """Full-menu vertex is absorbing: attention cannot shrink later."""
        enum = tc.enumerate_sets(menu3)
        init = np.zeros(enum.d_c)
        init[enum.full_index] = 1.0
        (chain,) = _chains(init, enum, orderings3.d_pref, 4, [0])
        for t in range(4):
            np.testing.assert_array_equal(chain[t], np.tile(init, (orderings3.d_pref, 1)))

    def test_chain_leaves_the_outside_vertex(self):
        menu = tc.Menu(items=("a", "b", "o"), outside_index=2)
        orderings = tc.OrderingSet((tc.PreferenceOrdering((0, 1, 2)),))
        config = tc.SamplerConfig(d_t=100, seed=5, outside_mode=True)
        rule = tc.sample_attention_rule(menu, orderings, config)
        drift = np.abs(rule.block(0) - rule.block(0)[0]).max()
        assert drift > 0.01

    def test_rule_stream_is_prefix_stable(self, menu3, orderings3):
        config = tc.SamplerConfig(d_t=3, seed=77, outside_mode=False)
        few = tc.sample_attention_rules(menu3, orderings3, config, 3)
        many = tc.sample_attention_rules(menu3, orderings3, config, 8)
        np.testing.assert_array_equal(few, many[:3])

    def test_seed_sequence_stream_is_reproducible(self, menu3, orderings3):
        seed = np.random.SeedSequence(77)
        config = tc.SamplerConfig(d_t=3, seed=seed, outside_mode=False)
        first = tc.sample_attention_rules(menu3, orderings3, config, 4)
        again = tc.sample_attention_rules(menu3, orderings3, config, 4)
        as_int = tc.sample_attention_rules(
            menu3, orderings3, tc.SamplerConfig(d_t=3, seed=77, outside_mode=False), 4
        )
        assert seed.n_children_spawned == 0
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(first, as_int)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            tc.SamplerConfig(d_t=0)


class TestSampleAttentionRules:
    def test_returns_the_pool_as_one_array(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=6, seed=0, outside_mode=True)
        pool = tc.sample_attention_rules(menu6, orderings6, config, 3)
        d_c = tc.enumerate_sets(menu6, outside_mode=True).d_c
        assert isinstance(pool, np.ndarray) and pool.dtype == np.float64
        assert pool.shape == (3, 6, orderings6.d_pref, d_c)

    def test_empty_pool(self, menu3, orderings3):
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        pool = tc.sample_attention_rules(menu3, orderings3, config, 0)
        assert pool.shape == (0, 3, orderings3.d_pref, tc.enumerate_sets(menu3).d_c)

    def test_negative_count_rejected(self, menu3, orderings3):
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        with pytest.raises(ValidationError):
            tc.sample_attention_rules(menu3, orderings3, config, -1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("count", [2.5, 3.0, True, np.False_, "3", float("nan")])
    def test_count_must_be_an_integer(self, menu3, orderings3, count):
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        with pytest.raises(ValidationError, match="count must be an integer"):
            tc.sample_attention_rules(menu3, orderings3, config, count)

    @pytest.mark.parametrize("count", [np.int64(5), np.uint8(5)])
    def test_numpy_integer_count(self, menu3, orderings3, count):
        config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
        np.testing.assert_array_equal(
            tc.sample_attention_rules(menu3, orderings3, config, count),
            tc.sample_attention_rules(menu3, orderings3, config, 5),
        )

    def test_states_hashed_in_pieces_give_the_same_pool(self, menu3, orderings3, monkeypatch):
        config = tc.SamplerConfig(d_t=3, seed=77, outside_mode=False)
        whole = tc.sample_attention_rules(menu3, orderings3, config, 10)
        # Blocks of 2 rules, slabs (and so hash pieces) of 4: [0, 4), [4, 8), [8, 10).
        monkeypatch.setattr(sampler, "_BLOCK_CELLS", 2 * 6 * 7 * 7)
        assert sampler._slab_rules(3, 6, 7) == 4
        np.testing.assert_array_equal(
            tc.sample_attention_rules(menu3, orderings3, config, 10), whole
        )

    def test_fresh_entropy_seed_builds_one_root_per_pool(self, menu3, orderings3, monkeypatch):
        """``SeedSequence(None)`` draws new entropy each time: every piece must share one."""
        roots, real = [], sampler._seed_sequence

        def recorded(seed):
            roots.append(real(seed))
            return roots[-1]

        monkeypatch.setattr(sampler, "_seed_sequence", recorded)
        monkeypatch.setattr(sampler, "_BLOCK_CELLS", 2 * 6 * 7 * 7)  # slabs of 4 rules
        config = tc.SamplerConfig(d_t=3, seed=None, outside_mode=False)
        pool = tc.sample_attention_rules(menu3, orderings3, config, 10)
        assert len(roots) == 1
        again = tc.sample_attention_rules(menu3, orderings3, replace(config, seed=roots[0]), 10)
        np.testing.assert_array_equal(pool, again)


def child_seeds(seed, count):
    """Yield the first ``count`` child seeds of ``seed`` without spawning.

    Child ``i`` equals ``root.spawn(count)[i]`` for ``root`` the seed's
    :class:`~numpy.random.SeedSequence` as passed in, but ``root`` is left
    untouched (``spawn`` would advance it): the oracle of the sampler's
    bulk child states.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    first = root.n_children_spawned
    for i in range(count):
        yield np.random.SeedSequence(
            root.entropy,
            spawn_key=root.spawn_key + (first + i,),
            pool_size=root.pool_size,
        )


def _seed_states(seeds):
    """``_draw_rules``'s ``(n, 4)`` states: one row per seed, as ``default_rng`` seeds PCG64."""
    return np.stack([
        (s if isinstance(s, np.random.SeedSequence) else np.random.SeedSequence(s))
        .generate_state(4, np.uint64)
        for s in seeds
    ])


def _digest(rules):
    """SHA-256 of a pool array, or of one rule's ``u``: the same bytes as a pool of one."""
    return hashlib.sha256(rules.tobytes()).hexdigest()


def _chains(init, enum, d_pref, d_t, seeds):
    """``(n, d_t, d_pref, d_c)`` chains from ``init`` in every block, one per seed.

    Steps the stack with :func:`_step_rows` as the sampler does after its
    start row, on ``np.random.default_rng(seed)`` per rule.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    workspace = _Workspace(d_pref, enum.d_c, len(rngs))
    states = np.broadcast_to(init, (len(rngs), d_pref, enum.d_c)).copy()
    rows = [states]
    for _ in range(d_t - 1):
        states = _step_rows(states, enum, rngs, workspace)
        rows.append(states)
    return np.stack(rows, axis=1)


def _reference_max_step(rows, xi):
    """Largest feasible step, with one array of bounds from below and one from above."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(xi < -GAMMA_FLOOR, rows / -xi, np.inf)
        hi = np.where(xi > GAMMA_FLOOR, (1.0 - rows) / xi, np.inf)
    return np.minimum(lo.min(axis=1), hi.min(axis=1))


def _reference_rule(menu, orderings, config):
    """One rule drawn alone, with the dense fallback: the lockstep draw's oracle."""
    enum = tc.enumerate_sets(menu, outside_mode=config.outside_mode)
    rng = np.random.default_rng(config.seed)
    d_pref, d_c = orderings.d_pref, enum.d_c

    def fallback(sub):
        sup = _superset_matrix(enum)
        adm = (sub > GAMMA_FLOOR)[:, :, None] & (sub < 1.0 - GAMMA_FLOOR)[:, None, :] & sup
        w = rng.uniform(size=(len(sub), d_c, d_c)) * adm
        if d_c > FALLBACK_MAX_TARGETS:
            cut = np.sort(w, axis=2)[:, :, -FALLBACK_MAX_TARGETS][:, :, None]
            w = np.where(w >= np.maximum(cut, 1e-300), w, 0.0)
        totals = w.sum(axis=2, keepdims=True)
        live = totals[:, :, 0] > 0.0
        np.divide(w, totals, out=w, where=totals > 0)
        outflow = rng.uniform(0.2, 1.0, size=(len(sub), d_c)) * live
        w *= outflow[:, :, None]
        direction = w.sum(axis=1) - outflow
        gmax = _reference_max_step(sub, direction)
        bad = ~np.isfinite(gmax) | ~live.any(axis=1)
        gmax[bad] = 0.0
        direction[bad] = 0.0
        return direction, gmax

    if config.outside_mode:
        states = np.tile(tc.initial_row_outside(menu), (d_pref, 1))
    else:
        states = rng.dirichlet(np.ones(d_c), size=d_pref)
    rows = [states]
    for _ in range(config.d_t - 1):
        xi, gmax = np.zeros((d_pref, d_c)), np.zeros(d_pref)
        pending = np.flatnonzero((states <= GAMMA_FLOOR).sum(axis=1) <= 2)
        for _ in range(MAX_DIRECTION_RETRIES):
            if pending.size == 0:
                break
            psi = -np.abs(rng.normal(size=(pending.size, d_c)))
            psi[:, enum.full_index] = 0.0
            cand = tc.moebius_inverse(psi, enum)
            g = _reference_max_step(states[pending], cand)
            g[~np.isfinite(g)] = 0.0
            ok = g > GAMMA_FLOOR
            xi[pending[ok]], gmax[pending[ok]] = cand[ok], g[ok]
            pending = pending[~ok]
        stuck = np.flatnonzero(gmax <= GAMMA_FLOOR)
        if stuck.size:
            xi[stuck], gmax[stuck] = fallback(states[stuck])
        states = np.clip(states + (rng.uniform(size=d_pref) * gmax)[:, None] * xi, 0.0, 1.0)
        rows.append(states)
    return np.stack(rows)


class TestLockstepPool:
    """Rules drawn as one stack equal the rules drawn one at a time.

    The digests were recorded with the sampler that drew every rule on its
    own (numpy 2.4, x86_64).  The lockstep draw keeps each rule's random
    stream and arithmetic, so the bytes must not change.
    """

    def test_six_item_outside_pool(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=6, seed=0, outside_mode=True)
        pool = tc.sample_attention_rules(menu6, orderings6, config, 200)
        assert _digest(pool) == (
            "f1fb53ece4ee3933e9f599c7fa1162d1ad89217ee98df285e2a16f02ec34f440"
        )

    def test_three_item_seed_sequence_pool(self, menu3, orderings3):
        seed = np.random.SeedSequence(2024)
        config = tc.SamplerConfig(d_t=3, seed=seed, outside_mode=False)
        pool = tc.sample_attention_rules(menu3, orderings3, config, 300)
        assert _digest(pool) == (
            "aeeb3474853ca2bfaddad755b61d02430886958767193d53653f76025fddd8d7"
        )

    def test_explicit_initial_row_pool(self, menu3, orderings3):
        """A pool stepped from a sparse start row: most steps take the fallback."""
        enum = tc.enumerate_sets(menu3)
        init = np.zeros(enum.d_c)
        init[0], init[3], init[enum.full_index] = 0.5, 0.25, 0.25
        pool = _chains(init, enum, orderings3.d_pref, 4, child_seeds(11, 100))
        assert hashlib.sha256(pool.tobytes()).hexdigest() == (
            "21ceaa06d33b57414370ab4138511b768d6b1a808f5e8d6d683d022300aac7f5"
        )

    def test_single_rule(self, menu6, orderings6):
        config = tc.SamplerConfig(d_t=6, seed=5, outside_mode=True)
        rule = tc.sample_attention_rule(menu6, orderings6, config)
        assert _digest(rule.u) == (
            "82a26da63348ed758d80d3d0998fea2c6251aec1755cfa42fb49178c20809b33"
        )
        enum = tc.enumerate_sets(menu6, outside_mode=True)
        alone = np.empty((1, 6, orderings6.d_pref, enum.d_c))
        _draw_rules(enum, orderings6.d_pref, config, _seed_states([config.seed]), alone,
                    _Workspace(orderings6.d_pref, enum.d_c, 1))
        np.testing.assert_array_equal(rule.blocks(), alone[0])

    @pytest.mark.parametrize(
        "items, outside, d_t",
        [(6, True, 6), (6, False, 4), (4, True, 7), (3, False, 5), (2, True, 4), (2, False, 4)],
    )
    def test_pool_rules_equal_rules_drawn_alone(self, items, outside, d_t):
        labels = tuple("abcdef"[:items])
        menu = tc.Menu(items=labels, outside_index=items - 1)
        orderings = tc.OrderingSet(tuple(tc.all_orderings(items))[:6])
        config = tc.SamplerConfig(d_t=d_t, seed=3, outside_mode=outside)
        # 70 rules span more than one lockstep block on six items.
        pool = tc.sample_attention_rules(menu, orderings, config, 70)
        for child, rule in zip(child_seeds(config.seed, 70), pool):
            alone = _reference_rule(menu, orderings, replace(config, seed=child))
            np.testing.assert_array_equal(rule, alone)

    def test_slabs_and_child_redraws_give_the_pool(self, menu6, orderings6, monkeypatch):
        """Rules drawn a slab at a time, or as any slice of the pool, equal the whole pool's."""
        enum = tc.enumerate_sets(menu6, outside_mode=True)
        d_pref = orderings6.d_pref
        config = tc.SamplerConfig(d_t=6, seed=0, outside_mode=True)
        pool = tc.sample_attention_rules(menu6, orderings6, config, 150)
        root = np.random.SeedSequence(0)
        states = _child_states(root, 0, 150)
        workspace = _Workspace(d_pref, enum.d_c, 150)
        got, starts = np.empty_like(pool), []
        slab = np.empty((64, 6, d_pref, enum.d_c))  # one 64-rule block a slab
        for a in range(0, 150, len(slab)):
            m = min(len(slab), 150 - a)
            _draw_rules(enum, d_pref, config, states[a : a + m], slab[:m], workspace)
            starts.append(a)
            got[a : a + m] = slab[:m]
        assert starts == [0, 64, 128]
        np.testing.assert_array_equal(got, pool)
        # Slabs of 80 rules: slices that start inside one and end in the next,
        # and slices longer than one, which _draw_children hashes in pieces.
        monkeypatch.setattr(sampler, "_BLOCK_CELLS", 16 * 6 * 32 * 32)
        assert sampler._slab_rules(6, d_pref, enum.d_c) == 80
        spawned = np.random.SeedSequence(42)
        spawned.spawn(3)  # pool rule i is child 3 + i
        children = list(child_seeds(spawned, 150))
        slices = [(0, 1), (77, 1), (149, 1), (70, 20), (75, 75), (60, 90), (0, 150)]
        for first, count in slices:
            want = np.empty((count, 6, d_pref, enum.d_c))
            _draw_rules(enum, d_pref, config, _seed_states(children[first : first + count]),
                        want, workspace)
            for seed, pool_slice in [(root, pool[first : first + count]), (spawned, want)]:
                out = np.empty_like(pool_slice)
                _draw_children(enum, d_pref, config, seed, first, out, workspace)
                np.testing.assert_array_equal(out, pool_slice)
        assert spawned.n_children_spawned == 3

    def test_chunk_draw_memory_is_bounded(self, menu6, orderings6):
        """Temporaries stay per block: no (CHUNK * d_pref, d_c, d_c) array.

        Measured peak 9.3 MB besides the caller's 9.4 MB buffer, 7.1 MB of
        it the fallback's workspace, allocated once per call (8.3 MB when
        each step allocated its own); stepping the whole chunk as one stack
        peaks at 160 MB.
        """
        enum = tc.enumerate_sets(menu6, outside_mode=True)
        config = tc.SamplerConfig(d_t=6, seed=0, outside_mode=True)
        # The chunk's own rows are the caller's buffer, allocated outside the trace.
        out = np.empty((CHUNK, 6, orderings6.d_pref, enum.d_c))
        states = _seed_states(child_seeds(0, CHUNK))
        tracemalloc.start()
        try:
            _draw_rules(enum, orderings6.d_pref, config, states, out,
                        _Workspace(orderings6.d_pref, enum.d_c, CHUNK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak

    @pytest.mark.parametrize(
        "items, outside, d_t, count",
        [(3, False, 3, 600), (3, True, 5, 300), (4, False, 4, 300), (6, True, 3, 140)],
    )
    def test_block_caps_give_the_same_pool(self, items, outside, d_t, count, monkeypatch):
        """Blocks of 1, 64 or 256 rules draw the same bytes."""
        labels = tuple("abcdef"[:items])
        menu = tc.Menu(items=labels, outside_index=items - 1)
        orderings = tc.all_orderings(items) if items <= 4 else tc.crra_ordering_set()[0]
        config = tc.SamplerConfig(d_t=d_t, seed=21, outside_mode=outside)
        pools = []
        for cap in (1, 64, 256):
            monkeypatch.setattr(sampler, "_BLOCK_RULES", cap)
            pools.append(tc.sample_attention_rules(menu, orderings, config, count))
        np.testing.assert_array_equal(pools[0], pools[1])
        np.testing.assert_array_equal(pools[0], pools[2])

    @pytest.mark.parametrize("rows_per_piece", [1, 5])
    def test_fallback_pieces_keep_the_stream(self, menu6, orderings6, monkeypatch, rows_per_piece):
        """Fallback weights drawn a few rows at a time equal one whole draw."""
        enum = tc.enumerate_sets(menu6, outside_mode=True)
        states = np.zeros((8, orderings6.d_pref, enum.d_c))
        states[:, :, 0] = 1.0  # every row stuck: 48 fallback rows over 8 rules
        d_pref = orderings6.d_pref
        whole = _step_rows(
            states, enum, [np.random.default_rng(s) for s in range(8)],
            _Workspace(d_pref, enum.d_c, 8),
        )
        monkeypatch.setattr(sampler, "_BLOCK_CELLS", rows_per_piece * enum.d_c**2)
        # Pieces of 5 rows straddle the rules' runs of 6 rows.
        workspace = _Workspace(d_pref, enum.d_c, 8)
        assert workspace.piece == rows_per_piece
        pieces = _step_rows(
            states, enum, [np.random.default_rng(s) for s in range(8)], workspace
        )
        np.testing.assert_array_equal(whole, pieces)
        config = tc.SamplerConfig(d_t=6, seed=0, outside_mode=True)
        pool = tc.sample_attention_rules(menu6, orderings6, config, 200)
        assert _digest(pool) == (
            "f1fb53ece4ee3933e9f599c7fa1162d1ad89217ee98df285e2a16f02ec34f440"
        )

    def test_fallback_memory_at_the_size_cap(self):
        """One rule over all orderings of 7 items, no outside option.

        Every row starts on one set, so every row takes the fallback, whose
        weight draw is 5,040 x 127 x 127 float64 (650 MB) for the step.
        Drawn and cut in pieces, the step peaked at 54 MB (numpy 2.4,
        x86_64); drawn whole it peaked at 682 MB.
        """
        menu = tc.Menu(items=tuple("abcdefg"))
        orderings = tc.all_orderings(7)
        enum = tc.enumerate_sets(menu, outside_mode=False)
        init = np.zeros(enum.d_c)
        init[0] = 1.0
        tracemalloc.start()
        try:
            (chain,) = _chains(init, enum, orderings.d_pref, 2, [3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120e6, peak
        rule = tc.AttentionRule(u=chain.reshape(2, -1), set_index=enum, d_pref=orderings.d_pref)
        assert tc.check_time_monotonicity(rule).passed
        assert _digest(rule.u) == (
            "3f28da9d690895b6d19d0263fae54102e653c7fa7ec6f02b76d1ac17987a47a0"
        )


def _pcg64_states(states):
    """The state of the PCG64 the sampler seeds from each row of ``states``."""
    return [np.random.PCG64(_hashed_seed()(words)).state for words in states]


@pytest.mark.filterwarnings("error")
class TestChildStates:
    """The bulk hash seeds every child exactly as numpy's own SeedSequence does."""

    @staticmethod
    def _check(root, count):
        states = _child_states(root, root.n_children_spawned, count)
        assert states.shape == (count, 4) and states.dtype == np.uint64
        expected = [np.random.PCG64(child).state for child in child_seeds(root, count)]
        assert _pcg64_states(states) == expected

    def test_random_int_entropies(self):
        rng = np.random.default_rng(8)
        bits = [0, 1, 31, 32, 33, 63, 64, 65, 96, 127, 128, 129, 160, 200]
        entropies = [0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**128 + 1]
        entropies += [int(rng.integers(0, 2**62)) >> (62 - b) if b < 62
                      else int(rng.integers(0, 2**62)) << (b - 62) for b in bits]
        for entropy in entropies:
            self._check(np.random.SeedSequence(entropy), 6)

    @pytest.mark.parametrize(
        "entropy",
        [(1, 2, 3), (2**40, 5), (7, (8, 2**70)), range(9), np.arange(5, dtype=np.uint32),
         ("0x1f", "17", 3)],
    )
    def test_sequence_entropies(self, entropy):
        self._check(np.random.SeedSequence(entropy), 6)

    def test_fresh_entropy_root(self):
        self._check(np.random.SeedSequence(None), 6)

    @pytest.mark.parametrize("spawn_key", [(0,), (3, 1), (2**32, 5), (4, 2**40 + 3, 0, 9)])
    def test_nested_spawn_keys(self, spawn_key):
        self._check(np.random.SeedSequence(123, spawn_key=spawn_key), 6)
        self._check(np.random.SeedSequence(2**100 + 7, spawn_key=spawn_key), 6)

    @pytest.mark.parametrize("pool_size", [5, 8])
    def test_larger_pools(self, pool_size):
        self._check(np.random.SeedSequence(99, pool_size=pool_size), 6)
        self._check(np.random.SeedSequence(2**300 + 1, spawn_key=(4,), pool_size=pool_size), 6)

    def test_children_already_spawned(self):
        self._check(np.random.SeedSequence(31, n_children_spawned=17), 6)
        root = np.random.SeedSequence(31)
        root.spawn(3)
        self._check(root, 6)

    def test_oracle_children_are_spawned_children(self):
        kwargs = dict(spawn_key=(2, 2**33), pool_size=6, n_children_spawned=5)
        spawned = np.random.SeedSequence(77, **kwargs).spawn(4)
        mine = child_seeds(np.random.SeedSequence(77, **kwargs), 4)
        for a, b in zip(spawned, mine, strict=True):
            assert np.array_equal(a.generate_state(8), b.generate_state(8))

    def test_child_index_past_two_to_the_32(self):
        """Children 2**32 - 2 ... 2**32 + 2: the index takes a second word at 2**32."""
        root = np.random.SeedSequence(5, n_children_spawned=2**32 - 2)
        self._check(root, 5)
        states = _child_states(root, 2**32 + 1, 2)
        assert _pcg64_states(states) == _pcg64_states(_child_states(root, 2**32 - 2, 5)[3:])

    def test_pool_across_two_to_the_32(self, menu3, orderings3):
        root = np.random.SeedSequence(6, spawn_key=(1,), n_children_spawned=2**32 - 2)
        config = tc.SamplerConfig(d_t=3, seed=root, outside_mode=False)
        pool = tc.sample_attention_rules(menu3, orderings3, config, 4)
        for child, rule in zip(child_seeds(root, 4), pool, strict=True):
            alone = _reference_rule(menu3, orderings3, replace(config, seed=child))
            np.testing.assert_array_equal(rule, alone)

    def test_draw_rules_rejects_rows_other_than_four_words(self, menu3, orderings3):
        enum = tc.enumerate_sets(menu3)
        config = tc.SamplerConfig(d_t=2, outside_mode=False)
        out = np.empty((2, 2, orderings3.d_pref, enum.d_c))
        with pytest.raises(ValidationError):
            _draw_rules(enum, orderings3.d_pref, config, np.zeros((2, 3), np.uint64), out,
                        _Workspace(orderings3.d_pref, enum.d_c, 2))

    def test_empty_range(self):
        root = np.random.SeedSequence(1)
        assert _child_states(root, 0, 0).shape == (0, 4)
        assert _child_states(root, 2**40, 0).shape == (0, 4)


class TestDirichletStarts:
    """Non-outside starts equal ``Generator.dirichlet(np.ones(d_c), size=d_pref)``."""

    @staticmethod
    def _enum(d_c):
        items = tuple("abcde"[: (d_c + 1).bit_length() - 1])
        return tc.enumerate_sets(tc.Menu(items=items), outside_mode=False)

    @pytest.mark.parametrize("d_c", [3, 7, 15, 31])
    def test_equal_numpy_dirichlet(self, d_c):
        enum = self._enum(d_c)
        assert enum.d_c == d_c
        config = tc.SamplerConfig(d_t=1, outside_mode=False)
        rngs = [np.random.default_rng(s) for s in range(40)]
        starts = _initial_states(enum, config, 6, rngs)
        for s, (rng, start) in enumerate(zip(rngs, starts)):
            oracle = np.random.default_rng(s)
            np.testing.assert_array_equal(start, oracle.dirichlet(np.ones(d_c), size=6))
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_rows_are_summed_left_to_right(self):
        """A pairwise row sum rounds differently on some seeds; dirichlet's order is kept."""
        enum = self._enum(15)
        config = tc.SamplerConfig(d_t=1, outside_mode=False)
        seeds = range(40)
        starts = _initial_states(enum, config, 6, [np.random.default_rng(s) for s in seeds])
        pairwise_differs = 0
        for s, start in zip(seeds, starts):
            x = np.random.default_rng(s).standard_exponential((6, 15))
            pairwise = x * (1.0 / x.sum(axis=1, keepdims=True))
            oracle = np.random.default_rng(s).dirichlet(np.ones(15), size=6)
            pairwise_differs += not np.array_equal(pairwise, oracle)
            np.testing.assert_array_equal(start, oracle)
        assert pairwise_differs > 0
