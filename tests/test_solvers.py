import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timedchoice as tc
from timedchoice import solvers
from timedchoice.errors import ValidationError
from timedchoice.hyptest import _omega, default_tau, variance_weights
from timedchoice.solvers import (
    _fista,
    _grams,
    constrained_lstsq_batch,
    kkt_residual,
    project_simplex,
)
from timedchoice.transform import design_matrix_batch


def grid_minimum_2d(M, b, weights=None, lower=0.0, resolution=1e-3):
    """Brute-force oracle on the 2-variable simplex."""
    best = np.inf
    w = np.ones(M.shape[0]) if weights is None else weights
    for p0 in np.arange(lower, 1.0 - lower + 1e-12, resolution):
        p = np.array([p0, 1.0 - p0])
        r = M @ p - b
        best = min(best, float(np.sum(w * r * r)))
    return best


class TestProjectSimplex:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_projection_is_feasible_and_optimal(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(scale=3.0, size=int(rng.integers(2, 9)))
        p = project_simplex(v)
        assert p.min() >= 0
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        # No feasible point is closer (spot check against random candidates).
        for _ in range(20):
            q = rng.dirichlet(np.ones(v.size))
            assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-9

    def test_batched_rows(self):
        v = np.array([[2.0, 0.0], [-1.0, -5.0]])
        p = project_simplex(v)
        np.testing.assert_allclose(p[0], [1.0, 0.0])
        np.testing.assert_allclose(p[1], [1.0, 0.0])


def solve_one(M, b, **kwargs):
    """``(p, objective, kkt_residual)`` of one problem, solved as a ``(1, m, d)`` stack."""
    p, obj, res = constrained_lstsq_batch(np.asarray(M)[None], b, **kwargs)
    return p[0], obj[0], res[0]


class TestConstrainedLstsq:
    def test_parameters(self):
        assert list(inspect.signature(constrained_lstsq_batch).parameters) == [
            "M", "b", "weights", "lower", "sum_constraint", "kkt_tol",
        ]

    def test_exact_recovery_interior(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(12, 4))
        p_true = np.array([0.4, 0.3, 0.2, 0.1])
        p, obj, res = solve_one(M, M @ p_true)
        np.testing.assert_allclose(p, p_true, atol=1e-9)
        assert obj < 1e-18
        assert res < 1e-8

    def test_active_bounds_solution(self):
        # Target far outside the simplex face: solution lands on a vertex.
        M = np.eye(3)
        p, _, _ = solve_one(M, np.array([2.0, -1.0, -1.0]))
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)

    def test_simplex_constraints_hold_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            M = rng.normal(size=(6, 5))
            b = rng.normal(size=6)
            p, _, _ = solve_one(M, b)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12

    def test_objective_matches_independent_evaluation(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(9, 4))
        b = rng.normal(size=9)
        w = rng.uniform(0.5, 2.0, size=9)
        p, obj, _ = solve_one(M, b, weights=w)
        r = M @ p - b
        assert obj == pytest.approx(float(np.sum(w * r * r)), abs=1e-10)

    def test_agrees_with_grid_oracle_two_vars(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M = rng.normal(size=(6, 2))
            b = rng.normal(size=6)
            w = rng.uniform(0.1, 4.0, size=6)
            _, obj, _ = solve_one(M, b, weights=w)
            oracle = grid_minimum_2d(M, b, weights=w)
            assert obj <= oracle + 1e-4

    def test_lower_bound_respected(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(8, 4))
        b = rng.normal(size=8)
        p, _, _ = solve_one(M, b, lower=0.05)
        assert p.min() >= 0.05 - 1e-12
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_span_returns_unique_point(self):
        M = np.eye(4)
        p, obj, res = solve_one(M, np.zeros(4), lower=0.25)
        np.testing.assert_allclose(p, np.full(4, 0.25))
        assert obj == pytest.approx(0.25)

    def test_infeasible_lower_bound_raises(self):
        with pytest.raises(ValidationError):
            solve_one(np.eye(3), np.zeros(3), lower=0.5)

    def test_orthant_mode_matches_known_nnls(self):
        # min ||Mp - b||^2, p >= 0 with a strictly interior solution equals
        # the unconstrained least squares.
        rng = np.random.default_rng(13)
        M = rng.normal(size=(10, 3))
        p_true = np.array([0.7, 1.3, 0.4])
        b = M @ p_true
        p, obj, res = solve_one(M, b, sum_constraint=False)
        np.testing.assert_allclose(p, p_true, atol=1e-8)
        assert obj < 1e-16

    def test_orthant_mode_clips_negative_components(self):
        M = np.eye(2)
        p, obj, _ = solve_one(M, np.array([1.5, -2.0]), sum_constraint=False)
        np.testing.assert_allclose(p, [1.5, 0.0], atol=1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(23)
        Ms = rng.normal(size=(7, 6, 3))
        bs = rng.normal(size=(7, 6))
        ps, objs, _ = constrained_lstsq_batch(Ms, bs)
        for k in range(7):
            p, obj, _ = solve_one(Ms[k], bs[k])
            np.testing.assert_allclose(ps[k], p, atol=1e-9)
            assert objs[k] == pytest.approx(obj, abs=1e-10)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            solve_one(np.eye(2), np.zeros(2), weights=np.array([1.0, -1.0]))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_kkt_residual_small_on_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(3, 12)), int(rng.integers(2, 8))
        M = rng.normal(size=(m, d))
        b = rng.normal(size=m)
        _, _, res = solve_one(M, b)
        assert res < 1e-8


def _reference_polish_one(G, h, r, *, sum_constraint):
    """Active-set polish of one problem, one KKT solve per round."""
    d = h.shape[0]
    support = r > max(solvers.SUPPORT_TOL, 1e-9 * max(r.max(), 1.0))
    if not support.any():
        support[int(np.argmax(h))] = True
    best = r
    for _ in range(4 * d + 8):
        idx = np.nonzero(support)[0]
        s = idx.size
        if sum_constraint:
            kkt = np.zeros((s + 1, s + 1))
            kkt[:s, :s] = 2.0 * G[np.ix_(idx, idx)]
            kkt[:s, s] = 1.0
            kkt[s, :s] = 1.0
            rhs = np.concatenate([2.0 * h[idx], [1.0]])
        else:
            kkt = 2.0 * G[np.ix_(idx, idx)]
            rhs = 2.0 * h[idx]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        r_s = sol[:s]
        if np.any(r_s < -1e-12):
            support[idx[int(np.argmin(r_s))]] = False
            if not support.any():
                break
            continue
        cand = np.zeros(d)
        cand[idx] = np.maximum(r_s, 0.0)
        g = 2.0 * (G @ cand - h)
        best = cand
        if sum_constraint:
            nu = g[idx].max()
            entering = np.nonzero(~support & (g < nu - 1e-14 * (1 + abs(nu))))[0]
        else:
            entering = np.nonzero(~support & (g < -1e-14 * (1 + np.abs(g).max())))[0]
        if entering.size == 0:
            break
        support[entering[int(np.argmin(g[entering]))]] = True
    return best


def _gram_form(M, b, w, *, lower, sum_constraint):
    """``(G, h, r0)`` as :func:`constrained_lstsq_batch` hands them to FISTA."""
    k, _, d = M.shape
    span = max(1.0 - d * lower, 0.0) if sum_constraint else 1.0
    c = (b - lower * M.sum(axis=2)) / max(span, 1e-300)
    G, h = _grams(M, c, w)
    return G, h, np.full((k, d), (1.0 / d) if sum_constraint else 0.0)


def _reference_batch(M, b, *, weights=None, lower=0.0, sum_constraint=True):
    """The batched solver with a 400-iteration warm start and a per-problem polish.

    The oracle for :func:`constrained_lstsq_batch`, which warm starts with
    one FISTA window and polishes all problems in lockstep (unit total,
    default budget and tolerance, a feasible lower bound).
    """
    max_iter, kkt_tol = 50_000, 1e-8
    M = np.asarray(M, dtype=np.float64)
    k, m, d = M.shape
    b = np.broadcast_to(np.asarray(b, dtype=np.float64), (k, m))
    w = np.broadcast_to(np.asarray(1.0 if weights is None else weights, dtype=np.float64), (k, m))
    span = max(1.0 - d * lower, 0.0) if sum_constraint else 1.0
    G, h, r0 = _gram_form(M, b, w, lower=lower, sum_constraint=sum_constraint)
    r, it = _fista(G, h, r0, sum_constraint=sum_constraint, max_iter=400, tol=kkt_tol)
    for i in range(k):
        r[i] = _reference_polish_one(G[i], h[i], r[i], sum_constraint=sum_constraint)
    res = kkt_residual(G, h, r, sum_constraint=sum_constraint)
    bad = res > kkt_tol
    if np.any(bad) and it < max_iter:
        r_bad, _ = _fista(
            G[bad], h[bad], r[bad],
            sum_constraint=sum_constraint, max_iter=max_iter - it, tol=kkt_tol,
        )
        r[bad] = r_bad
        for i in np.nonzero(bad)[0]:
            r[i] = _reference_polish_one(G[i], h[i], r[i], sum_constraint=sum_constraint)
        res = kkt_residual(G, h, r, sum_constraint=sum_constraint)
    p = lower + span * r
    if sum_constraint:
        free = np.maximum(p - lower, 0.0)
        tot = free.sum(axis=1, keepdims=True)
        good = tot[:, 0] > 0
        free[good] *= span / tot[good]
        p = lower + free
    else:
        p = np.maximum(p, lower)
    resid = np.einsum("kmd,kd->km", M, p, optimize=True) - b
    obj = (w * resid**2).sum(axis=1)
    return p, obj, res


def _assert_bytes_equal(got, want):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.fixture(scope="module")
def bundled_pool():
    """Design matrices of the first 1,024 rules of the bundled experiment's pool (seed 0)."""
    pi, menu = tc.load_experiment_dataset()
    orderings, _ = tc.crra_ordering_set()
    enum = tc.enumerate_sets(menu, outside_mode=True)
    transform = tc.build_choice_transform(menu, enum, orderings)
    config = tc.SamplerConfig(d_t=pi.d_t, seed=0, outside_mode=True)
    blocks = tc.sample_attention_rules(menu, orderings, config, 1024)
    return pi, design_matrix_batch(blocks, transform)


class TestLockstepPolishOracle:
    """The lockstep solver returns the oracle's bytes.

    Recorded with numpy 2.4 on x86_64 (OpenBLAS): a stacked
    ``np.linalg.solve`` runs the same LAPACK ``dgesv`` on each matrix as a
    solve of that matrix alone, and on these problems the one-window warm
    start leads the polish to the same active face as the 400-iteration one.
    """

    def test_bundled_pool_unweighted(self, bundled_pool):
        pi, ms = bundled_pool
        _assert_bytes_equal(constrained_lstsq_batch(ms, pi.vec()), _reference_batch(ms, pi.vec()))

    def test_bundled_pool_with_test_weights_and_floor(self, bundled_pool):
        pi, ms = bundled_pool
        d = ms.shape[2]
        kw = dict(
            weights=variance_weights(pi).inverse, lower=default_tau(d, pi.total_count) / d
        )
        _assert_bytes_equal(
            constrained_lstsq_batch(ms, pi.vec(), **kw), _reference_batch(ms, pi.vec(), **kw)
        )

    def test_bootstrap_shape(self, bundled_pool):
        """One design matrix broadcast over L replications, per-row targets and weights."""
        pi, ms = bundled_pool
        m, d, L = ms[0], ms.shape[2], 199
        counts = np.asarray(pi.period_counts)
        rng = np.random.default_rng(1)
        pi_star = np.stack(
            [rng.multinomial(counts[t], pi.pi[t], size=L) / counts[t] for t in range(pi.d_t)],
            axis=1,
        ).reshape(L, -1)
        _, inv_star = _omega(pi_star, np.repeat(counts.astype(float), pi.n)[None, :])
        eta = m @ np.full(d, 1.0 / d)
        targets = pi_star - pi.vec()[None, :] + eta[None, :]
        kw = dict(weights=inv_star, lower=default_tau(d, pi.total_count) / d)
        M = np.broadcast_to(m, (L,) + m.shape)
        _assert_bytes_equal(
            constrained_lstsq_batch(M, targets, **kw), _reference_batch(M, targets, **kw)
        )

    def test_orthant_mode(self, bundled_pool):
        pi, ms = bundled_pool
        ms = ms[:256]
        _assert_bytes_equal(
            constrained_lstsq_batch(ms, pi.vec(), sum_constraint=False),
            _reference_batch(ms, pi.vec(), sum_constraint=False),
        )


class TestPolishFallbacks:
    def test_singular_kkt_systems_fall_back_one_at_a_time(self, monkeypatch):
        """Duplicate design columns make the KKT system singular: lstsq answers it."""
        rng = np.random.default_rng(0)
        M = rng.normal(size=(8, 9, 4))
        M[::2, :, 3] = M[::2, :, 1]
        b = rng.normal(size=(8, 9))
        want = _reference_batch(M, b)
        alone = constrained_lstsq_batch(M[1::2], b[1::2])
        real_lstsq = np.linalg.lstsq
        calls = []

        def counting_lstsq(*args, **kwargs):
            calls.append(args[0].shape)
            return real_lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        got = constrained_lstsq_batch(M, b)
        assert calls
        _assert_bytes_equal(got, want)
        # The regular problems are unaffected by their singular neighbours.
        _assert_bytes_equal([x[1::2] for x in got], alone)
        assert np.all(got[2] <= 1e-8)

    def test_straggler_pass_reaches_the_tolerance(self, bundled_pool, monkeypatch):
        """Problems the first polish leaves unconverged get the full-budget pass."""
        pi, ms = bundled_pool
        ms = ms[:64]
        clean = constrained_lstsq_batch(ms, pi.vec())
        real_polish = solvers._polish_batch
        sizes = []

        def first_polish_skipped(G, h, r, **kwargs):
            sizes.append(len(h))
            return r if len(sizes) == 1 else real_polish(G, h, r, **kwargs)

        monkeypatch.setattr(solvers, "_polish_batch", first_polish_skipped)
        p, obj, res = constrained_lstsq_batch(ms, pi.vec())
        assert len(sizes) == 2 and 0 < sizes[1] <= 64
        assert np.all(res <= 1e-8)
        np.testing.assert_allclose(p, clean[0], atol=1e-9)
        np.testing.assert_allclose(obj, clean[1], rtol=1e-9, atol=1e-15)


def _reference_kkt_residual(G, h, p, *, sum_constraint):
    """:func:`kkt_residual` with its gradient as a planned ``einsum``."""
    g = 2.0 * (np.einsum("kij,kj->ki", G, p, optimize=True) - h)
    scale = 1.0 + np.abs(g).max(axis=1)
    on = p > solvers.SUPPORT_TOL
    if sum_constraint:
        g_support_max = np.where(on, g, -np.inf).max(axis=1)
        res = g_support_max - g.min(axis=1)
    else:
        stat = np.abs(np.where(on, g, 0.0)).max(axis=1)
        neg = np.maximum(0.0, -np.where(on, 0.0, g)).max(axis=1)
        res = np.maximum(stat, neg)
    return np.maximum(res, 0.0) / scale


def _reference_fista(G, h, r0, *, sum_constraint, max_iter, tol):
    """:func:`_fista` with its gradient as a planned ``einsum``."""
    lips = 2.0 * np.linalg.eigvalsh(G)[:, -1]
    lips = np.maximum(lips, 1e-300)
    step = (1.0 / lips)[:, None]

    def proj(v):
        if sum_constraint:
            return project_simplex(v)
        return np.maximum(v, 0.0)

    r = proj(r0.copy())
    y = r.copy()
    t_acc = 1.0
    it = 0
    while it < max_iter:
        grad = 2.0 * (np.einsum("kij,kj->ki", G, y, optimize=True) - h)
        r_new = proj(y - step * grad)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = r_new + ((t_acc - 1.0) / t_new) * (r_new - r)
        # Restart acceleration when momentum points uphill.
        ascent = np.einsum("ki,ki->k", r_new - r, grad) > 0
        if np.any(ascent):
            y[ascent] = r_new[ascent]
        r, t_acc = r_new, t_new
        it += 1
        if it % solvers.FISTA_WINDOW == 0:
            if _reference_kkt_residual(G, h, r, sum_constraint=sum_constraint).max() < tol:
                break
    return r, it


class TestFistaFrozenReference:
    """``_fista`` and ``kkt_residual`` return the einsum reference's bytes.

    A two-operand ``einsum(..., optimize=True)`` reshapes its operands and
    calls ``np.matmul``, so the solver's direct ``matmul`` does the same
    arithmetic without planning a contraction path on every call.
    """

    @staticmethod
    def _check(G, h, r0, *, sum_constraint, max_iter, tol):
        kw = dict(sum_constraint=sum_constraint, max_iter=max_iter, tol=tol)
        r, it = _fista(G, h, r0, **kw)
        want_r, want_it = _reference_fista(G, h, r0, **kw)
        assert it == want_it
        _assert_bytes_equal([r], [want_r])
        _assert_bytes_equal(
            [kkt_residual(G, h, r, sum_constraint=sum_constraint)],
            [_reference_kkt_residual(G, h, r, sum_constraint=sum_constraint)],
        )
        return it

    def test_bundled_pool_unweighted(self, bundled_pool):
        pi, ms = bundled_pool
        b = np.broadcast_to(pi.vec(), ms.shape[:2])
        G, h, r0 = _gram_form(ms, b, np.ones(ms.shape[:2]), lower=0.0, sum_constraint=True)
        self._check(G, h, r0, sum_constraint=True, max_iter=400, tol=solvers.KKT_TOL)

    def test_bundled_pool_with_test_weights_and_floor(self, bundled_pool):
        pi, ms = bundled_pool
        d = ms.shape[2]
        b = np.broadcast_to(pi.vec(), ms.shape[:2])
        w = np.broadcast_to(variance_weights(pi).inverse, ms.shape[:2])
        lower = default_tau(d, pi.total_count) / d
        G, h, r0 = _gram_form(ms, b, w, lower=lower, sum_constraint=True)
        self._check(G, h, r0, sum_constraint=True, max_iter=400, tol=solvers.KKT_TOL)

    def test_orthant_mode(self, bundled_pool):
        pi, ms = bundled_pool
        ms = ms[:256]
        b = np.broadcast_to(pi.vec(), ms.shape[:2])
        G, h, r0 = _gram_form(ms, b, np.ones(ms.shape[:2]), lower=0.0, sum_constraint=False)
        self._check(G, h, r0, sum_constraint=False, max_iter=400, tol=solvers.KKT_TOL)

    def test_duplicate_columns_straggler_regime(self):
        """A zero tolerance runs the whole budget, as the straggler pass can."""
        rng = np.random.default_rng(0)
        M = rng.normal(size=(8, 9, 4))
        M[::2, :, 3] = M[::2, :, 1]
        b = rng.normal(size=(8, 9))
        G, h, r0 = _gram_form(M, b, rng.random((8, 9)), lower=0.0, sum_constraint=True)
        assert self._check(G, h, r0, sum_constraint=True, max_iter=1_200, tol=0.0) == 1_200


def _reference_polish_batch(G, h, r, *, sum_constraint):
    """:func:`_polish_batch` with its earlier drop rule: the most negative coordinate leaves."""
    k, d = h.shape
    best = r.copy()
    thresh = np.maximum(solvers.SUPPORT_TOL, 1e-9 * np.maximum(r.max(axis=1), 1.0))
    support = r > thresh[:, None]
    empty = np.flatnonzero(~support.any(axis=1))
    support[empty, np.argmax(h[empty], axis=1)] = True
    active = np.arange(k)
    for _ in range(4 * d + 8):
        if active.size == 0:
            break
        sizes = np.count_nonzero(support[active], axis=1)
        done = []
        for s in np.unique(sizes).tolist():
            ids = active[sizes == s]
            n = ids.size
            idx = np.nonzero(support[ids])[1].reshape(n, s)
            dim = s + 1 if sum_constraint else s
            kkt = np.zeros((n, dim, dim))
            kkt[:, :s, :s] = 2.0 * G[ids[:, None, None], idx[:, :, None], idx[:, None, :]]
            rhs = np.empty((n, dim, 1))
            rhs[:, :s, 0] = 2.0 * h[ids[:, None], idx]
            if sum_constraint:
                kkt[:, :s, s] = 1.0
                kkt[:, s, :s] = 1.0
                rhs[:, s, 0] = 1.0
            try:
                r_s = np.linalg.solve(kkt, rhs)[:, :s, 0]
            except np.linalg.LinAlgError:
                r_s = np.empty((n, s))
                for j in range(n):
                    try:
                        sol = np.linalg.solve(kkt[j], rhs[j, :, 0])
                    except np.linalg.LinAlgError:
                        sol, *_ = np.linalg.lstsq(kkt[j], rhs[j, :, 0], rcond=None)
                    r_s[j] = sol[:s]
            neg = (r_s < -1e-12).any(axis=1)
            drop = ids[neg]
            support[drop, idx[neg, np.argmin(r_s[neg], axis=1)]] = False
            done.append(drop[~support[drop].any(axis=1)])
            ok = ~neg
            ids, idx = ids[ok], idx[ok]
            cand = np.zeros((ids.size, d))
            np.put_along_axis(cand, idx, np.maximum(r_s[ok], 0.0), axis=1)
            best[ids] = cand
            g = 2.0 * (np.matmul(G[ids], cand[:, :, None])[:, :, 0] - h[ids])
            if sum_constraint:
                nu = np.take_along_axis(g, idx, axis=1).max(axis=1, keepdims=True)
                limit = nu - 1e-14 * (1 + np.abs(nu))
            else:
                limit = -1e-14 * (1 + np.abs(g).max(axis=1, keepdims=True))
            entering = ~support[ids] & (g < limit)
            more = entering.any(axis=1)
            done.append(ids[~more])
            ids = ids[more]
            enter = np.where(entering[more], g[more], np.inf).argmin(axis=1)
            support[ids, enter] = True
        active = np.setdiff1d(active, np.concatenate(done), assume_unique=True)
    return best


def _reference_constrained_lstsq_batch(M, b, *, weights=None, lower=0.0, sum_constraint=True):
    """:func:`constrained_lstsq_batch` polishing with :func:`_reference_polish_batch`."""
    kkt_tol = solvers.KKT_TOL
    M = np.asarray(M, dtype=np.float64)
    k, m, d = M.shape
    b = np.broadcast_to(np.asarray(b, dtype=np.float64), (k, m))
    w = np.broadcast_to(np.asarray(1.0 if weights is None else weights, dtype=np.float64), (k, m))
    span = max(1.0 - d * lower, 0.0) if sum_constraint else 1.0
    G, h, r0 = _gram_form(M, b, w, lower=lower, sum_constraint=sum_constraint)
    r, it = _fista(
        G, h, r0, sum_constraint=sum_constraint, max_iter=solvers.FISTA_WINDOW, tol=kkt_tol
    )
    r = _reference_polish_batch(G, h, r, sum_constraint=sum_constraint)
    res = kkt_residual(G, h, r, sum_constraint=sum_constraint)
    bad = res > kkt_tol
    if np.any(bad):
        r_bad, _ = _fista(
            G[bad], h[bad], r[bad],
            sum_constraint=sum_constraint, max_iter=solvers.MAX_ITER - it, tol=kkt_tol,
        )
        r[bad] = _reference_polish_batch(G[bad], h[bad], r_bad, sum_constraint=sum_constraint)
        res = kkt_residual(G, h, r, sum_constraint=sum_constraint)
    p = lower + span * r
    if sum_constraint:
        free = np.maximum(p - lower, 0.0)
        tot = free.sum(axis=1, keepdims=True)
        good = tot[:, 0] > 0
        free[good] *= span / tot[good]
        p = lower + free
    else:
        p = np.maximum(p, lower)
    resid = np.einsum("kmd,kd->km", M, p, optimize=True) - b
    obj = (w * resid**2).sum(axis=1)
    return p, obj, res


def _long_pass_counter(fista, sizes):
    """``fista`` that appends to ``sizes`` the size of every batch given more than one window."""

    def counting(G, h, r0, **kwargs):
        if kwargs["max_iter"] > solvers.FISTA_WINDOW:
            sizes.append(len(h))
        return fista(G, h, r0, **kwargs)

    return counting


@pytest.fixture
def long_passes(monkeypatch):
    """Sizes of the batches that :func:`constrained_lstsq_batch` sends to the long FISTA pass."""
    sizes = []
    monkeypatch.setattr(solvers, "_fista", _long_pass_counter(solvers._fista, sizes))
    return sizes


@pytest.fixture(scope="module")
def criterion_08_replication():
    """Every solver call of criterion 08's first null replication (seed 9000, pool 1,000, L = 199)."""
    menu = tc.Menu(items=("a", "b", "c"))
    orderings = tc.all_orderings(3)
    transform = tc.build_choice_transform(menu, tc.enumerate_sets(menu), orderings)
    s_truth, s_run = np.random.SeedSequence(9_000).spawn(2)
    truth = tc.sample_attention_rule(
        menu, orderings, tc.SamplerConfig(d_t=3, seed=s_truth, outside_mode=False)
    )
    p_mix = tc.PreferenceDistribution(np.random.default_rng(s_truth).dirichlet(np.ones(6)))
    pi_pop = tc.predict_choices(truth, transform, p_mix).pi
    s_noise, s_pool, s_boot = s_run.spawn(3)
    rng = np.random.default_rng(s_noise)
    pi = tc.ChoiceDataset(
        pi=np.stack([rng.multinomial(500, pi_pop[t]) / 500 for t in range(3)]),
        period_counts=(500,) * 3,
    )
    calls = []

    def recording(M, b, **kwargs):
        calls.append((np.array(M), np.array(b), kwargs))
        return constrained_lstsq_batch(M, b, **kwargs)

    sampler = tc.SamplerConfig(d_t=3, seed=s_pool, outside_mode=False)
    config = tc.TestConfig(n_boot=199, seed=s_boot)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tc.hyptest, "constrained_lstsq_batch", recording)
        mp.setattr(tc.estimator, "constrained_lstsq_batch", recording)
        rule, transform = tc.fit_test_rule(pi, menu, orderings, 1000, sampler, config)
        tc.bootstrap_test(pi, rule, transform, config)
    return calls


class TestActiveSetFrozenReference:
    """The ratio-test polish returns the bytes of the earlier drop rule.

    Where the minimizer is unique, both polishes end with the same stacked
    solve on its face, so ``(p, objective, kkt_res)`` agree bit for bit; the
    drop rule can cycle between faces and leave a problem to the long FISTA
    pass, which the ratio test does not need.
    """

    @staticmethod
    def _check(M, b, **kwargs):
        _assert_bytes_equal(
            constrained_lstsq_batch(M, b, **kwargs),
            _reference_constrained_lstsq_batch(M, b, **kwargs),
        )

    def test_bundled_pool_unweighted(self, bundled_pool):
        pi, ms = bundled_pool
        self._check(ms, pi.vec())

    def test_bundled_pool_with_test_weights_and_floor(self, bundled_pool):
        pi, ms = bundled_pool
        d = ms.shape[2]
        self._check(
            ms, pi.vec(),
            weights=variance_weights(pi).inverse, lower=default_tau(d, pi.total_count) / d,
        )

    def test_orthant_mode(self, bundled_pool):
        pi, ms = bundled_pool
        self._check(ms[:256], pi.vec(), sum_constraint=False)

    def test_criterion_08_replication_skips_the_long_pass(
        self, criterion_08_replication, long_passes, monkeypatch
    ):
        reference_passes = []
        # The reference looks ``_fista`` up in this module's namespace.
        monkeypatch.setitem(globals(), "_fista", _long_pass_counter(_fista, reference_passes))
        assert [len(M) for M, _, _ in criterion_08_replication] == [1000, 1, 199]
        for M, b, kwargs in criterion_08_replication:
            self._check(M, b, **kwargs)
        assert reference_passes == [2]
        assert long_passes == []


class TestRatioTestRegression:
    def test_rank_deficient_orthant_problem_settles_in_the_polish(self, long_passes):
        """A 4-row, 6-unknown orthant problem that the drop rule left unconverged.

        The drop rule cycled between faces and returned one at KKT residual
        0.12 and objective 2.28, and did so again after the long pass had
        converged in 128 iterations; an exact fit exists.
        """
        M = np.array([
            [1.34, -1.26, -0.36, -1.03, 0.76, 0.03],
            [-1.04, 0.26, 0.99, -1.1, 0.82, -0.53],
            [0.21, -0.17, 0.35, -0.97, -0.69, 0.23],
            [-0.26, 1.05, -0.64, -0.75, -0.85, -0.35],
        ])[None]
        b = np.array([0.76, 0.73, -0.17, 1.87])
        p, obj, res = constrained_lstsq_batch(M, b, sum_constraint=False)
        assert long_passes == []
        assert res[0] <= solvers.KKT_TOL
        assert obj[0] < 1e-20
        assert np.all(p >= 0.0)
        _, ref_obj, ref_res = _reference_constrained_lstsq_batch(M, b, sum_constraint=False)
        assert ref_res[0] > 0.1 and ref_obj[0] > 2.0

    def test_random_orthant_batch_needs_no_long_pass(self, long_passes):
        """2,000 random 4-row, 6-unknown orthant problems all settle in the polish.

        The drop rule left 13 of them to the long pass and 6 unconverged.
        """
        rng = np.random.default_rng(0)
        M = rng.normal(size=(2000, 4, 6))
        b = rng.normal(size=(2000, 4))
        p, _, res = constrained_lstsq_batch(M, b, sum_constraint=False)
        assert long_passes == []
        assert np.all(res <= solvers.KKT_TOL)
        assert np.all(p >= 0.0)
