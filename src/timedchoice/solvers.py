"""Simplex-constrained (weighted) least squares.

Solves ``min_p ||W^(1/2) (M p - b)||^2`` subject to ``p >= lower`` and,
optionally, ``sum(p) = 1``.  Problems of this shape are small (a few
to a few hundred variables) but arrive in large batches, one per simulated
attention rule or bootstrap replication, so the implementation works on
stacked Gram matrices.  One window of accelerated projected gradient
(FISTA) over the whole batch gives a warm start; an exact active-set polish
then pins each problem's active face and solves the KKT equations on it,
so clean problems finish at machine precision.  It is the primal
active-set method: when a face's solution leaves the feasible set, the
iterate steps to the boundary (the ratio test) before a coordinate leaves
the face, so the path cannot cycle between faces.  The polish advances the
problems in lockstep and solves, each round, all KKT systems of one support
size with one stacked solve.  Problems still above the tolerance after it,
which the polish's round cap or a singular face can leave, get a second,
full-budget FISTA pass and another polish as a last resort.

The polish's answer depends on the warm start only through the face it
ends on.  Where the minimizer is unique, that is its support from any
start, so a longer warm start gives the same solution bit for bit.  Where
the minimizer is not unique (fewer rows than unknowns, repeated columns),
the warm start decides which minimizer is returned.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import SolverError, ValidationError

#: Default target for the normalized KKT residual: a solve that ends above
#: it has not converged.
KKT_TOL = 1e-8

#: Entries of a solution below this are treated as at the lower bound.
SUPPORT_TOL = 1e-12

#: FISTA checks convergence every this many iterations, and the first pass
#: of :func:`constrained_lstsq_batch` runs one such window: it only warm
#: starts the exact polish, which settles the active face from there.
FISTA_WINDOW = 32

#: Accelerated-gradient iteration budget of :func:`constrained_lstsq_batch`.
MAX_ITER = 50_000


def project_simplex(v: NDArray) -> NDArray:
    """Euclidean projection of each row of ``v`` onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    shape = v.shape
    flat = v.reshape(-1, shape[-1])
    srt = np.sort(flat, axis=1)[:, ::-1]
    csum = np.cumsum(srt, axis=1) - 1.0
    arange = np.arange(1, shape[-1] + 1)
    cond = srt - csum / arange > 0
    rho = shape[-1] - np.argmax(cond[:, ::-1], axis=1) - 1
    theta = csum[np.arange(flat.shape[0]), rho] / (rho + 1)
    out = np.maximum(flat - theta[:, None], 0.0)
    return out.reshape(shape)


def _grams(M: NDArray, b: NDArray, w: NDArray):
    """Batched Gram matrices G = M'WM and linear terms h = M'Wb."""
    Mw = M * w[:, :, None]
    G = np.einsum("kmi,kmj->kij", Mw, M, optimize=True)
    h = np.einsum("kmi,km->ki", Mw, b, optimize=True)
    return G, h


def kkt_residual(
    G: NDArray, h: NDArray, p: NDArray, *, sum_constraint: bool
) -> NDArray:
    """Normalized stationarity gap of candidate solutions (batched).

    With the sum constraint the gradient must be constant on the support
    and no smaller off it; the gap is (max support gradient - min gradient).
    Without it, optimality needs zero gradient on the support and
    nonnegative gradient off it.  Both are scaled by 1 + max |gradient|.
    """
    g = 2.0 * (np.matmul(G, p[:, :, None])[:, :, 0] - h)
    scale = 1.0 + np.abs(g).max(axis=1)
    on = p > SUPPORT_TOL
    if sum_constraint:
        g_support_max = np.where(on, g, -np.inf).max(axis=1)
        res = g_support_max - g.min(axis=1)
    else:
        stat = np.abs(np.where(on, g, 0.0)).max(axis=1)
        neg = np.maximum(0.0, -np.where(on, 0.0, g)).max(axis=1)
        res = np.maximum(stat, neg)
    return np.maximum(res, 0.0) / scale


def _fista(G, h, r0, *, sum_constraint, max_iter, tol):
    """Accelerated projected gradient on the batch; returns (r, iterations)."""
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
        grad = 2.0 * (np.matmul(G, y[:, :, None])[:, :, 0] - h)
        r_new = proj(y - step * grad)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = r_new + ((t_acc - 1.0) / t_new) * (r_new - r)
        # Restart acceleration when momentum points uphill.
        ascent = np.einsum("ki,ki->k", r_new - r, grad) > 0
        if ascent.any():
            y[ascent] = r_new[ascent]
        r, t_acc = r_new, t_new
        it += 1
        if it % FISTA_WINDOW == 0:
            if kkt_residual(G, h, r, sum_constraint=sum_constraint).max() < tol:
                break
    return r, it


def _polish_batch(G, h, r, *, sum_constraint):
    """Exact active-set refinement of a batch of problems in Gram form.

    Every problem follows its own primal active-set path (Nocedal & Wright,
    *Numerical Optimization*, Algorithm 16.3) from the support of ``r``,
    keeping a feasible iterate that starts as ``r`` with the entries off
    the support set to zero.  Each round solves the KKT equations on the
    support.  If that gives a negative coordinate, the iterate moves
    toward the solution until the first coordinate reaches zero (the ratio
    test), and that coordinate and any other now at zero leave the
    support; moving to the boundary first is what keeps the path from
    cycling between faces.  Otherwise the solution becomes the iterate and
    the coordinate with the most negative gradient enters.  A problem stops
    when none enters or after ``4 d + 8`` rounds.  The result is the last
    nonnegative candidate (``r`` itself if there was none).  A problem the
    round cap or a singular face leaves above the tolerance goes on to
    :func:`constrained_lstsq_batch`'s long FISTA pass.  The problems advance in
    lockstep: each round solves all KKT systems of one support size with
    one stacked ``np.linalg.solve``, which runs the same LAPACK routine on
    the same matrix as a solve of one problem, so the answers do not
    depend on how the batch is grouped.
    """
    k, d = h.shape
    best = r.copy()
    thresh = np.maximum(SUPPORT_TOL, 1e-9 * np.maximum(r.max(axis=1), 1.0))
    support = r > thresh[:, None]
    cur = np.where(support, r, 0.0)
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
            # Step toward the solution up to the first blocking coordinate,
            # drop it and any other that reaches zero, and retry; a problem
            # whose support runs empty stops.
            blocked, at, x = ids[neg], idx[neg], r_s[neg]
            c, down = cur[blocked[:, None], at], x < 0
            ratio = np.where(down, c / np.where(down, c - x, 1.0), np.inf)
            first = ratio.argmin(axis=1)
            step = c + ratio.min(axis=1, keepdims=True) * (x - c)
            zero = down & (step <= 0)
            zero[np.arange(blocked.size), first] = True
            cur[blocked[:, None], at] = np.where(zero, 0.0, step)
            support[blocked[:, None], at] = ~zero
            done.append(blocked[~support[blocked].any(axis=1)])
            ok = ~neg
            ids, idx = ids[ok], idx[ok]
            cand = np.zeros((ids.size, d))
            np.put_along_axis(cand, idx, np.maximum(r_s[ok], 0.0), axis=1)
            best[ids] = cur[ids] = cand
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


def constrained_lstsq_batch(
    M: NDArray,
    b: NDArray,
    *,
    weights: NDArray | None = None,
    lower: float = 0.0,
    sum_constraint: bool = True,
    kkt_tol: float = KKT_TOL,
) -> tuple[NDArray, NDArray, NDArray]:
    """Solve a batch of bound/simplex-constrained least-squares problems.

    Args:
        M: (k, m, d) stacked design matrices.
        b: (k, m) or (m,) targets.
        weights: optional (k, m) or (m,) nonnegative diagonal weights.
        lower: common componentwise lower bound on the solution.
        sum_constraint: impose ``sum(p) = 1``; otherwise only ``p >= lower``.
        kkt_tol: target normalized KKT residual.

    Returns:
        (p, objective, kkt_res): arrays of shape (k, d), (k,), (k,).  A
        problem whose ``kkt_res`` is above ``kkt_tol`` did not converge.
    """
    M = np.asarray(M, dtype=np.float64)
    k, m, d = M.shape
    b = np.broadcast_to(np.asarray(b, dtype=np.float64), (k, m))
    # Unit weights give the same bits as no weights: x * 1.0 == x.
    w = np.broadcast_to(np.asarray(1.0 if weights is None else weights, dtype=np.float64), (k, m))
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")

    if sum_constraint:
        span = 1.0 - d * lower
        if span < -1e-12:
            raise ValidationError(
                f"infeasible constraints: {d} components with lower bound "
                f"{lower} cannot sum to 1"
            )
        span = max(span, 0.0)
    else:
        span = 1.0

    # Substitute p = lower + span * r with r on the unit simplex (or p =
    # lower + r, r >= 0, without the sum constraint).
    shift = lower * M.sum(axis=2)  # M @ (lower * ones)
    if sum_constraint and span == 0.0:
        # The lower bounds use up the whole budget: unique feasible point.
        p = np.full((k, d), lower)
        resid = np.einsum("kmd,kd->km", M, p, optimize=True) - b
        obj = (w * resid**2).sum(axis=1)
        return p, obj, np.zeros(k)

    c = (b - shift) / max(span, 1e-300)
    G, h = _grams(M, c, w)
    r0 = np.full((k, d), (1.0 / d) if sum_constraint else 0.0)
    r, it = _fista(G, h, r0, sum_constraint=sum_constraint, max_iter=FISTA_WINDOW, tol=kkt_tol)
    r = _polish_batch(G, h, r, sum_constraint=sum_constraint)
    res = kkt_residual(G, h, r, sum_constraint=sum_constraint)
    # A second, longer gradient pass for any stragglers.
    bad = res > kkt_tol
    if np.any(bad):
        r_bad, _ = _fista(
            G[bad], h[bad], r[bad],
            sum_constraint=sum_constraint, max_iter=MAX_ITER - it, tol=kkt_tol,
        )
        r[bad] = _polish_batch(G[bad], h[bad], r_bad, sum_constraint=sum_constraint)
        res = kkt_residual(G, h, r, sum_constraint=sum_constraint)

    p = lower + span * r
    if sum_constraint:
        # Feasibility exactly: renormalize the free part and clamp dust.
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


def single_solution(solution, what: str) -> tuple[NDArray, float]:
    """``(p, objective)`` of a one-problem :func:`constrained_lstsq_batch` result.

    Raises:
        SolverError: its KKT residual stayed above :data:`KKT_TOL`; the error
            carries the ``p`` array found and the residual.
    """
    p, obj, res = solution
    if not res[0] <= KKT_TOL:
        raise SolverError(
            f"{what} did not reach KKT residual {KKT_TOL:g} (got {res[0]:g})",
            iterate=p[0],
            residual=float(res[0]),
        )
    return p[0], float(obj[0])
