"""Simplex-constrained (weighted) least squares.

Solves ``min_p ||W^(1/2) (M p - b)||^2`` subject to ``p >= lower`` and,
optionally, ``sum(p) = 1``.  Problems of this shape are small (a few
to a few hundred variables) but arrive in large batches, one per simulated
attention rule or bootstrap replication, so the implementation works on
stacked Gram matrices.  Each problem is solved exactly by the primal
active-set method (Nocedal & Wright, *Numerical Optimization*, Algorithm
16.3; Lawson & Hanson's NNLS is the orthant case).  It starts at the best
vertex of the simplex (at the origin without the sum constraint), lets one
coordinate enter per round, and solves the KKT equations on the current
face, so clean problems finish at machine precision.  When a face's
solution leaves the feasible set, the iterate steps to the boundary (the
ratio test) before a coordinate leaves the face, so the path cannot cycle
between faces.  The problems advance in lockstep and each round solves all
KKT systems of one support size with one stacked solve.  A problem that
the round cap leaves above the tolerance returns its KKT residual, and
every caller acts on that.  Non-finite or column-less input is rejected.

Where the minimizer is unique, its support is the face the method ends
on, and the final solve on that face gives the solution bit for bit
whatever path led there.  Where the minimizer is not unique (fewer rows
than unknowns, repeated or zero columns), the path decides which
minimizer is returned.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .core import _check_tol
from .errors import SolverError, ValidationError

#: Default target for the normalized KKT residual: a solve that ends above
#: it has not converged.
KKT_TOL = 1e-8

#: Entries of a solution below this are treated as at the lower bound.
SUPPORT_TOL = 1e-12


def _grams(M: NDArray, b: NDArray, w: NDArray):
    """Batched Gram matrices G = M'WM and linear terms h = M'Wb.

    G is built as ``(M' (WM))'``, so each slice is stored transposed, as the
    planned ``einsum("kmi,kmj->kij", Mw, M)`` stores it.  The values are the
    same in either layout, but :func:`kkt_residual`'s ``matmul`` rounds
    differently on the two.
    """
    Mw = M * w[:, :, None]
    G = (M.transpose(0, 2, 1) @ Mw).transpose(0, 2, 1)
    h = (Mw.transpose(0, 2, 1) @ b[:, :, None])[:, :, 0]
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


def _polish_batch(G, h, *, sum_constraint):
    """Exact active-set solve of a batch of problems in Gram form.

    Every problem follows its own primal active-set path (Nocedal & Wright,
    *Numerical Optimization*, Algorithm 16.3).  With the sum constraint it
    starts at the best vertex ``e_j``, ``j = argmin_j (G_jj - 2 h_j)``;
    without it, at the origin with support ``{argmax_j h_j}``, as in Lawson
    & Hanson's NNLS.  That start is the first feasible iterate.  Each round
    solves the KKT equations on the support.  If that gives a negative
    coordinate, the iterate moves toward the solution until the first
    coordinate reaches zero (the ratio test), and that coordinate and any
    other now at zero leave the support; moving to the boundary first is
    what keeps the path from cycling between faces.  Otherwise the solution
    becomes the iterate and the coordinate with the most negative gradient
    enters.  A problem stops when none enters or after ``4 d + 8`` rounds,
    and the result is its iterate, which no step makes worse;
    :func:`constrained_lstsq_batch` reports the residual of a problem the
    round cap leaves above the tolerance.  The problems advance in
    lockstep: each round solves all KKT systems of one support size with
    one stacked ``np.linalg.solve``, which runs the same LAPACK routine on
    the same matrix as a solve of one problem, so the answers do not
    depend on how the batch is grouped.  On small problems a round's fixed
    numpy calls cost more than its arithmetic, so none sorts: finished
    problems leave through a mask and the support sizes come from a
    ``bincount``.
    """
    k, d = h.shape
    active = np.arange(k)
    live = np.ones(k, dtype=bool)
    if sum_constraint:
        start = np.argmin(np.diagonal(G, axis1=1, axis2=2) - 2.0 * h, axis=1)
    else:
        start = np.argmax(h, axis=1)
    support = np.zeros((k, d), dtype=bool)
    support[active, start] = True
    # The vertex e_j, or the origin without the sum constraint.
    cur = support * float(sum_constraint)
    for _ in range(4 * d + 8):
        if active.size == 0:
            break
        sizes = np.count_nonzero(support[active], axis=1)
        for s in np.flatnonzero(np.bincount(sizes)).tolist():
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
            if neg.any():
                # Step toward the solution up to the first blocking
                # coordinate, drop it and any other that reaches zero, and
                # retry; a problem whose support runs empty stops.
                blocked, at, x = ids[neg], idx[neg], r_s[neg]
                c, down = cur[blocked[:, None], at], x < 0
                ratio = np.where(down, c / np.where(down, c - x, 1.0), np.inf)
                first = ratio.argmin(axis=1)
                step = c + ratio.min(axis=1, keepdims=True) * (x - c)
                zero = down & (step <= 0)
                zero[np.arange(blocked.size), first] = True
                cur[blocked[:, None], at] = np.where(zero, 0.0, step)
                support[blocked[:, None], at] = ~zero
                live[blocked[~support[blocked].any(axis=1)]] = False
                ok = ~neg
                ids, idx, r_s = ids[ok], idx[ok], r_s[ok]
            rows = np.arange(ids.size)[:, None]
            cand = np.zeros((ids.size, d))
            cand[rows, idx] = np.maximum(r_s, 0.0)
            cur[ids] = cand
            g = 2.0 * (np.matmul(G[ids], cand[:, :, None])[:, :, 0] - h[ids])
            if sum_constraint:
                nu = g[rows, idx].max(axis=1, keepdims=True)
                limit = nu - 1e-14 * (1 + np.abs(nu))
            else:
                limit = -1e-14 * (1 + np.abs(g).max(axis=1, keepdims=True))
            entering = ~support[ids] & (g < limit)
            more = entering.any(axis=1)
            live[ids[~more]] = False
            ids = ids[more]
            enter = np.where(entering[more], g[more], np.inf).argmin(axis=1)
            support[ids, enter] = True
        active = active[live[active]]
    return cur


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
        kkt_tol: the threshold ``kkt_res`` is judged against.  It does not
            change the solve.

    Returns:
        (p, objective, kkt_res): arrays of shape (k, d), (k,), (k,).  A
        problem whose ``kkt_res`` is above ``kkt_tol`` did not converge.

    Raises:
        ValidationError: ``M`` has no columns; ``M``, ``b``, ``weights`` or
            ``lower`` is not finite; a weight is negative; or the lower
            bounds cannot sum to one.
    """
    M = np.asarray(M, dtype=np.float64)
    k, m, d = M.shape
    if d == 0:
        raise ValidationError("M needs at least one column")
    b = np.broadcast_to(np.asarray(b, dtype=np.float64), (k, m))
    # Unit weights give the same bits as no weights: x * 1.0 == x.
    w = np.broadcast_to(np.asarray(1.0 if weights is None else weights, dtype=np.float64), (k, m))
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise ValidationError("M and b must be finite")
    _check_tol(w, "weights")
    if not np.isfinite(lower):
        raise ValidationError(f"lower must be finite, got {lower!r}")

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

    if sum_constraint and span == 0.0:
        # The lower bounds use up the whole budget: unique feasible point.
        p = np.full((k, d), lower)
        res = np.zeros(k)
    else:
        # Substitute p = lower + span * r with r on the unit simplex (or p =
        # lower + r, r >= 0, without the sum constraint).
        c = (b - lower * M.sum(axis=2)) / max(span, 1e-300)
        G, h = _grams(M, c, w)
        r = _polish_batch(G, h, sum_constraint=sum_constraint)
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
