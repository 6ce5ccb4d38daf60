"""Independent reference solvers used to check production code.

These deliberately take different algorithmic routes than the package:
a dense projected-gradient QP solver for the SVR dual, explicit normal
equations for ridge, and a one-feature-at-a-time stable-sort scan for the
forest's split search.
"""

from __future__ import annotations

import numpy as np


def project_box_hyperplane(v: np.ndarray, s: np.ndarray, c: float) -> np.ndarray:
    """Project v onto {0 <= a <= c, s @ a = 0} with s in {-1, +1}^m.

    The shifted constraint g(nu) = s @ clip(v - nu*s, 0, c) is piecewise
    linear and nonincreasing in nu, so the root is found exactly from its
    breakpoints.
    """
    w = s * v
    breakpoints = np.unique(np.concatenate([w, w - c, w + c]))
    # g at every breakpoint, vectorized over nu.
    args = v[None, :] - breakpoints[:, None] * s[None, :]
    g = (np.clip(args, 0.0, c) * s[None, :]).sum(axis=1)
    idx = int(np.searchsorted(-g, 0.0, side="left"))
    if idx == 0:
        nu = breakpoints[0]
    elif idx >= len(breakpoints):
        nu = breakpoints[-1]
    else:
        g_lo, g_hi = g[idx - 1], g[idx]
        lo, hi = breakpoints[idx - 1], breakpoints[idx]
        nu = lo if g_lo == g_hi else lo + g_lo * (hi - lo) / (g_lo - g_hi)
    return np.clip(v - nu * s, 0.0, c)


def qp_oracle_svr_dual(
    K: np.ndarray, y: np.ndarray, c: float, eps: float, iters: int = 1500
) -> np.ndarray:
    """Solve the epsilon-SVR dual by accelerated projected gradient.

    Works on the 2n-variable (alpha, alpha*) box QP and returns
    beta = alpha - alpha*. Q has Kronecker structure [[K,-K],[-K,K]], so
    the gradient needs a single n-by-n matvec.
    """
    n = K.shape[0]
    p = np.concatenate([eps - y, eps + y])
    s = np.concatenate([np.ones(n), -np.ones(n)])
    L = 2.0 * max(np.linalg.eigvalsh(K).max(), 1e-12) + 1e-9

    def q_matvec(v: np.ndarray) -> np.ndarray:
        g = K @ (v[:n] - v[n:])
        return np.concatenate([g, -g])

    a = project_box_hyperplane(np.zeros(2 * n), s, c)
    z = a.copy()
    t_momentum = 1.0
    prev_obj = np.inf
    for it in range(iters):
        grad = q_matvec(z) + p
        a_next = project_box_hyperplane(z - grad / L, s, c)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
        z = a_next + ((t_momentum - 1.0) / t_next) * (a_next - a)
        a, t_momentum = a_next, t_next
        if it % 25 == 0:
            obj = 0.5 * a @ q_matvec(a) + p @ a
            if obj > prev_obj:  # restart momentum on overshoot
                z = a.copy()
                t_momentum = 1.0
            prev_obj = obj
    return a[:n] - a[n:]


def svr_dual_objective(K: np.ndarray, y: np.ndarray, beta: np.ndarray, eps: float) -> float:
    """Maximization-form dual objective of the epsilon-SVR."""
    return float(-0.5 * beta @ K @ beta + y @ beta - eps * np.abs(beta).sum())


def svr_bias_from_beta(
    K: np.ndarray, y: np.ndarray, beta: np.ndarray, c: float, eps: float
) -> float:
    grad = y - K @ beta
    interior = (beta != 0.0) & (np.abs(beta) < c * (1 - 1e-9))
    if interior.any():
        return float(np.mean(grad[interior] - eps * np.sign(beta[interior])))
    d_up = np.where(beta < c, grad - np.where(beta >= 0, eps, -eps), -np.inf)
    d_dn = np.where(beta > -c, grad - np.where(beta > 0, eps, -eps), np.inf)
    return float(0.5 * (d_up.max() + d_dn.min()))


def ridge_normal_equations(
    X: np.ndarray, y: np.ndarray, alpha: float
) -> tuple[np.ndarray, float]:
    """Explicit (X'X + alpha I)^-1 X'y on standardized/centered data.

    Returns weights in the original feature space and the intercept,
    mirroring the production standardization convention via an independent
    linear-algebra route.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    Xs = (X - means) / stds
    yc = y - y.mean()
    d = Xs.shape[1]
    w = np.linalg.inv(Xs.T @ Xs + alpha * np.eye(d)) @ (Xs.T @ yc)
    weights = w / stds
    intercept = float(y.mean() - weights @ means)
    return weights, intercept


def stable_sort_best_split(
    X: np.ndarray, y: np.ndarray, ids: np.ndarray, feats: np.ndarray, min_leaf: int
) -> tuple[int, float, np.ndarray, np.ndarray] | None:
    """The forest's best split of rows `ids` over `feats`, one feature at a time.

    Each feature's rows are put in stable sorted order of its values; every
    position with at least `min_leaf` rows on each side and distinct values
    on either side is scored by sum_L^2/n_L + sum_R^2/n_R, and the first
    maximum in (position, feature) order wins. Returns the feature, the
    threshold and the left and right rows, or None when no position is valid.
    """
    m = ids.shape[0]
    best = None  # (score, position, column)
    orders = []
    for col, feat in enumerate(feats):
        order = np.argsort(X[ids, feat], kind="stable")
        orders.append(order)
        xs, csum = X[ids[order], feat], np.cumsum(y[ids[order]])
        for pos in range(m - 1):
            k = pos + 1
            if k < min_leaf or m - k < min_leaf or not xs[pos] < xs[pos + 1]:
                continue
            left, right = csum[pos], csum[-1] - csum[pos]
            score = left**2 / float(k) + right**2 / float(m - k)
            if best is None or score > best[0] or (score == best[0] and (pos, col) < best[1:]):
                best = (score, pos, col)
    if best is None:
        return None
    _, pos, col = best
    ordered = ids[orders[col]]
    below, above = X[ordered[pos], feats[col]], X[ordered[pos + 1], feats[col]]
    threshold = 0.5 * (below + above)
    if threshold == above:
        threshold = below
    return int(feats[col]), float(threshold), ordered[: pos + 1], ordered[pos + 1 :]
