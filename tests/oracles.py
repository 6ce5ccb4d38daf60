"""Independent reference solvers used to check production code.

These deliberately take different algorithmic routes than the package:
a dense projected-gradient QP solver for the SVR dual, explicit normal
equations for ridge, a one-feature-at-a-time stable-sort scan for the
forest's split search, one row down one tree at a time for its prediction,
a dict probe per word token and table for the text features' lookup rule,
one `np.array` conversion per line for the AV feature-file reader, one
RBF kernel row per support vector, repeated or not, for SVR prediction, and
the SMO loop of fresh temporaries per pair step that the buffered loop of
`memfuse.regressors.svr._solve` must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from memfuse.av import FeatureFormatError
from memfuse.regressors import SvrParams
from memfuse.text import lemmatize


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


def tree_leaf_values(tree, X: np.ndarray) -> list[float]:
    """The leaf value that each row of X reaches in `tree`, walked one row at a time."""
    values = []
    for x in X:
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        values.append(float(tree.value[node]))
    return values


def forest_by_tree_walks(model, X: np.ndarray) -> np.ndarray:
    """Each row's leaf values added tree by tree, in tree order from 0.0, over the tree count."""
    per_tree = [tree_leaf_values(tree, X) for tree in model.trees]
    out = []
    for row_values in zip(*per_tree):
        total = 0.0
        for value in row_values:
            total += value
        out.append(total / len(model.trees))
    return np.array(out)


def token_means_by_probes(tokens, tables) -> tuple[np.ndarray, float]:
    """Concatenated per-table means of the word tokens' vectors, and their coverage.

    Each table's `entries` is probed for every word token, as itself and,
    only when that misses, as its lemma; the hits' `np.mean` is the table's
    block, zeros when nothing hits. Coverage is the fraction of word tokens
    found in at least one table, 0.0 for none.
    """
    pairs = [(str(t), lemmatize(str(t))) for t in tokens if t.is_word()]
    blocks = []
    matched = [False] * len(pairs)
    for table in tables:
        hits = []
        for i, (token, lemma) in enumerate(pairs):
            vec = table.entries.get(token)
            if vec is None:
                vec = table.entries.get(lemma)
            if vec is not None:
                hits.append(vec)
                matched[i] = True
        blocks.append(np.mean(hits, axis=0) if hits else np.zeros(table.width))
    coverage = (sum(matched) / len(pairs)) if pairs else 0.0
    return np.concatenate(blocks), coverage


def feature_rows_by_lines(path, expected_dim: int) -> np.ndarray:
    """A feature CSV's rows as an (n_rows, expected_dim) matrix, one line at a time.

    Each line that is not blank is split on commas and converted by
    `np.array(parts, dtype=float)`, and its values are checked to be finite
    before the next line is read; the ragged-row and width checks run once
    every line has been read. A file without rows gives (0, expected_dim).
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            try:
                values = np.array(parts, dtype=float)
            except ValueError as exc:
                raise FeatureFormatError(f"{path}:{lineno}: {exc}") from exc
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise FeatureFormatError(
                    f"{path}: non-finite value at row {lineno}, column {bad[0] + 1}"
                )
            rows.append(values)
    if not rows:
        return np.empty((0, expected_dim))
    widths = {row.shape[0] for row in rows}
    if len(widths) > 1:
        raise FeatureFormatError(f"{path}: ragged rows with widths {sorted(widths)}")
    width = widths.pop()
    if width != expected_dim:
        raise FeatureFormatError(f"{path}: expected {expected_dim} columns, got {width}")
    return np.vstack(rows)


def standardized(scaler, X) -> np.ndarray:
    """The rows of X standardized by a fitted scaler's means and stds."""
    return (np.atleast_2d(np.asarray(X, dtype=float)) - scaler.means) / scaler.stds


def svr_predictions_by_full_kernel(model, X: np.ndarray) -> np.ndarray:
    """An SVR's predictions on X from a kernel with one row per support vector.

    Equal support vectors each get their own kernel row. The kernel is
    exp(-gamma * max(|s|^2 + |x|^2 - (2 s) . x, 0)), with the operand doubled
    before the product, which `rbf_kernel_matrix` matches byte for byte.
    """
    rows = standardized(model.scaler, X)
    sv = model.support_vectors
    if sv.shape[0] == 0:
        return np.full(rows.shape[0], model.bias)
    sq = (sv * sv).sum(axis=1)[:, None] + (rows * rows).sum(axis=1)[None, :] - (2.0 * sv) @ rows.T
    kernel = np.exp(-model.params.gamma * np.maximum(sq, 0.0))
    return model.dual_coefs @ kernel + model.bias


def _pair_step_with_closure(
    beta_i: float, beta_j: float, grad_i: float, grad_j: float, eta: float, c: float, eps: float
) -> tuple[float, float]:
    """Exact maximizer of the pair subproblem over t in [0, U].

    Returns (t, objective gain). beta_i moves by +t, beta_j by -t.
    """
    upper = min(c - beta_i, beta_j + c)
    if upper <= 0.0:
        return 0.0, 0.0
    knots = [0.0, upper]
    if 0.0 < -beta_i < upper:
        knots.append(-beta_i)
    if 0.0 < beta_j < upper:
        knots.append(beta_j)
    knots = sorted(set(knots))

    def gain(t: float) -> float:
        return (
            t * (grad_i - grad_j)
            - 0.5 * eta * t * t
            - eps * (abs(beta_i + t) - abs(beta_i))
            - eps * (abs(beta_j - t) - abs(beta_j))
        )

    candidates = list(knots)
    if eta > 0.0:
        for a, b in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (a + b)
            sigma_i = 1.0 if beta_i + mid >= 0 else -1.0
            sigma_j = 1.0 if beta_j - mid > 0 else -1.0
            t_star = (grad_i - grad_j - eps * (sigma_i - sigma_j)) / eta
            if a < t_star < b:
                candidates.append(t_star)

    best_t, best_gain = 0.0, 0.0
    for t in candidates:
        g = gain(t)
        if g > best_gain:
            best_t, best_gain = t, g
    return best_t, best_gain


def smo_by_temporaries(
    K: np.ndarray, y: np.ndarray, params: SvrParams
) -> tuple[np.ndarray, float, bool, int, float]:
    """SMO on the Gram K: (beta, bias, converged, iterations, final KKT gap).

    The reference loop for `memfuse.regressors.svr._solve`: a frozen copy of
    the loop that `_solve` replaced, which allocates its vectors anew on every
    pair step, builds eta(i, .) per step from a doubled copy of K, scores
    partners by np.where(v > 0, v * v / eta, -inf) and solves the pair
    subproblem through a gain closure over sorted(set(knots)). `_solve` must
    return the same beta bytes, bias and iteration count, and the same
    converged flag and gap wherever the solve stops before `max_passes` (at
    the cap this loop returns the gap from before its last step and reports
    the solve as not converged).
    """
    c, eps, tol = params.c, params.epsilon, params.tol
    n = K.shape[0]
    diag = np.diagonal(K).copy()
    # Column i of K, and twice it, as contiguous rows: the values of K[:, i]
    # and 2.0 * K[:, i], read without a stride and doubled once per solve.
    columns = np.ascontiguousarray(K.T)
    doubled = 2.0 * columns

    beta = np.zeros(n)
    grad = y.astype(float).copy()  # grad_i = y_i - (K beta)_i
    # eps times the right- and left-derivative sign of |beta_i|, or an infinity
    # where beta_i may not move that way (beta_i = C, beta_i = -C), so that
    # grad - up_off and grad - dn_off are the KKT values with the bound rows
    # already at -inf and +inf.
    up_off = np.full(n, eps)
    dn_off = np.full(n, -eps)

    n_iter = 0
    converged = False
    gap = np.inf
    while n_iter < params.max_passes:
        d_up = grad - up_off
        i = int(np.argmax(d_up))
        m = d_up.item(i)
        d_dn = grad - dn_off
        big_m = d_dn.min()
        gap = m - big_m
        if gap <= tol:
            converged = True
            break

        # A bound row's d_dn is +inf, so its violation is -inf and never scores.
        violation = m - d_dn
        eta_vec = diag[i] + diag - doubled[i]
        np.maximum(eta_vec, 1e-12, out=eta_vec)
        score = np.where(violation > 0.0, violation * violation / eta_vec, -np.inf)
        score[i] = -np.inf
        j = int(np.argmax(score))
        if not math.isfinite(score.item(j)):
            converged = True  # no admissible partner: violation is below tol noise
            break

        # Python floats: the same IEEE arithmetic as numpy scalars, at a fraction of the cost.
        t, step_gain = _pair_step_with_closure(
            beta.item(i), beta.item(j), grad.item(i), grad.item(j), eta_vec.item(j), c, eps
        )
        if t <= 0.0 or step_gain <= 0.0:
            break  # numerical stall; bias recovery still valid

        beta[i] += t
        beta[j] -= t
        grad -= t * (columns[i] - columns[j])
        for idx in (i, j):
            b_val = beta.item(idx)
            up_off[idx] = (eps if b_val >= 0 else -eps) if b_val < c else np.inf
            dn_off[idx] = (eps if b_val > 0 else -eps) if b_val > -c else -np.inf
        n_iter += 1

    interior = (beta != 0.0) & (np.abs(beta) < c)
    if interior.any():
        bias = float(np.mean(grad[interior] - eps * np.sign(beta[interior])))
    else:
        bias = float(0.5 * ((grad - up_off).max() + (grad - dn_off).min()))

    return beta, bias, converged, n_iter, float(gap)
