"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved by sequential minimal optimization over the net dual
coefficients beta_i = alpha_i - alpha_i*: maximize

    W(beta) = -0.5 beta' K beta + y' beta - epsilon * ||beta||_1

subject to sum(beta) = 0 and -C <= beta_i <= C. Each step pairs the maximal
KKT violator with the second-order best partner and solves the pair
subproblem exactly (the one-dimensional objective is piecewise quadratic).
The bias is recovered from KKT-interior points. Features are standardized
internally; the scaler is fit on training data only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .scaler import Scaler

__all__ = ["SvrParams", "SvrModel", "rbf_kernel_matrix", "fit_svr", "predict_svr"]


@dataclass(frozen=True)
class SvrParams:
    c: float = 1.0
    epsilon: float = 0.1
    gamma: float | None = None  # None resolves to the scale heuristic at fit time
    gamma_scale: float = 1.0    # multiplier on the scale heuristic when gamma is None
    tol: float = 1e-3
    max_passes: int = 50_000

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.gamma_scale <= 0:
            raise ValueError(f"gamma_scale must be positive, got {self.gamma_scale}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be positive, got {self.max_passes}")


@dataclass
class SvrModel:
    support_vectors: np.ndarray  # standardized feature space
    dual_coefs: np.ndarray       # beta_i = alpha_i - alpha_i*
    bias: float
    params: SvrParams            # gamma resolved to its numeric value
    scaler: Scaler
    converged: bool
    n_iter: int
    kkt_gap: float
    support_indices: np.ndarray  # positions of the SVs in the training set


def rbf_kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    sq = (
        (A * A).sum(axis=1)[:, None]
        + (B * B).sum(axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def _resolve_gamma(params: SvrParams, Xs: np.ndarray) -> float:
    if params.gamma is not None:
        return params.gamma
    variance = float(Xs.var())
    if variance <= 0.0:
        variance = 1.0
    return params.gamma_scale / (Xs.shape[1] * variance)


def _pair_step(
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


def fit_svr(X: np.ndarray, y: np.ndarray, params: SvrParams) -> SvrModel:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError("need at least two training rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")

    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    gamma = _resolve_gamma(params, Xs)
    resolved = dataclasses.replace(params, gamma=gamma)
    c, eps, tol = params.c, params.epsilon, params.tol

    n = Xs.shape[0]
    K = rbf_kernel_matrix(Xs, Xs, gamma)
    diag = np.diagonal(K).copy()

    beta = np.zeros(n)
    grad = y.astype(float).copy()  # grad_i = y_i - (K beta)_i
    sig_up = np.full(n, eps)       # eps * right-derivative sign of |beta_i|
    sig_dn = np.full(n, -eps)      # eps * left-derivative sign of |beta_i|
    up_ok = np.ones(n, dtype=bool)   # beta_i < C
    dn_ok = np.ones(n, dtype=bool)   # beta_i > -C

    n_iter = 0
    converged = False
    gap = np.inf
    while n_iter < params.max_passes:
        d_up = np.where(up_ok, grad - sig_up, -np.inf)
        i = int(np.argmax(d_up))
        m = d_up[i]
        d_dn = np.where(dn_ok, grad - sig_dn, np.inf)
        big_m = d_dn.min()
        gap = m - big_m
        if gap <= tol:
            converged = True
            break

        violation = m - d_dn
        eta_vec = diag[i] + diag - 2.0 * K[:, i]
        np.maximum(eta_vec, 1e-12, out=eta_vec)
        score = np.where(dn_ok & (violation > 0.0), violation * violation / eta_vec, -np.inf)
        score[i] = -np.inf
        j = int(np.argmax(score))
        if not np.isfinite(score[j]):
            converged = True  # no admissible partner: violation is below tol noise
            break

        t, step_gain = _pair_step(beta[i], beta[j], grad[i], grad[j], eta_vec[j], c, eps)
        if t <= 0.0 or step_gain <= 0.0:
            break  # numerical stall; bias recovery still valid

        beta[i] += t
        beta[j] -= t
        grad -= t * (K[:, i] - K[:, j])
        for idx in (i, j):
            b_val = beta[idx]
            sig_up[idx] = eps if b_val >= 0 else -eps
            sig_dn[idx] = eps if b_val > 0 else -eps
            up_ok[idx] = b_val < c
            dn_ok[idx] = b_val > -c
        n_iter += 1

    interior = (beta != 0.0) & (np.abs(beta) < c)
    if interior.any():
        bias = float(np.mean(grad[interior] - eps * np.sign(beta[interior])))
    else:
        d_up = np.where(up_ok, grad - sig_up, -np.inf)
        d_dn = np.where(dn_ok, grad - sig_dn, np.inf)
        bias = float(0.5 * (d_up.max() + d_dn.min()))

    support = np.abs(beta) > 1e-10 * c
    return SvrModel(
        support_vectors=Xs[support],
        dual_coefs=beta[support],
        bias=bias,
        params=resolved,
        scaler=scaler,
        converged=converged,
        n_iter=n_iter,
        kkt_gap=float(gap),
        support_indices=np.flatnonzero(support),
    )


def predict_svr(model: SvrModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xs = model.scaler.transform(X)
    if model.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], model.bias)
    K = rbf_kernel_matrix(model.support_vectors, Xs, model.params.gamma)
    return model.dual_coefs @ K + model.bias
