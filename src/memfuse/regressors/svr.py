"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved by sequential minimal optimization over the net dual
coefficients beta_i = alpha_i - alpha_i*: maximize

    W(beta) = -0.5 beta' K beta + y' beta - epsilon * ||beta||_1

subject to sum(beta) = 0 and -C <= beta_i <= C. Each step pairs the maximal
KKT violator with the second-order best partner and solves the pair
subproblem exactly (the one-dimensional objective is piecewise quadratic).
The bias is recovered from KKT-interior points. Features are standardized
internally; the scaler is fit on training data only.

A fit has two parts. The *design* (`SvrDesign`) holds what reads neither y,
C nor epsilon: the scaler, the standardized rows, and per (gamma,
gamma_scale) setting the resolved gamma and the RBF Gram of the rows. The
SMO solve then runs on a design's Gram. `fit_svr` builds the design itself
unless one is passed, so fits on the same rows at many C and epsilon values
can share one design and build each Gram once, as LIBSVM's kernel cache
shares kernel rows across solves. A fitted model keeps its support vectors'
squared norms, so `predict_svr` does not recompute them on every call.

`SvrDesign.predictions` is the predict side of the same sharing: the models
fitted on one design share its scaler, so it checks and standardizes a block
of query rows, and computes their squared norms, once for all of them. Each
model's kernel is still built on its own support vectors, with the same
operands as in `predict_svr`, so the predictions are bit-equal to it. Slicing
one kernel of every design row against the queries would be cheaper, but a
BLAS product of a row subset is not always bit-equal to the same rows of the
full product: OpenBLAS takes other code paths for small products and numpy
for a single row.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .scaler import Scaler

__all__ = ["SvrParams", "SvrModel", "SvrDesign", "rbf_kernel_matrix", "fit_svr", "predict_svr"]


@dataclass(frozen=True)
class SvrParams:
    c: float = 1.0
    epsilon: float = 0.1
    gamma: float | None = None  # None resolves to the scale heuristic at fit time
    gamma_scale: float = 1.0    # multiplier on the scale heuristic when gamma is None
    tol: float = 1e-3
    max_passes: int = 50_000

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it: every comparison with NaN is false.
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be non-negative and finite, got {self.epsilon}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (math.isfinite(self.gamma_scale) and self.gamma_scale > 0):
            raise ValueError(f"gamma_scale must be positive and finite, got {self.gamma_scale}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not self.max_passes >= 1:
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
    # _sq_norms(support_vectors), kept so that predict_svr does not recompute
    # it per call; computed here when not given, and never serialized.
    sv_sq_norms: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sv_sq_norms is None:
            self.sv_sq_norms = _sq_norms(self.support_vectors)


def _sq_norms(A: np.ndarray) -> np.ndarray:
    # Each row's sum depends on that row alone, so the norms of a row subset
    # equal the same subset of the norms, bit for bit.
    return (A * A).sum(axis=1)


def rbf_kernel_matrix(
    A: np.ndarray,
    B: np.ndarray,
    gamma: float,
    A_sq_norms: np.ndarray | None = None,
    B_sq_norms: np.ndarray | None = None,
) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row a of A and b of B.

    `A_sq_norms` and `B_sq_norms`, when given, must be `(A * A).sum(axis=1)`
    and `(B * B).sum(axis=1)`; passing them only saves recomputing them.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if A_sq_norms is None:
        A_sq_norms = _sq_norms(A)
    if B_sq_norms is None:
        B_sq_norms = _sq_norms(B)
    sq = A_sq_norms[:, None] + B_sq_norms[None, :] - 2.0 * A @ B.T
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def _resolve_gamma(params: SvrParams, Xs: np.ndarray) -> float:
    if params.gamma is not None:
        return params.gamma
    variance = float(Xs.var())
    if variance <= 0.0:
        variance = 1.0
    return params.gamma_scale / (Xs.shape[1] * variance)


class SvrDesign:
    """The part of an SVR fit on X that reads neither y, C nor epsilon.

    It holds the scaler fitted on X, the standardized rows and their squared
    norms, which the Gram build and the fitted models' support vectors share.
    `gram(params)` resolves gamma and builds the RBF Gram of the rows once per
    distinct (gamma, gamma_scale), compared by value, and returns the same
    pair on every later call, so fits at many C and epsilon values on one
    design share one Gram per gamma setting.
    """

    def __init__(self, X: np.ndarray) -> None:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite values in training data")
        self.scaler = Scaler.fit(X)
        self.rows = self.scaler.transform(X)
        self.row_sq_norms = _sq_norms(self.rows)
        self._grams: dict[tuple, tuple[float, np.ndarray]] = {}

    def gram(self, params: SvrParams) -> tuple[float, np.ndarray]:
        """(resolved gamma, RBF Gram of the standardized rows) for `params`."""
        key = (params.gamma, params.gamma_scale)
        if key not in self._grams:
            gamma = _resolve_gamma(params, self.rows)
            self._grams[key] = gamma, rbf_kernel_matrix(
                self.rows, self.rows, gamma, self.row_sq_norms, self.row_sq_norms
            )
        return self._grams[key]

    def predictions(self, models: Iterable[SvrModel], X: np.ndarray) -> Iterator[np.ndarray]:
        """Yield `predict_svr(model, X)` for each of `models`, in order, bit for bit.

        Every model must have been fitted on this design. X is checked and
        standardized by the design's scaler once, and its rows' squared norms
        computed once, for all of them. Models are read as they are consumed,
        so a generator of fits holds one model at a time.
        """
        rows, row_sq_norms = _queries(self.scaler, X)
        del X  # not read again; freed now unless the caller holds it
        for model in models:
            if model.scaler is not self.scaler:
                raise ValueError("model was not fitted on this design")
            yield _decision_values(model, rows, row_sq_norms)


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


def fit_svr(
    X: np.ndarray, y: np.ndarray, params: SvrParams, design: SvrDesign | None = None
) -> SvrModel:
    """Fit an SVR on (X, y).

    `design`, when given, must be `SvrDesign(X)` for this X; the fit then
    reuses its standardization and its Gram for the gamma setting of `params`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError("need at least two training rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite values in training data")
    if design is None:
        design = SvrDesign(X)
    elif design.rows.shape != X.shape:
        raise ValueError(f"design has rows of shape {design.rows.shape}, X has {X.shape}")

    gamma, K = design.gram(params)
    beta, bias, converged, n_iter, gap = _solve(K, y, params)
    support = np.abs(beta) > 1e-10 * params.c
    return SvrModel(
        support_vectors=design.rows[support],
        dual_coefs=beta[support],
        bias=bias,
        params=dataclasses.replace(params, gamma=gamma),
        scaler=design.scaler,
        converged=converged,
        n_iter=n_iter,
        kkt_gap=gap,
        support_indices=np.flatnonzero(support),
        sv_sq_norms=design.row_sq_norms[support],
    )


def _solve(
    K: np.ndarray, y: np.ndarray, params: SvrParams
) -> tuple[np.ndarray, float, bool, int, float]:
    """SMO on the Gram K: (beta, bias, converged, iterations, final KKT gap)."""
    c, eps, tol = params.c, params.epsilon, params.tol
    n = K.shape[0]
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

    return beta, bias, converged, n_iter, float(gap)


def _queries(scaler: Scaler, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prediction rows X, checked and standardized by `scaler`, and their squared norms."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in prediction input")
    rows = scaler.transform(X)
    return rows, _sq_norms(rows)


def _decision_values(model: SvrModel, rows: np.ndarray, row_sq_norms: np.ndarray) -> np.ndarray:
    """The model's predictions on rows that `_queries` returned for its scaler."""
    if model.support_vectors.shape[0] == 0:
        return np.full(rows.shape[0], model.bias)
    K = rbf_kernel_matrix(
        model.support_vectors, rows, model.params.gamma, model.sv_sq_norms, row_sq_norms
    )
    return model.dual_coefs @ K + model.bias


def predict_svr(model: SvrModel, X: np.ndarray) -> np.ndarray:
    return _decision_values(model, *_queries(model.scaler, X))
