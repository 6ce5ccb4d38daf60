"""L2-regularized linear regression with an unpenalized intercept.

Solved on standardized features / centered targets via a least-squares
decomposition of the augmented system [X; sqrt(alpha) I], which avoids
forming the normal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scaler import Scaler

__all__ = ["RidgeModel", "check_alpha", "fit_ridge", "predict_ridge"]


@dataclass(frozen=True)
class RidgeModel:
    alpha: float
    weights: np.ndarray  # original feature space
    intercept: float
    scaler: Scaler


def check_alpha(alpha: float) -> None:
    # Written so that NaN fails it, as every comparison with NaN is false.
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be non-negative and finite, got {alpha}")


def fit_ridge(X: np.ndarray, y: np.ndarray, alpha: float) -> RidgeModel:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    check_alpha(alpha)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")

    scaler, Xs = Scaler.fit_transform(X)
    y_mean = float(y.mean())
    yc = y - y_mean
    n, d = Xs.shape

    if alpha == 0.0:
        if np.linalg.matrix_rank(Xs) < d:
            raise ValueError(
                "standardized design is rank-deficient at alpha=0; use alpha > 0"
            )
        w, *_ = np.linalg.lstsq(Xs, yc, rcond=None)
    else:
        augmented = np.vstack([Xs, np.sqrt(alpha) * np.eye(d)])
        target = np.concatenate([yc, np.zeros(d)])
        w, *_ = np.linalg.lstsq(augmented, target, rcond=None)

    weights = w / scaler.stds
    intercept = y_mean - float(weights @ scaler.means)
    return RidgeModel(alpha=float(alpha), weights=weights, intercept=intercept, scaler=scaler)


def predict_ridge(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature dimension mismatch: expected {model.weights.shape[0]}, got {X.shape[1]}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in prediction input")
    return X @ model.weights + model.intercept
