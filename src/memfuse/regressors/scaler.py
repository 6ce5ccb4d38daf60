"""Per-feature standardization, fit on training data only.

Each model owns its scaler, so test-time inputs can never leak into the
standardization statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scaler:
    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        X = np.asarray(X, dtype=float)
        # Squares of values beyond ~1e154 overflow; the check below reports it, not numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            means = X.mean(axis=0)
            stds = X.std(axis=0)
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds))):
            raise ValueError("columns too large to standardize: a mean or std is not finite")
        stds = np.where(stds == 0.0, 1.0, stds)
        return cls(means=means, stds=stds)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.means.shape[0]:
            raise ValueError(
                f"feature dimension mismatch: expected {self.means.shape[0]}, "
                f"got {X.shape[-1]}"
            )
        return (X - self.means) / self.stds

    @classmethod
    def from_json(cls, doc: dict) -> "Scaler":
        """The scaler of `doc`, which must be able to standardize (`fit` stores a zero std as 1)."""
        means = np.asarray(doc["means"], dtype=float)
        stds = np.asarray(doc["stds"], dtype=float)
        if not (
            means.ndim == 1
            and stds.shape == means.shape
            and np.all(np.isfinite(means))
            and np.all(np.isfinite(stds) & (stds > 0))
        ):
            raise ValueError(
                "scaler needs finite 1-d means and positive finite stds of one length, "
                f"got shapes {means.shape} and {stds.shape}"
            )
        return cls(means=means, stds=stds)
