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
    def fit_transform(cls, X: np.ndarray) -> tuple["Scaler", np.ndarray]:
        """The scaler fit on X, and X standardized by it, from one pass of column moments.

        A zero std is stored as 1, and X standardized is `(X - means) / stds`
        bit for bit.
        """
        means, stds, centered = column_moments(np.asarray(X, dtype=float))
        scaler = cls(means=means, stds=np.where(stds == 0.0, 1.0, stds))
        return scaler, centered / scaler.stds

    @classmethod
    def from_json(cls, doc: dict) -> "Scaler":
        """The scaler of `doc`, which must be able to standardize (a fit stores a zero std as 1)."""
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


def column_moments(
    X: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(means, stds, X - means) of X's columns, row i counted `counts[i]` times (once when None).

    With every count one, the means and stds are `X.mean(axis=0)` and
    `X.std(axis=0)` bit for bit: the same sums in the same order. Counts
    give the moments of the rows repeated, from the distinct rows alone.
    """
    n = X.shape[0] if counts is None else int(counts.sum())
    weights = None if counts is None else counts[:, None]
    # Squares of values beyond ~1e154 overflow; the check below reports it, not numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        means = (X if weights is None else X * weights).sum(axis=0) / n
        centered = X - means
        squares = centered * centered
        stds = np.sqrt((squares if weights is None else squares * weights).sum(axis=0) / n)
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds))):
        raise ValueError("columns too large to standardize: a mean or std is not finite")
    return means, stds, centered
