"""Versioned JSON serialization for trained models.

Arrays are stored as nested lists of Python floats; json round-trips those
exactly, so deserialized models predict bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .forest import ForestModel, ForestParams, _Tree
from .ridge import RidgeModel
from .scaler import Scaler
from .svr import SvrModel, SvrParams

FORMAT_VERSION = 1

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model", "FORMAT_VERSION"]


def model_to_json(model) -> dict:
    if isinstance(model, SvrModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "svr",
            "params": dataclasses.asdict(model.params),
            "support_vectors": model.support_vectors.tolist(),
            "dual_coefs": model.dual_coefs.tolist(),
            "support_indices": model.support_indices.tolist(),
            "bias": model.bias,
            "scaler": model.scaler.to_json(),
            "converged": model.converged,
            "n_iter": model.n_iter,
            "kkt_gap": model.kkt_gap,
        }
    if isinstance(model, RidgeModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "ridge",
            "alpha": model.alpha,
            "weights": model.weights.tolist(),
            "intercept": model.intercept,
            "scaler": model.scaler.to_json(),
        }
    if isinstance(model, ForestModel):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "forest",
            "params": dataclasses.asdict(model.params),
            "n_features": model.n_features,
            "trees": [
                {
                    "feature": tree.feature.tolist(),
                    "threshold": tree.threshold.tolist(),
                    "left": tree.left.tolist(),
                    "right": tree.right.tolist(),
                    "value": tree.value.tolist(),
                    "leaf_sizes": tree.leaf_sizes.tolist(),
                }
                for tree in model.trees
            ],
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_json(doc: dict):
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = doc.get("kind")
    if kind == "svr":
        return _svr_from_json(doc)
    if kind == "ridge":
        return RidgeModel(
            alpha=float(doc["alpha"]),
            weights=np.asarray(doc["weights"], dtype=float),
            intercept=float(doc["intercept"]),
            scaler=Scaler.from_json(doc["scaler"]),
        )
    if kind == "forest":
        n_features = int(doc["n_features"])
        trees = [
            _Tree(
                feature=np.asarray(t["feature"], dtype=np.int32),
                threshold=np.asarray(t["threshold"], dtype=float),
                left=np.asarray(t["left"], dtype=np.int32),
                right=np.asarray(t["right"], dtype=np.int32),
                value=np.asarray(t["value"], dtype=float),
                leaf_sizes=np.asarray(t["leaf_sizes"], dtype=np.int32),
            )
            for t in doc["trees"]
        ]
        if not trees:
            raise ValueError("a forest needs at least one tree")
        for index, tree in enumerate(trees):
            _check_tree(tree, n_features, index)
        return ForestModel(
            params=ForestParams(**doc["params"]), trees=trees, n_features=n_features
        )
    raise ValueError(f"unknown model kind {kind!r}")


def _check_tree(tree: _Tree, n_features: int, index: int) -> None:
    """Raise unless every row walks `tree` from its root to a leaf.

    A node whose feature is negative is a leaf. Each other node must split
    on one of the `n_features` columns and have both children after itself
    in the tree, as `fit_forest` grows them, so every walk ends.
    """
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.leaf_sizes)
    n = tree.feature.size
    if n == 0 or any(a.shape != (n,) for a in arrays):
        shapes = [a.shape for a in arrays]
        raise ValueError(
            f"tree {index}: node arrays must be 1-d, non-empty and of one length, got {shapes}"
        )
    internal = np.flatnonzero(tree.feature >= 0)
    if np.any(tree.feature[internal] >= n_features):
        raise ValueError(f"tree {index}: split feature out of range for {n_features} features")
    for child in (tree.left[internal], tree.right[internal]):
        if np.any(child <= internal) or np.any(child >= n):
            raise ValueError(
                f"tree {index}: a child index is not after its node and inside the tree"
            )


def _svr_from_json(doc: dict) -> SvrModel:
    """An `SvrModel` from its document, which must be consistent with itself."""
    scaler = Scaler.from_json(doc["scaler"])
    width = scaler.means.shape[0]
    support_vectors = np.asarray(doc["support_vectors"], dtype=float)
    if support_vectors.shape == (0,):
        support_vectors = support_vectors.reshape(0, width)
    dual_coefs = np.asarray(doc["dual_coefs"], dtype=float)
    support_indices = np.asarray(doc["support_indices"], dtype=int)
    if support_vectors.ndim != 2 or support_vectors.shape[1] != width:
        raise ValueError(
            f"support vectors of shape {support_vectors.shape} do not match "
            f"the scaler's {width} features"
        )
    if not support_vectors.shape[0] == len(dual_coefs) == len(support_indices):
        raise ValueError(
            f"{support_vectors.shape[0]} support vectors, {len(dual_coefs)} dual "
            f"coefficients and {len(support_indices)} support indices"
        )
    # A fitted model stores its gamma resolved, so None is not valid here.
    gamma = doc["params"].get("gamma")
    if not (
        isinstance(gamma, (int, float))
        and not isinstance(gamma, bool)
        and math.isfinite(gamma)
        and gamma > 0
    ):
        raise ValueError(f"gamma must be a positive number, got {gamma!r}")
    return SvrModel(
        support_vectors=support_vectors,
        dual_coefs=dual_coefs,
        bias=float(doc["bias"]),
        params=SvrParams(**doc["params"]),
        scaler=scaler,
        converged=bool(doc["converged"]),
        n_iter=int(doc["n_iter"]),
        kkt_gap=float(doc["kkt_gap"]),
        support_indices=support_indices,
    )


def save_model(model, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
