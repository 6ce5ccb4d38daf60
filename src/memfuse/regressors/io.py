"""Versioned JSON serialization for trained models.

Arrays are stored as nested lists of Python floats; json round-trips those
exactly, so deserialized models predict bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .._checks import is_count
from .forest import ForestModel, ForestParams, _Tree
from .ridge import RidgeModel, check_alpha
from .scaler import Scaler
from .svr import SvrModel, SvrParams

FORMAT_VERSION = 1

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model", "FORMAT_VERSION"]


_KINDS = {SvrModel: "svr", RidgeModel: "ridge", ForestModel: "forest"}


def _to_json(value):
    """`value` with arrays as lists and dataclasses as dicts of their saved fields."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_to_json(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {
            f.name: _to_json(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("saved", True)
        }
    return value


def model_to_json(model) -> dict:
    if type(model) not in _KINDS:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {"format_version": FORMAT_VERSION, "kind": _KINDS[type(model)], **_to_json(model)}


def model_from_json(doc: dict):
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = doc.get("kind")
    if kind == "svr":
        return _svr_from_json(doc)
    if kind == "ridge":
        return _ridge_from_json(doc)
    if kind == "forest":
        n_features = doc["n_features"]
        if not is_count(n_features, 1):
            raise ValueError(f"n_features must be a positive integer, got {n_features!r}")
        trees = [
            _Tree(**{name: np.asarray(t[name], dtype=dt) for name, dt in _TREE_ARRAYS.items()})
            for t in doc["trees"]
        ]
        if not trees:
            raise ValueError("a forest needs at least one tree")
        for index, tree in enumerate(trees):
            _check_tree(tree, n_features, index)
        return ForestModel(
            params=ForestParams(**doc["params"]), trees=trees, n_features=int(n_features)
        )
    raise ValueError(f"unknown model kind {kind!r}")


def _finite(name: str, value):
    """`value`, a number or an array, unless it holds a NaN or an infinity."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


# The node arrays of a tree and their dtypes, as `fit_forest` grows them.
_TREE_ARRAYS = {
    "feature": np.int32,
    "threshold": float,
    "left": np.int32,
    "right": np.int32,
    "value": float,
    "leaf_sizes": np.int32,
}


def _check_tree(tree: _Tree, n_features: int, index: int) -> None:
    """Raise unless every row walks `tree` from its root to a finite leaf value.

    A node whose feature is negative is a leaf. Each other node must split
    on one of the `n_features` columns and have both children after itself
    in the tree, as `fit_forest` grows them, so every walk ends.
    """
    arrays = {name: getattr(tree, name) for name in _TREE_ARRAYS}
    n = tree.feature.size
    if n == 0 or any(a.shape != (n,) for a in arrays.values()):
        shapes = [a.shape for a in arrays.values()]
        raise ValueError(
            f"tree {index}: node arrays must be 1-d, non-empty and of one length, got {shapes}"
        )
    for name in ("threshold", "value"):
        _finite(f"tree {index}: {name}", arrays[name])
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
    support_vectors = _finite("support_vectors", np.asarray(doc["support_vectors"], dtype=float))
    if support_vectors.shape == (0,):
        support_vectors = support_vectors.reshape(0, width)
    dual_coefs = _finite("dual_coefs", np.asarray(doc["dual_coefs"], dtype=float))
    support_indices = np.asarray(doc["support_indices"])
    if support_vectors.ndim != 2 or support_vectors.shape[1] != width:
        raise ValueError(
            f"support vectors of shape {support_vectors.shape} do not match "
            f"the scaler's {width} features"
        )
    n_support = support_vectors.shape[0]
    if not dual_coefs.shape == support_indices.shape == (n_support,):
        raise ValueError(
            f"{n_support} support vectors, {dual_coefs.size} dual coefficients of shape "
            f"{dual_coefs.shape} and {support_indices.size} support indices of shape "
            f"{support_indices.shape}: each needs one entry per support vector"
        )
    indices = list(doc["support_indices"])
    if not all(is_count(i) for i in indices) or len(set(indices)) != n_support:
        raise ValueError("support indices must be distinct non-negative integers")
    n_iter = doc["n_iter"]
    if not is_count(n_iter):
        raise ValueError(f"n_iter must be a non-negative integer, got {n_iter!r}")
    converged = doc["converged"]
    if not isinstance(converged, bool):
        raise ValueError(f"converged must be true or false, got {converged!r}")
    # A fitted model stores its gamma resolved, so None is not valid here;
    # SvrParams checks that the number is positive and finite.
    gamma = doc["params"].get("gamma")
    if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
        raise ValueError(f"gamma must be a number, got {gamma!r}")
    return SvrModel(
        support_vectors=support_vectors,
        dual_coefs=dual_coefs,
        bias=_finite("bias", float(doc["bias"])),
        params=SvrParams(**doc["params"]),
        scaler=scaler,
        converged=converged,
        n_iter=int(n_iter),
        kkt_gap=float(doc["kkt_gap"]),
        support_indices=support_indices.astype(int),
    )


def _ridge_from_json(doc: dict) -> RidgeModel:
    """A `RidgeModel` from its document, which must be consistent with itself."""
    scaler = Scaler.from_json(doc["scaler"])
    weights = _finite("weights", np.asarray(doc["weights"], dtype=float))
    if weights.shape != scaler.means.shape:
        raise ValueError(
            f"weights of shape {weights.shape} do not match the scaler's "
            f"{scaler.means.shape[0]} features"
        )
    alpha = float(doc["alpha"])
    check_alpha(alpha)
    return RidgeModel(
        alpha=alpha,
        weights=weights,
        intercept=_finite("intercept", float(doc["intercept"])),
        scaler=scaler,
    )


def save_model(model, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
