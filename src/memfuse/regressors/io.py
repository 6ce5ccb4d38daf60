"""Versioned JSON serialization for trained models.

Arrays are stored as nested lists of Python floats; json round-trips those
exactly, so deserialized models predict bit-identically.

Each kind of document has its own format version (`FORMAT_VERSIONS`); one
of another version is rejected. An SVR document (version 2; version 1 stored
full support-vector rows) holds `sv_blocks` as the model does: per block of
columns its `rows`, each once, each support vector's row in them (`index`,
null when they are one per support vector, in order) and its `width`, which
empty `rows` cannot show. Row norms are recomputed on load, bit for bit.
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
from .svr import SvrModel, SvrParams, _DistinctRows, _sq_norms

FORMAT_VERSIONS = {"svr": 2, "ridge": 1, "forest": 1}

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model", "FORMAT_VERSIONS"]


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
    kind = _KINDS[type(model)]
    doc = {"format_version": FORMAT_VERSIONS[kind], "kind": kind, **_to_json(model)}
    if isinstance(model, SvrModel):
        doc["sv_blocks"] = [
            {"rows": b.rows.tolist(), "index": _to_json(b.index), "width": b.rows.shape[1]}
            for b in model.sv_blocks
        ]
    return doc


def model_from_json(doc: dict):
    kind, version = doc.get("kind"), doc.get("format_version")
    if isinstance(kind, str) and kind in FORMAT_VERSIONS and version != FORMAT_VERSIONS[kind]:
        raise ValueError(f"unsupported model format version {version!r} for kind {kind!r}")
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


def _sv_block(block: dict, k: int, n_support: int) -> _DistinctRows:
    """Block `k` of a document's `sv_blocks`, for `n_support` support vectors."""
    width, rows, index = block["width"], block["rows"], block["index"]
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == width for r in rows)):
        raise ValueError(f"sv_blocks[{k}].rows must be a list of rows of its width {width}")
    rows = _finite(f"sv_blocks[{k}].rows", np.array(rows, dtype=float).reshape(len(rows), width))
    read = range(len(rows)) if index is None else index
    if not (
        isinstance(read, (list, range))
        and len(read) == n_support
        and all(is_count(i) and i < len(rows) for i in read)
    ):
        raise ValueError(f"sv_blocks[{k}] must give {n_support} support vectors a row of {len(rows)}")
    index = None if index is None else np.array(index, dtype=np.intp)
    return _DistinctRows(rows, _sq_norms(rows), index)


def _svr_from_json(doc: dict) -> SvrModel:
    """An `SvrModel` from its document, which must be consistent with itself."""
    scaler = Scaler.from_json(doc["scaler"])
    width = scaler.means.shape[0]
    dual_coefs = _finite("dual_coefs", np.asarray(doc["dual_coefs"], dtype=float))
    support_indices = np.asarray(doc["support_indices"])
    if not (dual_coefs.ndim == 1 and support_indices.shape == dual_coefs.shape):
        raise ValueError(
            f"{dual_coefs.size} dual coefficients of shape {dual_coefs.shape} and "
            f"{support_indices.size} support indices of shape {support_indices.shape}: "
            "each needs one entry per support vector"
        )
    n_support = dual_coefs.size
    widths = [block["width"] for block in doc["sv_blocks"]]
    if not (widths and all(is_count(w, 1) for w in widths) and sum(widths) == width):
        raise ValueError(
            f"block widths {widths} must be positive integers that sum to the scaler's {width}"
        )
    sv_blocks = tuple(_sv_block(block, k, n_support) for k, block in enumerate(doc["sv_blocks"]))
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
        sv_blocks=sv_blocks,
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
