"""Random forest regression: bagged CART trees with random feature subsets.

Trees use axis-aligned splits chosen to maximize variance reduction; leaves
predict the mean of their training targets. Every tree draws its bootstrap
sample and feature subsets from an independent generator derived from the
forest seed, so fits are deterministic and independent of any internal
parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._seeds import child_rng

__all__ = ["ForestParams", "ForestModel", "fit_forest", "predict_forest"]


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: float = 1.0 / 3.0
    min_leaf: int = 2
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be positive, got {self.n_trees}")
        if not 0.0 < self.max_features <= 1.0:
            raise ValueError(f"max_features must be in (0, 1], got {self.max_features}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be positive, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be positive, got {self.max_depth}")


@dataclass
class _Tree:
    feature: np.ndarray    # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    leaf_sizes: np.ndarray  # training targets per leaf (diagnostic)


@dataclass
class ForestModel:
    params: ForestParams
    trees: list[_Tree]
    n_features: int


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    ids: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, np.ndarray, np.ndarray] | None:
    """Best variance-reducing split over the feature subset, or None."""
    m = ids.shape[0]
    sub = X[np.ix_(ids, feats)]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = y[ids][order]

    csum = np.cumsum(ys, axis=0)
    total = csum[-1, :]
    k = np.arange(1, m)[:, None].astype(float)
    left_sum = csum[:-1, :]
    right_sum = total[None, :] - left_sum
    # Maximizing sum_L^2/n_L + sum_R^2/n_R minimizes total child SSE.
    score = left_sum**2 / k + right_sum**2 / (m - k)

    valid = xs[:-1, :] < xs[1:, :]
    kk = np.arange(1, m)[:, None]
    valid &= (kk >= min_leaf) & (m - kk >= min_leaf)
    if not valid.any():
        return None
    score = np.where(valid, score, -np.inf)
    flat = int(np.argmax(score))
    pos, col = np.unravel_index(flat, score.shape)
    threshold = 0.5 * (xs[pos, col] + xs[pos + 1, col])
    if threshold == xs[pos + 1, col]:  # the midpoint of adjacent floats rounds up
        threshold = xs[pos, col]
    ordered_ids = ids[order[:, col]]
    return int(feats[col]), float(threshold), ordered_ids[: pos + 1], ordered_ids[pos + 1 :]


def _grow_tree(
    X: np.ndarray, y: np.ndarray, ids: np.ndarray, params: ForestParams, rng: np.random.Generator
) -> _Tree:
    d = X.shape[1]
    mtry = max(1, int(math.ceil(d * params.max_features)))
    feature, threshold, left, right, value, sizes = [], [], [], [], [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        sizes.append(0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, ids, 0)]
    while stack:
        node, node_ids, depth = stack.pop()
        targets = y[node_ids]
        value[node] = float(targets.mean())
        sizes[node] = int(node_ids.shape[0])
        if (
            node_ids.shape[0] < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
            or np.ptp(targets) == 0.0
        ):
            continue
        feats = rng.choice(d, size=mtry, replace=False)
        split = _best_split(X, y, node_ids, feats, params.min_leaf)
        if split is None:
            continue
        feat, thr, left_ids, right_ids = split
        feature[node] = feat
        threshold[node] = thr
        left_child = new_node()
        right_child = new_node()
        left[node] = left_child
        right[node] = right_child
        stack.append((left_child, left_ids, depth + 1))
        stack.append((right_child, right_ids, depth + 1))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=float),
        leaf_sizes=np.asarray(sizes, dtype=np.int32),
    )


def fit_forest(X: np.ndarray, y: np.ndarray, params: ForestParams) -> ForestModel:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 2 * params.min_leaf:
        raise ValueError(
            f"need at least {2 * params.min_leaf} rows for min_leaf={params.min_leaf}"
        )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")

    n = X.shape[0]
    trees = []
    for t in range(params.n_trees):
        rng = child_rng(params.seed, "tree", t)
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X, y, np.sort(bootstrap), params, rng))
    return ForestModel(params=params, trees=trees, n_features=X.shape[1])


def _predict_tree(tree: _Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        at_leaf = tree.feature[node] < 0
        if at_leaf.all():
            break
        active = ~at_leaf
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimension mismatch: expected {model.n_features}, got {X.shape[1]}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in prediction input")
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        out += _predict_tree(tree, X)
    return out / len(model.trees)
