"""Random forest regression: bagged CART trees with random feature subsets.

Trees use axis-aligned splits chosen to maximize variance reduction; leaves
predict the mean of their training targets. Every tree draws its bootstrap
sample and feature subsets from an independent generator derived from the
forest seed, so fits are deterministic and independent of any internal
parallelism.

A split is searched on each drawn feature's rows in stable sorted order of
its values: equal values keep the node's row order, and a child's rows are its
parent's in that order. Each fit ranks every feature's values once, equal
values sharing a rank. A node then sorts integer keys that hold a value's rank
above its row's position in the node. No two keys of a node are equal, so any
sort puts them in the stable order of the values, and the prefix sums, the
scores and the children match a search with a stable sort bit for bit.
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
        # Each check is written so that NaN fails it: every comparison with NaN is false.
        if not self.n_trees >= 1:
            raise ValueError(f"n_trees must be positive, got {self.n_trees}")
        if not 0.0 < self.max_features <= 1.0:
            raise ValueError(f"max_features must be in (0, 1], got {self.max_features}")
        if not self.min_leaf >= 1:
            raise ValueError(f"min_leaf must be positive, got {self.min_leaf}")
        if self.max_depth is not None and not self.max_depth >= 1:
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


def _sorted_ranks(X: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's values in sorted order: their flat indices into X.T, and their ranks.

    Ranks count the distinct values of a feature, from 0; equal values share one.
    """
    XT = np.ascontiguousarray(X.T)
    d, n = XT.shape
    order = XT.argsort(axis=1)
    order += np.arange(0, d * n, n)[:, None]
    ordered = XT.ravel().take(order)
    ranks = np.zeros((d, n), dtype=dtype)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ranks[:, 1:])
    return order, ranks


class _SplitSearch:
    """Per-fit state of the split search: X, its rank keys and per-size constants.

    `best_split` finds the same split as an exhaustive search over the drawn
    features: each feature's rows in stable sorted order of its values, the
    score `left**2 / k + right**2 / (m - k)` at every position that leaves
    `min_leaf` rows on each side and falls between distinct values, and the
    first maximum in (position, drawn feature) order. A node may hold at most
    as many rows as X has, as a bootstrap sample does.
    """

    def __init__(self, X: np.ndarray, min_leaf: int, mtry: int):
        self.X = X
        n = X.shape[0]
        # A key holds the value's rank among its feature's values above `bits`
        # bits, which a node fills with each row's position.
        self.bits = n.bit_length()
        dtype = np.int32 if 2 * self.bits < 32 else np.int64
        order, ranks = _sorted_ranks(X, dtype)
        ranks <<= self.bits
        self.keys = np.empty_like(ranks)  # (d, n): a node's block is gathered row-wise
        self.keys.ravel()[order] = ranks
        self.min_leaf = math.ceil(min_leaf)  # the fewest rows a child may have
        self.mtry = mtry
        self._sizes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _constants(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row positions 0..m-1, and k and m - k (floats) for each scored left-child size k.

        A node of m rows scores every k in [min_leaf, m - min_leaf].
        """
        if m not in self._sizes:
            k = np.arange(self.min_leaf, m - self.min_leaf + 1, dtype=float)
            self._sizes[m] = np.arange(m, dtype=self.keys.dtype), k, m - k
        return self._sizes[m]

    def best_split(
        self, ids: np.ndarray, targets: np.ndarray, feats: np.ndarray
    ) -> tuple[int, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Best split of the node's rows `ids` (targets `y[ids]`) over `feats`, or None.

        Returns the feature, the threshold, and the left and right children's
        rows and targets, each in stable sorted order of the feature.
        """
        m = ids.shape[0]
        lo = self.min_leaf
        hi = m - lo
        if hi < lo:  # no left-child size leaves min_leaf rows on both sides
            return None
        positions, k, m_minus_k = self._constants(m)
        keys = self.keys.take(feats, axis=0).take(ids, axis=1)
        keys += positions
        keys.sort(axis=1)
        order = keys & ((1 << self.bits) - 1)
        ys = targets.take(order)
        csum = ys.cumsum(axis=1)

        left = csum[:, lo - 1 : hi]
        # Maximizing sum_L^2/n_L + sum_R^2/n_R minimizes total child SSE.
        right = csum[:, -1:] - left
        score = np.square(left)
        score /= k
        np.square(right, out=right)
        right /= m_minus_k
        score += right
        # No split between equal values.
        keys >>= self.bits
        np.putmask(score, keys[:, lo - 1 : hi] == keys[:, lo : hi + 1], -np.inf)

        flat = int(score.T.argmax())  # the first maximum in (position, feature) order
        pos, col = divmod(flat, self.mtry)
        if score[col, pos] == -np.inf:
            return None
        pos += lo - 1
        feat = int(feats[col])
        split_ids = ids.take(order[col])
        below = float(self.X[split_ids[pos], feat])
        above = float(self.X[split_ids[pos + 1], feat])
        threshold = 0.5 * (below + above)
        if threshold == above:  # the midpoint of adjacent floats rounds up
            threshold = below
        split_ys = ys[col].copy()  # so the children do not hold the whole block
        return (
            feat,
            threshold,
            split_ids[: pos + 1],
            split_ys[: pos + 1],
            split_ids[pos + 1 :],
            split_ys[pos + 1 :],
        )


def _grow_tree(
    search: _SplitSearch,
    y: np.ndarray,
    ids: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> _Tree:
    d, mtry = search.keys.shape[0], search.mtry
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
    stack = [(root, ids, y[ids], 0)]
    while stack:
        node, node_ids, targets, depth = stack.pop()
        m = node_ids.shape[0]
        value[node] = float(targets.sum()) / m  # bit-equal to targets.mean()
        sizes[node] = m
        if (
            m < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
            or targets.min() == targets.max()
        ):
            continue
        feats = rng.choice(d, size=mtry, replace=False)
        split = search.best_split(node_ids, targets, feats)
        if split is None:
            continue
        feat, thr, left_ids, left_ys, right_ids, right_ys = split
        feature[node] = feat
        threshold[node] = thr
        left_child = new_node()
        right_child = new_node()
        left[node] = left_child
        right[node] = right_child
        stack.append((left_child, left_ids, left_ys, depth + 1))
        stack.append((right_child, right_ids, right_ys, depth + 1))

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
    mtry = max(1, int(math.ceil(X.shape[1] * params.max_features)))
    search = _SplitSearch(X, params.min_leaf, mtry)
    trees = []
    for t in range(params.n_trees):
        rng = child_rng(params.seed, "tree", t)
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_grow_tree(search, y, np.sort(bootstrap), params, rng))
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
