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

Ranks only order values, so the ranks of a larger block that holds X's rows
order X's values as X's own ranks would. A caller that fits many forests on
subsets of one block ranks the block once (`rank_table`) and passes each fit
its rows' columns of that table (`fit_forest(..., ranks=...)`): the forests
are the same, and no fit ranks anything.

A fitted forest also holds its trees' nodes packed into one table.
`predict_forest` steps every row down every tree at once, one level per step,
until each walk sits on a leaf. It adds the leaf values tree by tree, in tree
order and from zero, and divides by the tree count: the predictions are those
of walking and summing the trees one at a time, bit for bit. A numpy sum over
the (rows, trees) block would not be, as it adds a row's values pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .._checks import is_count
from .._seeds import child_rng

__all__ = ["ForestParams", "ForestModel", "fit_forest", "predict_forest", "rank_table"]


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: float = 1.0 / 3.0
    min_leaf: int = 2
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it: every comparison with NaN is false.
        # Counts must be Python or numpy integers, not bools: 2.5 or True trees mean nothing.
        for name in ("n_trees", "min_leaf", "max_depth"):
            value = getattr(self, name)
            if not (is_count(value, 1) or (name == "max_depth" and value is None)):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 < self.max_features <= 1.0:
            raise ValueError(f"max_features must be in (0, 1], got {self.max_features}")


@dataclass
class _Tree:
    feature: np.ndarray    # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    leaf_sizes: np.ndarray  # training targets per leaf (diagnostic)


@dataclass(frozen=True)
class _Nodes:
    """Every tree's nodes in one set of arrays, so that one walk steps all trees.

    Tree t's nodes follow those of the trees before it, from `roots[t]` on, and
    its child indices are offset to match. A leaf is its own left and right
    child, so a walk that has reached it stays there.
    """

    roots: np.ndarray
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _pack(trees: list[_Tree]) -> _Nodes:
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offsets = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    leaf = feature < 0
    ids = np.arange(feature.size)

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(tree, name) for tree in trees])

    return _Nodes(
        roots=roots,
        feature=feature,
        threshold=joined("threshold"),
        left=np.where(leaf, ids, joined("left") + offsets),
        right=np.where(leaf, ids, joined("right") + offsets),
        value=joined("value"),
    )


@dataclass
class ForestModel:
    params: ForestParams
    trees: list[_Tree]
    n_features: int
    # _pack(trees), which predict_forest walks; built here and never serialized.
    nodes: _Nodes = field(init=False, repr=False, compare=False, metadata={"saved": False})

    def __post_init__(self) -> None:
        self.nodes = _pack(self.trees)


def rank_table(X: np.ndarray) -> np.ndarray:
    """Each value's rank among its feature's values, as a (features, rows) array.

    Ranks count the distinct values of a feature, from 0; equal values share one.
    """
    XT = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)).T)
    d, n = XT.shape
    order = XT.argsort(axis=1)
    order += np.arange(0, d * n, n)[:, None]  # flat indices into XT
    ordered = XT.ravel().take(order)
    ranks = np.zeros((d, n), dtype=np.int32 if n < 2**31 else np.int64)  # in sorted order
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ranks[:, 1:])
    table = np.empty_like(ranks)
    table.ravel()[order] = ranks
    return table


class _SplitSearch:
    """Per-fit state of the split search: X, its rank keys and per-size constants.

    `best_split` finds the same split as an exhaustive search over the drawn
    features: each feature's rows in stable sorted order of its values, the
    score `left**2 / k + right**2 / (m - k)` at every position that leaves
    `min_leaf` rows on each side and falls between distinct values, and the
    first maximum in (position, drawn feature) order. A node may hold at most
    as many rows as X has, as a bootstrap sample does. `ranks` are X's columns
    of a rank table (`rank_table(X)` when None).
    """

    def __init__(self, X: np.ndarray, min_leaf: int, mtry: int, ranks: np.ndarray | None = None):
        self.X = X
        n = X.shape[0]
        if ranks is None:
            ranks = rank_table(X)
        # A key holds the value's rank among its feature's values above `bits`
        # bits, which a node fills with each row's position.
        self.bits = n.bit_length()
        width = int(ranks.max()).bit_length() + self.bits
        # (d, n), C-contiguous: a node's block is gathered row-wise, which is
        # about twice as slow from the strided columns of a larger table.
        self.keys = ranks.astype(np.int32 if width < 32 else np.int64, order="C")
        self.keys <<= self.bits
        self.min_leaf = min_leaf  # the fewest rows a child may have
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


def fit_forest(
    X: np.ndarray, y: np.ndarray, params: ForestParams, *, ranks: np.ndarray | None = None
) -> ForestModel:
    """A forest on (X, y); `ranks`, when given, are X's rows' columns of a rank table.

    That is `rank_table(X)`, or `rank_table(B)[:, rows]` for a block B whose
    rows `rows` are X; the forest is the same either way.
    """
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
    if ranks is not None and ranks.shape != X.shape[::-1]:
        raise ValueError(f"ranks of shape {ranks.shape} for X of shape {X.shape}")

    n = X.shape[0]
    mtry = max(1, int(math.ceil(X.shape[1] * params.max_features)))
    search = _SplitSearch(X, params.min_leaf, mtry, ranks)
    trees = []
    for t in range(params.n_trees):
        rng = child_rng(params.seed, "tree", t)
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_grow_tree(search, y, np.sort(bootstrap), params, rng))
    return ForestModel(params=params, trees=trees, n_features=X.shape[1])


def predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimension mismatch: expected {model.n_features}, got {X.shape[1]}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in prediction input")
    nodes = model.nodes
    node = np.tile(nodes.roots, (X.shape[0], 1))  # (rows, trees): each walk's node
    while True:
        feature = nodes.feature[node]
        if (feature < 0).all():
            break
        # A leaf's -1 reads the last column; it goes to itself either way.
        x = np.take_along_axis(X, feature, axis=1)
        node = np.where(x <= nodes.threshold[node], nodes.left[node], nodes.right[node])
    # Tree by tree from zero: a numpy sum over each row would add pairwise.
    out = np.zeros(X.shape[0])
    for leaf_values in nodes.value[node].T:
        out += leaf_values
    return out / len(model.trees)
