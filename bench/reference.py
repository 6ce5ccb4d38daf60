"""Independent recomputations that the benchmark checks the program against.

Nothing here calls memfuse code: the fold assignment, the AV-dagger baseline
and the late-fusion prediction are re-derived from their definitions with
plain Python and numpy, reading only plain data and the fitted model's arrays.
"""

from __future__ import annotations

import math
import zlib

import numpy as np


def child_seed(root: int, *tokens) -> int:
    """crc32 chain over the decimal root and each token, as 32 bits."""
    h = zlib.crc32(str(int(root)).encode("utf-8"))
    for token in tokens:
        h = zlib.crc32(str(token).encode("utf-8"), h)
    return h & 0xFFFFFFFF


def outer_fold_of(participants: list[str], k: int, seed: int) -> dict[str, int]:
    """Participant -> outer fold: seeded shuffle of the sorted ids, dealt round-robin."""
    distinct = sorted(set(participants), key=str)
    order = np.random.default_rng(child_seed(seed, "outer-folds")).permutation(len(distinct))
    return {distinct[int(idx)]: pos % k for pos, idx in enumerate(order)}


def r2(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    return 1.0 - float(((y_true - np.asarray(y_pred)) ** 2).sum()) / ss_tot


def av_dagger_fold_r2(
    participants: list[str], videos: list[str], y: np.ndarray, k: int, seed: int
) -> list[float]:
    """Per outer fold R2 of predicting each test row's video mean over the training rows.

    A video absent from the training rows is predicted by the training mean.
    """
    fold_of = outer_fold_of(participants, k, seed)
    folds = np.array([fold_of[p] for p in participants])
    out = []
    for fold in range(k):
        train = np.flatnonzero(folds != fold)
        test = np.flatnonzero(folds == fold)
        means = {}
        for vid in {videos[r] for r in train}:
            means[vid] = y[[r for r in train if videos[r] == vid]].mean()
        fallback = y[train].mean()
        pred = [means.get(videos[r], fallback) for r in test]
        out.append(r2(y[test], pred))
    return out


def svr_predict(svr, x: np.ndarray) -> float:
    """sum_i beta_i exp(-gamma |sv_i - z|^2) + b, with z the standardized input."""
    z = (x - svr.scaler.means) / svr.scaler.stds
    sq = ((svr.support_vectors - z) ** 2).sum(axis=1)
    return float(math.fsum(svr.dual_coefs * np.exp(-svr.params.gamma * sq)) + svr.bias)


def tree_predict(tree, x: np.ndarray) -> float:
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return float(tree.value[node])


def forest_predict(forest, x: np.ndarray) -> float:
    return math.fsum(tree_predict(t, x) for t in forest.trees) / len(forest.trees)


def late_fusion_predict(model, audio: np.ndarray, visual: np.ndarray, memory: np.ndarray) -> float:
    """Audio SVR, visual SVR and memory forest, stacked by weights . x + intercept."""
    base = {
        "audio": svr_predict(model.base_models["audio"], audio),
        "visual": svr_predict(model.base_models["visual"], visual),
        "memory": forest_predict(model.base_models["memory"], memory),
    }
    x = np.array([base[name] for name in model.base_order])
    return float(math.fsum(model.meta.weights * x) + model.meta.intercept)
