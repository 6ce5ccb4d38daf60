"""Nested leave-persons-out evaluation of the fusion pipelines.

One straight loop runs over dimension, condition, strategy and outer fold.
The outer folds partition participants; inside each, an exhaustive grid
search re-tunes the hyperparameters on participant-grouped inner folds, and
late fusion stacks on grouped folds of its own. All three levels come from
`folds.group_splits`, which raises if a participant leaks across a split.
Every fit draws its seed from `child_seed(seed, dim, condition, strategy,
fold)`, so the loop order cannot change a result. The grid search runs its
inner folds outermost and fits all grid points of a fold in one call. In
late fusion, `fusion.late_fusion_fit_grid` fits a base model once per
setting of its own keys and `stack.k_inner`, not once per grid point, and
`fusion.late_fusion_predict_grid` runs each on the test rows once. In early
fusion, `fusion.early_fusion_predict_grid` builds one RBF Gram per setting
of the kernel-width keys (`svr.gamma`, `svr.gamma_scale`), solves each grid
point of that setting on it, and scores every point from one standardized
block of the fold's test rows. The outer fold's refit at the selected point
is a plain `late_fusion_fit` or `early_fusion_fit`. Reported numbers are
per-fold test R-squared values and their mean ("AvgR2"). The AV-dagger
baseline predicts each video's training-fold mean rating, the ceiling of a
context-free model on the same data.

A grid maps hyperparameter keys ("svr.c", "forest.n_trees", "ridge.alpha",
...) to candidate values. Each cell searches only the keys its learners read:
early fusion reads the SVR keys; late fusion reads the SVR keys when it has
an audio or visual base model, the forest keys when it has a memory base
model, and the stacking keys always. Unknown keys raise.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._seeds import child_seed
from .folds import assign_group_folds, group_splits
from .fusion import (
    LateFusionParams,
    ModalityBundle,
    early_fusion_fit,
    early_fusion_predict_grid,
    fusion_predict,
    late_fusion_bases,
    late_fusion_fit,
    late_fusion_fit_grid,
    late_fusion_predict_grid,
)
from .model import Dataset, memory_subset
from .regressors import ForestParams, SvrParams
from .text import TextFeatureExtractor, load_resources

DIMS = ("p", "a", "d")
CONDITIONS = ("M", "AV", "AVM", "AVdagger")  # AVdagger renders as AV†
STRATEGIES = ("early", "late")
CONDITION_DISPLAY = {"M": "M", "AV": "AV", "AVM": "AVM", "AVdagger": "AV†"}

_CONDITION_MODALITIES = {
    "M": ("mem_lexical", "mem_embedding"),
    "AV": ("audio", "visual"),
    "AVM": ("audio", "visual", "mem_lexical", "mem_embedding"),
    "AVdagger": (),  # reads only the video ids
}

__all__ = [
    "DIMS",
    "CONDITIONS",
    "STRATEGIES",
    "CvPlan",
    "make_lpo_folds",
    "r2_score",
    "pearson",
    "av_dagger_baseline",
    "validate_grid",
    "grid_search",
    "CellResult",
    "ExperimentReport",
    "run_experiment1",
    "run_experiment2",
    "annotator_agreement",
    "AgreementTable",
]


# ---------------------------------------------------------------------------
# Fold plans and metrics


@dataclass(frozen=True)
class CvPlan:
    k: int
    assignments: dict[str, int]  # participant id -> fold index
    seed: int

    def fold_of(self, participant_id: str) -> int:
        return self.assignments[participant_id]


def make_lpo_folds(participants: Sequence[str] | set[str], k: int, seed: int) -> CvPlan:
    """Assign participants to k folds; sizes differ by at most one."""
    assignments = assign_group_folds(list(participants), k, seed)
    return CvPlan(k=k, assignments=assignments, seed=seed)


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.shape[0] < 2:
        raise ValueError("need at least two observations")
    # Tested on the values, not on ss_tot: the mean of a constant array can be
    # inexact, which leaves ss_tot a tiny positive number.
    if np.ptp(y_true) == 0:
        raise ValueError("zero variance in y_true")
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] < 3:
        raise ValueError("need at least three observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ValueError("constant input")
    return float(np.clip((xc @ yc) / denom, -1.0, 1.0))


def av_dagger_baseline(
    train_videos: Sequence[str],
    train_values: np.ndarray,
    test_videos: Sequence[str],
) -> np.ndarray:
    """Predict each test video's mean training rating (one dimension at a time).

    Videos never seen in training fall back to the global training mean, with
    a warning; at production scale every video appears in every training fold.
    """
    train_values = np.asarray(train_values, dtype=float)
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for vid, val in zip(train_videos, train_values):
        sums[vid] = sums.get(vid, 0.0) + float(val)
        counts[vid] = counts.get(vid, 0) + 1
    global_mean = float(train_values.mean())
    out = np.empty(len(test_videos))
    unseen = set()
    for i, vid in enumerate(test_videos):
        if vid in sums:
            out[i] = sums[vid] / counts[vid]
        else:
            out[i] = global_mean
            unseen.add(vid)
    if unseen:
        warnings.warn(
            f"videos absent from training folds, using global mean: {sorted(unseen)}",
            stacklevel=2,
        )
    return out


# ---------------------------------------------------------------------------
# Grid search


# Grid keys per learner. A learner's parameters are its dataclass fields under
# a "<learner>." prefix; the stacking keys go to the late-fusion fit.
_LEARNER_KEYS = {
    "svr": ("svr.c", "svr.epsilon", "svr.gamma", "svr.gamma_scale", "svr.tol"),
    "forest": ("forest.n_trees", "forest.max_features", "forest.min_leaf", "forest.max_depth"),
    "stack": ("ridge.alpha", "stack.k_inner"),
}
_BASE_LEARNER = {"audio": "svr", "visual": "svr", "memory": "forest"}


def validate_grid(grid: Mapping[str, Sequence]) -> None:
    if not grid:
        raise ValueError("empty grid")
    known = {key for keys in _LEARNER_KEYS.values() for key in keys}
    unknown = sorted(set(grid) - known)
    if unknown:
        raise ValueError(f"unknown grid keys {unknown}; known keys are {sorted(known)}")
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ValueError(f"grid entry {name!r} must be a non-empty list")


def _searched_keys(strategy: str, bundles: list[ModalityBundle]) -> tuple[str, ...]:
    """The grid keys read by the learners that `strategy` fits on `bundles`."""
    if strategy == "early":
        learners = {"svr"}
    elif strategy == "late":
        active = bundles[0].active() if bundles else ()
        learners = {_BASE_LEARNER[base] for base in late_fusion_bases(active)} | {"stack"}
    else:
        raise ValueError(f"unknown fusion strategy {strategy!r}")
    return tuple(
        key for learner, keys in _LEARNER_KEYS.items() if learner in learners for key in keys
    )


def _learner_params(cls, prefix: str, hyper: Mapping):
    return cls(**{k[len(prefix):]: v for k, v in hyper.items() if k.startswith(prefix)})


def _late_point(hyper: Mapping) -> tuple[LateFusionParams, float, int]:
    """The (base_params, meta_alpha, k_inner) point of `late_fusion_fit_grid`."""
    svr = _learner_params(SvrParams, "svr.", hyper)
    base_params = LateFusionParams(
        audio=svr, visual=svr, memory=_learner_params(ForestParams, "forest.", hyper)
    )
    return base_params, hyper.get("ridge.alpha", 1.0), hyper.get("stack.k_inner", 4)


def _fit(strategy: str, bundles, y, groups, hyper, seed):
    if strategy == "early":
        return early_fusion_fit(bundles, y, _learner_params(SvrParams, "svr.", hyper))
    base_params, meta_alpha, k_inner = _late_point(hyper)
    return late_fusion_fit(
        bundles, y, base_params, meta_alpha=meta_alpha, k_inner=k_inner, groups=groups, seed=seed
    )


def _fold_r2(strategy: str, bundles, y, groups, train_rows, test_rows, hyper, seed) -> float:
    """Fit on the training rows and return the R2 on the test rows."""
    model = _fit(
        strategy,
        [bundles[r] for r in train_rows],
        y[train_rows],
        [groups[r] for r in train_rows],
        hyper,
        seed,
    )
    pred = fusion_predict(model, [bundles[r] for r in test_rows])
    return r2_score(y[test_rows], pred)


def _sort_key(values: tuple) -> tuple:
    return tuple(math.inf if v is None else float(v) for v in values)


def grid_search(
    bundles: list[ModalityBundle],
    y: np.ndarray,
    groups: Sequence[str],
    grid: Mapping[str, Sequence],
    strategy: str,
    k_inner: int = 4,
    seed: int = 0,
) -> tuple[dict, list[dict]]:
    """Exhaustive hyperparameter search scored by mean inner-fold test R2.

    Only the keys read by the learners that `strategy` fits on these bundles
    are searched (see the module docstring); the other keys are ignored, and
    a key that no learner has raises `ValueError`. Inner folds are
    participant-grouped. Ties break to the lexicographically smallest
    hyperparameter value tuple. A single-point grid, or one whose keys no
    learner here reads, short-circuits without fitting anything; its one
    point leaves the unset parameters at their defaults.

    Each inner fold is fitted once for all grid points. For late fusion that
    is one `late_fusion_fit_grid` call: per fold, a base model's out-of-fold
    column is fitted once per distinct setting of its own keys ("svr.*" for
    audio and visual, "forest.*" for memory) and "stack.k_inner", its final
    fit once per setting of its own keys, and "ridge.alpha" only refits the
    ridge meta-learner. `late_fusion_predict_grid` then runs each distinct
    final base model on the fold's test rows once. For early fusion it is
    one `early_fusion_predict_grid` call: per fold, the training features
    are standardized once and the RBF Gram is built once per setting of
    "svr.gamma" and "svr.gamma_scale", and the test features are
    concatenated, checked and standardized once for all points. Each point
    still gets its own SMO solve and its own prediction kernel on its
    support vectors, and its model is dropped before the next is fitted.
    The scores equal those of fitting and predicting each point alone with
    `late_fusion_fit` or `early_fusion_fit` and `fusion_predict`.
    """
    validate_grid(grid)
    y = np.asarray(y, dtype=float)
    keys = tuple(k for k in _searched_keys(strategy, bundles) if k in grid)
    combos = [
        dict(zip(keys, values))
        for values in itertools.product(*(grid[k] for k in keys))
    ]
    if len(combos) == 1:
        return combos[0], [{"hyper": combos[0], "mean_r2": None, "fold_r2": []}]

    if strategy == "late":
        points = [_late_point(combo) for combo in combos]
    else:
        points = [_learner_params(SvrParams, "svr.", combo) for combo in combos]
    splits = group_splits(groups, k_inner, child_seed(seed, "inner-folds"))
    fold_scores: list[list[float]] = [[] for _ in combos]
    for fold, (train_rows, test_rows) in enumerate(splits):
        train_bundles = [bundles[r] for r in train_rows]
        test_bundles = [bundles[r] for r in test_rows]
        if strategy == "late":
            models = late_fusion_fit_grid(
                train_bundles,
                y[train_rows],
                points,
                groups=[groups[r] for r in train_rows],
                seed=child_seed(seed, "inner-fit", fold),
            )
            preds = late_fusion_predict_grid(models, points, test_bundles)
        else:  # a generator: one early-fusion model is fitted and held at a time
            preds = early_fusion_predict_grid(train_bundles, y[train_rows], points, test_bundles)
        # strict: a generator is run to its end, so it releases the fold's
        # arrays before the next fold builds its own.
        for scores, pred in zip(fold_scores, preds, strict=True):
            scores.append(r2_score(y[test_rows], pred))
    results = [
        {"hyper": combo, "mean_r2": float(np.mean(scores)), "fold_r2": scores}
        for combo, scores in zip(combos, fold_scores)
    ]

    best = max(
        results,
        key=lambda r: (
            r["mean_r2"],
            tuple(-v for v in _sort_key(tuple(r["hyper"][k] for k in keys))),
        ),
    )
    return dict(best["hyper"]), results


# ---------------------------------------------------------------------------
# Experiment reports


@dataclass(frozen=True)
class CellResult:
    mean_r2: float
    fold_r2: tuple[float, ...]
    params: tuple[dict, ...] | None  # per-outer-fold selections; None for AV†


@dataclass
class ExperimentReport:
    experiment: str
    seed: int
    conditions: tuple[str, ...]
    strategies: tuple[str, ...]
    cells: dict[tuple[str, str, str], CellResult]  # (dim, condition, strategy)
    deltas: dict[tuple[str, str], float]  # (dim, strategy) -> AVM - AV

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "conditions": list(self.conditions),
            "strategies": list(self.strategies),
            "cells": {
                f"{dim}|{cond}|{strat}": {
                    "mean_r2": cell.mean_r2,
                    "fold_r2": list(cell.fold_r2),
                    "params": list(cell.params) if cell.params is not None else None,
                }
                for (dim, cond, strat), cell in sorted(self.cells.items())
            },
            "deltas": {
                f"{dim}|{strat}": value for (dim, strat), value in sorted(self.deltas.items())
            },
        }

    def render_table(self) -> str:
        lines = [f"{self.experiment} (seed {self.seed})  AvgR² per dimension"]
        header = f"{'dim':4s} {'condition':10s}" + "".join(
            f"{s:>10s}" for s in self.strategies
        )
        lines.append(header)
        lines.append("-" * len(header))
        for dim in DIMS:
            for cond in self.conditions:
                row = f"{dim.upper():4s} {CONDITION_DISPLAY.get(cond, cond):10s}"
                present = False
                for strat in self.strategies:
                    cell = self.cells.get((dim, cond, strat))
                    if cell is None:
                        row += f"{'-':>10s}"
                    else:
                        row += f"{cell.mean_r2:>10.3f}"
                        present = True
                if present:
                    lines.append(row)
        if self.deltas:
            lines.append("")
            lines.append("ΔAvgR² (AVM - AV)")
            for dim in DIMS:
                parts = [
                    f"{strat}: {self.deltas[(dim, strat)]:+.3f}"
                    for strat in self.strategies
                    if (dim, strat) in self.deltas
                ]
                if parts:
                    lines.append(f"{dim.upper():4s} " + "  ".join(parts))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment runners


def _make_bundles(
    rows,
    modalities: tuple[str, ...],
    text_feats,
    av_features: Mapping[str, Mapping[str, np.ndarray]] | None,
) -> list[ModalityBundle]:
    bundles = []
    for i, row in enumerate(rows):
        kwargs = {}
        if "audio" in modalities:
            kwargs["audio"] = av_features[row.video_id]["audio"]
        if "visual" in modalities:
            kwargs["visual"] = av_features[row.video_id]["visual"]
        if "mem_lexical" in modalities:
            kwargs["mem_lexical"] = text_feats[i].lexical
        if "mem_embedding" in modalities:
            kwargs["mem_embedding"] = text_feats[i].embedding
        bundles.append(ModalityBundle(**kwargs))
    return bundles


def _run(
    experiment: str,
    ds: Dataset,
    av_features: Mapping[str, Mapping[str, np.ndarray]] | None,
    grid: Mapping[str, Sequence],
    seed: int,
    extractor: TextFeatureExtractor | None,
    conditions: tuple[str, ...],
    strategies: tuple[str, ...],
    k_outer: int,
    k_inner: int,
    dims: Sequence[str],
) -> ExperimentReport:
    validate_grid(grid)
    sub = memory_subset(ds)
    if len(sub) == 0:
        raise ValueError("dataset has no responses with memories")
    rows = list(sub.responses)
    modalities = {c: _CONDITION_MODALITIES[c] for c in conditions}
    read = {m for mods in modalities.values() for m in mods}
    text_feats = None
    if read & {"mem_lexical", "mem_embedding"}:
        if extractor is None:
            extractor = TextFeatureExtractor(load_resources())
        text_feats = [extractor.extract(r.memories[0].text) for r in rows]
    if read & {"audio", "visual"}:
        missing = {r.video_id for r in rows} - set(av_features)
        if missing:
            raise ValueError(f"AV features missing for videos: {sorted(missing)}")
    bundles_by_condition = {
        cond: _make_bundles(rows, mods, text_feats, av_features)
        for cond, mods in modalities.items()
        if mods
    }

    participants = [r.participant_id for r in rows]
    videos = [r.video_id for r in rows]
    splits = group_splits(participants, k_outer, child_seed(seed, "outer-folds"))
    cells: dict[tuple[str, str, str], CellResult] = {}
    for dim in dims:
        y = np.array([getattr(r.induced, dim) for r in rows])
        for cond in conditions:
            if cond == "AVdagger":
                scores = tuple(
                    r2_score(
                        y[test_rows],
                        av_dagger_baseline(
                            [videos[r] for r in train_rows],
                            y[train_rows],
                            [videos[r] for r in test_rows],
                        ),
                    )
                    for train_rows, test_rows in splits
                )
                # report the oracle under each requested strategy column
                for strat in strategies:
                    cells[(dim, cond, strat)] = CellResult(
                        mean_r2=float(np.mean(scores)), fold_r2=scores, params=None
                    )
                continue
            bundles = bundles_by_condition[cond]
            for strat in strategies:
                scores, params = [], []
                for fold, (train_rows, test_rows) in enumerate(splits):
                    fold_seed = child_seed(seed, dim, cond, strat, fold)
                    best, _ = grid_search(
                        [bundles[r] for r in train_rows],
                        y[train_rows],
                        [participants[r] for r in train_rows],
                        grid,
                        strat,
                        k_inner=k_inner,
                        seed=fold_seed,
                    )
                    scores.append(
                        _fold_r2(
                            strat, bundles, y, participants, train_rows, test_rows, best,
                            child_seed(fold_seed, "final"),
                        )
                    )
                    params.append(best)
                cells[(dim, cond, strat)] = CellResult(
                    mean_r2=float(np.mean(scores)), fold_r2=tuple(scores), params=tuple(params)
                )

    deltas = {}
    if "AV" in conditions and "AVM" in conditions:
        for dim in dims:
            for strat in strategies:
                deltas[(dim, strat)] = (
                    cells[(dim, "AVM", strat)].mean_r2 - cells[(dim, "AV", strat)].mean_r2
                )
    return ExperimentReport(
        experiment=experiment,
        seed=seed,
        conditions=conditions,
        strategies=strategies,
        cells=cells,
        deltas=deltas,
    )


def run_experiment1(
    ds: Dataset,
    grid: Mapping[str, Sequence],
    seed: int,
    extractor: TextFeatureExtractor | None = None,
    k_outer: int = 5,
    k_inner: int = 4,
    dims: Sequence[str] = DIMS,
) -> ExperimentReport:
    """Predict induced emotion from memory descriptions alone.

    The same seed gives a bit-for-bit equal report only at a fixed BLAS
    thread count: a multi-threaded Gram product rounds differently, which can
    move an SMO solve. The benchmark and CI pin one thread.
    """
    return _run(
        "experiment1", ds, None, grid, seed, extractor, ("M",), STRATEGIES, k_outer, k_inner, dims
    )


def run_experiment2(
    ds: Dataset,
    av_features: Mapping[str, Mapping[str, np.ndarray]],
    grid: Mapping[str, Sequence],
    seed: int,
    extractor: TextFeatureExtractor | None = None,
    conditions: Sequence[str] = ("AV", "AVM", "AVdagger"),
    strategies: Sequence[str] = STRATEGIES,
    k_outer: int = 5,
    k_inner: int = 4,
    dims: Sequence[str] = DIMS,
) -> ExperimentReport:
    """Ablate audiovisual-only against audiovisual-plus-memory conditions.

    As with `run_experiment1`, the same seed gives a bit-for-bit equal report
    only at a fixed BLAS thread count.
    """
    return _run(
        "experiment2", ds, av_features, grid, seed, extractor,
        tuple(conditions), tuple(strategies), k_outer, k_inner, dims,
    )


# ---------------------------------------------------------------------------
# Annotator agreement


@dataclass(frozen=True)
class AgreementTable:
    correspondence: dict[str, float]  # dim -> pearson(mean(ann1, ann2), self)
    reliability: dict[str, float]     # dim -> pearson(ann1, ann2)

    def render_table(self) -> str:
        lines = [f"{'dim':4s}{'correspondence':>16s}{'reliability':>14s}"]
        for dim in DIMS:
            lines.append(
                f"{dim.upper():4s}{self.correspondence[dim]:>16.3f}"
                f"{self.reliability[dim]:>14.3f}"
            )
        return "\n".join(lines) + "\n"


def annotator_agreement(
    self_ma: np.ndarray, ann1: np.ndarray, ann2: np.ndarray
) -> AgreementTable:
    """Correspondence and reliability of two annotators against self reports.

    Inputs are aligned (n, 3) arrays of PAD ratings.
    """
    self_ma = np.atleast_2d(np.asarray(self_ma, dtype=float))
    ann1 = np.atleast_2d(np.asarray(ann1, dtype=float))
    ann2 = np.atleast_2d(np.asarray(ann2, dtype=float))
    if not (self_ma.shape == ann1.shape == ann2.shape) or self_ma.shape[1] != 3:
        raise ValueError("inputs must be aligned (n, 3) arrays")
    if self_ma.shape[0] < 3:
        raise ValueError("need at least three aligned records")
    correspondence = {}
    reliability = {}
    for col, dim in enumerate(DIMS):
        correspondence[dim] = pearson(
            0.5 * (ann1[:, col] + ann2[:, col]), self_ma[:, col]
        )
        reliability[dim] = pearson(ann1[:, col], ann2[:, col])
    return AgreementTable(correspondence=correspondence, reliability=reliability)
