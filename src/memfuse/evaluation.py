"""Nested leave-persons-out evaluation of the fusion pipelines.

A run builds one `fusion.FeatureTable`, extracting each memory text once. Its
rows pass through `fusion.vector_rows`, which stores equal vectors once by
value: an audio and a visual row per video and a memory row per distinct
text, and each response's participant as its group. Each condition selects
its modalities; every fold takes samples and their groups by index. One loop
runs over dimension, condition, strategy and outer fold. Outer folds partition the
table's participants; inside each, a grid search re-tunes on inner folds of
the training participants, and late fusion stacks on folds of its own, all
from `folds.group_splits`; a participant on both sides of a fit raises.
Every fit draws its seed from `child_seed(seed, dim, condition, strategy,
fold)`, so the loop order cannot change a result. One routine fits a fold's
training samples and predicts its test samples at a list of grid points: once
per inner fold with every point, once per outer fold with the selected one.
Reported numbers are per-fold test R² and their mean ("AvgR2"). The AV-dagger
baseline, scored in the same fold loop, predicts each video's training-fold
mean rating: the ceiling of a context-free model.

A grid maps hyperparameter keys ("svr.c", "forest.n_trees", "ridge.alpha",
...) to candidate values. Each cell searches only the keys its learners read:
early fusion reads the SVR keys; late fusion reads the SVR keys when it has
an audio or visual base model, the forest keys when it has a memory base
model, and the stacking keys always. Unknown keys, and values that their
learner's own check rejects, raise before anything is fitted.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._seeds import child_seed
from .folds import assign_group_folds, check_fold_count, group_splits
from .fusion import (
    BASES,
    FeatureTable,
    LateFusionParams,
    early_fusion_predict_grid,
    late_fusion_bases,
    late_fusion_predict_grid,
    vector_rows,
)
# Not called here; bench/tracer.py wraps these names where this module once looked them up.
from .fusion import early_fusion_fit, fusion_predict, late_fusion_fit  # noqa: F401
from .model import Dataset, memory_subset
from .regressors import ForestParams, SvrParams
from .regressors.ridge import check_alpha
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
    if not (np.all(np.isfinite(y_true)) and np.all(np.isfinite(y_pred))):
        raise ValueError("non-finite input")
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
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input")
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
    if len(train_videos) != len(train_values):
        raise ValueError(
            f"{len(train_videos)} training videos but {len(train_values)} training values"
        )
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


# Grid keys per learner. A base learner's keys are its params' fields under a
# "<learner>." prefix, but for the solver's pass limit and the forest's seed;
# the stacking keys go to the late-fusion fit.
_LEARNER_PARAMS = {"svr": SvrParams, "forest": ForestParams}
_LEARNER_KEYS = {
    learner: tuple(
        f"{learner}.{f.name}" for f in dataclasses.fields(cls) if f.name not in ("max_passes", "seed")
    )
    for learner, cls in _LEARNER_PARAMS.items()
} | {"stack": ("ridge.alpha", "stack.k_inner")}


def validate_grid(grid: Mapping[str, Sequence]) -> None:
    """Raise unless every key is known and every value passes its learner's own check."""
    if not grid:
        raise ValueError("empty grid")
    known = {key for keys in _LEARNER_KEYS.values() for key in keys}
    unknown = sorted(set(grid) - known)
    if unknown:
        raise ValueError(f"unknown grid keys {unknown}; known keys are {sorted(known)}")
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ValueError(f"grid entry {name!r} must be a non-empty list")
        for value in values:
            if name == "ridge.alpha":
                check_alpha(value)
            elif name == "stack.k_inner":
                check_fold_count(value)
            else:
                _learner_params(name.partition(".")[0], {name: value})


def _searched_keys(strategy: str, table: FeatureTable) -> tuple[str, ...]:
    """The grid keys read by the learners that `strategy` fits on `table`."""
    if strategy == "early":
        learners = {"svr"}
    elif strategy == "late":
        learners = {BASES[base][0] for base in late_fusion_bases(table.modalities)} | {"stack"}
    else:
        raise ValueError(f"unknown fusion strategy {strategy!r}")
    return tuple(
        key for learner, keys in _LEARNER_KEYS.items() if learner in learners for key in keys
    )


def _learner_params(learner: str, hyper: Mapping):
    """The params of base learner `learner` from the keys of `hyper` under its prefix."""
    prefix = learner + "."
    return _LEARNER_PARAMS[learner](
        **{k[len(prefix):]: v for k, v in hyper.items() if k.startswith(prefix)}
    )


def _late_point(hyper: Mapping) -> tuple[LateFusionParams, float, int]:
    """The (base_params, meta_alpha, k_inner) point of `late_fusion_predict_grid`."""
    svr = _learner_params("svr", hyper)
    base_params = LateFusionParams(audio=svr, visual=svr, memory=_learner_params("forest", hyper))
    return base_params, hyper.get("ridge.alpha", 1.0), hyper.get("stack.k_inner", 4)


def _fold_predictions(
    strategy: str, table, y, train_rows, test_rows, combos: list[dict], seed: int
) -> list[np.ndarray]:
    """Per combo, in order: the test-row predictions of a fit on the training rows.

    Only late fusion draws from `seed`; an SVR fit is deterministic.
    """
    train, test = table.rows(train_rows), table.rows(test_rows)
    if strategy == "early":
        points = [_learner_params("svr", combo) for combo in combos]
        return early_fusion_predict_grid(train, y[train_rows], points, test)
    points = [_late_point(combo) for combo in combos]
    return late_fusion_predict_grid(train, y[train_rows], points, test, seed)


def _sort_key(values: tuple) -> tuple:
    return tuple(math.inf if v is None else float(v) for v in values)


def grid_search(
    table: FeatureTable,
    y: np.ndarray,
    grid: Mapping[str, Sequence],
    strategy: str,
    k_inner: int = 4,
    seed: int = 0,
) -> tuple[dict, list[dict]]:
    """Exhaustive hyperparameter search scored by mean inner-fold test R2.

    Only the keys read by the learners that `strategy` fits on the table's
    modalities are searched (see the module docstring); the other keys are
    ignored, and a key that no learner has raises `ValueError`. Inner folds
    split the table's groups. Ties break to the lexicographically smallest
    hyperparameter value tuple. A single-point grid, or one whose keys no
    learner here reads, short-circuits without fitting anything; its one
    point leaves the unset parameters at their defaults.

    Each inner fold is fitted and scored once for all grid points, and each
    point's scores equal those of fitting and predicting it alone with
    `late_fusion_fit` or `early_fusion_fit` and `fusion_predict` on the
    table's bundles and groups.
    """
    validate_grid(grid)
    y = np.asarray(y, dtype=float)
    if table.n != len(y):
        raise ValueError(f"{table.n} samples and {len(y)} targets differ in length")
    keys = tuple(k for k in _searched_keys(strategy, table) if k in grid)
    combos = [
        dict(zip(keys, values))
        for values in itertools.product(*(grid[k] for k in keys))
    ]
    if len(combos) == 1:
        return combos[0], [{"hyper": combos[0], "mean_r2": None, "fold_r2": []}]

    splits = group_splits(table.groups, k_inner, child_seed(seed, "inner-folds"))
    fold_scores: list[list[float]] = [[] for _ in combos]
    for fold, (train_rows, test_rows) in enumerate(splits):
        preds = _fold_predictions(
            strategy, table, y, train_rows, test_rows, combos, child_seed(seed, "inner-fit", fold)
        )
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
    fold_r2: tuple[float, ...]
    params: tuple[dict, ...] | None  # per-outer-fold selections; None for AV†

    @property
    def mean_r2(self) -> float:
        return float(np.mean(self.fold_r2))


@dataclass
class ExperimentReport:
    experiment: str
    seed: int
    conditions: tuple[str, ...]
    strategies: tuple[str, ...]
    cells: dict[tuple[str, str, str], CellResult]  # (dim, condition, strategy)

    @property
    def deltas(self) -> dict[tuple[str, str], float]:
        """(dim, strategy) -> AVM - AV mean R², where both cells exist."""
        return {
            (dim, strat): cell.mean_r2 - self.cells[(dim, "AV", strat)].mean_r2
            for (dim, cond, strat), cell in self.cells.items()
            if cond == "AVM" and (dim, "AV", strat) in self.cells
        }

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
        deltas = self.deltas
        if deltas:
            lines.append("")
            lines.append("ΔAvgR² (AVM - AV)")
            for dim in DIMS:
                parts = [
                    f"{strat}: {deltas[(dim, strat)]:+.3f}"
                    for strat in self.strategies
                    if (dim, strat) in deltas
                ]
                if parts:
                    lines.append(f"{dim.upper():4s} " + "  ".join(parts))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment runners


def _feature_table(rows, read: set[str], extractor, av_features) -> FeatureTable:
    """The table of `rows` over the modalities in `read`, each row's participant its group."""
    columns = {}
    if read & {"audio", "visual"}:
        videos = [r.video_id for r in rows]
        missing = set(videos) - set(av_features)
        if missing:
            raise ValueError(f"AV features missing for videos: {sorted(missing)}")
        for m in ("audio", "visual"):
            columns[m] = vector_rows([av_features[v][m] for v in videos], "video", videos, m)
    if read & {"mem_lexical", "mem_embedding"}:
        if extractor is None:
            extractor = TextFeatureExtractor(load_resources())
        feats = [extractor.extract(r.memories[0].text) for r in rows]
        for m, part in (("mem_lexical", "lexical"), ("mem_embedding", "embedding")):
            columns[m] = vector_rows([getattr(f, part) for f in feats], "row", range(len(rows)), m)
    return FeatureTable(columns, len(rows), [r.participant_id for r in rows])


def _check_choices(kind: str, given: tuple, allowed: tuple) -> None:
    """Reject an empty, unknown or repeated experiment argument, naming it."""
    if not given:
        raise ValueError(f"no {kind} given; choose from {list(allowed)}")
    for i, value in enumerate(given):
        if value not in allowed:
            raise ValueError(f"unknown {kind} {value!r}; choose from {list(allowed)}")
        if value in given[:i]:
            raise ValueError(f"{kind} {value!r} given twice")


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
    _check_choices("condition", conditions, CONDITIONS)
    _check_choices("strategy", strategies, STRATEGIES)
    _check_choices("dim", tuple(dims), DIMS)
    validate_grid(grid)
    sub = memory_subset(ds)
    if len(sub) == 0:
        raise ValueError("dataset has no responses with memories")
    rows = list(sub.responses)
    read = {m for c in conditions for m in _CONDITION_MODALITIES[c]}
    table = _feature_table(rows, read, extractor, av_features)
    videos = [r.video_id for r in rows]
    splits = group_splits(table.groups, k_outer, child_seed(seed, "outer-folds"))
    cells: dict[tuple[str, str, str], CellResult] = {}
    for dim in dims:
        y = np.array([getattr(r.induced, dim) for r in rows])
        for cond in conditions:
            # AV† reads no features: it reports the same oracle under every strategy column.
            reads = _CONDITION_MODALITIES[cond]
            features = table.select(reads) if reads else None
            for strat in strategies:
                scores, params = [], []
                for fold, (train_rows, test_rows) in enumerate(splits):
                    if features is None:
                        pred = av_dagger_baseline(
                            [videos[r] for r in train_rows],
                            y[train_rows],
                            [videos[r] for r in test_rows],
                        )
                    else:
                        fold_seed = child_seed(seed, dim, cond, strat, fold)
                        best, _ = grid_search(
                            features.rows(train_rows),
                            y[train_rows],
                            grid,
                            strat,
                            k_inner=k_inner,
                            seed=fold_seed,
                        )
                        (pred,) = _fold_predictions(
                            strat, features, y, train_rows, test_rows, [best],
                            child_seed(fold_seed, "final"),
                        )
                        params.append(best)
                    scores.append(r2_score(y[test_rows], pred))
                cells[(dim, cond, strat)] = CellResult(
                    fold_r2=tuple(scores), params=None if features is None else tuple(params)
                )
    return ExperimentReport(
        experiment=experiment,
        seed=seed,
        conditions=conditions,
        strategies=strategies,
        cells=cells,
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

    The same seed gives a bit-for-bit equal report at a fixed BLAS thread
    count. Another thread count rounds a Gram product differently, which can
    move an SMO solve, but only within the solver's KKT tolerance of 1e-7: on
    the benchmark's seeds 1-3, one and two threads selected the same
    hyperparameters and moved no fold R2 by more than 1e-7 (the measured
    spread was below 6e-8). CI runs a reduced `run_experiment2` under both
    and fails on a spread above 1e-6 or on any changed selection. The
    benchmark pins one thread.
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
    at a fixed BLAS thread count, and under another thread count the same
    selections with fold R2 within 1e-7 (measured on the benchmark's seeds
    1-3; checked in CI at 1e-6).
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
