"""Early and late multimodal fusion for one regression target.

Early fusion concatenates the active modality vectors in a fixed order and
fits a single RBF-kernel SVR. Late fusion stacks: an SVR per audiovisual
modality and a random forest on the memory-description features (lexical ++
embedding), combined by a ridge meta-regressor. The meta-regressor trains on
out-of-fold base predictions over participant-grouped folds of the training
set (`folds.group_splits`), so no base model ever scores a sample it was
trained on.

`late_fusion_fit_grid` fits late fusion at many hyperparameter points on the
same rows, as a grid search does. A base model's out-of-fold column depends
only on (base, its own params, `k_inner`) and its final fit only on (base,
its own params), since the fit seeds are the same at every point; each is
computed once per distinct key and shared, so the base fits grow as the sum
of the distinct base settings, not their product with the other axes.
`late_fusion_fit` is its one-point case, and `late_fusion_predict_grid`
predicts with every model of such a grid, running each shared base model on
the given rows once.

`early_fusion_fit_grid` does the same for early fusion. The concatenated
features, their standardization and the RBF Gram read neither the targets
nor C nor epsilon, so the SVR of every point is solved on one `SvrDesign`,
whose Gram is built once per distinct gamma setting. `early_fusion_fit` is
its one-point case. `early_fusion_predict_grid` fits the same models and
predicts given test rows with each: the test rows are concatenated, checked
and standardized once for all points (`SvrDesign.predictions`), and each
point's kernel is built on its own support vectors, as `fusion_predict`
builds it.

A full experiment fits one model per affective dimension (P, A, D); these
fits are independent and this module is agnostic about which dimension it is
given.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._seeds import child_seed
from .folds import group_splits
from .regressors import (
    ForestModel,
    ForestParams,
    RidgeModel,
    SvrDesign,
    SvrModel,
    SvrParams,
    fit_forest,
    fit_ridge,
    fit_svr,
    predict_forest,
    predict_ridge,
    predict_svr,
)

MODALITY_ORDER = ("audio", "visual", "mem_lexical", "mem_embedding")
BASE_ORDER = ("audio", "visual", "memory")

__all__ = [
    "MODALITY_ORDER",
    "BASE_ORDER",
    "ModalityBundle",
    "EarlyFusionModel",
    "LateFusionModel",
    "LateFusionParams",
    "late_fusion_bases",
    "early_fusion_fit",
    "early_fusion_fit_grid",
    "early_fusion_predict_grid",
    "late_fusion_fit",
    "late_fusion_fit_grid",
    "late_fusion_predict_grid",
    "fusion_predict",
    "save_fusion_model",
    "load_fusion_model",
]


@dataclass(frozen=True)
class ModalityBundle:
    """Per-sample feature vectors, one optional slot per modality."""

    audio: np.ndarray | None = None
    visual: np.ndarray | None = None
    mem_lexical: np.ndarray | None = None
    mem_embedding: np.ndarray | None = None

    def __post_init__(self) -> None:
        if all(getattr(self, name) is None for name in MODALITY_ORDER):
            raise ValueError("bundle must carry at least one modality")

    def active(self) -> tuple[str, ...]:
        return tuple(name for name in MODALITY_ORDER if getattr(self, name) is not None)


def _check_bundles(bundles: list[ModalityBundle]) -> tuple[str, ...]:
    if not bundles:
        raise ValueError("no bundles")
    active = bundles[0].active()
    for i, bundle in enumerate(bundles):
        if bundle.active() != active:
            raise ValueError(
                f"bundle {i} has modalities {bundle.active()}, expected {active}"
            )
    return active


def _stack_modality(bundles: list[ModalityBundle], name: str) -> np.ndarray:
    return np.vstack([np.asarray(getattr(b, name), dtype=float) for b in bundles])


def _concat_features(bundles: list[ModalityBundle], modalities: tuple[str, ...]) -> np.ndarray:
    blocks = [_stack_modality(bundles, name) for name in modalities]
    return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


@dataclass
class EarlyFusionModel:
    modalities: tuple[str, ...]
    dims: dict[str, int]
    svr: SvrModel


@dataclass(frozen=True)
class LateFusionParams:
    audio: SvrParams = field(default_factory=SvrParams)
    visual: SvrParams = field(default_factory=SvrParams)
    memory: ForestParams = field(default_factory=ForestParams)


@dataclass
class LateFusionModel:
    base_order: tuple[str, ...]
    base_models: dict[str, SvrModel | ForestModel]
    meta: RidgeModel
    fold_log: list[dict]  # per OOF fold: train row/group sets vs predicted rows


def _early_design(
    bundles: list[ModalityBundle],
) -> tuple[tuple[str, ...], dict[str, int], np.ndarray, SvrDesign]:
    """(modalities, their widths, concatenated features, their `SvrDesign`)."""
    modalities = _check_bundles(bundles)
    X = _concat_features(bundles, modalities)
    dims = {
        name: np.asarray(getattr(bundles[0], name)).shape[-1] for name in modalities
    }
    return modalities, dims, X, SvrDesign(X)


def early_fusion_fit_grid(
    bundles: list[ModalityBundle], y: np.ndarray, svr_params_list: Sequence[SvrParams]
) -> Iterator[EarlyFusionModel]:
    """Yield one early-fusion model per entry of `svr_params_list`, in order.

    Each model equals `early_fusion_fit` at its params. The features are
    concatenated once and every SVR is fitted on one `SvrDesign` of them, so
    the standardization is computed once and the RBF Gram once per distinct
    (gamma, gamma_scale). Models are fitted as they are consumed, so a caller
    that drops each model before asking for the next holds one at a time.
    """
    modalities, dims, X, design = _early_design(bundles)
    y = np.asarray(y, dtype=float)
    for svr_params in svr_params_list:
        yield EarlyFusionModel(
            modalities=modalities, dims=dims, svr=fit_svr(X, y, svr_params, design=design)
        )


def early_fusion_predict_grid(
    train_bundles: list[ModalityBundle],
    y: np.ndarray,
    svr_params_list: Sequence[SvrParams],
    test_bundles: list[ModalityBundle],
) -> Iterator[np.ndarray]:
    """Predict `test_bundles` with every model `early_fusion_fit_grid` yields.

    Yields `fusion_predict(model, test_bundles)`, bit for bit, for each model
    of `early_fusion_fit_grid(train_bundles, y, svr_params_list)`, in order.
    The models are fitted as there, and the test features are concatenated,
    checked and standardized once for all of them (`SvrDesign.predictions`).
    One model is fitted and held at a time.
    """
    modalities, dims, X, design = _early_design(train_bundles)
    _check_early_inputs(modalities, dims, test_bundles)
    y = np.asarray(y, dtype=float)
    svrs = (fit_svr(X, y, svr_params, design=design) for svr_params in svr_params_list)
    return design.predictions(svrs, _concat_features(test_bundles, modalities))


def early_fusion_fit(
    bundles: list[ModalityBundle], y: np.ndarray, svr_params: SvrParams
) -> EarlyFusionModel:
    """Early fusion at one point: `early_fusion_fit_grid` of one point."""
    return next(early_fusion_fit_grid(bundles, y, [svr_params]))


_BASE_MODALITIES = {
    "audio": ("audio",),
    "visual": ("visual",),
    "memory": ("mem_lexical", "mem_embedding"),
}


def late_fusion_bases(modalities: tuple[str, ...]) -> tuple[str, ...]:
    """The late-fusion base models, in `BASE_ORDER`, that the given modalities feed."""
    return tuple(
        name for name in BASE_ORDER if any(m in modalities for m in _BASE_MODALITIES[name])
    )


def _base_inputs(
    bundles: list[ModalityBundle], active: tuple[str, ...]
) -> dict[str, np.ndarray]:
    return {
        name: _concat_features(
            bundles, tuple(m for m in _BASE_MODALITIES[name] if m in active)
        )
        for name in late_fusion_bases(active)
    }


def _fit_base(
    name: str, X: np.ndarray, y: np.ndarray, params: SvrParams | ForestParams, seed: int
):
    """Fit base model `name` with its own params (`LateFusionParams.<name>`)."""
    if name == "memory":
        return fit_forest(X, y, dataclasses.replace(params, seed=seed))
    return fit_svr(X, y, params)


def _predict_base(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, ForestModel):
        return predict_forest(model, X)
    return predict_svr(model, X)


def _stacking_folds(
    groups: list, k_inner: int, seed: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[dict]]:
    """The stacking splits and their fold log."""
    splits = group_splits(groups, k_inner, child_seed(seed, "stack-folds"))
    fold_log = [
        {
            "fold": fold_idx,
            "train_rows": train_rows.tolist(),
            "train_groups": sorted({str(groups[r]) for r in train_rows}),
            "predicted_rows": test_rows.tolist(),
            "predicted_groups": sorted({str(groups[r]) for r in test_rows}),
        }
        for fold_idx, (train_rows, test_rows) in enumerate(splits)
    ]
    return splits, fold_log


def _oof_columns(
    bases: list[str],
    inputs: dict[str, np.ndarray],
    y: np.ndarray,
    params: dict[str, SvrParams | ForestParams],
    splits,
    seed: int,
) -> dict[str, np.ndarray]:
    """Out-of-fold predictions of each of `bases` over the stacking splits."""
    # Folds run outermost and each model lives until the next replaces it,
    # the order of a one-point fit. Running one base's folds back to back, or
    # dropping each model before the next fit, lowered the traced Python peak
    # but raised the process's peak RSS by 6-10% when fitting AVM late fusion
    # on 240 paper-dimension rows, through the C allocator's reuse of freed
    # blocks.
    columns = {name: np.empty(len(y)) for name in bases}
    for fold_idx, (train_rows, test_rows) in enumerate(splits):
        for name in bases:
            model = _fit_base(
                name,
                inputs[name][train_rows],
                y[train_rows],
                params[name],
                child_seed(seed, "oof", fold_idx, name),
            )
            columns[name][test_rows] = _predict_base(model, inputs[name][test_rows])
    return columns


def late_fusion_fit_grid(
    bundles: list[ModalityBundle],
    y: np.ndarray,
    points: Sequence[tuple[LateFusionParams, float, int]],
    groups: list | None = None,
    seed: int = 0,
) -> list[LateFusionModel]:
    """One late-fusion model per (base_params, meta_alpha, k_inner) point.

    Each model equals `late_fusion_fit` at its point, but the points share
    work. The stacking splits and their fold log depend only on `k_inner`,
    so they are built once per distinct `k_inner`. A base model's out-of-fold
    column depends only on the base, its own params (`base_params.audio`,
    `.visual` or `.memory`) and `k_inner`; its final fit on all rows only on
    the base and its own params. Each is computed once per distinct key,
    compared by value, so only the ridge meta-learner is fitted per point.
    Models of points with equal keys share their fold log and base models.
    """
    y = np.asarray(y, dtype=float)
    active = _check_bundles(bundles)
    n = len(bundles)
    for _, _, k_inner in points:
        if n < 2 * k_inner:
            raise ValueError(f"need at least {2 * k_inner} samples for {k_inner} stacking folds")
    inputs = _base_inputs(bundles, active)
    base_order = late_fusion_bases(active)
    if groups is None:
        groups = list(range(n))

    stacking: dict[int, tuple] = {}  # k_inner -> (splits, fold_log)
    oof: dict[tuple, np.ndarray] = {}  # (base, its params, k_inner) -> out-of-fold column
    final: dict[tuple, SvrModel | ForestModel] = {}  # (base, its params) -> fit on all rows
    models = []
    for base_params, meta_alpha, k_inner in points:
        if k_inner not in stacking:
            stacking[k_inner] = _stacking_folds(groups, k_inner, seed)
        splits, fold_log = stacking[k_inner]
        own = {name: getattr(base_params, name) for name in base_order}
        missing = [name for name in base_order if (name, own[name], k_inner) not in oof]
        for name, column in _oof_columns(missing, inputs, y, own, splits, seed).items():
            oof[name, own[name], k_inner] = column
        meta = fit_ridge(
            np.column_stack([oof[name, own[name], k_inner] for name in base_order]),
            y,
            meta_alpha,
        )
        for name in base_order:
            if (name, own[name]) not in final:
                final[name, own[name]] = _fit_base(
                    name, inputs[name], y, own[name], child_seed(seed, "final", name)
                )
        models.append(
            LateFusionModel(
                base_order=base_order,
                base_models={name: final[name, own[name]] for name in base_order},
                meta=meta,
                fold_log=fold_log,
            )
        )
    return models


def late_fusion_fit(
    bundles: list[ModalityBundle],
    y: np.ndarray,
    base_params: LateFusionParams,
    meta_alpha: float,
    k_inner: int = 4,
    groups: list | None = None,
    seed: int = 0,
) -> LateFusionModel:
    """Stacked late fusion at one point: `late_fusion_fit_grid` of one point."""
    return late_fusion_fit_grid(
        bundles, y, [(base_params, meta_alpha, k_inner)], groups=groups, seed=seed
    )[0]


def _check_early_inputs(
    modalities: tuple[str, ...], dims: dict[str, int], bundles: list[ModalityBundle]
) -> None:
    active = _check_bundles(bundles)
    if active != modalities:
        raise ValueError(f"modalities {active} do not match fit-time {modalities}")
    for name in modalities:
        width = np.asarray(getattr(bundles[0], name)).shape[-1]
        if width != dims[name]:
            raise ValueError(f"{name} dimension {width} does not match fit-time {dims[name]}")


def fusion_predict(
    model: EarlyFusionModel | LateFusionModel, bundles: list[ModalityBundle]
) -> np.ndarray:
    if isinstance(model, EarlyFusionModel):
        _check_early_inputs(model.modalities, model.dims, bundles)
        return predict_svr(model.svr, _concat_features(bundles, model.modalities))

    active = _check_bundles(bundles)
    _check_late_bases(model, active)
    inputs = _base_inputs(bundles, active)
    columns = [
        _predict_base(model.base_models[name], inputs[name]) for name in model.base_order
    ]
    return predict_ridge(model.meta, np.column_stack(columns))


def _check_late_bases(model: LateFusionModel, active: tuple[str, ...]) -> None:
    base_order = late_fusion_bases(active)
    if base_order != model.base_order:
        raise ValueError(f"base models {base_order} do not match fit-time {model.base_order}")


def late_fusion_predict_grid(
    models: Sequence[LateFusionModel],
    points: Sequence[tuple[LateFusionParams, float, int]],
    bundles: list[ModalityBundle],
) -> list[np.ndarray]:
    """`fusion_predict` on `bundles` of each model `late_fusion_fit_grid(..., points)` returned.

    A base model of such a grid depends only on the base and its own params,
    so its column on `bundles` is computed once per distinct (base, own
    params), compared by value, and only the ridge is applied per point.
    """
    active = _check_bundles(bundles)
    inputs = _base_inputs(bundles, active)
    columns: dict[tuple, np.ndarray] = {}  # (base, its params) -> predictions
    preds = []
    for model, (base_params, _, _) in zip(models, points, strict=True):
        _check_late_bases(model, active)
        keys = [(name, getattr(base_params, name)) for name in model.base_order]
        for name, own in keys:
            if (name, own) not in columns:
                columns[name, own] = _predict_base(model.base_models[name], inputs[name])
        preds.append(predict_ridge(model.meta, np.column_stack([columns[k] for k in keys])))
    return preds


def save_fusion_model(model: EarlyFusionModel | LateFusionModel, directory: str | Path) -> None:
    """Serialize a fusion model to a directory: manifest plus per-model files."""
    from .regressors import save_model

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(model, EarlyFusionModel):
        manifest = {
            "kind": "early",
            "modalities": list(model.modalities),
            "dims": model.dims,
            "models": {"svr": "svr.json"},
        }
        save_model(model.svr, directory / "svr.json")
    else:
        manifest = {
            "kind": "late",
            "base_order": list(model.base_order),
            "models": {name: f"base_{name}.json" for name in model.base_order},
            "meta": "meta.json",
            "fold_log": model.fold_log,
        }
        for name in model.base_order:
            save_model(model.base_models[name], directory / f"base_{name}.json")
        save_model(model.meta, directory / "meta.json")
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_fusion_model(directory: str | Path) -> EarlyFusionModel | LateFusionModel:
    from .regressors import load_model

    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["kind"] == "early":
        return EarlyFusionModel(
            modalities=tuple(manifest["modalities"]),
            dims={k: int(v) for k, v in manifest["dims"].items()},
            svr=load_model(directory / manifest["models"]["svr"]),
        )
    if manifest["kind"] == "late":
        base_order = tuple(manifest["base_order"])
        return LateFusionModel(
            base_order=base_order,
            base_models={
                name: load_model(directory / manifest["models"][name]) for name in base_order
            },
            meta=load_model(directory / manifest["meta"]),
            fold_log=manifest.get("fold_log", []),
        )
    raise ValueError(f"unknown fusion model kind {manifest['kind']!r}")
