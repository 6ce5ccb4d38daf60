"""Early and late multimodal fusion for one regression target.

Early fusion concatenates the active modality vectors in a fixed order and
fits a single RBF-kernel SVR. Late fusion stacks: an SVR per audiovisual
modality and a random forest on the memory-description features (lexical ++
embedding), combined by a ridge meta-regressor. The meta-regressor trains on
out-of-fold base predictions over participant-grouped folds of the training
set (`folds.group_splits`), so no base model ever scores a sample it was
trained on.

A full experiment fits one model per affective dimension (P, A, D); these
fits are independent and this module is agnostic about which dimension it is
given.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._seeds import child_seed
from .folds import group_splits
from .regressors import (
    ForestModel,
    ForestParams,
    RidgeModel,
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
    "late_fusion_fit",
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


def early_fusion_fit(
    bundles: list[ModalityBundle], y: np.ndarray, svr_params: SvrParams
) -> EarlyFusionModel:
    modalities = _check_bundles(bundles)
    X = _concat_features(bundles, modalities)
    dims = {
        name: np.asarray(getattr(bundles[0], name)).shape[-1] for name in modalities
    }
    return EarlyFusionModel(
        modalities=modalities, dims=dims, svr=fit_svr(X, np.asarray(y, float), svr_params)
    )


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


def _fit_base(name: str, X: np.ndarray, y: np.ndarray, params: LateFusionParams, seed: int):
    if name == "memory":
        forest_params = dataclasses.replace(params.memory, seed=seed)
        return fit_forest(X, y, forest_params)
    svr_params = params.audio if name == "audio" else params.visual
    return fit_svr(X, y, svr_params)


def _predict_base(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, ForestModel):
        return predict_forest(model, X)
    return predict_svr(model, X)


def late_fusion_fit(
    bundles: list[ModalityBundle],
    y: np.ndarray,
    base_params: LateFusionParams,
    meta_alpha: float,
    k_inner: int = 4,
    groups: list | None = None,
    seed: int = 0,
) -> LateFusionModel:
    y = np.asarray(y, dtype=float)
    active = _check_bundles(bundles)
    n = len(bundles)
    if n < 2 * k_inner:
        raise ValueError(f"need at least {2 * k_inner} samples for {k_inner} stacking folds")
    inputs = _base_inputs(bundles, active)
    base_order = late_fusion_bases(active)

    if groups is None:
        groups = list(range(n))

    fold_log: list[dict] = []
    oof = np.empty((n, len(base_order)))
    splits = group_splits(groups, k_inner, child_seed(seed, "stack-folds"))
    for fold_idx, (train_rows, test_rows) in enumerate(splits):
        for col, name in enumerate(base_order):
            model = _fit_base(
                name,
                inputs[name][train_rows],
                y[train_rows],
                base_params,
                child_seed(seed, "oof", fold_idx, name),
            )
            oof[test_rows, col] = _predict_base(model, inputs[name][test_rows])
        fold_log.append(
            {
                "fold": fold_idx,
                "train_rows": train_rows.tolist(),
                "train_groups": sorted({str(groups[r]) for r in train_rows}),
                "predicted_rows": test_rows.tolist(),
                "predicted_groups": sorted({str(groups[r]) for r in test_rows}),
            }
        )

    meta = fit_ridge(oof, y, meta_alpha)
    base_models = {
        name: _fit_base(name, inputs[name], y, base_params, child_seed(seed, "final", name))
        for name in base_order
    }
    return LateFusionModel(
        base_order=base_order, base_models=base_models, meta=meta, fold_log=fold_log
    )


def fusion_predict(
    model: EarlyFusionModel | LateFusionModel, bundles: list[ModalityBundle]
) -> np.ndarray:
    active = _check_bundles(bundles)
    if isinstance(model, EarlyFusionModel):
        if active != model.modalities:
            raise ValueError(
                f"modalities {active} do not match fit-time {model.modalities}"
            )
        for name in model.modalities:
            width = np.asarray(getattr(bundles[0], name)).shape[-1]
            if width != model.dims[name]:
                raise ValueError(
                    f"{name} dimension {width} does not match fit-time {model.dims[name]}"
                )
        return predict_svr(model.svr, _concat_features(bundles, model.modalities))

    base_order = late_fusion_bases(active)
    if base_order != model.base_order:
        raise ValueError(f"base models {base_order} do not match fit-time {model.base_order}")
    inputs = _base_inputs(bundles, active)
    columns = [
        _predict_base(model.base_models[name], inputs[name]) for name in model.base_order
    ]
    return predict_ridge(model.meta, np.column_stack(columns))


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
