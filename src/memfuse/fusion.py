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
`late_fusion_fit` is its one-point case. `late_fusion_predict_grid` predicts
with many late-fusion models, running each distinct base-model object on the
given rows once; `fusion_predict` is its one-model case.

`early_fusion_predict_grid` does the same for early fusion, fitting and
predicting in one pass. The concatenated features, their standardization and
the RBF Gram read neither the targets nor C nor epsilon, so the SVR of every
point is solved on one `SvrDesign`, whose Gram is built once per distinct
gamma setting. The test rows are concatenated, checked and standardized once
for all points (`SvrDesign.predictions`), and each point's kernel is built on
its own support vectors, as `fusion_predict` builds it. `early_fusion_fit`
fits one SVR on the concatenated features.

A full experiment fits one model per affective dimension (P, A, D); these
fits are independent and this module is agnostic about which dimension it is
given.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

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
# Late-fusion base model -> (its learner, the modalities it reads), in the
# meta-learner's column order.
BASES = {
    "audio": ("svr", ("audio",)),
    "visual": ("svr", ("visual",)),
    "memory": ("forest", ("mem_lexical", "mem_embedding")),
}

__all__ = [
    "MODALITY_ORDER",
    "BASES",
    "ModalityBundle",
    "EarlyFusionModel",
    "LateFusionModel",
    "LateFusionParams",
    "late_fusion_bases",
    "early_fusion_fit",
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


def _widths(bundles: list[ModalityBundle], fitted: dict[str, int] | None = None) -> dict[str, int]:
    """The width of each modality of `bundles`, in `MODALITY_ORDER`.

    The list must be non-empty, with the same modalities in every bundle; given
    a fitted early model's `dims`, exactly those modalities at those widths.
    """
    if not bundles:
        raise ValueError("no bundles")
    active = bundles[0].active()
    for i, bundle in enumerate(bundles):
        if bundle.active() != active:
            raise ValueError(
                f"bundle {i} has modalities {bundle.active()}, expected {active}"
            )
    widths = {name: np.asarray(getattr(bundles[0], name)).shape[-1] for name in active}
    if fitted is not None:
        if active != tuple(fitted):
            raise ValueError(f"modalities {active} do not match fit-time {tuple(fitted)}")
        for name, width in widths.items():
            if width != fitted[name]:
                raise ValueError(f"{name} dimension {width} does not match fit-time {fitted[name]}")
    return widths


def _stack_modality(bundles: list[ModalityBundle], name: str) -> np.ndarray:
    return np.vstack([np.asarray(getattr(b, name), dtype=float) for b in bundles])


def _concat_features(bundles: list[ModalityBundle], modalities: tuple[str, ...]) -> np.ndarray:
    blocks = [_stack_modality(bundles, name) for name in modalities]
    return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


@dataclass
class EarlyFusionModel:
    dims: dict[str, int]  # modality -> width, in concatenation order
    svr: SvrModel

    @property
    def modalities(self) -> tuple[str, ...]:
        return tuple(self.dims)


@dataclass(frozen=True)
class LateFusionParams:
    audio: SvrParams = field(default_factory=SvrParams)
    visual: SvrParams = field(default_factory=SvrParams)
    memory: ForestParams = field(default_factory=ForestParams)


@dataclass
class LateFusionModel:
    base_models: dict[str, SvrModel | ForestModel]  # in meta-learner column order
    meta: RidgeModel
    fold_log: list[dict]  # per OOF fold: train row/group sets vs predicted rows

    @property
    def base_order(self) -> tuple[str, ...]:
        return tuple(self.base_models)


def early_fusion_predict_grid(
    train_bundles: list[ModalityBundle],
    y: np.ndarray,
    svr_params_list: Sequence[SvrParams],
    test_bundles: list[ModalityBundle],
) -> list[np.ndarray]:
    """Fit early fusion at each of `svr_params_list` and predict `test_bundles` with it.

    Returns `fusion_predict(early_fusion_fit(train_bundles, y, params),
    test_bundles)`, bit for bit, for each params, in order. The training
    features are concatenated and standardized once, the Gram is built once
    per distinct (gamma, gamma_scale) on one `SvrDesign`, and the test
    features are concatenated, checked and standardized once for all points
    (`SvrDesign.predictions`). The raw training block is dropped once the
    design holds its standardized rows, and one model is fitted and held at
    a time.
    """
    dims = _widths(train_bundles)
    _widths(test_bundles, dims)
    design = SvrDesign(_concat_features(train_bundles, tuple(dims)))
    y = np.asarray(y, dtype=float)
    svrs = (fit_svr(design.rows, y, params, design=design) for params in svr_params_list)
    return design.predictions(svrs, _concat_features(test_bundles, tuple(dims)))


def early_fusion_fit(
    bundles: list[ModalityBundle], y: np.ndarray, svr_params: SvrParams
) -> EarlyFusionModel:
    """One SVR on the concatenated features of the active modalities."""
    dims = _widths(bundles)
    return EarlyFusionModel(dims, fit_svr(_concat_features(bundles, tuple(dims)), y, svr_params))


def late_fusion_bases(modalities: tuple[str, ...]) -> tuple[str, ...]:
    """The late-fusion base models, in `BASES` order, that the given modalities feed."""
    return tuple(
        name for name, (_, reads) in BASES.items() if any(m in modalities for m in reads)
    )


def _base_inputs(
    bundles: list[ModalityBundle], active: tuple[str, ...]
) -> dict[str, np.ndarray]:
    return {
        name: _concat_features(bundles, tuple(m for m in BASES[name][1] if m in active))
        for name in late_fusion_bases(active)
    }


def _fit_base(
    name: str, X: np.ndarray, y: np.ndarray, params: SvrParams | ForestParams, seed: int
):
    """Fit base model `name` with its own params (`LateFusionParams.<name>`)."""
    if BASES[name][0] == "forest":
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
    active = tuple(_widths(bundles))
    n = len(bundles)
    if groups is None:
        groups = list(range(n))
    if not len(y) == len(groups) == n:
        raise ValueError(f"{n} bundles, {len(y)} targets and {len(groups)} groups differ in length")
    for _, _, k_inner in points:
        if n < 2 * k_inner:
            raise ValueError(f"need at least {2 * k_inner} samples for {k_inner} stacking folds")
    inputs = _base_inputs(bundles, active)
    base_order = late_fusion_bases(active)

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


def fusion_predict(
    model: EarlyFusionModel | LateFusionModel, bundles: list[ModalityBundle]
) -> np.ndarray:
    if isinstance(model, EarlyFusionModel):
        _widths(bundles, model.dims)
        return predict_svr(model.svr, _concat_features(bundles, model.modalities))
    return late_fusion_predict_grid([model], bundles)[0]


def late_fusion_predict_grid(
    models: Sequence[LateFusionModel], bundles: list[ModalityBundle]
) -> list[np.ndarray]:
    """`fusion_predict(model, bundles)` for each of `models`, in order.

    Each distinct base-model object runs on `bundles` once, and only the
    ridge is applied per model. Models of one `late_fusion_fit_grid` call
    whose points share a base setting share that base-model object, and so
    its column; models fitted apart never do.
    """
    active = tuple(_widths(bundles))
    base_order = late_fusion_bases(active)
    for model in models:
        if model.base_order != base_order:
            raise ValueError(f"base models {base_order} do not match fit-time {model.base_order}")
    inputs = _base_inputs(bundles, active)
    # Keyed by object identity, which is unique while `models` holds every base model.
    columns: dict[tuple[str, int], np.ndarray] = {}
    preds = []
    for model in models:
        bases = [(name, model.base_models[name]) for name in base_order]
        for name, base in bases:
            if (name, id(base)) not in columns:
                columns[name, id(base)] = _predict_base(base, inputs[name])
        stacked = np.column_stack([columns[name, id(base)] for name, base in bases])
        preds.append(predict_ridge(model.meta, stacked))
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
        # The manifest is written with sorted keys; "modalities" keeps the concatenation order.
        return EarlyFusionModel(
            dims={name: int(manifest["dims"][name]) for name in manifest["modalities"]},
            svr=load_model(directory / manifest["models"]["svr"]),
        )
    if manifest["kind"] == "late":
        return LateFusionModel(
            base_models={
                name: load_model(directory / manifest["models"][name])
                for name in manifest["base_order"]
            },
            meta=load_model(directory / manifest["meta"]),
            fold_log=manifest.get("fold_log", []),
        )
    raise ValueError(f"unknown fusion model kind {manifest['kind']!r}")
