"""Early and late multimodal fusion for one regression target.

Samples come in a `FeatureTable`; the nested CV's table holds one audio and
one visual row per video and one memory row per response. `feature_table` is
the one check of a `ModalityBundle` list: `early_fusion_fit`,
`late_fusion_fit` and `fusion_predict` take such a list and convert it once,
and the other entry points take a table.

Early fusion fits one RBF-kernel SVR on the stacked modalities. Late fusion
combines an SVR per audiovisual modality and a random forest on the memory
features (lexical ++ embedding) by a ridge meta-regressor. The ridge trains on
out-of-fold base predictions over participant-grouped folds of the training
set (`folds.group_splits`), so no base model scores a sample it was trained
on. A model serves one affective dimension (P, A or D).

The `*_grid` functions serve a grid search. Each fits or predicts at many
hyperparameter points on the same samples and computes every base fit, Gram
and base prediction once per distinct input, so fits grow as the sum of the
distinct settings, not their product. `late_fusion_fit` and `fusion_predict`
are their one-point cases.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._checks import is_count
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
    load_model,
    predict_forest,
    predict_ridge,
    predict_svr,
    save_model,
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
    "FeatureTable",
    "feature_table",
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


@dataclass(frozen=True)
class FeatureTable:
    """The features of `n` samples, each distinct vector stored once.

    `vectors[m]` holds modality m's distinct vectors as rows, in `MODALITY_ORDER`,
    and `index[m]` each sample's row, or None when sample i reads row i. `rows`
    and `select` copy only indices; `stack` copies rows into a feature matrix.
    """

    vectors: Mapping[str, np.ndarray]
    index: Mapping[str, np.ndarray | None]
    n: int

    @property
    def modalities(self) -> tuple[str, ...]:
        return tuple(self.vectors)

    @property
    def dims(self) -> dict[str, int]:
        return {name: block.shape[1] for name, block in self.vectors.items()}

    def rows(self, idx) -> FeatureTable:
        idx = np.asarray(idx, dtype=np.intp)
        index = {name: idx if at is None else at[idx] for name, at in self.index.items()}
        return FeatureTable(self.vectors, index, len(idx))

    def select(self, modalities: Sequence[str]) -> FeatureTable:
        return FeatureTable(
            {m: self.vectors[m] for m in modalities}, {m: self.index[m] for m in modalities}, self.n
        )

    def stack(self, modalities: Sequence[str]) -> np.ndarray:
        """The samples' rows of `modalities`, side by side; a lone unindexed block is not copied."""
        blocks = []
        for m in modalities:
            at = self.index[m]
            blocks.append(self.vectors[m] if at is None else self.vectors[m].take(at, axis=0))
        return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def feature_table(bundles: Sequence[ModalityBundle]) -> FeatureTable:
    """The table of a non-empty list of bundles that all carry the same modalities."""
    if not bundles:
        raise ValueError("no bundles")
    active = bundles[0].active()
    for i, bundle in enumerate(bundles):
        if bundle.active() != active:
            raise ValueError(f"bundle {i} has modalities {bundle.active()}, expected {active}")
    vectors = {name: np.vstack([getattr(b, name) for b in bundles], dtype=float) for name in active}
    return FeatureTable(vectors, dict.fromkeys(active), len(bundles))


def _check_fit_time(table: FeatureTable, fitted: dict[str, int]) -> None:
    """Raise unless `table` has exactly the modalities of `fitted`, at its widths."""
    if table.modalities != tuple(fitted):
        raise ValueError(f"modalities {table.modalities} do not match fit-time {tuple(fitted)}")
    for name, width in table.dims.items():
        if width != fitted[name]:
            raise ValueError(f"{name} dimension {width} does not match fit-time {fitted[name]}")


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
    train: FeatureTable, y: np.ndarray, svr_params_list: Sequence[SvrParams], test: FeatureTable
) -> list[np.ndarray]:
    """Per params, bit for bit: `early_fusion_fit` on `train` then `fusion_predict` on `test`.

    One `SvrDesign` standardizes the stacked training block, which is then
    dropped, and builds one Gram per distinct (gamma, gamma_scale); the test
    block is stacked, checked and standardized once for all points
    (`SvrDesign.predictions`). One model is fitted and held at a time.
    """
    _check_fit_time(test, train.dims)
    design = SvrDesign(train.stack(train.modalities))
    y = np.asarray(y, dtype=float)
    svrs = (fit_svr(design.rows, y, params, design=design) for params in svr_params_list)
    return design.predictions(svrs, test.stack(train.modalities))


def early_fusion_fit(
    bundles: list[ModalityBundle], y: np.ndarray, svr_params: SvrParams
) -> EarlyFusionModel:
    """One SVR on the stacked features of the active modalities."""
    table = feature_table(bundles)
    return EarlyFusionModel(table.dims, fit_svr(table.stack(table.modalities), y, svr_params))


def late_fusion_bases(modalities: tuple[str, ...]) -> tuple[str, ...]:
    """The late-fusion base models, in `BASES` order, that the given modalities feed."""
    return tuple(
        name for name, (_, reads) in BASES.items() if any(m in modalities for m in reads)
    )


def _base_inputs(table: FeatureTable) -> dict[str, np.ndarray]:
    return {
        name: table.stack([m for m in BASES[name][1] if m in table.modalities])
        for name in late_fusion_bases(table.modalities)
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
    table: FeatureTable,
    y: np.ndarray,
    points: Sequence[tuple[LateFusionParams, float, int]],
    groups: list | None = None,
    seed: int = 0,
) -> list[LateFusionModel]:
    """One late-fusion model per (base_params, meta_alpha, k_inner) point.

    Each model equals `late_fusion_fit` at its point on the table's bundles.
    The stacking splits and fold log depend only on `k_inner`; a base model's
    out-of-fold column only on the base, its own params (`base_params.audio`,
    `.visual` or `.memory`) and `k_inner`; its final fit only on the base and
    its own params. Each is computed once per distinct key, compared by value,
    and shared, so only the ridge is fitted per point.
    """
    y = np.asarray(y, dtype=float)
    n = table.n
    if groups is None:
        groups = list(range(n))
    if not len(y) == len(groups) == n:
        raise ValueError(f"{n} bundles, {len(y)} targets and {len(groups)} groups differ in length")
    for _, _, k_inner in points:
        if n < 2 * k_inner:
            raise ValueError(f"need at least {2 * k_inner} samples for {k_inner} stacking folds")
    inputs = _base_inputs(table)
    base_order = late_fusion_bases(table.modalities)

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
        feature_table(bundles), y, [(base_params, meta_alpha, k_inner)], groups=groups, seed=seed
    )[0]


def fusion_predict(
    model: EarlyFusionModel | LateFusionModel, bundles: list[ModalityBundle]
) -> np.ndarray:
    table = feature_table(bundles)
    if isinstance(model, EarlyFusionModel):
        _check_fit_time(table, model.dims)
        return predict_svr(model.svr, table.stack(model.modalities))
    return late_fusion_predict_grid([model], table)[0]


def late_fusion_predict_grid(
    models: Sequence[LateFusionModel], table: FeatureTable
) -> list[np.ndarray]:
    """`fusion_predict(model, bundles)` per model, in order, for the table of `bundles`.

    Each distinct base-model object runs on the table once, and only the
    ridge is applied per model. Models of one `late_fusion_fit_grid` call
    whose points share a base setting share that base-model object, and so
    its column; models fitted apart never do.
    """
    base_order = late_fusion_bases(table.modalities)
    for model in models:
        if model.base_order != base_order:
            raise ValueError(f"base models {base_order} do not match fit-time {model.base_order}")
    inputs = _base_inputs(table)
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


def _names(manifest: dict, key: str, order) -> list[str]:
    """`manifest[key]`, which must list distinct names of `order`, in that order."""
    names = manifest[key]
    if not (isinstance(names, list) and names and names == [n for n in order if n in names]):
        raise ValueError(f"{key} must list distinct names of {list(order)} in order, got {names!r}")
    return names


def load_fusion_model(directory: str | Path) -> EarlyFusionModel | LateFusionModel:
    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["kind"] == "early":
        # The manifest is written with sorted keys; "modalities" keeps the concatenation order.
        names = _names(manifest, "modalities", MODALITY_ORDER)
        dims = {name: manifest["dims"][name] for name in names}
        svr = load_model(directory / manifest["models"]["svr"])
        width = svr.scaler.means.shape[0]
        if not (all(is_count(d, 1) for d in dims.values()) and sum(dims.values()) == width):
            raise ValueError(f"dims {dims} must be positive integers that sum to the SVR's {width}")
        return EarlyFusionModel(dims=dims, svr=svr)
    if manifest["kind"] == "late":
        return LateFusionModel(
            base_models={
                name: load_model(directory / manifest["models"][name])
                for name in _names(manifest, "base_order", BASES)
            },
            meta=load_model(directory / manifest["meta"]),
            fold_log=manifest.get("fold_log", []),
        )
    raise ValueError(f"unknown fusion model kind {manifest['kind']!r}")
