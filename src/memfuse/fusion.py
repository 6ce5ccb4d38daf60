"""Early and late multimodal fusion for one regression target.

Samples come in a `FeatureTable`; the nested CV's table holds one audio and
one visual row per video, and one memory row and group (participant) per
response. `feature_table` is the one check of a `ModalityBundle` list:
`early_fusion_fit`, `late_fusion_fit` and `fusion_predict` take such a list
and convert it once, and the grids take tables.

Early fusion fits one RBF-kernel SVR on the stacked modalities. Late fusion
combines an SVR per audiovisual modality and a random forest on the memory
features (lexical ++ embedding) by a ridge meta-regressor. The ridge trains on
out-of-fold base predictions over folds of the training table's groups
(`folds.group_splits`), so no base model scores a sample, or a participant, it
was trained on. A model serves one affective dimension (P, A or D).

Each strategy has a fit (`*_fit`), which returns a model for `fusion_predict`,
and a CV grid (`*_predict_grid`) that fits a fold's training samples at many
hyperparameter points and predicts its test samples, which share no group
with them, keeping no model. Its predictions equal those of the fit and
`fusion_predict`, bit for bit. It computes each base fit, Gram and base
prediction once per distinct setting: fits grow as their sum, not product.
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
from .folds import check_disjoint, group_splits
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
    model_from_json,
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
    "vector_rows",
    "EarlyFusionModel",
    "LateFusionModel",
    "LateFusionParams",
    "late_fusion_bases",
    "early_fusion_fit",
    "early_fusion_predict_grid",
    "late_fusion_fit",
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
    `index[m]` each sample's row (None: sample i reads row i) and `groups` each
    sample's group (participant), or None. `rows` and `select` copy no vector.
    """

    vectors: Mapping[str, np.ndarray]
    index: Mapping[str, np.ndarray | None]
    n: int
    groups: Sequence | None = None

    def __post_init__(self) -> None:
        if self.groups is not None and len(self.groups) != self.n:
            raise ValueError(f"{self.n} samples and {len(self.groups)} groups differ in length")

    @property
    def modalities(self) -> tuple[str, ...]:
        return tuple(self.vectors)

    @property
    def dims(self) -> dict[str, int]:
        return {name: block.shape[1] for name, block in self.vectors.items()}

    def rows(self, idx) -> FeatureTable:
        idx = np.asarray(idx, dtype=np.intp)
        index = {name: idx if at is None else at[idx] for name, at in self.index.items()}
        groups = None if self.groups is None else [self.groups[i] for i in idx]
        return FeatureTable(self.vectors, index, len(idx), groups)

    def select(self, modalities: Sequence[str]) -> FeatureTable:
        vectors = {m: self.vectors[m] for m in modalities}
        return FeatureTable(vectors, {m: self.index[m] for m in modalities}, self.n, self.groups)

    def stack(self, modalities: Sequence[str]) -> np.ndarray:
        """The samples' rows of `modalities`, side by side; a lone unindexed block is not copied."""
        blocks = []
        for m in modalities:
            at = self.index[m]
            blocks.append(self.vectors[m] if at is None else self.vectors[m].take(at, axis=0))
        return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def vector_rows(vectors: Sequence, kind: str, keys: Sequence, name: str) -> np.ndarray:
    """Modality `name`'s 1-d `vectors` of one width as float rows; errors name `kind` and key."""
    first = np.shape(vectors[0])
    for key, vector in zip(keys, vectors):
        shape = np.shape(vector)
        if len(shape) != 1:
            raise ValueError(f"{kind} {key} {name} has shape {shape}, not a 1-d vector")
        if shape != first:
            head = f"{kind} {keys[0]}"
            raise ValueError(f"{kind} {key} {name} has width {shape[0]}, {head} has {first[0]}")
    return np.vstack(vectors, dtype=float)


def feature_table(bundles: Sequence[ModalityBundle], groups=None) -> FeatureTable:
    """The table of non-empty `bundles` that carry the same modalities, and of their `groups`."""
    if not bundles:
        raise ValueError("no bundles")
    active = bundles[0].active()
    for i, bundle in enumerate(bundles):
        if bundle.active() != active:
            raise ValueError(f"bundle {i} has modalities {bundle.active()}, expected {active}")
    vectors = {
        name: vector_rows([getattr(b, name) for b in bundles], "bundle", range(len(bundles)), name)
        for name in active
    }
    return FeatureTable(vectors, dict.fromkeys(active), len(bundles), groups)


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
    """Each base model's own params; `memory.seed` is not read (see `late_fusion_fit`)."""

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
    check_disjoint(train.groups, test.groups, "the training and test tables")
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


def _check_bases(table: FeatureTable, fitted: tuple[str, ...]) -> None:
    fed = late_fusion_bases(table.modalities)
    if fed != fitted:
        raise ValueError(f"base models {fed} do not match fit-time {fitted}")


def _base_block(table: FeatureTable, name: str) -> np.ndarray:
    """The input of base `name`: the table's rows of the modalities it reads."""
    return table.stack([m for m in BASES[name][1] if m in table.modalities])


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


def _stacking_targets(n: int, y: np.ndarray, points) -> np.ndarray:
    """`y` as floats, once it matches `n` samples and each point's `k_inner` fits."""
    y = np.asarray(y, dtype=float)
    if len(y) != n:
        raise ValueError(f"{n} samples and {len(y)} targets differ in length")
    for _, _, k_inner in points:
        if n < 2 * k_inner:
            raise ValueError(f"need at least {2 * k_inner} samples for {k_inner} stacking folds")
    return y


def _stacked_points(
    inputs: dict[str, np.ndarray],
    y: np.ndarray,
    points: Sequence[tuple[LateFusionParams, float, int]],
    groups: Sequence,
    seed: int,
) -> list[tuple[list, dict, RidgeModel]]:
    """Per (base_params, meta_alpha, k_inner) point, in order: (splits, own params, ridge).

    `inputs` holds each base's training block, in `BASES` order. The stacking
    splits of `groups`, checked apart, depend only on `k_inner`, and a base's
    out-of-fold column only on the base, its own params (`base_params.audio`,
    `.visual` or `.memory`) and `k_inner`; each is computed once per distinct
    key, compared by value. Only the ridge is fitted per point.
    """
    stacking: dict[int, list] = {}  # k_inner -> splits
    oof: dict[tuple, np.ndarray] = {}  # (base, its params, k_inner) -> out-of-fold column
    fits = []
    for base_params, meta_alpha, k_inner in points:
        if k_inner not in stacking:
            stacking[k_inner] = group_splits(groups, k_inner, child_seed(seed, "stack-folds"))
            for fold, (train_rows, test_rows) in enumerate(stacking[k_inner]):
                sides = [groups[r] for r in train_rows], [groups[r] for r in test_rows]
                check_disjoint(*sides, f"stacking fold {fold}'s two sides")
        splits = stacking[k_inner]
        own = {name: getattr(base_params, name) for name in inputs}
        missing = [name for name in inputs if (name, own[name], k_inner) not in oof]
        for name, column in _oof_columns(missing, inputs, y, own, splits, seed).items():
            oof[name, own[name], k_inner] = column
        columns = np.column_stack([oof[name, own[name], k_inner] for name in inputs])
        fits.append((splits, own, fit_ridge(columns, y, meta_alpha)))
    return fits


def late_fusion_predict_grid(
    train: FeatureTable,
    y: np.ndarray,
    points: Sequence[tuple[LateFusionParams, float, int]],
    test: FeatureTable,
    seed: int,
) -> list[np.ndarray]:
    """Per (base_params, meta_alpha, k_inner) point: the predictions for `test` of a fit on `train`.

    They equal, bit for bit, `fusion_predict` on `test`'s bundles of
    `late_fusion_fit` on `train`'s and `train.groups`, which must not meet
    `test.groups`. Besides the stacking splits and out-of-fold columns
    (`_stacked_points`), a base's final fit depends only on the base and its
    own params. Each is fitted once per distinct key, compared by value,
    scores the test block once and is dropped.
    """
    bases = late_fusion_bases(train.modalities)
    _check_bases(test, bases)
    check_disjoint(train.groups, test.groups, "the training and test tables")
    y = _stacking_targets(train.n, y, points)
    inputs = {name: _base_block(train, name) for name in bases}
    columns: dict[tuple, np.ndarray] = {}  # (base, its params) -> its final fit's test column
    preds = []
    for _, own, meta in _stacked_points(inputs, y, points, train.groups, seed):
        for name in inputs:
            if (name, own[name]) not in columns:
                # The test block is stacked after its final fit: stacking it
                # before the fits raised the CV's peak RSS by ~1%.
                columns[name, own[name]] = _predict_base(
                    _fit_base(name, inputs[name], y, own[name], child_seed(seed, "final", name)),
                    _base_block(test, name),
                )
        stacked = np.column_stack([columns[name, own[name]] for name in inputs])
        preds.append(predict_ridge(meta, stacked))
    return preds


def late_fusion_fit(
    bundles: list[ModalityBundle],
    y: np.ndarray,
    base_params: LateFusionParams,
    meta_alpha: float,
    k_inner: int = 4,
    groups: list | None = None,
    seed: int = 0,
) -> LateFusionModel:
    """Stacked late fusion at one point, on stacking folds of the bundles' `groups`.

    `groups` default to one per bundle, and the folds then split rows, not
    participants. Every seed derives from `seed`. Each forest's replaces
    `base_params.memory.seed`: `child_seed(seed, "oof", fold, "memory")` in
    stacking fold `fold`, `child_seed(seed, "final", "memory")` on all rows.
    """
    table = feature_table(bundles, range(len(bundles)) if groups is None else groups)
    point = (base_params, meta_alpha, k_inner)
    y = _stacking_targets(table.n, y, [point])
    inputs = {name: _base_block(table, name) for name in late_fusion_bases(table.modalities)}
    ((splits, own, meta),) = _stacked_points(inputs, y, [point], table.groups, seed)
    base_models = {
        name: _fit_base(name, inputs[name], y, own[name], child_seed(seed, "final", name))
        for name in inputs
    }
    fold_log = [
        {
            "fold": fold_idx,
            "train_rows": train_rows.tolist(),
            "train_groups": sorted({str(table.groups[r]) for r in train_rows}),
            "predicted_rows": test_rows.tolist(),
            "predicted_groups": sorted({str(table.groups[r]) for r in test_rows}),
        }
        for fold_idx, (train_rows, test_rows) in enumerate(splits)
    ]
    return LateFusionModel(base_models, meta, fold_log)


def fusion_predict(
    model: EarlyFusionModel | LateFusionModel, bundles: list[ModalityBundle]
) -> np.ndarray:
    table = feature_table(bundles)
    if isinstance(model, EarlyFusionModel):
        _check_fit_time(table, model.dims)
        return predict_svr(model.svr, table.stack(model.modalities))
    _check_bases(table, model.base_order)
    inputs = {name: _base_block(table, name) for name in model.base_order}
    columns = [_predict_base(model.base_models[name], inputs[name]) for name in inputs]
    return predict_ridge(model.meta, np.column_stack(columns))


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


def _load_learner(path: Path, key: str, learner: str):
    """The model at `path`, which manifest entry `key` names and which must be a `learner`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != learner:
        raise ValueError(f"{key} holds a {doc.get('kind')!r} model, expected {learner!r}")
    return model_from_json(doc)


def load_fusion_model(directory: str | Path) -> EarlyFusionModel | LateFusionModel:
    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["kind"] == "early":
        # The manifest is written with sorted keys; "modalities" keeps the concatenation order.
        names = _names(manifest, "modalities", MODALITY_ORDER)
        dims = {name: manifest["dims"][name] for name in names}
        svr = _load_learner(directory / manifest["models"]["svr"], "models.svr", "svr")
        width = svr.scaler.means.shape[0]
        if not (all(is_count(d, 1) for d in dims.values()) and sum(dims.values()) == width):
            raise ValueError(f"dims {dims} must be positive integers that sum to the SVR's {width}")
        return EarlyFusionModel(dims=dims, svr=svr)
    if manifest["kind"] == "late":
        return LateFusionModel(
            base_models={
                name: _load_learner(
                    directory / manifest["models"][name], f"models.{name}", BASES[name][0]
                )
                for name in _names(manifest, "base_order", BASES)
            },
            meta=_load_learner(directory / manifest["meta"], "meta", "ridge"),
            fold_log=manifest.get("fold_log", []),
        )
    raise ValueError(f"unknown fusion model kind {manifest['kind']!r}")
