"""Early and late multimodal fusion for one regression target.

Samples come in a `FeatureTable`: a group (participant) per sample and a
`Block` per modality, which one rule builds (`vector_rows`): equal vectors
are found by value and stored once before anything is stacked, so the nested
CV's table holds an audio and a visual row per video and a memory row per
distinct text. `feature_table` is the one check of a `ModalityBundle` list:
the fits and `fusion_predict` take such a list and convert it once, and the
grids take tables. Every SVR reads a table's blocks (`table.blocks`): its
design is built per modality on the distinct vectors that the samples read,
so a design over the AV rows of many viewers of few videos costs what the
videos cost (see `regressors.svr`).

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
`fusion_predict`, bit for bit. It computes each base fit and base prediction
once per distinct setting, so fits grow as their sum, not product. A late SVR
base is an early-fusion grid on its own modalities (`_base_predictions`).

A fitted model is one JSON file, written as a learner's is (sorted keys, no
indent, a final newline): `{"kind": "early", "modalities": [...], "svr": {...}}`
with the modalities in concatenation order, their widths the SVR's block
widths, or `{"kind": "late", "base_order": [...], "models": {base: {...}},
"meta": {...}, "fold_log": [...]}`. Each learner's `model_to_json` document
nests unchanged, with its own format version. Folders, as earlier versions
wrote (a manifest and a file per learner), are not read.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._seeds import child_seed
from .folds import check_disjoint, group_splits
from .regressors import (
    Block,
    ForestModel,
    ForestParams,
    RidgeModel,
    SvrDesign,
    SvrModel,
    SvrParams,
    distinct_rows,
    fit_forest,
    fit_ridge,
    fit_svr,
    model_from_json,
    model_to_json,
    predict_forest,
    predict_ridge,
    predict_svr,
    rank_table,
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
    """The features of `n` samples: a `Block` per modality, in `MODALITY_ORDER`.

    `columns[m]` holds modality m's distinct vectors as rows, each stored once,
    and each sample's row in them (`Block`); `groups` holds each sample's
    group (participant), or None. `rows`, `select` and `blocks` copy no vector.
    """

    columns: Mapping[str, Block]
    n: int
    groups: Sequence | None = None

    def __post_init__(self) -> None:
        if self.groups is not None and len(self.groups) != self.n:
            raise ValueError(f"{self.n} samples and {len(self.groups)} groups differ in length")

    @property
    def modalities(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @property
    def dims(self) -> dict[str, int]:
        return {name: block.vectors.shape[1] for name, block in self.columns.items()}

    def rows(self, idx) -> FeatureTable:
        idx = np.asarray(idx, dtype=np.intp)
        cols = {m: Block(v, idx if at is None else at[idx]) for m, (v, at) in self.columns.items()}
        groups = None if self.groups is None else [self.groups[i] for i in idx]
        return FeatureTable(cols, len(idx), groups)

    def select(self, modalities: Sequence[str]) -> FeatureTable:
        return FeatureTable({m: self.columns[m] for m in modalities}, self.n, self.groups)

    def stack(self, modalities: Sequence[str]) -> np.ndarray:
        """The samples' rows of `modalities`, side by side; a lone unindexed block is not copied."""
        blocks = [v if at is None else v.take(at, axis=0) for v, at in self.blocks(modalities)]
        return blocks[0] if len(blocks) == 1 else np.hstack(blocks)

    def blocks(self, modalities: Sequence[str]) -> list[Block]:
        """The samples' columns of `modalities`, as SVR blocks."""
        return [self.columns[m] for m in modalities]


def vector_rows(vectors: Sequence, kind: str, keys: Sequence, name: str) -> Block:
    """`distinct_rows` of modality `name`'s 1-d `vectors` of one width; errors name `kind`, key."""
    first = np.shape(vectors[0])
    for key, vector in zip(keys, vectors):
        shape = np.shape(vector)
        if len(shape) != 1:
            raise ValueError(f"{kind} {key} {name} has shape {shape}, not a 1-d vector")
        if shape != first:
            head = f"{kind} {keys[0]}"
            raise ValueError(f"{kind} {key} {name} has width {shape[0]}, {head} has {first[0]}")
    return distinct_rows(vectors)


def feature_table(bundles: Sequence[ModalityBundle], groups=None) -> FeatureTable:
    """The table of non-empty `bundles` that carry the same modalities, and of their `groups`."""
    if not bundles:
        raise ValueError("no bundles")
    active = bundles[0].active()
    for i, bundle in enumerate(bundles):
        if bundle.active() != active:
            raise ValueError(f"bundle {i} has modalities {bundle.active()}, expected {active}")
    keys = range(len(bundles))
    columns = {m: vector_rows([getattr(b, m) for b in bundles], "bundle", keys, m) for m in active}
    return FeatureTable(columns, len(bundles), groups)


def _check_fit_time(table: FeatureTable, fitted: dict[str, int]) -> None:
    """Raise unless `table` has exactly the modalities of `fitted`, at its widths."""
    if table.modalities != tuple(fitted):
        raise ValueError(f"modalities {table.modalities} do not match fit-time {tuple(fitted)}")
    for name, width in table.dims.items():
        if width != fitted[name]:
            raise ValueError(f"{name} dimension {width} does not match fit-time {fitted[name]}")


@dataclass
class EarlyFusionModel:
    modalities: tuple[str, ...]  # in concatenation order, one per block of the SVR's columns
    svr: SvrModel

    @property
    def dims(self) -> dict[str, int]:
        """Modality -> width, in concatenation order: the SVR's block widths."""
        return dict(zip(self.modalities, self.svr.widths, strict=True))


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

    One `SvrDesign` standardizes the training blocks' distinct rows and
    builds one Gram per distinct (gamma, gamma_scale); no training block is
    stacked. The test blocks' distinct rows are checked and standardized once
    for all points (`SvrDesign.predictions`). One model is fitted and held at
    a time, and none builds its full support-vector rows.
    """
    _check_fit_time(test, train.dims)
    check_disjoint(train.groups, test.groups, "the training and test tables")
    X = train.blocks(train.modalities)
    design = SvrDesign(X)
    y = np.asarray(y, dtype=float)
    svrs = (fit_svr(X, y, params, design=design) for params in svr_params_list)
    return design.predictions(svrs, test.blocks(train.modalities))


def early_fusion_fit(
    bundles: list[ModalityBundle], y: np.ndarray, svr_params: SvrParams
) -> EarlyFusionModel:
    """One SVR on the stacked features of the active modalities."""
    table = feature_table(bundles)
    modalities = table.modalities
    return EarlyFusionModel(modalities, fit_svr(table.blocks(modalities), y, svr_params))


def late_fusion_bases(modalities: tuple[str, ...]) -> tuple[str, ...]:
    """The late-fusion base models, in `BASES` order, that the given modalities feed."""
    return tuple(
        name for name, (_, reads) in BASES.items() if any(m in modalities for m in reads)
    )


def _check_bases(table: FeatureTable, fitted: tuple[str, ...]) -> None:
    fed = late_fusion_bases(table.modalities)
    if fed != fitted:
        raise ValueError(f"base models {fed} do not match fit-time {fitted}")


def _base_input(table: FeatureTable, name: str) -> FeatureTable:
    """The modalities of `table` that base `name` reads; no vector is copied."""
    return table.select([m for m in BASES[name][1] if m in table.modalities])


def _base_table(table: FeatureTable, name: str) -> FeatureTable:
    """The training input of base `name`: the table's modalities that it reads.

    A forest reads whole rows, so its input holds them stacked once, as one
    block named after the base; each fit then gathers its rows in one copy.
    """
    reads = _base_input(table, name)
    if BASES[name][0] == "forest":
        return FeatureTable({name: Block(reads.stack(reads.modalities))}, table.n)
    return reads


def _rank_tables(inputs: dict[str, FeatureTable]) -> dict[str, np.ndarray | None]:
    """Per base: the rank table of a forest's stacked input rows, None for an SVR's."""
    return {
        name: rank_table(X.stack(X.modalities)) if BASES[name][0] == "forest" else None
        for name, X in inputs.items()
    }


def _fit_base(
    name: str,
    X: FeatureTable,
    y: np.ndarray,
    params: SvrParams | ForestParams,
    seed: int,
    ranks: np.ndarray | None,
):
    """Fit base model `name` with its own params (`LateFusionParams.<name>`).

    A forest reads X's stacked rows and `ranks`, their columns of its input's
    rank table; an SVR reads X's blocks.
    """
    if BASES[name][0] == "forest":
        params = dataclasses.replace(params, seed=seed)
        return fit_forest(X.stack(X.modalities), y, params, ranks=ranks)
    return fit_svr(X.blocks(X.modalities), y, params)


def _predict_base(model, X: FeatureTable) -> np.ndarray:
    predict = predict_forest if isinstance(model, ForestModel) else predict_svr
    return predict(model, X.stack(X.modalities))


def _base_predictions(
    name: str,
    train: FeatureTable,
    y: np.ndarray,
    settings: Sequence[SvrParams | ForestParams],
    test: FeatureTable,
    seed: int,
    ranks: np.ndarray | None,
) -> list[np.ndarray]:
    """Per setting, in order: base `name`'s predictions for `test` of a fit on `train`.

    An SVR base is an early-fusion grid on its own modalities: one design, and
    one Gram per kernel width, serves every setting, and no block is stacked.
    A forest is fitted per setting (`_fit_base`).
    """
    if BASES[name][0] == "svr":
        return early_fusion_predict_grid(train, y, settings, test)
    # The test rows are stacked after each fit: before the fits, peak RSS rose ~1%.
    return [
        predict_forest(_fit_base(name, train, y, params, seed, ranks), test.stack(test.modalities))
        for params in settings
    ]


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
    inputs: dict[str, FeatureTable],
    ranks: dict[str, np.ndarray | None],
    y: np.ndarray,
    points: Sequence[tuple[LateFusionParams, float, int]],
    groups: Sequence,
    seed: int,
) -> list[tuple[list, dict, RidgeModel]]:
    """Per (base_params, meta_alpha, k_inner) point, in order: (splits, own params, ridge).

    `inputs` holds each base's training table, in `BASES` order, and `ranks`
    each forest base's rank table (`_rank_tables`). The stacking splits of
    `groups`, each checked before its fits, depend only on `k_inner`, and a
    base's out-of-fold column only on the base, its own params
    (`base_params.audio`, `.visual` or `.memory`) and `k_inner`; each is
    computed once per distinct key, compared by value. Only the ridge is
    fitted per point.
    """
    columns: dict[tuple, np.ndarray] = {}  # (base, its params, k_inner) -> out-of-fold column
    stacking: dict[int, list] = {}  # k_inner -> splits
    for k_inner in dict.fromkeys(k for _, _, k in points):
        splits = stacking[k_inner] = group_splits(groups, k_inner, child_seed(seed, "stack-folds"))
        # Folds run outermost, the order of a one-point fit: running one base's
        # folds back to back raised the process's peak RSS by 6-10% when
        # fitting AVM late fusion on 240 paper-dimension rows, through the C
        # allocator's reuse of freed blocks.
        for fold, (train_rows, test_rows) in enumerate(splits):
            sides = [groups[r] for r in train_rows], [groups[r] for r in test_rows]
            check_disjoint(*sides, f"stacking fold {fold}'s two sides")
            for name, X in inputs.items():
                own = list(dict.fromkeys(getattr(p, name) for p, _, k in points if k == k_inner))
                ranked = None if ranks[name] is None else ranks[name].take(train_rows, axis=1)
                preds = _base_predictions(
                    name, X.rows(train_rows), y[train_rows], own, X.rows(test_rows),
                    child_seed(seed, "oof", fold, name), ranked
                )
                for params, pred in zip(own, preds):
                    columns.setdefault((name, params, k_inner), np.empty(len(y)))[test_rows] = pred
    fits = []
    for base_params, meta_alpha, k_inner in points:
        own = {name: getattr(base_params, name) for name in inputs}
        stacked = np.column_stack([columns[name, own[name], k_inner] for name in inputs])
        fits.append((stacking[k_inner], own, fit_ridge(stacked, y, meta_alpha)))
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
    scores the test block once and is dropped; an SVR base's final fits
    share one design. A forest base's input is ranked once for every forest
    of the call.
    """
    bases = late_fusion_bases(train.modalities)
    _check_bases(test, bases)
    check_disjoint(train.groups, test.groups, "the training and test tables")
    y = _stacking_targets(train.n, y, points)
    inputs = {name: _base_table(train, name) for name in bases}
    ranks = _rank_tables(inputs)
    fits = _stacked_points(inputs, ranks, y, points, train.groups, seed)
    columns: dict[tuple, np.ndarray] = {}  # (base, its params) -> its final fit's test column
    for name, X in inputs.items():
        own = list(dict.fromkeys(getattr(p, name) for p, _, _ in points))
        final_seed = child_seed(seed, "final", name)
        preds = _base_predictions(name, X, y, own, _base_input(test, name), final_seed, ranks[name])
        columns.update(((name, params), pred) for params, pred in zip(own, preds))
    return [
        predict_ridge(meta, np.column_stack([columns[name, own[name]] for name in inputs]))
        for _, own, meta in fits
    ]


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
    inputs = {name: _base_table(table, name) for name in late_fusion_bases(table.modalities)}
    ranks = _rank_tables(inputs)
    ((splits, own, meta),) = _stacked_points(inputs, ranks, y, [point], table.groups, seed)
    base_models = {
        name: _fit_base(
            name, inputs[name], y, own[name], child_seed(seed, "final", name), ranks[name]
        )
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
    inputs = {name: _base_input(table, name) for name in model.base_order}
    columns = [_predict_base(model.base_models[name], X) for name, X in inputs.items()]
    return predict_ridge(model.meta, np.column_stack(columns))


def save_fusion_model(model: EarlyFusionModel | LateFusionModel, path: str | Path) -> None:
    """Write `model` to the file `path`, one document laid out as the module docstring says."""
    if isinstance(model, EarlyFusionModel):
        modalities = list(model.modalities)
        doc = {"kind": "early", "modalities": modalities, "svr": model_to_json(model.svr)}
    else:
        doc = {
            "kind": "late",
            "base_order": list(model.base_order),
            "models": {name: model_to_json(base) for name, base in model.base_models.items()},
            "meta": model_to_json(model.meta),
            "fold_log": model.fold_log,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _field(doc: dict, key: str):
    """The model file's entry at dotted `key`, such as "models.audio", which must be there."""
    value = doc
    for part in key.split("."):
        if not (isinstance(value, dict) and part in value):
            raise ValueError(f"model file lacks {key}")
        value = value[part]
    return value


def _names(doc: dict, key: str, order) -> list[str]:
    """`doc[key]`, which must list distinct names of `order`, in that order."""
    names = _field(doc, key)
    if not (isinstance(names, list) and names and names == [n for n in order if n in names]):
        raise ValueError(f"{key} must list distinct names of {list(order)} in order, got {names!r}")
    return names


def _load_learner(doc: dict, key: str, learner: str):
    """The model of the document nested at `key`, which must be a `learner` document."""
    nested = _field(doc, key)
    kind = nested.get("kind") if isinstance(nested, dict) else None
    if kind != learner:
        raise ValueError(f"{key} holds a {kind!r} model, expected {learner!r}")
    return model_from_json(nested)


def load_fusion_model(path: str | Path) -> EarlyFusionModel | LateFusionModel:
    """The model in the file `path` that `save_fusion_model` wrote; a folder is not read.

    Its names must be known modalities or bases, in order, and each learner
    document must pass `model_from_json`'s checks.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = _field(doc, "kind")
    if kind == "early":
        # The file is written with sorted keys; "modalities" keeps the concatenation order.
        names = _names(doc, "modalities", MODALITY_ORDER)
        svr = _load_learner(doc, "svr", "svr")
        if len(names) != len(svr.widths):
            raise ValueError(f"modalities {names} do not match the SVR's {len(svr.widths)} blocks")
        return EarlyFusionModel(tuple(names), svr)
    if kind == "late":
        return LateFusionModel(
            base_models={
                name: _load_learner(doc, f"models.{name}", BASES[name][0])
                for name in _names(doc, "base_order", BASES)
            },
            meta=_load_learner(doc, "meta", "ridge"),
            fold_log=doc.get("fold_log", []),
        )
    raise ValueError(f"unknown fusion model kind {kind!r}")
