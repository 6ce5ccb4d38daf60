"""Tests of the nested leave-persons-out experiment layer.

`tests/data/golden_report.json` pins the `ExperimentReport` JSON of both
experiments on a small seeded dataset byte for byte, so a refactor of the
fold, fusion or evaluation code that changes any reported number fails here.
When a change of behaviour is intended, regenerate the file from
`_golden_text()` and say why in the change log.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from memfuse import evaluation, fusion
from memfuse._seeds import child_seed
from memfuse.evaluation import (
    AgreementTable,
    CellResult,
    ExperimentReport,
    annotator_agreement,
    av_dagger_baseline,
    grid_search,
    make_lpo_folds,
    pearson,
    r2_score,
    run_experiment1,
    run_experiment2,
    validate_grid,
)
from memfuse.folds import group_splits
from memfuse.fusion import (
    FeatureTable,
    LateFusionParams,
    ModalityBundle,
    early_fusion_fit,
    feature_table,
    fusion_predict,
    late_fusion_fit,
)
from memfuse.model import Dataset
from memfuse.regressors import ForestParams, SvrParams
from memfuse.regressors import svr as svr_module
from memfuse.text import TextFeatureExtractor, load_resources

from .conftest import make_response, memory

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"
SEED = 11
VIDEOS = ("v1", "v2", "v3", "v4")
# word -> its pleasure rating in the bundled VAD lexicon
AFFECT_WORDS = {
    "happy": 0.78,
    "love": 0.85,
    "excited": 0.70,
    "fun": 0.68,
    "nice": 0.55,
    "ecstatic": 0.90,
    "sad": -0.68,
    "awful": -0.72,
    "loss": -0.62,
    "worried": -0.50,
    "bad": -0.60,
    "depressed": -0.75,
}
FILLER = ("we", "went", "to", "the", "park", "with", "my", "family", "on", "a", "day", "and")
GRID = {
    "svr.c": [0.5, 2.0],
    "ridge.alpha": [0.1, 10.0],
    "forest.n_trees": [3],
    "forest.max_features": [0.5],
    "stack.k_inner": [2],
}


def _dataset(seed: int = SEED, people: int = 12):
    """Every person recalls a memory for every video; pleasure tracks its words."""
    rng = np.random.default_rng(seed)
    words = sorted(AFFECT_WORDS)
    video_effect = {v: rng.uniform(-0.3, 0.3, size=3) for v in VIDEOS}
    av_features = {
        v: {
            "audio": np.concatenate([video_effect[v], rng.normal(size=3)]),
            "visual": rng.normal(size=5),
        }
        for v in VIDEOS
    }
    rows = []
    for person in range(people):
        for v in VIDEOS:
            picks = rng.choice(len(words), size=3)
            tokens = [words[i] for i in picks] + [FILLER[i] for i in rng.integers(0, len(FILLER), 6)]
            text = " ".join(tokens[i] for i in rng.permutation(len(tokens)))
            signal = np.mean([AFFECT_WORDS[words[i]] for i in picks])
            induced = np.clip(
                0.6 * signal * np.array([1.0, 0.5, 0.3]) + video_effect[v] + 0.1 * rng.normal(size=3),
                -1.0,
                1.0,
            )
            rows.append(
                make_response(
                    f"p{person:02d}", v, induced=tuple(round(float(x), 4) for x in induced),
                    memories=[memory(text)],
                )
            )
    return Dataset(responses=tuple(rows)), av_features


@pytest.fixture(scope="module")
def extractor():
    return TextFeatureExtractor(load_resources())


def _golden_text(extractor) -> str:
    ds, av_features = _dataset()
    kwargs = dict(extractor=extractor, k_outer=3, k_inner=2)
    doc = {
        "experiment1": run_experiment1(ds, GRID, SEED, **kwargs).to_json(),
        "experiment2": run_experiment2(
            ds, av_features, GRID, SEED, conditions=("AV", "AVM", "AVdagger"), **kwargs
        ).to_json(),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_golden_report_is_byte_identical(extractor):
    assert _golden_text(extractor) == GOLDEN.read_text(encoding="utf-8")


def test_golden_report_covers_every_cell():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    exp1, exp2 = doc["experiment1"]["cells"], doc["experiment2"]["cells"]
    assert sorted(exp1) == [f"{d}|M|{s}" for d in "adp" for s in ("early", "late")]
    assert len(exp2) == 3 * 3 * 2
    assert sorted(doc["experiment2"]["deltas"]) == [f"{d}|{s}" for d in "adp" for s in ("early", "late")]
    for key, cell in {**exp1, **exp2}.items():
        assert len(cell["fold_r2"]) == 3
        _, cond, strat = key.split("|")
        if cond == "AVdagger":
            assert cell["params"] is None
            continue
        expected = {"svr.c"} if strat == "early" else {"ridge.alpha", "stack.k_inner"}
        if strat == "late" and cond in ("AV", "AVM"):
            expected |= {"svr.c"}
        if strat == "late" and cond in ("M", "AVM"):
            expected |= {"forest.n_trees", "forest.max_features"}
        for chosen in cell["params"]:
            assert set(chosen) == expected
            assert all(value in GRID[name] for name, value in chosen.items())


def test_group_splits_test_every_row_once_and_keep_groups_apart():
    groups = [f"p{i % 7}" for i in range(30)]
    splits = group_splits(groups, 3, seed=4)
    assert len(splits) == 3
    tested = np.concatenate([test_rows for _, test_rows in splits])
    assert sorted(tested.tolist()) == list(range(30))
    for train_rows, test_rows in splits:
        assert sorted(np.concatenate([train_rows, test_rows]).tolist()) == list(range(30))
        assert not {groups[r] for r in train_rows} & {groups[r] for r in test_rows}


def test_group_splits_follow_the_outer_fold_plan():
    groups = [f"p{i % 7}" for i in range(30)]
    plan = make_lpo_folds(set(groups), 3, seed=4)
    for fold, (_, test_rows) in enumerate(group_splits(groups, 3, seed=4)):
        assert {groups[r] for r in test_rows} == {p for p, f in plan.assignments.items() if f == fold}


@pytest.mark.parametrize("k", [2.5, 2.0, "2", True])
def test_group_splits_reject_a_non_integer_fold_count(k):
    with pytest.raises(ValueError, match="^k must be a positive integer"):
        group_splits([f"p{i % 7}" for i in range(30)], k, seed=4)


def test_group_splits_accept_a_numpy_integer_fold_count():
    groups = [f"p{i % 7}" for i in range(30)]
    for (train, test), (np_train, np_test) in zip(
        group_splits(groups, 3, seed=4), group_splits(groups, np.int64(3), seed=4), strict=True
    ):
        assert np.array_equal(train, np_train) and np.array_equal(test, np_test)


def test_grid_search_rejects_a_non_integer_stacking_fold_count(extractor):
    ds, _ = _dataset(people=9)
    bundles = _memory_bundles(extractor, ds)
    grid = {"ridge.alpha": [1.0], "stack.k_inner": [2, 2.5]}
    with pytest.raises(ValueError, match="^k must be a positive integer"):
        grid_search(
            _participant_table(bundles, ds), np.array([r.induced.p for r in ds.responses]), grid,
            "late", k_inner=2, seed=SEED,
        )


@pytest.mark.parametrize("n_targets, n_groups", [(40, 30), (40, 50), (50, 40)])
def test_grid_search_rejects_targets_or_groups_of_another_length(extractor, n_targets, n_groups):
    # The groups travel in the table, whose construction checks them.
    ds, _ = _dataset(people=10)
    bundles = _memory_bundles(extractor, ds)
    groups = [f"p{i % 10}" for i in range(n_groups)]
    wrong = f"{n_groups} groups" if n_groups != 40 else f"{n_targets} targets"
    with pytest.raises(ValueError, match=f"^40 samples and {wrong} differ in length$"):
        grid_search(
            feature_table(bundles, groups), np.linspace(-1, 1, n_targets), GRID, "late", k_inner=2
        )


class _NoWork:
    def extract(self, text):
        raise AssertionError("the arguments must be checked before any text is extracted")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"conditions": ("AVdagger",), "strategies": ("erly",)}, "unknown strategy 'erly'"),
        ({"conditions": ("AV", "A V")}, "unknown condition 'A V'"),
        ({"dims": ("p", "v")}, "unknown dim 'v'"),
        ({"dims": ()}, "no dim given"),
        ({"conditions": ("AV", "AVdagger", "AV")}, "condition 'AV' given twice"),
    ],
)
def test_run_experiment2_rejects_a_bad_argument_before_any_work(kwargs, message):
    ds, av_features = _dataset(people=6)
    with pytest.raises(ValueError, match=f"^{message}"):
        run_experiment2(ds, av_features, GRID, SEED, extractor=_NoWork(), **kwargs)


def test_run_experiment1_rejects_a_bad_dim_before_any_work():
    ds, _ = _dataset(people=6)
    with pytest.raises(ValueError, match="^unknown dim 'valence'"):
        run_experiment1(ds, GRID, SEED, extractor=_NoWork(), dims=("p", "valence"))


def test_run_experiment1_rejects_a_bad_grid_value_before_any_work():
    # Only late fusion reads forest keys; the value is checked before early fusion runs.
    ds, _ = _dataset(people=6)
    with pytest.raises(ValueError, match="^n_trees must be a positive integer, got 2.5"):
        run_experiment1(ds, {**GRID, "forest.n_trees": [3, 2.5]}, SEED, extractor=_NoWork())


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"svr.c": [1.0, -1.0]}, "c must be positive and finite, got -1.0"),
        ({"svr.gamma": [None, float("nan")]}, "gamma must be positive and finite"),
        ({"forest.n_trees": [2.5]}, "n_trees must be a positive integer, got 2.5"),
        ({"forest.max_features": [0.0]}, "max_features must be in"),
        ({"ridge.alpha": [-1.0]}, "alpha must be non-negative and finite, got -1.0"),
        ({"stack.k_inner": [0]}, "k must be a positive integer, got 0"),
        ({"stack.k_inner": [True]}, "k must be a positive integer, got True"),
        ({"forest.n_trees": [True]}, "n_trees must be a positive integer, got True"),
    ],
)
def test_validate_grid_runs_each_value_through_its_learner_check(grid, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        validate_grid(grid)


def test_validate_grid_accepts_the_learners_own_unset_values():
    validate_grid({"svr.gamma": [None, 0.5], "forest.max_depth": [None, 3], "stack.k_inner": [2]})


def _participant_table(bundles, ds):
    """The table of `ds`'s bundles, grouped by participant as `_run` groups them."""
    return feature_table(bundles, [r.participant_id for r in ds.responses])


def _memory_bundles(extractor, ds):
    feats = [extractor.extract(r.memories[0].text) for r in ds.responses]
    return [ModalityBundle(mem_lexical=f.lexical, mem_embedding=f.embedding) for f in feats]


def _av_bundles(ds, av_features):
    return [ModalityBundle(**av_features[r.video_id]) for r in ds.responses]


def _avm_bundles(extractor, ds, av_features):
    return [
        ModalityBundle(
            **av_features[r.video_id], mem_lexical=m.mem_lexical, mem_embedding=m.mem_embedding
        )
        for r, m in zip(ds.responses, _memory_bundles(extractor, ds))
    ]


@pytest.mark.parametrize("depths", [[None, 50], [50, None]])
def test_grid_tie_breaks_to_smallest_value_with_none_last(extractor, depths):
    # No tree of 36 rows reaches depth 50, so both grid points fit identical
    # forests and score the same: the tie goes to 50, as None sorts last.
    ds, _ = _dataset(people=9)
    y = np.array([r.induced.p for r in ds.responses])
    grid = {"forest.max_depth": depths, "forest.n_trees": [2], "stack.k_inner": [2]}
    table = _participant_table(_memory_bundles(extractor, ds), ds)
    best, results = grid_search(table, y, grid, "late", k_inner=2, seed=SEED)
    assert len(results) == 2
    assert results[0]["mean_r2"] == results[1]["mean_r2"]
    assert best["forest.max_depth"] == 50


def test_grid_prefers_higher_score_over_tie_break(extractor):
    ds, _ = _dataset()
    y = np.array([r.induced.p for r in ds.responses])
    best, results = grid_search(
        _participant_table(_memory_bundles(extractor, ds), ds), y, {"svr.c": [0.001, 1.0]},
        "early", k_inner=2, seed=SEED,
    )
    by_c = {r["hyper"]["svr.c"]: r["mean_r2"] for r in results}
    assert by_c[1.0] > by_c[0.001]
    assert best == {"svr.c": 1.0}


@pytest.mark.parametrize(
    "condition, grid, searched",
    [
        (
            "M",
            {"svr.c": [0.5, 2.0], "ridge.alpha": [0.1, 10.0], "forest.n_trees": [2],
             "stack.k_inner": [2]},
            {"ridge.alpha", "forest.n_trees", "stack.k_inner"},
        ),
        (
            "AV",
            {"forest.n_trees": [2, 3], "forest.min_leaf": [1], "ridge.alpha": [0.1, 10.0],
             "stack.k_inner": [2]},
            {"ridge.alpha", "stack.k_inner"},
        ),
    ],
)
def test_late_search_skips_keys_of_learners_it_does_not_fit(extractor, condition, grid, searched):
    ds, av_features = _dataset(people=9)
    bundles = _memory_bundles(extractor, ds) if condition == "M" else _av_bundles(ds, av_features)
    best, results = grid_search(
        _participant_table(bundles, ds), np.array([r.induced.p for r in ds.responses]), grid,
        "late", k_inner=2, seed=SEED,
    )
    assert len(results) == 2
    assert all(set(r["hyper"]) == searched and r["mean_r2"] is not None for r in results)
    assert set(best) == searched


def test_late_grid_search_equals_a_brute_force_loop_of_late_fusion_fit(extractor):
    ds, av_features = _dataset(people=9)
    bundles = _avm_bundles(extractor, ds, av_features)
    y = np.array([r.induced.p for r in ds.responses])
    groups = [r.participant_id for r in ds.responses]
    grid = {
        "svr.c": [0.5, 2.0],
        "forest.n_trees": [2, 3],
        "ridge.alpha": [0.1, 10.0],
        "stack.k_inner": [2, 3],
    }
    best, results = grid_search(
        feature_table(bundles, groups), y, grid, "late", k_inner=2, seed=SEED
    )

    splits = group_splits(groups, 2, child_seed(SEED, "inner-folds"))
    expected = []
    for c, n_trees, alpha, k_stack in itertools.product(*grid.values()):
        svr = SvrParams(c=c)
        base_params = LateFusionParams(audio=svr, visual=svr, memory=ForestParams(n_trees=n_trees))
        fold_r2 = []
        for fold, (train_rows, test_rows) in enumerate(splits):
            model = late_fusion_fit(
                [bundles[r] for r in train_rows], y[train_rows], base_params, alpha,
                k_inner=k_stack, groups=[groups[r] for r in train_rows],
                seed=child_seed(SEED, "inner-fit", fold),
            )
            pred = fusion_predict(model, [bundles[r] for r in test_rows])
            fold_r2.append(r2_score(y[test_rows], pred))
        expected.append(
            {
                "hyper": dict(zip(grid, (c, n_trees, alpha, k_stack))),
                "mean_r2": float(np.mean(fold_r2)),
                "fold_r2": fold_r2,
            }
        )
    assert results == expected
    top = max(r["mean_r2"] for r in expected)
    assert best == min(
        (r["hyper"] for r in expected if r["mean_r2"] == top),
        key=lambda h: tuple(h.values()),
    )


def test_late_grid_search_fits_each_base_model_once_per_inner_fold(extractor, monkeypatch):
    calls = {
        "fit_svr": 0, "fit_forest": 0, "fit_ridge": 0, "predict_svr": 0, "predict_forest": 0,
    }

    def counting(name):
        original = getattr(fusion, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(fusion, name, counting(name))
    training_grams = []  # the shape of every training Gram: a kernel of a matrix with itself
    kernel = svr_module.rbf_kernel_matrix

    def counted_kernel(A, B, *args, **kwargs):
        if A is B:
            training_grams.append(A.shape)
        return kernel(A, B, *args, **kwargs)

    monkeypatch.setattr(svr_module, "rbf_kernel_matrix", counted_kernel)
    ds, av_features = _dataset()
    grid = {
        "svr.c": [0.5, 2.0],
        "forest.n_trees": [3, 5],
        "ridge.alpha": [0.1, 10.0],
        "stack.k_inner": [2],
    }
    _, results = grid_search(
        _participant_table(_avm_bundles(extractor, ds, av_features), ds),
        np.array([r.induced.p for r in ds.responses]), grid, "late", k_inner=2, seed=SEED,
    )
    assert len(results) == 8
    # Per inner fold: 2 SVR settings x (audio, visual) x (2 stacking folds + 1
    # final fit), 2 forest settings x 3, and one ridge per grid point. Each
    # stacking-fold model predicts its held-out rows once, and each final
    # base model predicts the inner fold's test rows once. An SVR base is an
    # early-fusion grid on its own modality: one design, and so one training
    # Gram, serves both settings of a (base, stacking fold) and both final
    # fits, and the test blocks are read through it, not by `predict_svr`.
    assert calls == {
        "fit_svr": 24, "fit_forest": 12, "fit_ridge": 16, "predict_svr": 0, "predict_forest": 12,
    }
    assert len(training_grams) == 12


EARLY_GRID = {
    "svr.c": [0.5, 2.0],
    "svr.epsilon": [0.05, 0.2],
    "svr.gamma_scale": [0.5, 1.0],
}


def test_early_grid_search_equals_a_brute_force_loop_of_early_fusion_fit(extractor):
    ds, av_features = _dataset(people=9)
    bundles = _avm_bundles(extractor, ds, av_features)
    y = np.array([r.induced.p for r in ds.responses])
    groups = [r.participant_id for r in ds.responses]
    # An epsilon wider than the targets' range leaves no support vector.
    wide = float(np.ptp(y)) + 1.0
    grid = {**EARLY_GRID, "svr.epsilon": [*EARLY_GRID["svr.epsilon"], wide]}
    best, results = grid_search(
        feature_table(bundles, groups), y, grid, "early", k_inner=2, seed=SEED
    )

    splits = group_splits(groups, 2, child_seed(SEED, "inner-folds"))
    expected = []
    for values in itertools.product(*grid.values()):
        hyper = dict(zip(grid, values))
        params = SvrParams(c=values[0], epsilon=values[1], gamma_scale=values[2])
        fold_r2 = []
        for train_rows, test_rows in splits:
            model = early_fusion_fit([bundles[r] for r in train_rows], y[train_rows], params)
            assert (model.svr.dual_coefs.size == 0) == (params.epsilon == wide)
            pred = fusion_predict(model, [bundles[r] for r in test_rows])
            fold_r2.append(r2_score(y[test_rows], pred))
        expected.append({"hyper": hyper, "mean_r2": float(np.mean(fold_r2)), "fold_r2": fold_r2})
    assert results == expected
    top = max(r["mean_r2"] for r in expected)
    assert best == min(
        (r["hyper"] for r in expected if r["mean_r2"] == top),
        key=lambda h: tuple(h.values()),
    )


def test_early_grid_search_builds_one_gram_per_inner_fold_and_gamma_setting(
    extractor, monkeypatch
):
    calls = {"fit_svr": 0, "predict_svr": 0, "training_gram": 0, "prediction_kernel": 0}
    test_blocks = []  # the standardized test rows each prediction kernel reads
    gram_rows = []  # the distinct rows each training Gram is built on
    fit_svr, predict_svr = fusion.fit_svr, fusion.predict_svr
    kernel = svr_module.rbf_kernel_matrix

    def counted_fit(*args, **kwargs):
        calls["fit_svr"] += 1
        return fit_svr(*args, **kwargs)

    def counted_predict(*args, **kwargs):
        calls["predict_svr"] += 1
        return predict_svr(*args, **kwargs)

    def counted_kernel(A, B, *args, **kwargs):
        if A is B:
            calls["training_gram"] += 1
            gram_rows.append(A.shape[0])
        else:  # a prediction kernel pairs one model's SVs with test rows
            calls["prediction_kernel"] += 1
            if not any(B is block for block in test_blocks):
                test_blocks.append(B)
        return kernel(A, B, *args, **kwargs)

    monkeypatch.setattr(fusion, "fit_svr", counted_fit)
    monkeypatch.setattr(fusion, "predict_svr", counted_predict)
    monkeypatch.setattr(svr_module, "rbf_kernel_matrix", counted_kernel)
    ds, av_features = _dataset(people=9)
    _, results = grid_search(
        _participant_table(_avm_bundles(extractor, ds, av_features), ds),
        np.array([r.induced.p for r in ds.responses]), EARLY_GRID, "early", k_inner=2, seed=SEED,
    )
    assert len(results) == 8
    # Per inner fold and block (audio, visual, mem_lexical, mem_embedding): one
    # Gram per gamma_scale value, one SMO solve and one prediction kernel per
    # point, and the fold's test rows standardized once for all 4 points of
    # the fold (`SvrDesign.predictions`, not `predict_svr`).
    blocks = 4
    assert calls == {
        "fit_svr": 16,
        "predict_svr": 0,
        "training_gram": 4 * blocks,
        "prediction_kernel": 16 * blocks,
    }
    assert len(test_blocks) == 2 * blocks
    # An AV Gram is built on one row per video, a memory Gram on every training response.
    n_train = [len(ds.responses) - len(test) for _, test in group_splits(
        [r.participant_id for r in ds.responses], 2, child_seed(SEED, "inner-folds")
    )]
    assert sorted(gram_rows) == sorted(
        [len(VIDEOS)] * 8 + [n for n in n_train for _ in range(4)]
    )


def test_run_holds_one_audio_and_one_visual_row_per_video_and_one_memory_row_per_response(
    extractor, monkeypatch
):
    tables = []
    build = evaluation._feature_table

    def recording(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(evaluation, "_feature_table", recording)
    ds, av_features = _dataset(people=6)
    one_point = {"svr.c": [1.0]}
    run_experiment2(
        ds, av_features, one_point, SEED, extractor=extractor, conditions=("AV", "AVM"),
        strategies=("early",), k_outer=2, dims=("p",),
    )
    (table,) = tables
    n = len(ds.responses)
    assert table.n == n
    assert table.modalities == ("audio", "visual", "mem_lexical", "mem_embedding")
    assert {name: block.vectors.shape[0] for name, block in table.columns.items()} == {
        "audio": len(VIDEOS), "visual": len(VIDEOS), "mem_lexical": n, "mem_embedding": n,
    }
    for name in ("audio", "visual"):
        expected = np.vstack([av_features[r.video_id][name] for r in ds.responses])
        assert np.array_equal(table.stack([name]), expected)
    feats = [extractor.extract(r.memories[0].text) for r in ds.responses]
    assert np.array_equal(table.stack(["mem_lexical"]), np.vstack([f.lexical for f in feats]))


def test_run_stores_a_memory_text_that_two_responses_share_once(extractor, monkeypatch):
    tables = []
    build = evaluation._feature_table

    def recording(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(evaluation, "_feature_table", recording)
    ds, _ = _dataset()
    responses = list(ds.responses)
    responses[9] = dataclasses.replace(responses[9], memories=responses[2].memories)
    ds = Dataset(responses=tuple(responses))
    run_experiment1(ds, GRID, SEED, extractor=extractor, k_outer=2, k_inner=2, dims=("p",))
    (table,) = tables
    feats = [extractor.extract(r.memories[0].text) for r in ds.responses]
    for name, part in (("mem_lexical", "lexical"), ("mem_embedding", "embedding")):
        vectors, index = table.columns[name]
        assert vectors.shape[0] == len(responses) - 1 and index[9] == index[2]
        assert np.array_equal(table.stack([name]), np.vstack([getattr(f, part) for f in feats]))


@pytest.mark.parametrize(
    "video, name, entry, message",
    [
        ("v1", "audio", np.zeros((2, 6)), r"^video v1 audio has shape \(2, 6\), not a 1-d vector$"),
        ("v3", "visual", np.zeros(4), "^video v3 visual has width 4, video v1 has 5$"),
    ],
    ids=["2-d", "width"],
)
def test_run_rejects_an_av_entry_that_is_not_one_vector_of_the_videos_width(
    video, name, entry, message
):
    # A (2, 6) entry for v1 once gave the videos' block an extra row, which v2 then read.
    ds, av_features = _dataset(people=6)
    av_features[video][name] = entry
    with pytest.raises(ValueError, match=message):
        run_experiment2(
            ds, av_features, {"svr.c": [1.0]}, SEED, extractor=_NoWork(), conditions=("AV",)
        )


def _canary(extractor):
    """16 participants x 6 videos whose targets are a per-participant offset plus noise.

    Each memory text draws its words from its participant's own word set, so
    the features tell the participant and nothing else: only a model that has
    seen a test participant's rows can score above zero.
    """
    rng = np.random.default_rng(SEED)
    vocabulary = sorted(extractor.resources.embeddings[0].entries)
    word_sets = rng.permutation(vocabulary)[: 16 * 4].reshape(16, 4)
    offsets = rng.uniform(-0.9, 0.9, size=16)
    rows = [
        make_response(
            f"p{person:02d}",
            f"v{video}",
            induced=(round(float(np.clip(offsets[person] + 0.05 * rng.normal(), -1, 1)), 4), 0, 0),
            memories=[memory(" ".join(rng.choice(word_sets[person], size=8)))],
        )
        for person in range(16)
        for video in range(6)
    ]
    return Dataset(responses=tuple(rows))


def test_participant_canary_reads_below_zero_when_participants_stay_apart(extractor):
    report = run_experiment1(_canary(extractor), GRID, SEED, extractor=extractor, dims=("p",))
    for strat in ("early", "late"):
        assert report.cells["p", "M", strat].mean_r2 < 0, strat


def test_participant_canary_reads_above_zero_on_folds_that_split_rows(extractor):
    # What the canary would read if the outer folds leaked participants.
    ds = _canary(extractor)
    bundles = _memory_bundles(extractor, ds)
    y = np.array([r.induced.p for r in ds.responses])
    scores = []
    for fold in range(5):
        tested = np.arange(len(y)) % 5 == fold
        train = [b for b, t in zip(bundles, tested) if not t]
        test = [b for b, t in zip(bundles, tested) if t]
        pred = fusion_predict(early_fusion_fit(train, y[~tested], SvrParams()), test)
        scores.append(r2_score(y[tested], pred))
    assert np.mean(scores) > 0.3


def test_an_outer_split_that_shares_a_participant_raises_naming_it(extractor, monkeypatch):
    outer_seed = child_seed(SEED, "outer-folds")

    def outer_row_blocks(groups, k, seed):
        if seed != outer_seed:
            return group_splits(groups, k, seed)
        blocks = np.array_split(np.arange(len(groups)), k)
        return [(np.setdiff1d(np.arange(len(groups)), block), block) for block in blocks]

    monkeypatch.setattr(evaluation, "group_splits", outer_row_blocks)
    # 96 rows in 5 blocks: p03's six rows (18-23) straddle the first block's end.
    leak = r"^the training and test tables share groups \['p03'\]$"
    with pytest.raises(RuntimeError, match=leak):
        run_experiment1(_canary(extractor), GRID, SEED, extractor=extractor, dims=("p",))


NO_SAMPLES = FeatureTable({}, 0)


def test_grid_search_on_a_table_without_groups_raises(extractor):
    ds, _ = _dataset(people=6)
    y = np.array([r.induced.p for r in ds.responses])
    table = feature_table(_memory_bundles(extractor, ds))
    with pytest.raises(ValueError, match="^no groups to split"):
        grid_search(table, y, {"svr.c": [0.5, 2.0]}, "early")


def test_unknown_grid_key_raises():
    with pytest.raises(ValueError, match=r"unknown grid keys \['svr\.C'\]"):
        grid_search(NO_SAMPLES, np.array([]), {"svr.C": [1.0], "svr.c": [1.0]}, "early")


def test_grid_without_a_read_key_runs_one_default_point():
    best, results = grid_search(NO_SAMPLES, np.array([]), {"ridge.alpha": [0.1, 1.0]}, "early")
    assert best == {}
    assert results == [{"hyper": {}, "mean_r2": None, "fold_r2": []}]


@pytest.mark.parametrize("value", [0.5, 0.1])
def test_r2_of_constant_targets_raises(value):
    # The mean of [0.1] * 3 is inexact, so its squared deviations are not 0.
    with pytest.raises(ValueError, match="zero variance"):
        r2_score(np.array([value] * 3), np.array([0.0, 0.1, 0.2]))


def test_single_point_grid_fits_nothing():
    best, results = grid_search(NO_SAMPLES, np.array([]), {"svr.c": [3.0]}, "early")
    assert best == {"svr.c": 3.0}
    assert results == [{"hyper": {"svr.c": 3.0}, "mean_r2": None, "fold_r2": []}]


def test_av_dagger_predicts_training_video_means():
    pred = av_dagger_baseline(["a", "b", "a"], np.array([1.0, 4.0, 3.0]), ["b", "a"])
    np.testing.assert_array_equal(pred, [4.0, 2.0])


def test_av_dagger_rejects_videos_and_values_of_another_length():
    with pytest.raises(ValueError, match="^4 training videos but 2 training values"):
        av_dagger_baseline(["a", "b", "a", "b"], np.array([1.0, 2.0]), ["a", "b"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_pearson_and_r2_reject_non_finite_input(bad):
    x, y = np.array([0.1, 0.5, 0.2, 0.9]), np.array([0.3, 0.4, 0.1, 0.8])
    for metric in (pearson, r2_score):
        for args in ((np.where(x > 0.8, bad, x), y), (x, np.where(y > 0.7, bad, y))):
            with pytest.raises(ValueError, match="^non-finite input"):
                metric(*args)


def test_annotator_agreement_rejects_a_nan_rating():
    rng = np.random.default_rng(5)
    self_ma, ann1, ann2 = (rng.uniform(-1, 1, size=(20, 3)) for _ in range(3))
    ann1[3, 0] = np.nan
    with pytest.raises(ValueError, match="^non-finite input"):
        annotator_agreement(self_ma, ann1, ann2)


def test_av_dagger_unseen_video_warns_and_uses_global_mean():
    with pytest.warns(UserWarning, match=r"global mean: \['c'\]"):
        pred = av_dagger_baseline(["a", "b", "a"], np.array([1.0, 4.0, 3.0]), ["c", "a"])
    np.testing.assert_array_equal(pred, [8.0 / 3.0, 2.0])


def test_annotator_agreement_matches_corrcoef():
    rng = np.random.default_rng(5)
    self_ma, ann1, ann2 = (rng.uniform(-1, 1, size=(20, 3)) for _ in range(3))
    table = annotator_agreement(self_ma, ann1, ann2)
    for col, dim in enumerate("pad"):
        mean = 0.5 * (ann1[:, col] + ann2[:, col])
        assert table.correspondence[dim] == pytest.approx(
            np.corrcoef(mean, self_ma[:, col])[0, 1], abs=1e-12
        )
        assert table.reliability[dim] == pytest.approx(
            np.corrcoef(ann1[:, col], ann2[:, col])[0, 1], abs=1e-12
        )


def test_experiment_report_renders_its_table():
    def cell(r2):
        return CellResult(fold_r2=(r2,), params=None)

    report = ExperimentReport(
        experiment="experiment2",
        seed=7,
        conditions=("AV", "AVM", "AVdagger"),
        strategies=("early", "late"),
        cells={
            ("p", "AV", "early"): cell(0.1),
            ("p", "AV", "late"): cell(0.2),
            ("p", "AVM", "early"): cell(0.35),
            ("p", "AVM", "late"): cell(-0.05),
            ("p", "AVdagger", "early"): cell(0.5),
            ("p", "AVdagger", "late"): cell(0.5),
            ("a", "AV", "early"): cell(0.25),  # no late cell; no AVM, AV† or D row at all
        },
    )
    assert report.deltas == {
        ("p", "early"): 0.35 - 0.1,
        ("p", "late"): -0.05 - 0.2,
    }
    assert report.render_table() == (
        "experiment2 (seed 7)  AvgR² per dimension\n"
        "dim  condition      early      late\n"
        "-----------------------------------\n"
        "P    AV             0.100     0.200\n"
        "P    AVM            0.350    -0.050\n"
        "P    AV†            0.500     0.500\n"
        "A    AV             0.250         -\n"
        "\n"
        "ΔAvgR² (AVM - AV)\n"
        "P    early: +0.250  late: -0.250\n"
    )


def test_agreement_table_renders_one_row_per_dimension():
    table = AgreementTable(
        correspondence={"p": 0.5, "a": -0.125, "d": 1.0},
        reliability={"p": 0.25, "a": 0.0, "d": -1.0},
    )
    assert table.render_table() == (
        "dim   correspondence   reliability\n"
        "P              0.500         0.250\n"
        "A             -0.125         0.000\n"
        "D              1.000        -1.000\n"
    )
