"""Tests of the nested leave-persons-out experiment layer.

`tests/data/golden_report.json` pins the `ExperimentReport` JSON of both
experiments on a small seeded dataset byte for byte, so a refactor of the
fold, fusion or evaluation code that changes any reported number fails here.
When a change of behaviour is intended, regenerate the file from
`_golden_text()` and say why in the change log.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from memfuse import fusion
from memfuse._seeds import child_seed
from memfuse.evaluation import (
    annotator_agreement,
    av_dagger_baseline,
    grid_search,
    make_lpo_folds,
    r2_score,
    run_experiment1,
    run_experiment2,
)
from memfuse.folds import group_splits
from memfuse.fusion import (
    LateFusionParams,
    ModalityBundle,
    early_fusion_fit,
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
    best, results = grid_search(
        _memory_bundles(extractor, ds), y, [r.participant_id for r in ds.responses],
        grid, "late", k_inner=2, seed=SEED,
    )
    assert len(results) == 2
    assert results[0]["mean_r2"] == results[1]["mean_r2"]
    assert best["forest.max_depth"] == 50


def test_grid_prefers_higher_score_over_tie_break(extractor):
    ds, _ = _dataset()
    y = np.array([r.induced.p for r in ds.responses])
    best, results = grid_search(
        _memory_bundles(extractor, ds), y, [r.participant_id for r in ds.responses],
        {"svr.c": [0.001, 1.0]}, "early", k_inner=2, seed=SEED,
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
        bundles, np.array([r.induced.p for r in ds.responses]),
        [r.participant_id for r in ds.responses], grid, "late", k_inner=2, seed=SEED,
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
    best, results = grid_search(bundles, y, groups, grid, "late", k_inner=2, seed=SEED)

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
    ds, av_features = _dataset()
    grid = {
        "svr.c": [0.5, 2.0],
        "forest.n_trees": [3, 5],
        "ridge.alpha": [0.1, 10.0],
        "stack.k_inner": [2],
    }
    _, results = grid_search(
        _avm_bundles(extractor, ds, av_features), np.array([r.induced.p for r in ds.responses]),
        [r.participant_id for r in ds.responses], grid, "late", k_inner=2, seed=SEED,
    )
    assert len(results) == 8
    # Per inner fold: 2 SVR settings x (audio, visual) x (2 stacking folds + 1
    # final fit), 2 forest settings x 3, and one ridge per grid point. Each
    # stacking-fold model predicts its held-out rows once, and each final
    # base model predicts the inner fold's test rows once.
    assert calls == {
        "fit_svr": 24, "fit_forest": 12, "fit_ridge": 16, "predict_svr": 24, "predict_forest": 12,
    }


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
    best, results = grid_search(bundles, y, groups, grid, "early", k_inner=2, seed=SEED)

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
        _avm_bundles(extractor, ds, av_features), np.array([r.induced.p for r in ds.responses]),
        [r.participant_id for r in ds.responses], EARLY_GRID, "early", k_inner=2, seed=SEED,
    )
    assert len(results) == 8
    # Per inner fold: one Gram per gamma_scale value, one SMO solve and one
    # prediction kernel per point, and the fold's test rows standardized once
    # for all 4 points of the fold (`SvrDesign.predictions`, not `predict_svr`).
    assert calls == {"fit_svr": 16, "predict_svr": 0, "training_gram": 4, "prediction_kernel": 16}
    assert len(test_blocks) == 2


def test_unknown_grid_key_raises():
    with pytest.raises(ValueError, match=r"unknown grid keys \['svr\.C'\]"):
        grid_search([], np.array([]), [], {"svr.C": [1.0], "svr.c": [1.0]}, "early")


def test_grid_without_a_read_key_runs_one_default_point():
    best, results = grid_search([], np.array([]), [], {"ridge.alpha": [0.1, 1.0]}, "early")
    assert best == {}
    assert results == [{"hyper": {}, "mean_r2": None, "fold_r2": []}]


@pytest.mark.parametrize("value", [0.5, 0.1])
def test_r2_of_constant_targets_raises(value):
    # The mean of [0.1] * 3 is inexact, so its squared deviations are not 0.
    with pytest.raises(ValueError, match="zero variance"):
        r2_score(np.array([value] * 3), np.array([0.0, 0.1, 0.2]))


def test_single_point_grid_fits_nothing():
    best, results = grid_search([], np.array([]), [], {"svr.c": [3.0]}, "early")
    assert best == {"svr.c": 3.0}
    assert results == [{"hyper": {"svr.c": 3.0}, "mean_r2": None, "fold_r2": []}]


def test_av_dagger_predicts_training_video_means():
    pred = av_dagger_baseline(["a", "b", "a"], np.array([1.0, 4.0, 3.0]), ["b", "a"])
    np.testing.assert_array_equal(pred, [4.0, 2.0])


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
