import dataclasses
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from memfuse import fusion
from memfuse.fusion import (
    LateFusionParams,
    ModalityBundle,
    early_fusion_fit,
    early_fusion_predict_grid,
    feature_table,
    fusion_predict,
    late_fusion_fit,
    late_fusion_predict_grid,
    load_fusion_model,
    save_fusion_model,
)
from memfuse.regressors import (
    Block,
    ForestParams,
    SvrDesign,
    SvrParams,
    fit_forest,
    fit_svr,
    model_to_json,
    predict_svr,
)
from memfuse.regressors import svr as svr_module


def _bundles(rng, n, audio=None, visual=None, lexical=None, embedding=None):
    rows = []
    for i in range(n):
        rows.append(
            ModalityBundle(
                audio=audio[i] if audio is not None else None,
                visual=visual[i] if visual is not None else None,
                mem_lexical=lexical[i] if lexical is not None else None,
                mem_embedding=embedding[i] if embedding is not None else None,
            )
        )
    return rows


def test_bundle_requires_one_modality():
    with pytest.raises(ValueError, match="at least one modality"):
        ModalityBundle()


def test_early_audio_only_equals_plain_svr(rng):
    audio = rng.normal(size=(30, 5))
    y = audio[:, 0] + 0.1 * rng.normal(size=30)
    bundles = _bundles(rng, 30, audio=audio)
    params = SvrParams(c=5.0, epsilon=0.05)
    fused = early_fusion_fit(bundles, y, params)
    direct = fit_svr(audio, y, params)
    assert np.allclose(fusion_predict(fused, bundles), predict_svr(direct, audio))


def test_early_constant_target(rng):
    audio = rng.normal(size=(12, 3))
    bundles = _bundles(rng, 12, audio=audio)
    model = early_fusion_fit(bundles, np.full(12, 0.25), SvrParams())
    assert np.allclose(fusion_predict(model, bundles), 0.25)


def test_early_planted_memory_signal(rng):
    n = 80
    audio = rng.normal(size=(n, 4))
    visual = rng.normal(size=(n, 6))
    lexical = rng.normal(size=(n, 5))
    y = 0.8 * lexical[:, 2] + 0.05 * rng.normal(size=n)
    # C and the kernel width are kept modest so the AV-only model cannot
    # simply interpolate targets that carry no audiovisual signal.
    params = SvrParams(c=0.5, epsilon=0.05, gamma_scale=0.3)

    avm = early_fusion_fit(
        _bundles(rng, n, audio=audio, visual=visual, lexical=lexical), y, params
    )
    av = early_fusion_fit(_bundles(rng, n, audio=audio, visual=visual), y, params)

    def train_r2(model, bundles):
        pred = fusion_predict(model, bundles)
        return 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)

    assert train_r2(avm, _bundles(rng, n, audio=audio, visual=visual, lexical=lexical)) >= 0.9
    assert train_r2(av, _bundles(rng, n, audio=audio, visual=visual)) <= 0.2


def test_inconsistent_modalities_rejected(rng):
    a = ModalityBundle(audio=rng.normal(size=3))
    b = ModalityBundle(visual=rng.normal(size=3))
    with pytest.raises(ValueError, match="modalities"):
        early_fusion_fit([a, b], np.zeros(2), SvrParams())


def test_predict_modality_mismatch(rng):
    audio = rng.normal(size=(20, 3))
    bundles = _bundles(rng, 20, audio=audio)
    model = early_fusion_fit(bundles, rng.normal(size=20), SvrParams())
    other = _bundles(rng, 5, visual=rng.normal(size=(5, 3)))
    with pytest.raises(ValueError, match="modalities"):
        fusion_predict(model, other)


def test_predict_dim_mismatch(rng):
    audio = rng.normal(size=(20, 3))
    model = early_fusion_fit(_bundles(rng, 20, audio=audio), rng.normal(size=20), SvrParams())
    with pytest.raises(ValueError, match="dimension"):
        fusion_predict(model, _bundles(rng, 4, audio=rng.normal(size=(4, 5))))


def _late_params(n_trees=10):
    return LateFusionParams(
        audio=SvrParams(c=5.0, epsilon=0.05),
        visual=SvrParams(c=5.0, epsilon=0.05),
        memory=ForestParams(n_trees=n_trees, min_leaf=2),
    )


def test_late_fusion_tracks_dominant_base(rng):
    n = 80
    audio = rng.normal(size=(n, 4))
    visual = rng.normal(size=(n, 4))
    y = np.tanh(audio[:, 0]) + 0.02 * rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio, visual=visual)
    model = late_fusion_fit(bundles, y, _late_params(), meta_alpha=1e-3, seed=3)
    weights = model.meta.weights
    audio_col = model.base_order.index("audio")
    visual_col = model.base_order.index("visual")
    assert abs(weights[audio_col]) > 3 * abs(weights[visual_col])


def test_late_fusion_memory_signal_dominates(rng):
    n = 90
    audio = rng.normal(size=(n, 3))
    visual = rng.normal(size=(n, 3))
    lexical = rng.normal(size=(n, 4))
    embedding = rng.normal(size=(n, 4))
    y = lexical[:, 1] + 0.05 * rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio, visual=visual, lexical=lexical, embedding=embedding)
    model = late_fusion_fit(bundles, y, _late_params(n_trees=40), meta_alpha=1e-3, seed=5)
    weights = np.abs(model.meta.weights)
    memory_col = model.base_order.index("memory")
    assert weights[memory_col] == weights.max()

    pred = fusion_predict(model, bundles)
    r2_full = 1 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
    av_model = late_fusion_fit(
        _bundles(rng, n, audio=audio, visual=visual), y, _late_params(), meta_alpha=1e-3, seed=5
    )
    pred_av = fusion_predict(av_model, _bundles(rng, n, audio=audio, visual=visual))
    r2_av = 1 - np.sum((y - pred_av) ** 2) / np.sum((y - y.mean()) ** 2)
    assert r2_full > r2_av


def test_late_fusion_single_modality_calibration(rng):
    n = 40
    audio = rng.normal(size=(n, 3))
    y = audio[:, 0] + 0.1 * rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio)
    model = late_fusion_fit(bundles, y, _late_params(), meta_alpha=1e-3, seed=1)
    assert model.base_order == ("audio",)
    assert model.meta.weights.shape == (1,)
    # positive meta weight implies predictions monotone in the base output
    assert model.meta.weights[0] > 0


def test_late_fusion_out_of_fold_property(rng):
    n = 48
    groups = [f"g{i % 12}" for i in range(n)]
    audio = rng.normal(size=(n, 3))
    y = rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio)
    model = late_fusion_fit(
        bundles, y, _late_params(), meta_alpha=1.0, k_inner=4, groups=groups, seed=9
    )
    assert len(model.fold_log) == 4
    predicted = []
    for entry in model.fold_log:
        assert not set(entry["train_groups"]) & set(entry["predicted_groups"])
        predicted.extend(entry["predicted_rows"])
    assert sorted(predicted) == list(range(n))


def test_fusion_roundtrip_serialization(tmp_path, rng):
    n = 40
    audio = rng.normal(size=(n, 3))
    lexical = rng.normal(size=(n, 4))
    y = lexical[:, 0] + 0.1 * rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio, lexical=lexical)

    early = early_fusion_fit(bundles, y, SvrParams(c=2.0))
    save_fusion_model(early, tmp_path / "early")
    loaded = load_fusion_model(tmp_path / "early")
    assert np.array_equal(fusion_predict(early, bundles), fusion_predict(loaded, bundles))

    late = late_fusion_fit(bundles, y, _late_params(), meta_alpha=0.1, seed=4)
    save_fusion_model(late, tmp_path / "late")
    loaded_late = load_fusion_model(tmp_path / "late")
    assert np.array_equal(
        fusion_predict(late, bundles), fusion_predict(loaded_late, bundles)
    )


def test_early_model_keeps_a_non_alphabetical_modality_order_through_save_and_load(
    tmp_path, rng
):
    # The manifest is written with sorted keys, so it stores "dims" alphabetically.
    visual = rng.normal(size=(30, 3))
    lexical = rng.normal(size=(30, 5))
    bundles = _bundles(rng, 30, visual=visual, lexical=lexical)
    model = early_fusion_fit(bundles, visual[:, 0] + lexical[:, 1], SvrParams(c=2.0))
    save_fusion_model(model, tmp_path)
    loaded = load_fusion_model(tmp_path)
    assert model.modalities == loaded.modalities == ("visual", "mem_lexical")
    assert list(loaded.dims.items()) == [("visual", 3), ("mem_lexical", 5)]
    assert np.array_equal(fusion_predict(loaded, bundles), fusion_predict(model, bundles))


@pytest.mark.parametrize("n_targets, n_groups", [(40, 30), (40, 50), (30, 40), (50, 40)])
def test_late_fusion_rejects_targets_or_groups_of_another_length(rng, n_targets, n_groups):
    # The groups go into the bundles' table, whose construction checks them first.
    bundles = _bundles(rng, 40, audio=rng.normal(size=(40, 2)))
    groups = [f"g{i % 10}" for i in range(n_groups)]
    wrong = f"{n_groups} groups" if n_groups != 40 else f"{n_targets} targets"
    with pytest.raises(ValueError, match=f"^40 samples and {wrong} differ in length$"):
        late_fusion_fit(bundles, rng.normal(size=n_targets), _late_params(), 1.0, groups=groups)
    if n_groups != 40:
        with pytest.raises(ValueError, match=f"^40 samples and {wrong} differ in length$"):
            feature_table(bundles, groups)


def test_late_fusion_predict_grid_equals_late_fusion_fit_at_every_point(rng):
    n = 50
    groups = [f"g{i % 10}" for i in range(n)]
    points = [
        (
            LateFusionParams(
                audio=SvrParams(c=c), memory=ForestParams(n_trees=n_trees, min_leaf=2)
            ),
            alpha,
            k_inner,
        )
        for c in (0.5, 2.0)
        for n_trees in (2, 3)
        for alpha in (0.1, 10.0)
        for k_inner in (2, 3)
    ]
    # An audio row per response, then audio rows repeated per video (10
    # videos), of which videos 3 and 7 are equal by value: 9 distinct rows.
    videos = rng.normal(size=(10, 3))
    videos[7] = videos[3]
    inputs = [(rng.normal(size=(n, 3)), n), (videos[(np.arange(n) // 3) % 10], 9)]
    for audio, distinct in inputs:
        lexical = rng.normal(size=(n, 4))
        y = audio[:, 0] + lexical[:, 1] + 0.1 * rng.normal(size=n)
        bundles = _bundles(rng, n, audio=audio, lexical=lexical)
        assert len(feature_table(bundles).columns["audio"].vectors) == distinct
        train, test = bundles[:40], bundles[40:]
        preds = late_fusion_predict_grid(
            feature_table(train, groups[:40]), y[:40], points, feature_table(test), 6
        )
        assert len(preds) == len(points)
        for (base_params, alpha, k_inner), pred in zip(points, preds):
            alone = late_fusion_fit(
                train, y[:40], base_params, alpha, k_inner=k_inner, groups=groups[:40], seed=6
            )
            assert alone.base_order == ("audio", "memory")
            assert np.array_equal(pred, fusion_predict(alone, test))
        assert len({pred.tobytes() for pred in preds}) == len(points)


def test_early_fusion_fit_grid_equals_early_fusion_fit_at_every_point(rng, monkeypatch):
    # The grid path fits each point on one shared design; every SVR it fits
    # must serialize exactly as early_fusion_fit's SVR at that point.
    n = 30
    audio = rng.normal(size=(n, 3))
    lexical = rng.normal(size=(n, 4))
    y = audio[:, 0] + lexical[:, 1] + 0.1 * rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio, lexical=lexical)
    points = [
        SvrParams(c=c, epsilon=eps, gamma=gamma, gamma_scale=scale)
        for gamma, scale in ((None, 1.0), (None, 0.5), (0.2, 1.0))
        for c in (0.5, 2.0)
        for eps in (0.0, 0.1)
    ]
    fitted = []  # every SVR the grid path fits, in order
    grid_fit = fusion.fit_svr

    def recording(X, y, params, design=None):
        svr = grid_fit(X, y, params, design=design)
        fitted.append(svr)
        return svr

    monkeypatch.setattr(fusion, "fit_svr", recording)
    preds = early_fusion_predict_grid(feature_table(bundles), y, points, feature_table(bundles[:5]))
    monkeypatch.setattr(fusion, "fit_svr", grid_fit)
    assert len(preds) == len(fitted) == len(points)
    for params, svr in zip(points, fitted):
        alone = early_fusion_fit(bundles, y, params)
        assert alone.modalities == ("audio", "mem_lexical")
        assert alone.dims == {"audio": 3, "mem_lexical": 4}
        assert model_to_json(svr) == model_to_json(alone.svr)


@pytest.mark.parametrize("meta_alpha", [float("nan"), float("inf")])
def test_late_fusion_rejects_a_non_finite_meta_alpha(rng, meta_alpha):
    audio = rng.normal(size=(16, 2))
    bundles = _bundles(rng, 16, audio=audio)
    with pytest.raises(ValueError, match="^alpha must be non-negative and finite"):
        late_fusion_fit(bundles, audio[:, 0], _late_params(), meta_alpha=meta_alpha)


def test_early_fusion_predict_grid_equals_fusion_predict_at_every_point(rng):
    audio = rng.normal(size=(36, 3))
    lexical = rng.normal(size=(36, 4))
    y = audio[:, 0] + lexical[:, 1] + 0.1 * rng.normal(size=36)
    bundles = _bundles(rng, 36, audio=audio, lexical=lexical)
    train, test = bundles[:25], bundles[25:]
    points = [
        SvrParams(c=c, epsilon=eps, gamma=gamma, gamma_scale=scale)
        for gamma, scale in ((None, 1.0), (None, 0.5), (0.2, 1.0))
        for c in (0.5, 2.0)
        for eps in (0.0, 0.1, 100.0)  # 100 leaves no support vector
    ]
    preds = early_fusion_predict_grid(feature_table(train), y[:25], points, feature_table(test))
    assert len(preds) == len(points)
    for params, pred in zip(points, preds):
        model = early_fusion_fit(train, y[:25], params)
        assert model.modalities == ("audio", "mem_lexical")
        assert model.dims == {"audio": 3, "mem_lexical": 4}
        assert (model.svr.dual_coefs.size == 0) == (params.epsilon == 100.0)
        assert np.array_equal(pred, fusion_predict(model, test))

    with pytest.raises(ValueError, match="modalities"):
        early_fusion_predict_grid(
            feature_table(train), y[:25], points, feature_table(_bundles(rng, 3, audio=audio[:3]))
        )
    with pytest.raises(ValueError, match="dimension"):
        early_fusion_predict_grid(
            feature_table(train), y[:25], points,
            feature_table(_bundles(rng, 3, audio=rng.normal(size=(3, 5)), lexical=lexical[:3])),
        )


def test_early_fusion_predict_grid_drops_the_raw_training_block_before_predicting(
    rng, monkeypatch
):
    raw_rows = []  # weak references to the raw distinct rows each design gathers
    live_at_fit = []  # per fit_svr call: is any of them still alive?
    building = []

    class RecordingDesign(SvrDesign):
        def __init__(self, X):
            building.append(True)
            super().__init__(X)
            building.pop()

    distinct = svr_module._distinct

    def recording_distinct(vectors, index, sq_norms=None):
        found = distinct(vectors, index, sq_norms)
        if building and not np.shares_memory(found.rows, vectors):
            raw_rows.append(weakref.ref(found.rows))
        return found

    grid_fit = fusion.fit_svr

    def recording_fit(*args, **kwargs):
        live_at_fit.append(any(ref() is not None for ref in raw_rows))
        return grid_fit(*args, **kwargs)

    monkeypatch.setattr(fusion, "SvrDesign", RecordingDesign)
    monkeypatch.setattr(svr_module, "_distinct", recording_distinct)
    monkeypatch.setattr(fusion, "fit_svr", recording_fit)
    audio = rng.normal(size=(6, 3))
    lexical = rng.normal(size=(30, 4))
    bundles = _bundles(rng, 30, audio=audio[np.arange(30) % 6], lexical=lexical)
    table = feature_table(bundles)
    # Rows out of order, so that the design gathers each block's distinct rows.
    train_rows = np.r_[23:0:-1]
    points = [SvrParams(c=0.5), SvrParams(c=2.0)]
    preds = early_fusion_predict_grid(
        table.rows(train_rows), audio[train_rows % 6, 0], points, table.rows([0, 24, 25])
    )
    assert len(preds) == 2
    assert len(raw_rows) == 2  # audio and lexical
    assert live_at_fit == [False, False]


def _late_grid_case(rng):
    """A 30-row training and 10-row test table, and 2 SVR x 1 forest x 2 ridge settings."""
    n = 40
    groups = [f"g{i % 10}" for i in range(n)]
    audio = rng.normal(size=(n, 3))
    lexical = rng.normal(size=(n, 4))
    y = audio[:, 0] + lexical[:, 1] + 0.1 * rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio, lexical=lexical)
    points = [
        (
            LateFusionParams(audio=SvrParams(c=c), memory=ForestParams(n_trees=3, min_leaf=2)),
            alpha,
            2,
        )
        for c in (0.5, 2.0)
        for alpha in (0.1, 10.0)
    ]
    return feature_table(bundles[:30], groups[:30]), y[:30], points, feature_table(bundles[30:])


def test_late_fusion_predict_grid_fits_and_predicts_each_distinct_final_base_once(
    rng, monkeypatch
):
    train, y, points, test = _late_grid_case(rng)
    final_fits = []  # the learner of every fit on all training rows
    test_predictions = []  # the learner of every model that scores the test block
    fit_svr, fit_forest, predict_forest = fusion.fit_svr, fusion.fit_forest, fusion.predict_forest

    def counted_fit(learner, fit):
        def counted(X, y, *args, **kwargs):
            if len(y) == train.n:
                final_fits.append(learner)
            return fit(X, y, *args, **kwargs)

        return counted

    def counted_predict(model, X):
        if len(X) == test.n:
            test_predictions.append("forest")
        return predict_forest(model, X)

    class CountedDesign(SvrDesign):
        def predictions(self, models, X):
            scoring = svr_module._n_samples(*X[0]) == test.n  # X: the test samples' blocks

            def scored(models):
                for model in models:
                    if scoring:
                        test_predictions.append("svr")
                    yield model

            return super().predictions(scored(models), X)

    monkeypatch.setattr(fusion, "fit_svr", counted_fit("svr", fit_svr))
    monkeypatch.setattr(fusion, "fit_forest", counted_fit("forest", fit_forest))
    monkeypatch.setattr(fusion, "predict_forest", counted_predict)
    monkeypatch.setattr(fusion, "SvrDesign", CountedDesign)
    preds = late_fusion_predict_grid(train, y, points, test, 6)
    # Two SVR settings and one forest setting; the stacking folds hold 15 rows each.
    assert sorted(final_fits) == ["forest", "svr", "svr"]
    assert sorted(test_predictions) == ["forest", "svr", "svr"]
    assert len(preds) == len(points)

    with pytest.raises(ValueError, match="base models"):
        late_fusion_predict_grid(train, y, points, train.select(["audio"]), 6)


def test_late_fusion_predict_grid_drops_each_final_base_once_it_has_scored_the_test_block(
    rng, monkeypatch
):
    train, y, points, test = _late_grid_case(rng)
    finals = []  # weak references to the models fitted on all training rows
    live = []  # per final fit and per ridge prediction: how many earlier finals are alive
    designs = []  # weak references to every SVR design built
    live_designs = []  # per design built: how many earlier designs are alive
    predict_ridge = fusion.predict_ridge

    def recording_fit(fit):
        def recording(X, y, *args, **kwargs):
            final = len(y) == train.n
            if final:
                live.append(sum(ref() is not None for ref in finals))
            model = fit(X, y, *args, **kwargs)
            if final:
                finals.append(weakref.ref(model))
            return model

        return recording

    def recording_ridge(*args):
        live.append(sum(ref() is not None for ref in finals))
        return predict_ridge(*args)

    class RecordingDesign(SvrDesign):
        def __init__(self, X):
            live_designs.append(sum(ref() is not None for ref in designs))
            super().__init__(X)
            designs.append(weakref.ref(self))

    monkeypatch.setattr(fusion, "fit_svr", recording_fit(fusion.fit_svr))
    monkeypatch.setattr(fusion, "fit_forest", recording_fit(fusion.fit_forest))
    monkeypatch.setattr(fusion, "predict_ridge", recording_ridge)
    monkeypatch.setattr(fusion, "SvrDesign", RecordingDesign)
    late_fusion_predict_grid(train, y, points, test, 6)
    assert len(finals) == 3
    assert live == [0] * (len(finals) + len(points))
    # One design per stacking fold and one for the final fits, each dropped before the next.
    assert live_designs == [0, 0, 0]


def _block_splits(groups, k, seed):
    """k contiguous blocks of rows: folds that split rows, not groups."""
    blocks = np.array_split(np.arange(len(groups)), k)
    return [(np.setdiff1d(np.arange(len(groups)), block), block) for block in blocks]


def test_a_grid_call_whose_tables_share_a_group_raises_naming_it(rng):
    n = 20
    groups = [f"g{i % 5}" for i in range(n)]
    audio, lexical = rng.normal(size=(n, 3)), rng.normal(size=(n, 4))
    table = feature_table(_bundles(rng, n, audio=audio, lexical=lexical), groups)
    y = audio[:, 0] + 0.1 * rng.normal(size=n)
    # Every row of g0-g3, and one row of g4, trains; the other g4 rows are tested.
    kept = [i for i in range(n) if groups[i] != "g4"]
    train_rows = kept + [4]
    train, test = table.rows(train_rows), table.rows([9, 14, 19])
    leak = r"^the training and test tables share groups \['g4'\]$"
    with pytest.raises(RuntimeError, match=leak):
        early_fusion_predict_grid(train, y[train_rows], [SvrParams()], test)
    with pytest.raises(RuntimeError, match=leak):
        late_fusion_predict_grid(train, y[train_rows], [(_late_params(2), 1.0, 2)], test, 0)
    assert len(early_fusion_predict_grid(table.rows(kept), y[kept], [SvrParams()], test)) == 1


def test_a_late_grid_on_a_training_table_without_groups_raises(rng):
    train, y, points, test = _late_grid_case(rng)
    with pytest.raises(ValueError, match="^no groups to split"):
        late_fusion_predict_grid(dataclasses.replace(train, groups=None), y, points, test, 6)


def test_a_stacking_split_that_shares_a_group_raises_naming_it(rng, monkeypatch):
    monkeypatch.setattr(fusion, "group_splits", _block_splits)
    train, y, points, test = _late_grid_case(rng)
    # Rows 0-14 (g0-g9, then g0-g4) are stacking fold 0's test block; rows 15-29 train on them too.
    leak = r"^stacking fold 0's two sides share groups \['g0', 'g1', 'g2', 'g3', 'g4'"
    with pytest.raises(RuntimeError, match=leak):
        late_fusion_predict_grid(train, y, points, test, 6)
    bundles = _bundles(rng, 30, audio=rng.normal(size=(30, 3)))
    with pytest.raises(RuntimeError, match=leak):
        late_fusion_fit(bundles, y, _late_params(2), 1.0, k_inner=2, groups=list(train.groups))


def test_feature_table_rows_and_select_share_the_vectors_and_compose(rng):
    audio = rng.normal(size=(6, 3))
    lexical = rng.normal(size=(6, 4))
    table = feature_table(_bundles(rng, 6, audio=audio, lexical=lexical), list("abcdef"))
    part = table.rows([4, 1, 2]).rows([2, 0])
    audio_only = part.select(["audio"])
    assert part.n == 2 and part.dims == {"audio": 3, "mem_lexical": 4}
    assert part.groups == audio_only.groups == ["c", "e"]
    assert audio_only.modalities == ("audio",)
    for name in ("audio", "mem_lexical"):
        assert np.shares_memory(part.columns[name].vectors, table.columns[name].vectors)
    assert np.shares_memory(audio_only.columns["audio"].vectors, table.columns["audio"].vectors)
    assert np.array_equal(part.stack(["audio", "mem_lexical"]), np.hstack([audio, lexical])[[2, 4]])
    assert np.array_equal(audio_only.stack(["audio"]), audio[[2, 4]])


def test_one_modality_of_a_bundle_table_is_stacked_without_a_second_copy(rng):
    audio = rng.normal(size=(5, 3))
    table = feature_table(_bundles(rng, 5, audio=audio, lexical=rng.normal(size=(5, 2))))
    block = table.stack(["audio"])
    assert block is table.columns["audio"].vectors
    assert not np.shares_memory(block, audio) and np.array_equal(block, audio)
    assert not np.shares_memory(table.rows([0, 1]).stack(["audio"]), block)


def test_feature_table_stacks_only_the_distinct_vectors_of_bundles_that_share_arrays(rng):
    # 240 viewers of 24 videos, at the paper's audio and visual widths.
    audio, visual = list(rng.normal(size=(24, 1582))), list(rng.normal(size=(24, 8709)))
    bundles = [ModalityBundle(audio=audio[i % 24], visual=visual[i % 24]) for i in range(240)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = feature_table(bundles)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    stored = sum(block.vectors.nbytes for block in table.columns.values())
    assert stored == 24 * (1582 + 8709) * 8
    assert peak < stored + 2**18  # stacking all 240 rows first peaked at 10 times as much
    assert np.array_equal(table.stack(["visual"]), np.vstack([b.visual for b in bundles]))


def test_bundles_that_share_an_array_holding_a_nan_keep_a_row_each():
    shared = np.array([1.0, np.nan, 2.0])
    table = feature_table([ModalityBundle(audio=shared), ModalityBundle(audio=shared)])
    assert table.columns["audio"].vectors.shape == (2, 3)
    assert table.columns["audio"].index is None


def test_feature_table_rejects_an_empty_bundle_list():
    with pytest.raises(ValueError, match="^no bundles$"):
        feature_table([])


def _saved_early_model(tmp_path, rng):
    audio = rng.normal(size=(20, 3))
    model = early_fusion_fit(_bundles(rng, 20, audio=audio), audio[:, 0], SvrParams())
    save_fusion_model(model, tmp_path)
    return json.loads((tmp_path / "manifest.json").read_text())


def _write_manifest(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))


def _saved_late_model(tmp_path, rng):
    audio = rng.normal(size=(20, 3))
    bundles = _bundles(rng, 20, audio=audio, lexical=rng.normal(size=(20, 4)))
    save_fusion_model(late_fusion_fit(bundles, audio[:, 0], _late_params(), 1.0), tmp_path)
    return json.loads((tmp_path / "manifest.json").read_text())


def _without(doc, key):
    """`doc` without its entry at dotted `key`."""
    head, _, rest = key.partition(".")
    if not rest:
        return {k: v for k, v in doc.items() if k != head}
    return {**doc, head: _without(doc[head], rest)}


@pytest.mark.parametrize(
    "saved, removed, named",
    [
        (_saved_early_model, "kind", "kind"),
        (_saved_early_model, "modalities", "modalities"),
        (_saved_early_model, "dims", "dims.audio"),
        (_saved_early_model, "dims.audio", "dims.audio"),
        (_saved_early_model, "models", "models.svr"),
        (_saved_early_model, "models.svr", "models.svr"),
        (_saved_late_model, "kind", "kind"),
        (_saved_late_model, "base_order", "base_order"),
        (_saved_late_model, "models", "models.audio"),
        (_saved_late_model, "models.memory", "models.memory"),
        (_saved_late_model, "meta", "meta"),
    ],
)
def test_load_fusion_model_names_a_manifest_field_that_is_missing(
    tmp_path, rng, saved, removed, named
):
    _write_manifest(tmp_path, _without(saved(tmp_path, rng), removed))
    with pytest.raises(ValueError, match=f"^manifest lacks {re.escape(named)}$"):
        load_fusion_model(tmp_path)


def test_load_fusion_model_rejects_a_fractional_dimension(tmp_path, rng):
    manifest = _saved_early_model(tmp_path, rng)
    _write_manifest(tmp_path, {**manifest, "dims": {"audio": 3.9}})
    with pytest.raises(ValueError, match=r"^dims \{'audio': 3.9\} must be positive integers"):
        load_fusion_model(tmp_path)


def test_load_fusion_model_rejects_dimensions_the_svr_does_not_read(tmp_path, rng):
    manifest = _saved_early_model(tmp_path, rng)
    _write_manifest(tmp_path, {**manifest, "dims": {"audio": 2}})
    with pytest.raises(ValueError, match="^dims .* that sum to the SVR's 3$"):
        load_fusion_model(tmp_path)


def test_load_fusion_model_rejects_an_unknown_modality(tmp_path, rng):
    manifest = _saved_early_model(tmp_path, rng)
    _write_manifest(tmp_path, {**manifest, "modalities": ["sound"], "dims": {"sound": 3}})
    with pytest.raises(ValueError, match="^modalities must list distinct names of"):
        load_fusion_model(tmp_path)


def test_load_fusion_model_rejects_an_unknown_late_base(tmp_path, rng):
    audio = rng.normal(size=(20, 3))
    model = late_fusion_fit(_bundles(rng, 20, audio=audio), audio[:, 0], _late_params(), 1.0)
    save_fusion_model(model, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    _write_manifest(
        tmp_path,
        {
            **manifest,
            "base_order": ["audio", "sound"],
            "models": {**manifest["models"], "sound": manifest["models"]["audio"]},
        },
    )
    with pytest.raises(ValueError, match="^base_order must list distinct names of"):
        load_fusion_model(tmp_path)


@pytest.mark.parametrize(
    "source, target, message",
    [
        (
            "base_memory.json",
            "base_audio.json",
            "models.audio holds a 'forest' model, expected 'svr'",
        ),
        ("base_audio.json", "meta.json", "meta holds a 'svr' model, expected 'ridge'"),
    ],
)
def test_load_fusion_model_rejects_a_late_model_file_of_another_learner(
    tmp_path, rng, source, target, message
):
    audio = rng.normal(size=(20, 3))
    lexical = rng.normal(size=(20, 4))
    bundles = _bundles(rng, 20, audio=audio, lexical=lexical)
    save_fusion_model(late_fusion_fit(bundles, audio[:, 0], _late_params(), 1.0), tmp_path)
    (tmp_path / target).write_bytes((tmp_path / source).read_bytes())
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_fusion_model(tmp_path)


def test_load_fusion_model_rejects_an_early_svr_file_that_holds_a_ridge(tmp_path, rng):
    _saved_early_model(tmp_path, rng)
    late = late_fusion_fit(
        _bundles(rng, 20, audio=rng.normal(size=(20, 3))), rng.normal(size=20), _late_params(), 1.0
    )
    save_fusion_model(late, tmp_path / "late")
    (tmp_path / "svr.json").write_bytes((tmp_path / "late" / "meta.json").read_bytes())
    with pytest.raises(ValueError, match="^models.svr holds a 'ridge' model, expected 'svr'$"):
        load_fusion_model(tmp_path)


def test_feature_table_rejects_a_modality_entry_that_is_not_one_vector(rng):
    bundle = ModalityBundle(audio=rng.normal(size=(2, 3)))
    with pytest.raises(ValueError, match=r"^bundle 0 audio has shape \(2, 3\), not a 1-d vector$"):
        feature_table([bundle])
    audio = rng.normal(size=(8, 3))
    model = early_fusion_fit(_bundles(rng, 8, audio=audio), np.arange(8.0), SvrParams())
    with pytest.raises(ValueError, match="^bundle 0 audio has shape"):
        fusion_predict(model, [bundle])  # once returned 2 predictions for 1 bundle


def test_feature_table_rejects_bundles_of_different_widths_naming_the_bundle(rng):
    bundles = _bundles(rng, 3, audio=rng.normal(size=(3, 3)), lexical=rng.normal(size=(3, 4)))
    bundles[2] = ModalityBundle(audio=bundles[2].audio, mem_lexical=rng.normal(size=5))
    with pytest.raises(ValueError, match="^bundle 2 mem_lexical has width 5, bundle 0 has 4$"):
        feature_table(bundles)


def test_late_fusion_fit_ignores_the_memory_params_seed(rng):
    # Each forest's seed derives from late_fusion_fit's `seed`; honouring
    # `memory.seed` would be a behaviour change.
    lexical = rng.normal(size=(24, 4))
    bundles = _bundles(rng, 24, lexical=lexical)
    forests = [
        late_fusion_fit(
            bundles,
            lexical[:, 0],
            LateFusionParams(memory=ForestParams(n_trees=3, min_leaf=2, seed=memory_seed)),
            1.0,
            seed=7,
        )
        for memory_seed in (1, 999)
    ]
    first, second = (model_to_json(f.base_models["memory"]) for f in forests)
    assert first == second
    assert model_to_json(forests[0].meta) == model_to_json(forests[1].meta)


def _repeated_av_bundles(rng, n=36, videos=6):
    """Bundles whose audio and visual vectors repeat per video, as copies, and a memory row each."""
    audio, visual = rng.normal(size=(videos, 3)), rng.normal(size=(videos, 4))
    watched = np.arange(n) % videos
    lexical = rng.normal(size=(n, 2))
    bundles = [
        ModalityBundle(audio=audio[v].copy(), visual=visual[v].copy(), mem_lexical=lexical[i])
        for i, v in enumerate(watched)
    ]
    y = audio[watched, 0] + lexical[:, 1] + 0.1 * rng.normal(size=n)
    return bundles, y, watched


def test_feature_table_stores_equal_vectors_once_by_value(rng):
    bundles, _, watched = _repeated_av_bundles(rng)
    table = feature_table(bundles)
    assert {m: b.vectors.shape[0] for m, b in table.columns.items()} == {
        "audio": 6, "visual": 6, "mem_lexical": 36,
    }
    assert np.array_equal(table.columns["audio"].index, watched)
    assert table.columns["mem_lexical"].index is None
    for name in table.modalities:
        want = np.vstack([getattr(b, name) for b in bundles])
        assert np.array_equal(table.stack([name]), want)


def test_an_early_model_on_repeated_av_rows_predicts_bit_equal_after_save_and_load(
    tmp_path, rng
):
    bundles, y, _ = _repeated_av_bundles(rng)
    model = early_fusion_fit(bundles, y, SvrParams(c=2.0, epsilon=0.05))
    assert model.svr.widths == (3, 4, 2)
    assert [b.rows.shape[0] for b in model.svr.sv_blocks[:2]] == [6, 6]
    save_fusion_model(model, tmp_path)
    loaded = load_fusion_model(tmp_path)
    assert loaded.svr.widths == (3, 4, 2)
    queries = bundles[:7] + _repeated_av_bundles(rng, n=5)[0]
    assert fusion_predict(loaded, queries).tobytes() == fusion_predict(model, queries).tobytes()


def test_early_fusion_predict_grid_builds_no_full_support_vector_rows(rng, monkeypatch):
    bundles, y, _ = _repeated_av_bundles(rng)
    fitted = []
    grid_fit = fusion.fit_svr

    def recording(X, y, params, design=None):
        fitted.append(grid_fit(X, y, params, design=design))
        return fitted[-1]

    monkeypatch.setattr(fusion, "fit_svr", recording)
    points = [SvrParams(c=0.5), SvrParams(c=2.0)]
    train, test = feature_table(bundles[:30]), feature_table(bundles[30:])
    early_fusion_predict_grid(train, y[:30], points, test)
    assert len(fitted) == 2
    assert not any("support_vectors" in vars(svr) for svr in fitted)


def test_late_fusion_ranks_the_memory_block_once_per_call(rng, monkeypatch):
    train, y, points, test = _late_grid_case(rng)
    ranked = []
    rank_table = fusion.rank_table

    def counted(X):
        ranked.append(X.shape)
        return rank_table(X)

    monkeypatch.setattr(fusion, "rank_table", counted)
    late_fusion_predict_grid(train, y, points, test, 6)
    assert ranked == [(30, 4)]  # 2 stacking folds x 1 forest setting + 1 final fit, one ranking
    ranked.clear()
    late_fusion_fit([ModalityBundle(mem_lexical=v) for v in rng.normal(size=(20, 4))],
                    rng.normal(size=20), _late_params(3), 1.0, k_inner=2)
    assert ranked == [(20, 4)]


@pytest.mark.parametrize(
    "fit",
    [
        lambda X, y: fit_svr(X, y, SvrParams()),
        lambda X, y: fit_svr([Block(X), Block(np.ones((len(y), 2)))], y, SvrParams()),
        lambda X, y: SvrDesign(X),
        lambda X, y: fit_forest(X, y, ForestParams()),
        lambda X, y: early_fusion_fit([ModalityBundle(audio=x) for x in X], y, SvrParams()),
        lambda X, y: late_fusion_fit(
            [ModalityBundle(mem_lexical=x) for x in X], y, _late_params(), 1.0, k_inner=2
        ),
    ],
    ids=["svr", "svr_block", "design", "forest", "early", "late_memory"],
)
def test_learners_reject_training_data_with_no_columns(rng, fit):
    with pytest.raises(ValueError, match="^no columns in training data$"):
        fit(np.zeros((10, 0)), rng.normal(size=10))
