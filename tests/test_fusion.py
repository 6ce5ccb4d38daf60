import numpy as np
import pytest

from memfuse.fusion import (
    LateFusionParams,
    ModalityBundle,
    early_fusion_fit,
    early_fusion_fit_grid,
    early_fusion_predict_grid,
    fusion_predict,
    late_fusion_fit,
    late_fusion_fit_grid,
    load_fusion_model,
    save_fusion_model,
)
from memfuse.regressors import ForestParams, SvrParams, fit_svr, model_to_json, predict_svr


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


def test_late_fusion_fit_grid_equals_late_fusion_fit_at_every_point(rng):
    n = 40
    groups = [f"g{i % 10}" for i in range(n)]
    audio = rng.normal(size=(n, 3))
    lexical = rng.normal(size=(n, 4))
    y = audio[:, 0] + lexical[:, 1] + 0.1 * rng.normal(size=n)
    bundles = _bundles(rng, n, audio=audio, lexical=lexical)
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
    models = late_fusion_fit_grid(bundles, y, points, groups=groups, seed=6)
    assert len(models) == len(points)
    for (base_params, alpha, k_inner), model in zip(points, models):
        alone = late_fusion_fit(
            bundles, y, base_params, alpha, k_inner=k_inner, groups=groups, seed=6
        )
        assert model.base_order == alone.base_order == ("audio", "memory")
        for name in alone.base_order:
            assert model_to_json(model.base_models[name]) == model_to_json(alone.base_models[name])
        assert model_to_json(model.meta) == model_to_json(alone.meta)
        assert model.fold_log == alone.fold_log


def test_early_fusion_fit_grid_equals_early_fusion_fit_at_every_point(rng):
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
    models = list(early_fusion_fit_grid(bundles, y, points))
    assert len(models) == len(points)
    for params, model in zip(points, models):
        alone = early_fusion_fit(bundles, y, params)
        assert model.modalities == alone.modalities == ("audio", "mem_lexical")
        assert model.dims == alone.dims
        assert model_to_json(model.svr) == model_to_json(alone.svr)


def test_early_fusion_predict_grid_equals_fusion_predict_at_every_point(rng):
    audio = rng.normal(size=(36, 3))
    lexical = rng.normal(size=(36, 4))
    y = audio[:, 0] + lexical[:, 1] + 0.1 * rng.normal(size=36)
    bundles = _bundles(rng, 36, audio=audio, lexical=lexical)
    train, test = bundles[:25], bundles[25:]
    points = [
        SvrParams(c=c, epsilon=eps, gamma_scale=scale)
        for scale in (1.0, 0.5)
        for c in (0.5, 2.0)
        for eps in (0.0, 0.1, 100.0)  # 100 leaves no support vector
    ]
    preds = list(early_fusion_predict_grid(train, y[:25], points, test))
    assert len(preds) == len(points)
    for params, pred in zip(points, preds):
        model = early_fusion_fit(train, y[:25], params)
        assert (model.svr.dual_coefs.size == 0) == (params.epsilon == 100.0)
        assert np.array_equal(pred, fusion_predict(model, test))

    with pytest.raises(ValueError, match="modalities"):
        early_fusion_predict_grid(train, y[:25], points, _bundles(rng, 3, audio=audio[:3]))
    with pytest.raises(ValueError, match="dimension"):
        early_fusion_predict_grid(
            train, y[:25], points,
            _bundles(rng, 3, audio=rng.normal(size=(3, 5)), lexical=lexical[:3]),
        )
