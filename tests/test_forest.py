import numpy as np
import pytest

from memfuse.regressors import (
    ForestParams,
    fit_forest,
    load_model,
    model_from_json,
    model_to_json,
    predict_forest,
    save_model,
)


def test_constant_target(rng):
    X = rng.normal(size=(20, 3))
    y = np.full(20, 1.5)
    model = fit_forest(X, y, ForestParams(n_trees=10, seed=1))
    assert np.allclose(predict_forest(model, X), 1.5)


def test_planted_step_function(rng):
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] > 0).astype(float)
    model = fit_forest(X, y, ForestParams(n_trees=30, max_features=1.0, min_leaf=2, seed=3))
    pred = predict_forest(model, X)
    accuracy = np.mean((pred > 0.5) == (y > 0.5))
    assert accuracy >= 0.95


def test_same_seed_bit_identical(rng):
    X = rng.normal(size=(60, 5))
    y = rng.normal(size=60)
    params = ForestParams(n_trees=12, seed=42)
    p1 = predict_forest(fit_forest(X, y, params), X)
    p2 = predict_forest(fit_forest(X, y, params), X)
    assert np.array_equal(p1, p2)


def test_different_seed_differs(rng):
    X = rng.normal(size=(80, 5))
    y = rng.normal(size=80)
    p1 = predict_forest(fit_forest(X, y, ForestParams(n_trees=5, seed=1)), X)
    p2 = predict_forest(fit_forest(X, y, ForestParams(n_trees=5, seed=2)), X)
    assert not np.array_equal(p1, p2)


def test_min_leaf_respected(rng):
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    min_leaf = 4
    model = fit_forest(X, y, ForestParams(n_trees=8, min_leaf=min_leaf, seed=7))
    for tree in model.trees:
        leaves = tree.feature < 0
        assert np.all(tree.leaf_sizes[leaves] >= min_leaf)


def test_training_mse_beats_mean_predictor(rng):
    X = rng.normal(size=(100, 6))
    y = X[:, 0] + 0.5 * rng.normal(size=100)
    model = fit_forest(X, y, ForestParams(n_trees=25, seed=5))
    pred = predict_forest(model, X)
    assert np.mean((y - pred) ** 2) <= np.var(y)


def test_non_finite_rejected(rng):
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    y[3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        fit_forest(X, y, ForestParams(n_trees=2))


def test_too_few_rows(rng):
    with pytest.raises(ValueError, match="at least"):
        fit_forest(rng.normal(size=(3, 2)), rng.normal(size=3), ForestParams(min_leaf=2))


def test_max_depth_limits_tree(rng):
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    model = fit_forest(X, y, ForestParams(n_trees=3, max_depth=2, min_leaf=1, seed=11))
    for tree in model.trees:
        # depth 2 allows at most 7 nodes
        assert len(tree.feature) <= 7


def test_serialization_roundtrip_exact(tmp_path, rng):
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    model = fit_forest(X, y, ForestParams(n_trees=6, seed=9))
    path = tmp_path / "forest.json"
    save_model(model, path)
    loaded = load_model(path)
    X_new = rng.normal(size=(10, 4))
    assert np.array_equal(predict_forest(model, X_new), predict_forest(loaded, X_new))


def test_svr_and_ridge_serialization_roundtrip(tmp_path, rng):
    from memfuse.regressors import SvrParams, fit_ridge, fit_svr, predict_ridge, predict_svr

    X = rng.normal(size=(25, 3))
    y = rng.normal(size=25)

    svr = fit_svr(X, y, SvrParams(c=2.0, epsilon=0.05))
    doc = model_to_json(svr)
    restored = model_from_json(doc)
    assert np.array_equal(predict_svr(svr, X), predict_svr(restored, X))

    ridge = fit_ridge(X, y, 0.5)
    restored_ridge = model_from_json(model_to_json(ridge))
    assert np.array_equal(predict_ridge(ridge, X), predict_ridge(restored_ridge, X))


def test_serialization_via_json_text_roundtrip(rng):
    import json

    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    model = fit_forest(X, y, ForestParams(n_trees=4, seed=13))
    doc = json.loads(json.dumps(model_to_json(model)))
    loaded = model_from_json(doc)
    assert np.array_equal(predict_forest(model, X), predict_forest(loaded, X))


def test_split_between_adjacent_floats_separates_them():
    # 0.5 * (nextafter(1, 0) + 1) rounds to 1.0; a threshold of 1.0 would
    # send the x = 1.0 rows left with the others and lose the split.
    x = np.array([np.nextafter(1.0, 0.0)] * 2 + [1.0] * 2)[:, None]
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_forest(x, y, ForestParams(n_trees=1, min_leaf=1, max_features=1.0, seed=0))
    assert model.trees[0].threshold[0] == x[0, 0]
    np.testing.assert_array_equal(predict_forest(model, x), y)
