import json
from pathlib import Path

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
from memfuse.regressors.forest import _SplitSearch, rank_table

from .oracles import forest_by_tree_walks, stable_sort_best_split, tree_leaf_values


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


@pytest.mark.parametrize("field", ["n_trees", "min_leaf", "max_depth"])
def test_params_reject_nan(field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ForestParams(**{field: float("nan")})


@pytest.mark.parametrize("field", ["n_trees", "min_leaf", "max_depth"])
@pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
def test_params_reject_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
        ForestParams(**{field: value})


def test_params_accept_numpy_integer_counts(rng):
    params = ForestParams(n_trees=np.int64(2), min_leaf=np.int32(2), max_depth=np.uint8(3))
    X = rng.normal(size=(20, 3))
    model = fit_forest(X, X[:, 0], params)
    assert len(model.trees) == 2


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


@pytest.mark.parametrize(
    "case",
    [
        "left_self_loop",
        "child_outside_tree",
        "feature_out_of_range",
        "ragged",
        "no_trees",
        "threshold_nan",
        "value_nan",
    ],
)
def test_model_from_json_rejects_a_forest_that_cannot_be_predicted(rng, case):
    X = rng.normal(size=(40, 3))
    doc = model_to_json(fit_forest(X, X[:, 0], ForestParams(n_trees=1, min_leaf=2, seed=4)))
    tree = doc["trees"][0]
    assert tree["feature"][0] >= 0  # the root splits
    model_from_json(doc)  # the untouched document loads
    change, message = {
        # At the root, a left child of 0 sends rows back to the root forever.
        "left_self_loop": ({"left": [0] + tree["left"][1:]}, "not after its node"),
        "child_outside_tree": (
            {"right": [len(tree["right"])] + tree["right"][1:]}, "inside the tree"
        ),
        "feature_out_of_range": ({"feature": [3] + tree["feature"][1:]}, "out of range"),
        "ragged": ({"value": tree["value"][:-1]}, "of one length"),
        "no_trees": (None, "at least one tree"),
        "threshold_nan": (
            {"threshold": [float("nan")] + tree["threshold"][1:]}, "tree 0: threshold must be finite"
        ),
        "value_nan": ({"value": tree["value"][:-1] + [float("nan")]}, "tree 0: value must be finite"),
    }[case]
    trees = [] if change is None else [{**tree, **change}]
    with pytest.raises(ValueError, match=message):
        model_from_json({**doc, "trees": trees})


@pytest.mark.parametrize("n_features", [3.9, 3.0, True, "3", 0])
def test_model_from_json_rejects_a_feature_count_that_is_not_a_positive_integer(rng, n_features):
    X = rng.normal(size=(40, 3))
    doc = model_to_json(fit_forest(X, X[:, 0], ForestParams(n_trees=1, min_leaf=2, seed=4)))
    # int() would load 3.9 as 3 features.
    with pytest.raises(ValueError, match="^n_features must be a positive integer"):
        model_from_json({**doc, "n_features": n_features})


def test_model_from_json_rejects_a_boolean_tree_count_as_it_rejects_a_boolean_feature_count(rng):
    X = rng.normal(size=(40, 3))
    doc = model_to_json(fit_forest(X, X[:, 0], ForestParams(n_trees=1, min_leaf=2, seed=4)))
    with pytest.raises(ValueError, match="^n_trees must be a positive integer, got True"):
        model_from_json({**doc, "params": {**doc["params"], "n_trees": True}})


def test_split_between_adjacent_floats_separates_them():
    # 0.5 * (nextafter(1, 0) + 1) rounds to 1.0; a threshold of 1.0 would
    # send the x = 1.0 rows left with the others and lose the split.
    x = np.array([np.nextafter(1.0, 0.0)] * 2 + [1.0] * 2)[:, None]
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_forest(x, y, ForestParams(n_trees=1, min_leaf=1, max_features=1.0, seed=0))
    assert model.trees[0].threshold[0] == x[0, 0]
    np.testing.assert_array_equal(predict_forest(model, x), y)


# `tests/data/forest_ties_golden.json` pins `model_to_json` of forests grown on
# tie-heavy inputs byte for byte: bootstrap duplicates, columns with few
# distinct values (ties between distinct rows), a duplicated column (equal
# scores across drawn features) and repeated one-decimal targets. A change to
# the split search that moves any split, threshold, child order or leaf value
# fails here.
FOREST_GOLDEN = Path(__file__).parent / "data" / "forest_ties_golden.json"
TIE_PARAMS = {
    "leaf1_mf0.1": dict(min_leaf=1, max_features=0.1),
    "leaf1_mf1.0": dict(min_leaf=1, max_features=1.0),
    "leaf5_mf0.1": dict(min_leaf=5, max_features=0.1),
    "leaf5_mf1.0": dict(min_leaf=5, max_features=1.0),
    "leaf1_mf1.0_depth3": dict(min_leaf=1, max_features=1.0, max_depth=3),
}


def _tie_heavy_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2024)
    n = 48
    continuous = rng.normal(size=(n, 3))
    three_levels = rng.integers(0, 3, size=(n, 3)).astype(float)
    binary = rng.integers(0, 2, size=(n, 2)).astype(float)
    coarse = np.round(rng.normal(size=(n, 1)), 1)
    constant = np.full((n, 1), 0.25)
    X = np.hstack([continuous, three_levels, three_levels[:, :1], binary, coarse, constant])
    # One decimal: targets repeat, and their float sums depend on the order of summation.
    y = np.round(continuous[:, 0] + three_levels[:, 0] - binary[:, 0] + rng.normal(size=n), 1)
    return X, y


def _tie_golden_text() -> str:
    X, y = _tie_heavy_inputs()
    doc = {
        name: model_to_json(fit_forest(X, y, ForestParams(n_trees=5, seed=17, **kwargs)))
        for name, kwargs in TIE_PARAMS.items()
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_forest_bytes_on_tie_heavy_inputs():
    assert _tie_golden_text() == FOREST_GOLDEN.read_text(encoding="utf-8")


def test_tie_golden_forests_load_unchanged():
    for doc in json.loads(FOREST_GOLDEN.read_text(encoding="utf-8")).values():
        assert model_to_json(model_from_json(doc)) == doc


def test_tie_golden_forests_predict_as_their_trees_walked_one_at_a_time():
    X, _ = _tie_heavy_inputs()
    queries = np.vstack([X, np.random.default_rng(3).normal(size=(20, X.shape[1]))])
    for doc in json.loads(FOREST_GOLDEN.read_text(encoding="utf-8")).values():
        model = model_from_json(doc)
        expected = forest_by_tree_walks(model, queries)
        assert predict_forest(model, queries).tobytes() == expected.tobytes()
        for i, row in enumerate(queries):
            assert predict_forest(model, row).tobytes() == expected[i : i + 1].tobytes()


def _max_depth(tree) -> int:
    depth = np.zeros(tree.feature.size, dtype=int)
    for node in np.flatnonzero(tree.feature >= 0):  # children come after their node
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


@pytest.mark.parametrize("n_trees, min_leaf", [(8, 1), (13, 2), (20, 1)])
def test_predict_equals_walking_and_summing_the_trees_one_at_a_time(n_trees, min_leaf):
    rng = np.random.default_rng(n_trees)
    X = rng.normal(size=(60, 5))
    y = X[:, 0] + np.sin(3 * X[:, 1]) + rng.normal(size=60)
    queries = np.vstack([X, rng.normal(size=(40, 5))])
    model = fit_forest(X, y, ForestParams(n_trees=n_trees, min_leaf=min_leaf, seed=5))
    assert len({_max_depth(tree) for tree in model.trees}) > 1  # trees of uneven depth

    expected = forest_by_tree_walks(model, queries)
    assert predict_forest(model, queries).tobytes() == expected.tobytes()
    for i, row in enumerate(queries):
        assert predict_forest(model, row[None, :]).tobytes() == expected[i : i + 1].tobytes()
    # A numpy sum over each row's leaf values adds them pairwise and misses.
    leaves = np.ascontiguousarray(
        np.array([tree_leaf_values(tree, queries) for tree in model.trees]).T
    )
    assert not np.array_equal(leaves.sum(axis=1) / n_trees, expected)


def test_split_search_equals_a_stable_sort_scan_on_tied_and_repeated_rows():
    rng = np.random.default_rng(99)
    for case in range(300):
        n, d = int(rng.integers(8, 60)), int(rng.integers(1, 10))
        levels = rng.integers(1, 6, size=d)  # columns with few distinct values tie often
        X = np.where(
            rng.random(d) < 0.5,
            rng.integers(0, levels, size=(n, d)).astype(float),
            rng.normal(size=(n, d)),
        )
        if d > 1 and rng.random() < 0.5:
            X[:, 1] = X[:, 0]  # equal scores on two drawn features
        y = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        min_leaf = int(rng.choice([1, 2, 3, 4]))
        # Drawn with repeats, and at most n of them, as a bootstrap sample is.
        ids = rng.integers(0, n, size=int(rng.integers(2 * min_leaf, n + 1)))
        feats = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)

        got = _SplitSearch(X, min_leaf, feats.shape[0]).best_split(ids, y[ids], feats)
        expected = stable_sort_best_split(X, y, ids, feats, min_leaf)
        if expected is None:
            assert got is None, case
            continue
        feat, threshold, left_ids, left_ys, right_ids, right_ys = got
        assert (feat, threshold) == expected[:2], case
        np.testing.assert_array_equal(left_ids, expected[2])
        np.testing.assert_array_equal(right_ids, expected[3])
        assert left_ys.tobytes() == y[left_ids].tobytes()
        assert right_ys.tobytes() == y[right_ids].tobytes()

    # Keys are 64-bit here: a rank of the normal column and a position among
    # 2**16 rows would overflow 32 bits.
    X = np.column_stack([rng.normal(size=2**16), rng.integers(0, 3, size=2**16)])
    y = np.round(rng.normal(size=2**16), 1)
    ids, feats = rng.integers(0, 2**16, size=50), np.array([1, 0])
    got = _SplitSearch(X, 1, 2).best_split(ids, y[ids], feats)
    expected = stable_sort_best_split(X, y, ids, feats, 1)
    assert got[:2] == expected[:2]
    np.testing.assert_array_equal(got[2], expected[2])
    np.testing.assert_array_equal(got[4], expected[3])


def test_a_fit_on_a_larger_blocks_rank_columns_equals_a_fit_on_its_own_ranks():
    rng = np.random.default_rng(21)
    n, d = 90, 6
    block = np.where(
        np.arange(d) % 2 == 0,
        rng.integers(0, 4, size=(n, d)).astype(float),
        rng.normal(size=(n, d)),
    )
    targets = np.round(rng.normal(size=n), 1)
    table = rank_table(block)
    assert table.shape == (d, n)
    params = ForestParams(n_trees=4, max_features=0.5, min_leaf=2, seed=3)
    for rows in (rng.choice(n, 50, replace=False), np.arange(0, n, 3), rng.permutation(n)):
        X, y = block[rows], targets[rows]
        want = model_to_json(fit_forest(X, y, params))
        ranks = table[:, rows]  # a gather of columns: not C-contiguous
        assert not ranks.flags.c_contiguous
        assert model_to_json(fit_forest(X, y, params, ranks=ranks)) == want
    with pytest.raises(ValueError, match=r"^ranks of shape \(6, 90\) for X of shape \(50, 6\)$"):
        fit_forest(block[:50], targets[:50], params, ranks=table)


def test_split_search_keys_are_c_contiguous_and_sized_by_rank_range_and_positions():
    n = 200  # positions take 8 bits
    base = np.tile(np.arange(n), (3, 1))
    X = base.T.astype(float)
    for shift, dtype in ((15, np.int32), (16, np.int64)):  # ranks of 23 and 24 bits
        ranks = np.asfortranarray(base << shift)
        keys = _SplitSearch(X, 1, 3, ranks).keys
        assert keys.dtype == dtype and keys.flags.c_contiguous
        assert np.array_equal(keys >> 8, base << shift)
