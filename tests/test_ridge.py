import numpy as np
import pytest

from memfuse.regressors import (
    Scaler,
    SvrParams,
    fit_ridge,
    fit_svr,
    model_from_json,
    model_to_json,
    predict_ridge,
)
from memfuse.regressors.scaler import column_moments

from .oracles import ridge_normal_equations, standardized


def test_scaler_standardizes_training_data(rng):
    X = rng.normal(loc=3.0, scale=2.5, size=(40, 4))
    X[:, 2] = 7.0  # constant column
    _, Xs = Scaler.fit_transform(X)
    assert np.all(np.abs(Xs.mean(axis=0)) < 1e-9)
    stds = Xs.std(axis=0)
    assert np.allclose(stds[[0, 1, 3]], 1.0)
    assert stds[2] == 0.0  # constant column maps to zeros


def test_scaler_rejects_columns_too_large_to_standardize(rng):
    X = rng.normal(size=(10, 3))
    X[:, 1] = np.where(X[:, 1] > 0, 1e200, -1e200)  # finite, but its squares overflow
    y = rng.normal(size=10)
    for fit in (
        Scaler.fit_transform, lambda X: fit_svr(X, y, SvrParams()), lambda X: fit_ridge(X, y, 1.0)
    ):
        with pytest.raises(ValueError, match="^columns too large to standardize"):
            fit(X)
    X[:, 1] = 1e150  # large but standardizable: the column is constant
    scaler, _ = Scaler.fit_transform(X)
    assert np.array_equal(scaler.means, X.mean(axis=0))
    assert np.array_equal(scaler.stds, np.where(X.std(axis=0) == 0, 1.0, X.std(axis=0)))


def test_exact_line_recovers_slope():
    x = np.arange(10.0)
    y = 2.0 * x
    model = fit_ridge(x[:, None], y, alpha=0.0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-10)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(predict_ridge(model, x[:, None]), y)


def test_large_alpha_collapses_to_mean(rng):
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    model = fit_ridge(X, y, alpha=1e9)
    pred = predict_ridge(model, X)
    assert np.max(np.abs(pred - y.mean())) < 1e-3


def test_matches_normal_equation_oracle(rng):
    for _ in range(20):
        X = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        alpha = float(rng.uniform(0.01, 10.0))
        model = fit_ridge(X, y, alpha)
        w_ref, b_ref = ridge_normal_equations(X, y, alpha)
        assert np.max(np.abs(model.weights - w_ref)) < 1e-8
        assert abs(model.intercept - b_ref) < 1e-8


def test_singular_at_zero_alpha(rng):
    X = rng.normal(size=(10, 3))
    X[:, 2] = X[:, 1]  # exact collinearity
    y = rng.normal(size=10)
    with pytest.raises(ValueError, match="alpha > 0"):
        fit_ridge(X, y, alpha=0.0)


def test_objective_at_solution_beats_perturbations(rng):
    X = rng.normal(size=(25, 4))
    y = X @ np.array([0.5, -1.0, 0.2, 0.0]) + 0.2 * rng.normal(size=25)
    alpha = 2.0
    model = fit_ridge(X, y, alpha)
    scaler = model.scaler
    Xs = standardized(scaler, X)
    yc = y - y.mean()
    w_star = model.weights * scaler.stds

    def objective(w):
        resid = yc - Xs @ w
        return resid @ resid + alpha * (w @ w)

    best = objective(w_star)
    for _ in range(100):
        assert best <= objective(w_star + rng.normal(scale=0.05, size=4)) + 1e-12


def test_row_permutation_invariance(rng):
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = fit_ridge(X, y, 1.0)
    perm = rng.permutation(20)
    permuted = fit_ridge(X[perm], y[perm], 1.0)
    assert np.max(np.abs(predict_ridge(model, X) - predict_ridge(permuted, X))) < 1e-6


def test_negative_alpha_rejected(rng):
    with pytest.raises(ValueError, match="non-negative"):
        fit_ridge(rng.normal(size=(5, 2)), rng.normal(size=5), -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_ridge_rejects_non_finite_input(rng, bad):
    model = fit_ridge(rng.normal(size=(10, 2)), rng.normal(size=10), 1.0)
    with pytest.raises(ValueError, match="^non-finite values in prediction input"):
        predict_ridge(model, np.array([[bad, 0.0]]))


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_non_finite_alpha_rejected(rng, alpha):
    with pytest.raises(ValueError, match="^alpha must be non-negative and finite"):
        fit_ridge(rng.normal(size=(5, 2)), rng.normal(size=5), alpha)


_BAD_SCALERS = {
    "zero_std": lambda s: {**s, "stds": [0.0, *s["stds"][1:]]},
    "negative_std": lambda s: {**s, "stds": [-1.0, *s["stds"][1:]]},
    "infinite_std": lambda s: {**s, "stds": [float("inf"), *s["stds"][1:]]},
    "nan_mean": lambda s: {**s, "means": [float("nan"), *s["means"][1:]]},
    "short_stds": lambda s: {**s, "stds": s["stds"][:-1]},
    "2d": lambda s: {"means": [s["means"]], "stds": [s["stds"]]},
}


_BAD_RIDGES = {
    "weights_nan": (lambda d: {"weights": [float("nan"), *d["weights"][1:]]}, "^weights must be"),
    "weights_inf": (lambda d: {"weights": [*d["weights"][:-1], float("inf")]}, "^weights must be"),
    "intercept_nan": (lambda d: {"intercept": float("nan")}, "^intercept must be finite"),
    "intercept_inf": (lambda d: {"intercept": float("-inf")}, "^intercept must be finite"),
    "weights_2d": (lambda d: {"weights": [d["weights"]]}, r"^weights of shape \(1, 3\)"),
    "weights_short": (lambda d: {"weights": d["weights"][:-1]}, "scaler's 3 features"),
    "alpha_negative": (lambda d: {"alpha": -0.5}, "^alpha must be non-negative and finite"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RIDGES))
def test_model_from_json_rejects_a_ridge_that_cannot_predict(rng, case):
    X = rng.normal(size=(20, 3))
    doc = model_to_json(fit_ridge(X, X[:, 0] + 0.1 * rng.normal(size=20), 1.0))
    model_from_json(doc)  # the untouched document loads
    change, message = _BAD_RIDGES[case]
    with pytest.raises(ValueError, match=message):
        model_from_json({**doc, **change(doc)})


@pytest.mark.parametrize("kind", ["svr", "ridge"])
@pytest.mark.parametrize("case", sorted(_BAD_SCALERS))
def test_model_from_json_rejects_a_scaler_that_cannot_standardize(rng, kind, case):
    X = rng.normal(size=(20, 3))
    X[:, 1] = 5.0  # fitted with std 0, stored as 1
    y = X[:, 0] + 0.1 * rng.normal(size=20)
    doc = model_to_json(fit_svr(X, y, SvrParams()) if kind == "svr" else fit_ridge(X, y, 1.0))
    assert doc["scaler"]["stds"][1] == 1.0
    model_from_json(doc)  # the untouched document loads
    with pytest.raises(ValueError, match="^scaler "):
        model_from_json({**doc, "scaler": _BAD_SCALERS[case](doc["scaler"])})


def test_column_moments_of_counted_rows_are_those_of_the_rows_repeated(rng):
    X = rng.normal(loc=2.0, scale=3.0, size=(7, 5))
    X[:, 3] = -1.5  # constant
    means, stds, centered = column_moments(X)
    assert means.tobytes() == X.mean(axis=0).tobytes()
    assert stds.tobytes() == X.std(axis=0).tobytes()
    assert centered.tobytes() == (X - X.mean(axis=0)).tobytes()
    counts = np.array([1, 4, 2, 1, 3, 1, 5])
    repeated = np.repeat(X, counts, axis=0)
    means, stds, centered = column_moments(X, counts)
    assert np.allclose(means, repeated.mean(axis=0), rtol=1e-14, atol=0)
    assert np.allclose(stds, repeated.std(axis=0), rtol=1e-13, atol=1e-15)
    assert np.array_equal(centered, X - means)


def test_column_moments_find_a_constant_column_by_its_values():
    # The summed mean of [0.1] * 3 is inexact and once left the column a std of 1.39e-17.
    X = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]])
    for counts in (None, np.array([2, 1, 3])):
        means, stds, centered = column_moments(X, counts)
        assert means[0] == 0.1 and stds[0] == 0.0
        assert not centered[:, 0].any()


def test_a_constant_column_whose_summed_mean_is_inexact_is_singular_at_zero_alpha():
    X = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]])
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_ridge(X, np.array([0.0, 1.0, 2.0]), alpha=0.0)


def _ridge_two_pass(X, y, alpha):
    """(weights, intercept, means, stds) of `fit_ridge` with column moments taken first."""
    means, stds = X.mean(axis=0), X.std(axis=0)
    stds[stds == 0.0] = 1.0
    Xs = (X - means) / stds
    y_mean = float(y.mean())
    d = X.shape[1]
    augmented = np.vstack([Xs, np.sqrt(alpha) * np.eye(d)])
    w, *_ = np.linalg.lstsq(augmented, np.concatenate([y - y_mean, np.zeros(d)]), rcond=None)
    weights = w / stds
    return weights, y_mean - float(weights @ means), means, stds


@pytest.mark.parametrize("case", ["constant", "tied", "scaled_up"])
def test_one_pass_standardizing_fits_the_ridge_of_the_two_pass_form(rng, case):
    X = rng.normal(loc=1.5, scale=2.0, size=(30, 5))
    if case == "constant":
        X[:, 1] = 4.25
        X[:, 3] = 0.0
    elif case == "tied":
        X[:, 2] = X[:, 0]
        X[:, 4] = np.round(X[:, 4])  # tied values within a column
    else:
        X[:, [0, 3]] *= 1e120
    y = X[:, 0] / np.abs(X[:, 0]).max() + rng.normal(size=30)
    scaler, Xs = Scaler.fit_transform(X)
    weights, intercept, means, stds = _ridge_two_pass(X, y, 0.5)
    assert Xs.tobytes() == ((X - means) / stds).tobytes()
    model = fit_ridge(X, y, 0.5)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.intercept == intercept
    for got in (model.scaler, scaler):
        assert got.means.tobytes() == means.tobytes()
        assert got.stds.tobytes() == stds.tobytes()
    assert predict_ridge(model, X).tobytes() == (X @ weights + intercept).tobytes()
