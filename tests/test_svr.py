import math

import numpy as np
import pytest

from memfuse.regressors import (
    SvrDesign,
    SvrParams,
    fit_svr,
    model_from_json,
    model_to_json,
    predict_svr,
    rbf_kernel_matrix,
)
from memfuse.regressors import svr as svr_module

from .oracles import qp_oracle_svr_dual, svr_bias_from_beta, svr_dual_objective


def _full_beta(model, n):
    beta = np.zeros(n)
    beta[model.support_indices] = model.dual_coefs
    return beta


def test_rbf_self_is_one(rng):
    X = rng.normal(size=(5, 4))
    assert np.diag(rbf_kernel_matrix(X, X, 0.7)) == pytest.approx(np.ones(5))


def test_rbf_hand_value():
    K = rbf_kernel_matrix(np.array([[0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]]), 1.0)
    assert K.shape == (1, 2)
    assert K[0] == pytest.approx([math.exp(-1.0), math.exp(-2.0)])


def test_rbf_range_property(rng):
    for _ in range(20):
        A, B = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        K = rbf_kernel_matrix(A, B, float(rng.uniform(0.1, 3.0)))
        assert np.all((K > 0.0) & (K <= 1.0))


def test_rbf_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        rbf_kernel_matrix(np.zeros((1, 2)), np.zeros((1, 3)), 1.0)


def test_constant_target_predicts_constant(rng):
    X = rng.normal(size=(12, 3))
    y = np.full(12, 0.37)
    model = fit_svr(X, y, SvrParams(c=1.0, epsilon=0.1))
    assert model.converged
    assert np.allclose(predict_svr(model, X), 0.37)


def test_line_fit_high_r2(rng):
    x = np.linspace(-1, 1, 20)
    y = 2 * x + 1
    model = fit_svr(x[:, None], y, SvrParams(c=100.0, epsilon=0.01))
    pred = predict_svr(model, x[:, None])
    ss_res = np.sum((y - pred) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    assert 1 - ss_res / ss_tot >= 0.99


def test_non_finite_input_rejected(rng):
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_svr(X, y, SvrParams())


def test_predict_rejects_non_finite_input(rng):
    X = rng.normal(size=(10, 3))
    model = fit_svr(X, rng.normal(size=10), SvrParams())
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            predict_svr(model, np.array([[bad, 0.0, 0.0]]))


def test_predict_with_stored_norms_is_bit_equal_to_a_fresh_kernel(rng):
    X = rng.normal(size=(30, 4))
    y = X[:, 0] + 0.1 * rng.normal(size=30)
    fitted = fit_svr(X, y, SvrParams(c=3.0, epsilon=0.05))
    doc = model_to_json(fitted)
    assert "sv_sq_norms" not in doc
    queries = rng.normal(size=(7, 4))
    for model in (fitted, model_from_json(doc)):
        sv = model.support_vectors
        assert np.array_equal(model.sv_sq_norms, (sv * sv).sum(axis=1))
        K = rbf_kernel_matrix(sv, model.scaler.transform(queries), model.params.gamma)
        assert np.array_equal(predict_svr(model, queries), model.dual_coefs @ K + model.bias)


def test_fits_on_a_shared_design_equal_fresh_fits_and_share_its_grams(rng, monkeypatch):
    grams = []
    kernel = svr_module.rbf_kernel_matrix

    def counting(A, B, gamma, A_sq_norms=None, B_sq_norms=None):
        grams.append(gamma)
        return kernel(A, B, gamma, A_sq_norms, B_sq_norms)

    X = rng.normal(size=(25, 3))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=25)
    points = [
        SvrParams(c=c, epsilon=eps, gamma_scale=scale)
        for scale in (1.0, 2.0)
        for c in (0.5, 4.0)
        for eps in (0.0, 0.1)
    ]
    fresh = [model_to_json(fit_svr(X, y, params)) for params in points]
    monkeypatch.setattr(svr_module, "rbf_kernel_matrix", counting)
    design = SvrDesign(X)
    shared = [model_to_json(fit_svr(X, y, params, design=design)) for params in points]
    assert shared == fresh
    assert len(grams) == 2  # one Gram per gamma_scale


def test_design_of_other_rows_rejected(rng):
    X = rng.normal(size=(10, 3))
    with pytest.raises(ValueError, match="design has rows"):
        fit_svr(X, rng.normal(size=10), SvrParams(), design=SvrDesign(X[:8]))


def test_design_predictions_are_bit_equal_to_predict_svr_at_every_point(rng):
    X = rng.normal(size=(40, 6))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=40)
    assert np.ptp(y) < 10.0  # so epsilon 10 leaves no support vector
    points = [
        SvrParams(c=c, epsilon=eps, gamma=gamma, gamma_scale=scale)
        for gamma, scale in ((None, 1.0), (None, 0.5), (0.3, 1.0))
        for c in (0.5, 4.0)
        for eps in (0.0, 0.1, 10.0)
    ]
    design = SvrDesign(X)
    models = [fit_svr(X, y, params, design=design) for params in points]
    assert [m.dual_coefs.size == 0 for m in models] == [p.epsilon == 10.0 for p in points]
    queries = rng.normal(size=(13, 6))
    preds = list(design.predictions(iter(models), queries))
    assert len(preds) == len(models)
    for model, pred in zip(models, preds):
        assert np.array_equal(pred, predict_svr(model, queries))

    queries[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite values in prediction input"):
        predict_svr(models[0], queries)
    with pytest.raises(ValueError, match="non-finite values in prediction input"):
        next(design.predictions(models, queries))


def test_design_predictions_reject_a_model_of_another_design(rng):
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    model = fit_svr(X, y, SvrParams())
    with pytest.raises(ValueError, match="not fitted on this design"):
        next(SvrDesign(X).predictions([model], X))


@pytest.mark.parametrize(
    "case",
    ["short_support_indices", "narrow_support_vectors", "gamma_null", "gamma_nan", "gamma_text"],
)
def test_model_from_json_rejects_an_inconsistent_document(rng, case):
    X = rng.normal(size=(20, 4))
    doc = model_to_json(fit_svr(X, X[:, 0] + 0.1 * rng.normal(size=20), SvrParams(epsilon=0.0)))
    assert len(doc["dual_coefs"]) > 2
    model_from_json(doc)  # the untouched document loads
    change, message = {
        "short_support_indices": (
            {"support_indices": doc["support_indices"][:2]}, "2 support indices"
        ),
        "narrow_support_vectors": (
            {"support_vectors": [row[:-1] for row in doc["support_vectors"]]},
            "scaler's 4 features",
        ),
        "gamma_null": ({"params": {**doc["params"], "gamma": None}}, "gamma must be"),
        "gamma_nan": ({"params": {**doc["params"], "gamma": float("nan")}}, "gamma must be"),
        "gamma_text": ({"params": {**doc["params"], "gamma": "0.5"}}, "gamma must be"),
    }[case]
    with pytest.raises(ValueError, match=message):
        model_from_json({**doc, **change})


def test_max_passes_flag(rng):
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = fit_svr(X, y, SvrParams(c=10.0, epsilon=0.0, max_passes=2))
    assert not model.converged


def test_dual_feasibility_invariants(rng):
    for trial in range(8):
        n = int(rng.integers(10, 40))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = rng.normal(size=n)
        params = SvrParams(c=float(rng.uniform(0.5, 20)), epsilon=float(rng.uniform(0, 0.3)))
        model = fit_svr(X, y, params)
        assert model.converged
        beta = _full_beta(model, n)
        assert np.all(np.abs(beta) <= params.c + 1e-12)
        assert abs(beta.sum()) <= 1e-6
        assert model.kkt_gap <= params.tol


def test_kkt_residuals_within_tol(rng):
    n = 30
    X = rng.normal(size=(n, 3))
    y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=n)
    params = SvrParams(c=5.0, epsilon=0.05)
    model = fit_svr(X, y, params)
    assert model.converged
    beta = _full_beta(model, n)
    Xs = model.scaler.transform(X)
    K = rbf_kernel_matrix(Xs, Xs, model.params.gamma)
    grad = y - K @ beta
    eps, c, b = params.epsilon, params.c, model.bias
    up_val = grad - np.where(beta >= 0, eps, -eps)
    dn_val = grad - np.where(beta > 0, eps, -eps)
    res_up = np.where(beta < c, np.maximum(0.0, up_val - b), 0.0)
    res_dn = np.where(beta > -c, np.maximum(0.0, b - dn_val), 0.0)
    assert res_up.max() <= params.tol + 1e-9
    assert res_dn.max() <= params.tol + 1e-9


def test_interior_support_vector_within_epsilon(rng):
    n = 25
    X = rng.normal(size=(n, 2))
    y = X[:, 0] + 0.3 * rng.normal(size=n)
    params = SvrParams(c=10.0, epsilon=0.2)
    model = fit_svr(X, y, params)
    beta = _full_beta(model, n)
    pred = predict_svr(model, X)
    interior = (beta != 0) & (np.abs(beta) < params.c * (1 - 1e-9))
    for idx in np.flatnonzero(interior):
        assert abs(y[idx] - pred[idx]) <= params.epsilon + 2 * params.tol


def test_row_permutation_invariance(rng):
    n = 24
    X = rng.normal(size=(n, 3))
    y = X @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.normal(size=n)
    params = SvrParams(c=5.0, epsilon=0.05, tol=1e-7)
    base = predict_svr(fit_svr(X, y, params), X)
    perm = rng.permutation(n)
    permuted = predict_svr(fit_svr(X[perm], y[perm], params), X)
    assert np.max(np.abs(base - permuted)) < 1e-6


def test_predict_dim_mismatch(rng):
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    model = fit_svr(X, y, SvrParams())
    with pytest.raises(ValueError, match="mismatch"):
        predict_svr(model, rng.normal(size=(4, 2)))


@pytest.mark.parametrize("trial", range(5))
def test_smo_matches_qp_oracle(trial, rng):
    rng = np.random.default_rng(900 + trial)
    n = int(rng.integers(10, 50))
    d = int(rng.integers(1, 6))
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    params = SvrParams(
        c=float(rng.uniform(0.5, 10.0)),
        epsilon=float(rng.uniform(0.0, 0.2)),
        tol=1e-4,
    )
    model = fit_svr(X, y, params)
    assert model.converged

    Xs = model.scaler.transform(X)
    K = rbf_kernel_matrix(Xs, Xs, model.params.gamma)
    beta_smo = _full_beta(model, n)
    beta_oracle = qp_oracle_svr_dual(K, y, params.c, params.epsilon)

    obj_smo = svr_dual_objective(K, y, beta_smo, params.epsilon)
    obj_oracle = svr_dual_objective(K, y, beta_oracle, params.epsilon)
    assert abs(obj_smo - obj_oracle) <= 1e-3

    bias_oracle = svr_bias_from_beta(K, y, beta_oracle, params.c, params.epsilon)
    X_test = rng.normal(size=(15, d))
    K_test = rbf_kernel_matrix(Xs, model.scaler.transform(X_test), model.params.gamma)
    pred_oracle = beta_oracle @ K_test + bias_oracle
    pred_smo = predict_svr(model, X_test)
    assert np.max(np.abs(pred_smo - pred_oracle)) <= 1e-3


@pytest.mark.parametrize("field", ["c", "epsilon", "gamma", "gamma_scale", "tol", "max_passes"])
def test_params_reject_nan(field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SvrParams(**{field: float("nan")})


def test_params_reject_infinite_c():
    with pytest.raises(ValueError, match="^c must be"):
        SvrParams(c=float("inf"))


def test_gram_passes_the_rows_norms_for_both_sides(rng, monkeypatch):
    seen = []
    kernel = svr_module.rbf_kernel_matrix

    def recording(A, B, gamma, A_sq_norms=None, B_sq_norms=None):
        seen.append((A_sq_norms, B_sq_norms))
        return kernel(A, B, gamma, A_sq_norms, B_sq_norms)

    X = rng.normal(size=(12, 3))
    design = SvrDesign(X)
    monkeypatch.setattr(svr_module, "rbf_kernel_matrix", recording)
    gamma, gram = design.gram(SvrParams())
    assert [(a is design.row_sq_norms, b is design.row_sq_norms) for a, b in seen] == [(True, True)]
    assert gram.tobytes() == kernel(design.rows, design.rows, gamma).tobytes()
