import dataclasses
import json
import math

import numpy as np
import pytest

from memfuse.regressors import (
    Block,
    SvrDesign,
    SvrParams,
    fit_svr,
    model_from_json,
    model_to_json,
    load_model,
    predict_svr,
    rbf_kernel_matrix,
    save_model,
)
from memfuse.regressors import svr as svr_module
from memfuse.regressors.scaler import Scaler

from .oracles import (
    qp_oracle_svr_dual,
    smo_by_temporaries,
    standardized,
    svr_bias_from_beta,
    svr_dual_objective,
    svr_predictions_by_full_kernel,
)


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
    assert [sorted(block) for block in doc["sv_blocks"]] == [["index", "rows", "width"]]
    queries = rng.normal(size=(7, 4))
    for model in (fitted, model_from_json(doc)):
        sv = model.support_vectors
        ((rows, sq_norms, index),) = model.sv_blocks
        assert index is None and rows is sv
        assert np.array_equal(sq_norms, (sv * sv).sum(axis=1))
        K = rbf_kernel_matrix(sv, standardized(model.scaler, queries), model.params.gamma)
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


def test_a_fit_on_a_built_design_compares_no_rows(rng, monkeypatch):
    X = np.repeat(rng.normal(size=(4, 3)), 3, axis=0)  # rows repeat, as AV rows do
    y = rng.normal(size=12)
    design = SvrDesign(X)
    calls = []
    distinct_rows = svr_module.distinct_rows
    monkeypatch.setattr(
        svr_module, "distinct_rows", lambda rows: calls.append(len(rows)) or distinct_rows(rows)
    )
    fit_svr(X, y, SvrParams(), design=design)
    assert calls == []


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
    preds = design.predictions(iter(models), queries)
    assert len(preds) == len(models)
    for model, pred in zip(models, preds):
        assert np.array_equal(pred, predict_svr(model, queries))

    queries[3, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite values in prediction input"):
        predict_svr(models[0], queries)
    with pytest.raises(ValueError, match="non-finite values in prediction input"):
        design.predictions(models, queries)


def test_design_predictions_reject_a_model_of_another_design(rng):
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    model = fit_svr(X, y, SvrParams())
    with pytest.raises(ValueError, match="not fitted on this design"):
        SvrDesign(X).predictions([model], X)


@pytest.mark.parametrize(
    "case",
    [
        "short_support_indices",
        "narrow_support_vectors",
        "gamma_null",
        "gamma_nan",
        "gamma_text",
        "bias_nan",
        "dual_coefs_nan",
        "support_vectors_inf",
        "dual_coefs_column",
        "support_indices_column",
        "converged_text",
        "converged_number",
        "n_iter_fraction",
        "n_iter_bool",
        "support_indices_fraction",
        "support_indices_negative",
        "support_indices_repeated",
        "block_index_out_of_range",
        "block_index_fraction",
        "block_index_short",
        "block_rows_short_without_index",
        "block_widths_sum",
        "block_row_wrong_width",
        "block_row_nan",
        "format_version_1",
    ],
)
def test_model_from_json_rejects_an_inconsistent_document(rng, case):
    X = rng.normal(size=(20, 4))
    doc = model_to_json(fit_svr(X, X[:, 0] + 0.1 * rng.normal(size=20), SvrParams(epsilon=0.0)))
    n = len(doc["dual_coefs"])
    assert n > 2
    (block,) = doc["sv_blocks"]
    rows = block["rows"]
    assert len(rows) == n and block["index"] is None and block["width"] == 4
    indexed = {**block, "index": list(range(n))}
    for untouched in (doc, {**doc, "sv_blocks": [indexed]}):
        model_from_json(untouched)  # the untouched document loads, also with an index

    def blocks(**fields):
        return {"sv_blocks": [{**block, **fields}]}

    change, message = {
        "short_support_indices": (
            {"support_indices": doc["support_indices"][:2]}, "2 support indices"
        ),
        "narrow_support_vectors": (
            blocks(rows=[row[:-1] for row in rows]),
            r"^sv_blocks\[0\]\.rows must be a list of rows of its width 4$",
        ),
        "gamma_null": ({"params": {**doc["params"], "gamma": None}}, "gamma must be"),
        "gamma_nan": ({"params": {**doc["params"], "gamma": float("nan")}}, "gamma must be"),
        "gamma_text": ({"params": {**doc["params"], "gamma": "0.5"}}, "gamma must be"),
        "bias_nan": ({"bias": float("nan")}, "^bias must be finite"),
        "dual_coefs_nan": (
            {"dual_coefs": [float("nan"), *doc["dual_coefs"][1:]]}, "^dual_coefs must be finite"
        ),
        "support_vectors_inf": (
            blocks(rows=[[float("inf")] * 4, *rows[1:]]), r"^sv_blocks\[0\]\.rows must be finite"
        ),
        "dual_coefs_column": (
            {"dual_coefs": [[b] for b in doc["dual_coefs"]]},
            r"dual coefficients of shape \(\d+, 1\)",
        ),
        "support_indices_column": (
            {"support_indices": [[i] for i in doc["support_indices"]]},
            r"support indices of shape \(\d+, 1\)",
        ),
        "converged_text": ({"converged": "no"}, "^converged must be true or false, got 'no'"),
        "converged_number": ({"converged": 1}, "^converged must be true or false, got 1"),
        # Counts and indices must be integers as stored: int() would truncate 2.7 to 2.
        "n_iter_fraction": ({"n_iter": 2.7}, "^n_iter must be a non-negative integer, got 2.7"),
        "n_iter_bool": ({"n_iter": True}, "^n_iter must be a non-negative integer, got True"),
        "support_indices_fraction": (
            {"support_indices": [i + 0.5 for i in doc["support_indices"]]},
            "^support indices must be distinct non-negative integers",
        ),
        "support_indices_negative": (
            {"support_indices": [-1 - i for i in range(len(doc["support_indices"]))]},
            "^support indices must be distinct non-negative integers",
        ),
        "support_indices_repeated": (
            {"support_indices": [doc["support_indices"][0]] * len(doc["support_indices"])},
            "^support indices must be distinct non-negative integers",
        ),
        "block_index_out_of_range": (
            blocks(index=[*range(n - 1), n]),
            rf"^sv_blocks\[0\] must give {n} support vectors a row of {n}$",
        ),
        "block_index_fraction": (
            blocks(index=[i + 0.5 for i in range(n)]), r"^sv_blocks\[0\] must give"
        ),
        "block_index_short": (
            blocks(index=list(range(n - 1))), r"^sv_blocks\[0\] must give"
        ),
        "block_rows_short_without_index": (
            blocks(rows=rows[1:]),
            rf"^sv_blocks\[0\] must give {n} support vectors a row of {n - 1}$",
        ),
        "block_widths_sum": (
            blocks(width=3),
            r"^block widths \[3\] must be positive integers that sum to the scaler's 4$",
        ),
        "block_row_wrong_width": (
            blocks(rows=[*rows[:-1], rows[-1][:-1]]),
            r"^sv_blocks\[0\]\.rows must be a list of rows of its width 4$",
        ),
        "block_row_nan": (
            blocks(rows=[*rows[:-1], [0.0, float("nan"), 0.0, 0.0]]),
            r"^sv_blocks\[0\]\.rows must be finite",
        ),
        # Version 1 stored full support-vector rows; such a file is not read.
        "format_version_1": (
            {"format_version": 1}, "^unsupported model format version 1 for kind 'svr'$"
        ),
    }[case]
    with pytest.raises(ValueError, match=message):
        model_from_json({**doc, **change})


def test_max_passes_flag(rng):
    n = 30
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    for base in (SvrParams(c=10.0, epsilon=0.0), SvrParams()):
        for max_passes in (1, 2, 5):
            params = dataclasses.replace(base, max_passes=max_passes)
            model = fit_svr(X, y, params)
            assert not model.converged and model.n_iter == max_passes
            # The recorded gap is that of the beta returned, not the one before the last step.
            beta = _full_beta(model, n)
            Xs = standardized(model.scaler, X)
            grad = y - rbf_kernel_matrix(Xs, Xs, model.params.gamma) @ beta
            c, eps = params.c, params.epsilon
            d_up = np.where(beta < c, grad - np.where(beta >= 0, eps, -eps), -np.inf)
            d_dn = np.where(beta > -c, grad - np.where(beta > 0, eps, -eps), np.inf)
            assert model.kkt_gap == pytest.approx(d_up.max() - d_dn.min(), rel=1e-9, abs=1e-12)


def _smo_case(name):
    """(K, y, params) of one named solve for the comparison with the reference loop."""
    if name == "score-underflow":
        # Rows 0 and 2 are one point, so eta(0, 2) is floored at 1e-12. With
        # targets near 1e-161, row 2's violation (~5e-163) squared underflows
        # to a score of 0 that ties with row 1's v = 0, and the floored eta
        # still lets each step gain.
        X = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 0.0]])
        y = np.array([5.02e-162, -1.1356e-161, 4.48e-162])
        return rbf_kernel_matrix(X, X, 0.92), y, SvrParams(c=1.0, epsilon=0.0, tol=1e-320, max_passes=200)
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "av-160-over-24":
        # 24 distinct rows over 160 samples, as a video's AV vector repeats once per viewer.
        X = rng.normal(size=(24, 3))[rng.integers(0, 24, size=160)]
    else:
        X = rng.normal(size=(int(name[5:]) if name.startswith("rbf-n") else 80, 3))
    n = len(X)
    y = np.full(n, 0.37) if name == "constant-y" else rng.normal(size=n)
    params = {
        "eps-0": SvrParams(c=3.0, epsilon=0.0),
        "eps-above-range": SvrParams(c=3.0, epsilon=float(np.ptp(y)) + 1.0),
        "small-c": SvrParams(c=0.02, epsilon=0.1),
        "max-passes-1": SvrParams(c=3.0, epsilon=0.1, max_passes=1),
        "max-passes-7": SvrParams(c=3.0, epsilon=0.1, max_passes=7),
    }.get(name, SvrParams(c=3.0, epsilon=0.1))
    return rbf_kernel_matrix(X, X, 1.0 / 3), y, params


@pytest.mark.parametrize(
    "case",
    [
        "rbf-n2",
        "rbf-n3",
        "rbf-n17",
        "rbf-n80",
        "rbf-n160",
        "av-160-over-24",
        "eps-0",
        "eps-above-range",
        "small-c",
        "constant-y",
        "max-passes-1",
        "max-passes-7",
        "score-underflow",
    ],
)
def test_smo_is_bit_equal_to_the_reference_loop(case):
    K, y, params = _smo_case(case)
    beta, bias, converged, n_iter, gap = svr_module._solve(K, y, params)
    ref_beta, ref_bias, ref_converged, ref_n_iter, ref_gap = smo_by_temporaries(K, y, params)
    assert beta.tobytes() == ref_beta.tobytes()
    assert (bias, n_iter) == (ref_bias, ref_n_iter)
    if n_iter < params.max_passes:
        assert (converged, gap) == (ref_converged, ref_gap)
    else:  # the reference loop reports every capped solve as not converged
        assert converged == (gap <= params.tol)
    # Each case reaches what its name says.
    eta = np.diag(K)[:, None] + np.diag(K) - 2.0 * K.T
    if case in ("av-160-over-24", "score-underflow"):
        assert (eta[~np.eye(len(y), dtype=bool)] <= 1e-12).any()
    if case == "eps-above-range":
        assert not beta.any() and converged
    if case == "small-c":
        assert np.mean(np.abs(beta) == params.c) > 0.5
    assert converged == (not case.startswith("max-passes") and case != "score-underflow")


def test_a_fit_that_max_passes_stops_at_a_solution_is_converged():
    X, y = np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
    capped = fit_svr(X, y, SvrParams(c=10.0, epsilon=0.1, max_passes=1))
    free = fit_svr(X, y, SvrParams(c=10.0, epsilon=0.1))
    assert (capped.n_iter, capped.kkt_gap, capped.converged) == (1, 0.0, True)
    assert (free.n_iter, free.converged) == (1, True)
    assert capped.dual_coefs.tobytes() == free.dual_coefs.tobytes()


@pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
def test_params_reject_a_non_integer_max_passes(value):
    with pytest.raises(ValueError, match="^max_passes must be a positive integer"):
        SvrParams(max_passes=value)


def test_params_accept_a_numpy_integer_max_passes(rng):
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    model = fit_svr(X, y, SvrParams(c=10.0, epsilon=0.0, max_passes=np.int64(2)))
    assert model.n_iter == 2 and not model.converged


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
    Xs = standardized(model.scaler, X)
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

    Xs = standardized(model.scaler, X)
    K = rbf_kernel_matrix(Xs, Xs, model.params.gamma)
    beta_smo = _full_beta(model, n)
    beta_oracle = qp_oracle_svr_dual(K, y, params.c, params.epsilon)

    obj_smo = svr_dual_objective(K, y, beta_smo, params.epsilon)
    obj_oracle = svr_dual_objective(K, y, beta_oracle, params.epsilon)
    assert abs(obj_smo - obj_oracle) <= 1e-3

    bias_oracle = svr_bias_from_beta(K, y, beta_oracle, params.c, params.epsilon)
    X_test = rng.normal(size=(15, d))
    K_test = rbf_kernel_matrix(Xs, standardized(model.scaler, X_test), model.params.gamma)
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
    ((rows, sq_norms, index),) = design.blocks
    assert index is None
    monkeypatch.setattr(svr_module, "rbf_kernel_matrix", recording)
    gamma, gram = design.gram(SvrParams())
    assert [(a is sq_norms, b is sq_norms) for a, b in seen] == [(True, True)]
    assert gram.tobytes() == kernel(rows, rows, gamma).tobytes()


def _kernel_by_doubled_operand(A, B, gamma):
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - (2.0 * A) @ B.T
    return np.exp(-gamma * np.maximum(sq, 0.0))


def test_kernel_of_two_blocks_is_byte_equal_to_doubling_an_operand(rng):
    # The first shape is a predict call of a visual SVR: one query row of 8709 values.
    for n_a, n_b, d in ((170, 1, 8709), (30, 7, 13), (5, 60, 3), (1, 1, 8), (40, 25, 300)):
        A, B = rng.normal(size=(n_a, d)), rng.normal(size=(n_b, d))
        gamma = 1.0 / d
        expected = _kernel_by_doubled_operand(A, B, gamma)
        assert rbf_kernel_matrix(A, B, gamma).tobytes() == expected.tobytes()


def test_gram_is_byte_equal_to_doubling_an_operand(rng):
    # On these shapes numpy's syrk for rows @ rows.T rounds differently from the
    # gemm for (2.0 * rows) @ rows.T, so doubling the Gram's product would fail here.
    for n, d in ((12, 3), (60, 50)):
        design = SvrDesign(rng.normal(size=(n, d)))
        gamma, gram = design.gram(SvrParams())
        rows = design.blocks[0].rows
        expected = _kernel_by_doubled_operand(rows, rows, gamma)
        assert gram.tobytes() == expected.tobytes()


def _fit_on_repeated_rows(rng, n_distinct=6, repeats=8, d=5):
    """A fit on rows that repeat `n_distinct` vectors, as AV rows repeat per viewer."""
    base = rng.normal(size=(n_distinct, d))
    X = base[np.tile(np.arange(n_distinct), repeats)]
    y = X[:, 0] + rng.normal(size=X.shape[0])  # one vector, many targets: many support vectors
    return X, fit_svr(X, y, SvrParams(c=2.0, epsilon=0.05))


def test_distinct_support_vectors_predict_bit_equal_to_the_full_kernel(rng):
    X = rng.normal(size=(40, 6))
    model = fit_svr(X, np.sin(X[:, 0]) + 0.1 * rng.normal(size=40), SvrParams(c=3.0))
    (distinct,) = model.sv_blocks
    assert distinct.index is None
    assert distinct.rows is model.support_vectors
    queries = rng.normal(size=(9, 6))
    for block in (queries, queries[:1], queries[4]):
        want = svr_predictions_by_full_kernel(model, block)
        assert predict_svr(model, block).tobytes() == want.tobytes()


def test_repeated_support_vectors_share_one_kernel_row(rng, monkeypatch):
    X, model = _fit_on_repeated_rows(rng)
    sv, (distinct,) = model.support_vectors, model.sv_blocks
    assert sv.shape[0] > 6 and distinct.rows.shape[0] == 6
    assert distinct.index.dtype == np.intp
    assert distinct.rows[distinct.index].tobytes() == sv.tobytes()
    assert np.array_equal(distinct.sq_norms, (distinct.rows * distinct.rows).sum(axis=1))
    # Distinct rows in order of first occurrence, and equal rows on one index.
    first_seen = [distinct.index.tolist().index(k) for k in range(6)]
    assert first_seen == sorted(first_seen)
    for i in range(sv.shape[0]):
        for j in range(sv.shape[0]):
            assert (distinct.index[i] == distinct.index[j]) == np.array_equal(sv[i], sv[j])

    kernels = []
    kernel = svr_module.rbf_kernel_matrix

    def recording(A, B, gamma, A_sq_norms=None, B_sq_norms=None):
        kernels.append(A.shape)
        return kernel(A, B, gamma, A_sq_norms, B_sq_norms)

    monkeypatch.setattr(svr_module, "rbf_kernel_matrix", recording)
    queries = np.concatenate([X[:3], rng.normal(size=(20, 5))])
    for block in (queries, queries[:1], queries[7]):
        want = svr_predictions_by_full_kernel(model, block)
        assert np.max(np.abs(predict_svr(model, block) - want)) <= 1e-12
    assert kernels == [(6, 5)] * 3  # the module-level kernel, on the distinct rows only


def test_distinct_rows_of_a_list_equal_those_of_the_stacked_matrix(rng):
    videos = rng.normal(size=(4, 5))
    rows = [videos[v] for v in (2, 0, 2, 3, 0, 0)]
    for given in (rows, np.vstack(rows)):
        vectors, index = svr_module.distinct_rows(given)
        assert vectors.tobytes() == videos[[2, 0, 3]].tobytes()
        assert index.dtype == np.intp and index.tolist() == [0, 1, 0, 2, 1, 1]
    vectors, index = svr_module.distinct_rows([videos[1]])
    assert index is None and vectors.tobytes() == videos[1:2].tobytes()


@pytest.mark.parametrize(
    "rows, merged",
    [
        ([[0.0, 1.0], [-0.0, 1.0]], True),  # equal as floats
        (np.array([[2**53, 1], [2**53 + 1, 1]]), True),  # one float once converted
        ([[1.0, np.nan], [1.0, np.nan]], False),  # NaN equals nothing
    ],
    ids=["signed_zero", "int_rounding", "nan"],
)
def test_distinct_rows_compare_rows_as_floats(rows, merged):
    vectors, index = svr_module.distinct_rows(rows)
    first = np.asarray(rows[0], dtype=float)
    if merged:
        assert index.tolist() == [0, 0] and vectors.tobytes() == first.tobytes()
    else:
        assert index is None and vectors.shape == (2, 2)
    # The same array passed twice is one row, unless it holds a NaN.
    vectors, index = svr_module.distinct_rows([first, first])
    assert (index is not None) == merged


def test_rows_of_equal_norm_but_other_values_are_not_merged():
    A = np.array([[3.0, 4.0, 0.0], [0.0, 3.0, 4.0], [3.0, 4.0, 0.0], [4.0, 0.0, 3.0],
                  [0.0, 3.0, 4.0], [5.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    # Rows are tied by their sums, which [3, 4, 0], [0, 3, 4] and [4, 0, 3] share.
    rows, index = svr_module.distinct_rows(A)
    assert rows.tolist() == [[3, 4, 0], [0, 3, 4], [4, 0, 3], [5, 0, 0], [1, 1, 1]]
    assert index.tolist() == [0, 1, 0, 2, 1, 3, 4]
    assert svr_module.distinct_rows(A[[0, 1, 3, 5]]).index is None
    norms = (rows * rows).sum(axis=1)
    assert norms.tolist() == [25.0] * 4 + [3.0]

    model = svr_module.SvrModel(
        sv_blocks=(svr_module._DistinctRows(rows, norms, index),),
        dual_coefs=np.array([0.5, -0.25, 0.125, 1.0, -2.0, 0.75, -0.125]),
        bias=0.3,
        params=SvrParams(gamma=0.02),
        scaler=Scaler(np.zeros(3), np.ones(3)),
        converged=True,
        n_iter=0,
        kkt_gap=0.0,
        support_indices=np.arange(7),
    )
    queries = np.array([[3.0, 4.0, 0.0], [0.0, 3.0, 4.0], [1.0, 2.0, 3.0]])
    want = svr_predictions_by_full_kernel(model, queries)
    assert np.max(np.abs(predict_svr(model, queries) - want)) <= 1e-12


def test_distinct_tells_rows_apart_by_index_alone():
    A = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0]])  # rows 0 and 2 are equal
    norms = (A * A).sum(axis=1)
    # Unread rows are dropped, read rows come in order of first occurrence, norms follow.
    rows, sq_norms, index = svr_module._distinct(A, np.array([3, 0, 3, 0]), norms)
    assert rows.tolist() == [[5, 6], [1, 2]] and sq_norms.tolist() == [61.0, 5.0]
    assert index.dtype == np.intp and index.tolist() == [0, 1, 0, 1]
    # Equal rows at two places stay two rows: a Block's rows are distinct.
    rows, sq_norms, index = svr_module._distinct(A, np.array([2, 0, 2, 1]), norms)
    assert rows.tolist() == [[1, 2], [1, 2], [3, 4]] and index.tolist() == [0, 1, 0, 2]
    rows, sq_norms, index = svr_module._distinct(A, np.array([2, 0]))
    assert rows.tolist() == [[1, 2], [1, 2]] and sq_norms is None and index is None
    rows, sq_norms, index = svr_module._distinct(A, None, norms)
    assert rows is A and sq_norms is norms and index is None


def test_models_with_no_and_with_one_support_vector(rng):
    X = rng.normal(size=(12, 4))
    y = 0.1 * rng.normal(size=12)
    none = fit_svr(X, y, SvrParams(epsilon=10.0))
    assert none.support_vectors.shape == (0, 4)
    assert none.sv_blocks[0].rows.shape == (0, 4) and none.sv_blocks[0].index is None
    two = fit_svr(X, y, SvrParams(epsilon=0.0))
    one = dataclasses.replace(
        two,
        sv_blocks=SvrDesign(X).sv_blocks(two.support_indices[:1]),
        dual_coefs=two.dual_coefs[:1],
        support_indices=two.support_indices[:1],
    )
    assert one.sv_blocks[0].rows.shape == (1, 4) and one.sv_blocks[0].index is None
    queries = rng.normal(size=(5, 4))
    loaded = [model_from_json(model_to_json(model)) for model in (none, one)]
    for model in (none, one, *loaded):
        for block in (queries, queries[0]):
            want = svr_predictions_by_full_kernel(model, block)
            assert predict_svr(model, block).tobytes() == want.tobytes()


def test_saved_and_loaded_models_predict_bit_equal_and_write_each_distinct_row_once(
    rng, tmp_path
):
    X, repeated = _fit_on_repeated_rows(rng)
    distinct = fit_svr(X + rng.normal(size=X.shape), X[:, 0], SvrParams(c=2.0))
    queries = rng.normal(size=(11, 5))
    for name, fitted in (("repeated", repeated), ("distinct", distinct)):
        path = tmp_path / f"{name}.json"
        save_model(fitted, path)
        ((fitted_rows, _, fitted_index),) = fitted.sv_blocks
        (saved,) = json.loads(path.read_text(encoding="utf-8"))["sv_blocks"]
        assert len({tuple(row) for row in saved["rows"]}) == len(saved["rows"]) == len(fitted_rows)
        if name == "repeated":
            assert len(saved["rows"]) == 6 < fitted.dual_coefs.size
            assert saved["index"] == fitted_index.tolist()
        else:
            assert saved["index"] is None and fitted_index is None
        loaded = load_model(path)
        ((loaded_rows, _, loaded_index),) = loaded.sv_blocks
        assert loaded_rows.tobytes() == fitted_rows.tobytes()
        assert np.array_equal(loaded_index, fitted_index)
        for block in (queries, queries[2]):
            assert predict_svr(loaded, block).tobytes() == predict_svr(fitted, block).tobytes()


def test_design_predictions_equal_predict_svr_on_repeated_rows(rng):
    X, _ = _fit_on_repeated_rows(rng)
    y = X[:, 1] + rng.normal(size=X.shape[0])
    design = SvrDesign(X)
    models = [
        fit_svr(X, y, SvrParams(c=c, epsilon=eps), design=design)
        for c in (0.5, 4.0)
        for eps in (0.0, 0.1)
    ]
    assert all(m.sv_blocks[0].index is not None for m in models)
    queries = np.concatenate([X[:4], rng.normal(size=(9, 5))])
    for block in (queries, queries[:1]):
        preds = design.predictions(models, block)
        for model, pred in zip(models, preds):
            assert pred.tobytes() == predict_svr(model, block).tobytes()


def _ulp_noise(K, rng):
    """K with every entry moved one ulp up or down at random, kept symmetric."""
    up = np.triu(rng.random(K.shape) < 0.5)
    up |= up.T
    return np.where(up, np.nextafter(K, np.inf), np.nextafter(K, -np.inf))


def test_one_ulp_of_gram_noise_moves_predictions_by_less_than_1e_minus_6(monkeypatch):
    # A stand-in for another BLAS reduction order, such as another thread
    # count: each Gram entry moves by one ulp. Such noise can change the SMO's
    # pivots and so its path, but at the default KKT tolerance of 1e-7 the
    # predictions stay within 1e-6.
    assert SvrParams().tol == 1e-7
    kernel = svr_module.rbf_kernel_matrix
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 6))
        y = np.sin(X[:, 0]) + 0.3 * rng.normal(size=60)
        queries = rng.normal(size=(20, 6))
        params = SvrParams(c=2.0, epsilon=0.05)
        plain = predict_svr(fit_svr(X, y, params), queries)
        noise = np.random.default_rng(100 + seed)

        def noisy(A, B, *args, noise=noise):
            K = kernel(A, B, *args)
            return _ulp_noise(K, noise) if A is B else K

        monkeypatch.setattr(svr_module, "rbf_kernel_matrix", noisy)
        perturbed = predict_svr(fit_svr(X, y, params), queries)
        monkeypatch.setattr(svr_module, "rbf_kernel_matrix", kernel)
        worst = max(worst, float(np.max(np.abs(plain - perturbed))))
    assert worst < 1e-6


def _av_like_blocks(rng, n=48, videos=6):
    """An audio-like block of a few rows shared by many samples, and a row per sample."""
    audio = rng.normal(size=(videos, 5))
    memory = rng.normal(size=(n, 3))
    index = rng.integers(0, videos, size=n)
    index[:videos] = np.arange(videos)  # every video is watched
    return audio, index, memory


def test_a_design_of_blocks_equals_one_of_their_stacked_rows_up_to_rounding(rng):
    audio, index, memory = _av_like_blocks(rng)
    stacked = np.hstack([audio[index], memory])
    factored = SvrDesign([Block(audio, index), Block(memory)])
    plain = SvrDesign(stacked)
    assert factored.widths == (5, 3) and plain.widths == (8,)
    assert factored.blocks[0].rows.shape == (6, 5)  # one row per video
    assert np.allclose(factored.scaler.means, plain.scaler.means, rtol=0, atol=1e-14)
    assert np.allclose(factored.scaler.stds, plain.scaler.stds, rtol=1e-14, atol=0)
    for params in (SvrParams(), SvrParams(gamma_scale=0.5), SvrParams(gamma=0.3)):
        (g1, K1), (g2, K2) = factored.gram(params), plain.gram(params)
        assert g1 == pytest.approx(g2, rel=1e-14)
        assert np.allclose(K1, K2, rtol=0, atol=1e-14)
    y = stacked[:, 0] + rng.normal(size=stacked.shape[0])
    params = SvrParams(c=2.0, epsilon=0.05)
    model = fit_svr([Block(audio, index), Block(memory)], y, params)
    assert model.widths == (5, 3)
    stacked_svs = plain.blocks[0].rows[model.support_indices]
    assert np.allclose(model.support_vectors, stacked_svs, rtol=0, atol=1e-13)
    queries = np.vstack([stacked[:5], rng.normal(size=(4, 8))])
    want = predict_svr(fit_svr(stacked, y, params), queries)
    assert np.max(np.abs(predict_svr(model, queries) - want)) < 1e-6


def test_designs_of_one_sample_set_stored_differently_are_bit_equal(rng):
    # A design reads rows by index, never by where they are stored: a block
    # whose vectors hold unused rows and the used ones in another order builds
    # the same design, model and predictions as the samples stored in order.
    audio, index, memory = _av_like_blocks(rng)
    y = audio[index, 0] + memory[:, 1] + rng.normal(size=index.size)
    stored = np.vstack([rng.normal(size=(2, 5)), audio[::-1]])  # row 7 - v holds video v
    blocks = {
        "once": [Block(audio, index), Block(memory)],
        "stored": [Block(stored, 7 - index), Block(memory[::-1], np.arange(index.size)[::-1])],
    }
    queries = [Block(audio, np.array([3, 0, 3, 5])), Block(rng.normal(size=(4, 3)))]
    models, preds = {}, {}
    for name, X in blocks.items():
        design = SvrDesign(X)
        models[name] = fit_svr(X, y, SvrParams(c=2.0, epsilon=0.05), design=design)
        preds[name] = design.predictions([models[name]], queries)[0]
    assert model_to_json(models["once"]) == model_to_json(models["stored"])
    assert preds["once"].tobytes() == preds["stored"].tobytes()
    full = np.hstack([audio[queries[0].index], queries[1].vectors])
    assert predict_svr(models["stored"], full).tobytes() == preds["once"].tobytes()
    assert design.predictions([models["stored"]], full)[0].tobytes() == preds["once"].tobytes()
    with pytest.raises(ValueError, match=r"expected block widths \(5, 3\), got \(3, 5\)"):
        design.predictions([models["stored"]], queries[::-1])


def test_a_model_fitted_on_blocks_builds_its_full_rows_only_when_they_are_read(rng):
    audio, index, memory = _av_like_blocks(rng)
    y = audio[index, 0] + rng.normal(size=index.size)
    model = fit_svr([Block(audio, index), Block(memory)], y, SvrParams(c=2.0, epsilon=0.05))
    audio_svs = model.sv_blocks[0]
    assert audio_svs.rows.shape[0] <= 6 < model.dual_coefs.size
    queries = np.hstack([audio[index[:9]], rng.normal(size=(9, 3))])
    predicted = predict_svr(model, queries)
    # A save writes the blocks as they are, and a load reads them back with their widths.
    loaded = model_from_json(json.loads(json.dumps(model_to_json(model))))
    assert "support_vectors" not in vars(model)
    assert loaded.widths == model.widths == (5, 3)
    for got, fitted in zip(loaded.sv_blocks, model.sv_blocks, strict=True):
        assert got.rows.tobytes() == fitted.rows.tobytes()
        assert got.sq_norms.tobytes() == fitted.sq_norms.tobytes()
        assert np.array_equal(got.index, fitted.index)
    assert predict_svr(loaded, queries).tobytes() == predicted.tobytes()
    assert model.support_vectors.shape == (model.dual_coefs.size, 8)
    assert "support_vectors" in vars(model)
    assert loaded.support_vectors.tobytes() == model.support_vectors.tobytes()


def test_a_constant_column_whose_summed_mean_is_inexact_is_constant():
    # The summed mean of [0.1] * 3 is inexact: such a column once read as varying, with a
    # std of ~1e-17, and a change of 1e-7 in it moved a prediction from 0.01 to the bias.
    X = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]])
    design = SvrDesign(X)
    assert design.n_varying == 1
    assert design.gram(SvrParams())[0] == 1.0
    model = fit_svr(X, np.array([0.0, 1.0, 2.0]), SvrParams(c=10.0, epsilon=0.01))
    at, near = predict_svr(model, np.array([[0.1, 1.0], [0.1 + 1e-7, 1.0]]))
    assert near == pytest.approx(at, abs=1e-9)


def test_scale_heuristic_gamma_is_gamma_scale_over_the_non_constant_columns(rng):
    X = rng.normal(size=(30, 5))
    X[:, 1] = 4.0  # constant
    X[:, 3] = 0.0  # constant
    design = SvrDesign(X)
    gamma, _ = design.gram(SvrParams(gamma_scale=1.5))
    assert gamma == 1.5 / 3
    rows = design.blocks[0].rows
    assert gamma == pytest.approx(1.5 / (5 * rows.var()), rel=1e-14)
    constant = SvrDesign(np.ones((6, 4)))
    assert constant.gram(SvrParams())[0] == 1.0 / 4
    assert SvrDesign(X).gram(SvrParams(gamma=0.7))[0] == 0.7
