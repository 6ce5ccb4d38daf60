from .scaler import Scaler
from .svr import (
    Block,
    SvrDesign,
    SvrModel,
    SvrParams,
    distinct_rows,
    fit_svr,
    predict_svr,
    rbf_kernel_matrix,
)
from .ridge import RidgeModel, fit_ridge, predict_ridge
from .forest import ForestModel, ForestParams, fit_forest, predict_forest, rank_table
from .io import load_model, model_from_json, model_to_json, save_model

__all__ = [
    "Scaler",
    "Block",
    "SvrDesign",
    "SvrModel",
    "SvrParams",
    "distinct_rows",
    "fit_svr",
    "predict_svr",
    "rbf_kernel_matrix",
    "RidgeModel",
    "fit_ridge",
    "predict_ridge",
    "ForestModel",
    "ForestParams",
    "fit_forest",
    "predict_forest",
    "rank_table",
    "load_model",
    "model_from_json",
    "model_to_json",
    "save_model",
]
