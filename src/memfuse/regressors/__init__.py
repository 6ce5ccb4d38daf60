from .scaler import Scaler
from .svr import SvrDesign, SvrModel, SvrParams, fit_svr, predict_svr, rbf_kernel_matrix
from .ridge import RidgeModel, fit_ridge, predict_ridge
from .forest import ForestModel, ForestParams, fit_forest, predict_forest
from .io import load_model, model_from_json, model_to_json, save_model

__all__ = [
    "Scaler",
    "SvrDesign",
    "SvrModel",
    "SvrParams",
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
    "load_model",
    "model_from_json",
    "model_to_json",
    "save_model",
]
