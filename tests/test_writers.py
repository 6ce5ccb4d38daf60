"""The dataset and model writers' files, byte for byte.

`tests/data/writers/` holds what `save_dataset` writes for the `toy_dataset`
fixture (one response has two memories) and what `save_model` writes for an
SVR with support vectors, an SVR with none (format version 2: support
vectors per block, each row once, with an index and a width) and a ridge
(version 1). A change to how a writer builds its document that moves a key, a
value or a number's text fails here. Forests are pinned by
`tests/data/forest_ties_golden.json`.
"""

from pathlib import Path

import numpy as np
import pytest

from memfuse.model import load_dataset, save_dataset
from memfuse.regressors import SvrParams, fit_ridge, fit_svr, load_model, save_model

WRITERS = Path(__file__).parent / "data" / "writers"


def _models() -> dict:
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 3))
    y = X @ np.array([0.5, -0.25, 0.125]) + 0.1 * rng.normal(size=8)
    no_support = fit_svr(X, 0.01 * y, SvrParams(epsilon=1.0))
    assert no_support.support_vectors.shape == (0, 3)
    return {
        "svr.json": fit_svr(X, y, SvrParams(c=2.0, epsilon=0.05)),
        "svr_no_support.json": no_support,
        "ridge.json": fit_ridge(X, y, 0.5),
    }


def test_dataset_file_bytes(tmp_path, toy_dataset):
    save_dataset(toy_dataset, tmp_path / "dataset.json")
    assert (tmp_path / "dataset.json").read_bytes() == (WRITERS / "dataset.json").read_bytes()


@pytest.mark.parametrize("name", ["svr.json", "svr_no_support.json", "ridge.json"])
def test_model_file_bytes(tmp_path, name):
    save_model(_models()[name], tmp_path / name)
    assert (tmp_path / name).read_bytes() == (WRITERS / name).read_bytes()


@pytest.mark.parametrize("name", ["svr.json", "svr_no_support.json", "ridge.json"])
def test_pinned_model_files_load_and_write_back_unchanged(tmp_path, name):
    save_model(load_model(WRITERS / name), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (WRITERS / name).read_bytes()


def test_pinned_dataset_file_loads_and_writes_back_unchanged(tmp_path):
    save_dataset(load_dataset(WRITERS / "dataset.json"), tmp_path / "dataset.json")
    assert (tmp_path / "dataset.json").read_bytes() == (WRITERS / "dataset.json").read_bytes()
