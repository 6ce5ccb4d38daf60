import json

import numpy as np
import pytest

from memfuse.av import (
    AUDIO_DIM,
    FRAME_DIM,
    FeatureFormatError,
    load_audio_features,
    load_frame_features,
    load_manifest,
    load_video_features,
    pool_frames,
    save_feature_csv,
)


def _write_csv(path, matrix):
    save_feature_csv(path, np.asarray(matrix, dtype=float))


def _manifest(tmp_path, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_audio_paper_dimension(tmp_path, rng):
    path = tmp_path / "v1_audio.csv"
    _write_csv(path, rng.normal(size=(1, AUDIO_DIM)))
    audio = load_audio_features(path)
    assert audio.shape == (AUDIO_DIM,)


def test_audio_wrong_dimension_names_both(tmp_path, rng):
    path = tmp_path / "bad.csv"
    _write_csv(path, rng.normal(size=(1, AUDIO_DIM - 1)))
    with pytest.raises(FeatureFormatError, match=r"expected 1582.*got 1581"):
        load_audio_features(path)


def test_audio_nan_rejected_with_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,NaN,0.3\n", encoding="utf-8")
    with pytest.raises(FeatureFormatError, match=r"row 1, column 2"):
        load_audio_features(path, expected_dim=3)


def test_frames_paper_dimension(tmp_path, rng):
    path = tmp_path / "v1_frames.csv"
    _write_csv(path, rng.normal(size=(30, FRAME_DIM)))
    frames = load_frame_features(path)
    assert frames.shape == (30, FRAME_DIM)


def test_frames_empty_file_errors(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(FeatureFormatError, match="empty"):
        load_frame_features(path)


def test_frames_ragged_rows_error(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0.1,0.2\n0.3\n", encoding="utf-8")
    with pytest.raises(FeatureFormatError, match="ragged"):
        load_frame_features(path, expected_dim=2)


def test_frames_toy_override(tmp_path, rng):
    path = tmp_path / "toy.csv"
    _write_csv(path, rng.normal(size=(3, 4)))
    frames = load_frame_features(path, expected_dim=4)
    assert frames.shape == (3, 4)


def test_pool_single_frame_identity(rng):
    frame = rng.normal(size=(1, 6))
    pooled = pool_frames(frame)
    assert np.allclose(pooled, frame[0])


def test_pool_hand_mean():
    frames = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert np.allclose(pool_frames(frames), [1.0, 1.0])


def test_pool_repeated_vector_idempotent(rng):
    v = rng.normal(size=5)
    frames = np.tile(v, (7, 1))
    assert np.allclose(pool_frames(frames), v)


def test_pool_order_invariant(rng):
    mat = rng.normal(size=(9, 4))
    base = pool_frames(mat)
    shuffled = pool_frames(mat[rng.permutation(9)])
    assert np.allclose(base, shuffled)


def test_pool_concat_self_invariant(rng):
    mat = rng.normal(size=(5, 3))
    once = pool_frames(mat)
    doubled = pool_frames(np.vstack([mat, mat]))
    assert np.allclose(once, doubled)


def test_feature_file_roundtrip_bytes(tmp_path, rng):
    path = tmp_path / "feat.csv"
    _write_csv(path, rng.normal(size=(4, 6)))
    original = path.read_bytes()
    frames = load_frame_features(path, expected_dim=6)
    path2 = tmp_path / "feat2.csv"
    save_feature_csv(path2, frames)
    assert path2.read_bytes() == original


def test_manifest_roundtrip(tmp_path, rng):
    audio, frames = rng.normal(size=(1, 4)), rng.normal(size=(3, 5))
    _write_csv(tmp_path / "a.csv", audio)
    _write_csv(tmp_path / "f.csv", frames)
    manifest = {
        "audio_dim": 4,
        "frame_dim": 5,
        "videos": {"v1": {"audio": "a.csv", "frames": "f.csv"}},
    }
    mpath = tmp_path / "features_manifest.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    loaded = load_manifest(mpath)
    features = load_video_features(loaded)
    assert set(features) == {"v1"}
    assert np.array_equal(features["v1"]["audio"], audio[0])
    assert np.array_equal(features["v1"]["visual"], frames.mean(axis=0))


def test_audio_row_count_and_empty_file_errors(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0.1,0.2\n0.3,0.4\n", encoding="utf-8")
    with pytest.raises(FeatureFormatError, match="expected exactly 1 row, got 2"):
        load_audio_features(path, expected_dim=2)
    path.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(FeatureFormatError, match="expected exactly 1 row, got 0"):
        load_audio_features(path, expected_dim=2)


def test_manifest_defaults_to_the_paper_dimensions(tmp_path):
    loaded = load_manifest(_manifest(tmp_path, {"videos": {}}))
    assert (loaded.audio_dim, loaded.frame_dim) == (AUDIO_DIM, FRAME_DIM)


@pytest.mark.parametrize("key", ["audio_dim", "frame_dim"])
@pytest.mark.parametrize("value", [-3, 0, True, 3.7, 12.0, "12", None])
def test_manifest_rejects_a_dimension_that_is_not_a_positive_integer(tmp_path, key, value):
    path = _manifest(tmp_path, {key: value, "videos": {}})
    with pytest.raises(FeatureFormatError, match=rf"manifest\.json: '{key}' must be"):
        load_manifest(path)


@pytest.mark.parametrize(
    "entry",
    [{"audio": "a.csv"}, {"frames": "f.csv"}, {"audio": "a.csv", "frames": 3}, ["a.csv", "f.csv"]],
)
def test_manifest_rejects_a_video_without_both_paths(tmp_path, entry):
    videos = {"v1": {"audio": "a.csv", "frames": "f.csv"}, "v2": entry}
    path = _manifest(tmp_path, {"videos": videos})
    with pytest.raises(FeatureFormatError, match=r"manifest\.json: video 'v2' needs string"):
        load_manifest(path)


@pytest.mark.parametrize("doc", [{}, [], {"videos": ["v1"]}])
def test_manifest_rejects_a_document_without_a_videos_object(tmp_path, doc):
    with pytest.raises(FeatureFormatError, match=r"manifest\.json: manifest"):
        load_manifest(_manifest(tmp_path, doc))
