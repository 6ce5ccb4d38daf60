"""The AV feature-file reader against its line-at-a-time oracle; writer and manifest checks."""

import json
import re
import warnings

import numpy as np
import pytest

from memfuse.av import (
    FeatureFormatError,
    _parse_rows,
    load_audio_features,
    load_manifest,
    load_video_features,
    save_feature_csv,
)

from .oracles import feature_rows_by_lines

EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1, -1.0 / 3.0]


def _file(tmp_path, text):
    path = tmp_path / "feat.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _assert_same_bytes(path, expected_dim):
    got, want = _parse_rows(path, expected_dim), feature_rows_by_lines(path, expected_dim)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def _oracle_error(path, expected_dim):
    with pytest.raises(FeatureFormatError) as oracle:
        feature_rows_by_lines(path, expected_dim)
    return str(oracle.value)


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (4, 9), (12, 300)])
def test_written_matrices_read_bit_equal_to_the_oracle(tmp_path, rng, shape):
    matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = matrix.ravel()
    flat[: len(EXTREMES)] = EXTREMES[: flat.size]
    path = tmp_path / "feat.csv"
    save_feature_csv(path, matrix)
    got = _assert_same_bytes(path, shape[1])
    assert got.tobytes() == matrix.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        # long decimals, halfway and near-halfway cases, underflow and spelling variants
        "0.1000000000000000055511151231257827021181583404541015625,"
        "1.00000000000000011102230246251565404236316680908203125,"
        "1.00000000000000011102230246251565404236316680908203126,"
        "123456789012345678901234567890123456789e-30\n",
        "2.2250738585072011e-308,2.4703282292062327e-324,2.4703282292062328e-324,1e-400\n",
        "+1.5,.5,5.,1E5\n-0,-0.0e0,0e-999,9007199254740993\n",
        # CRLF and lone CR line endings
        "1,2,3,4\r\n5,6,7,8\r\n",
        "1,2,3,4\r5,6,7,8\r",
        # blank and whitespace-only lines before, between and after rows
        "\n  \n1,2,3,4\n\t\n\n5,6,7,8\n \r\n\n",
        # a last line without a newline
        "1,2,3,4\n5,6,7,8",
        # spaces and tabs around fields
        " 1 ,\t2\t, 3,4 \n5 , 6,  7  ,\t8\n",
    ],
)
def test_hand_written_files_read_bit_equal_to_the_oracle(tmp_path, text):
    path = _file(tmp_path, text)
    width = max(line.count(",") + 1 for line in text.splitlines() if line.strip())
    _assert_same_bytes(path, width)


@pytest.mark.parametrize("text", ["", "\n", " \n\t\r\n  "])
def test_a_file_without_rows_reads_as_zero_rows_without_a_warning(tmp_path, text):
    path = _file(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _assert_same_bytes(path, 5)
    assert rows.shape == (0, 5)


@pytest.mark.parametrize(
    "text, expected_dim, message",
    [
        # a non-number names the file line, counting blank lines
        ("1,2\n\n  \n3,abc\n", 2, r":4: could not convert string to float: 'abc'$"),
        ("1,2\n3,4 5\n", 2, r":2: could not convert string to float: '4 5'$"),
        # '#' is a character, not the start of a comment
        ("#1,2\n", 2, r":1: could not convert string to float: '#1'$"),
        ("1,2 # note\n", 2, r":1: could not convert string to float: '2 # note'$"),
        # a trailing comma is an empty last field
        ("1,2,\n", 3, r":1: could not convert string to float: ''$"),
        # NaN and inf name the file line and the column from 1
        ("1,2\n\n3,inf\n", 2, r": non-finite value at row 3, column 2$"),
        ("nan,2\n", 2, r": non-finite value at row 1, column 1$"),
        ("1,-Infinity\n", 2, r": non-finite value at row 1, column 2$"),
        ("1,1e999\n", 2, r": non-finite value at row 1, column 2$"),
        ("1,2\n3\n", 2, r": ragged rows with widths \[1, 2\]$"),
    ],
)
def test_a_file_with_one_fault_raises_the_oracle_error(tmp_path, text, expected_dim, message):
    path = _file(tmp_path, text)
    with pytest.raises(FeatureFormatError, match=message) as err:
        _parse_rows(path, expected_dim)
    assert str(err.value) == _oracle_error(path, expected_dim)
    assert str(err.value).startswith(f"{path}:")


@pytest.mark.parametrize("field", ["1_000", "1_0.5", "-1_0e1_0"])
def test_digit_group_underscores_are_rejected(tmp_path, field):
    path = _file(tmp_path, f"2,{field}\n")
    message = rf":1: could not convert string to float: '{field}'$"
    with pytest.raises(FeatureFormatError, match=message):
        _parse_rows(path, 2)
    # The line-at-a-time reader accepted them through Python's float().
    assert feature_rows_by_lines(path, 2).shape == (1, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        # a non-number on line 1 and a short row on line 2: the ragged check runs first
        ("1,abc\n3\n", r": ragged rows with widths \[1, 2\]$"),
        # a non-finite value on line 1 and a non-number on line 2: parsing runs first
        ("nan,1\n2,abc\n", r":2: could not convert string to float: 'abc'$"),
        # a trailing comma makes both an empty field and one field too many
        ("1,2,\n", r": expected 2 columns, got 3$"),
    ],
)
def test_a_file_with_two_faults_reports_the_earlier_check(tmp_path, text, message):
    path = _file(tmp_path, text)
    with pytest.raises(FeatureFormatError, match=message) as err:
        _parse_rows(path, 2)
    # The line-at-a-time reader reported its first faulty line instead.
    assert str(err.value) != _oracle_error(path, 2)


@pytest.mark.parametrize(
    "data, message",
    [
        ([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan]], r"row 2, column 3"),
        ([1.0, np.inf], r"row 1, column 2"),
        ([[-np.inf]], r"row 1, column 1"),
    ],
)
def test_save_feature_csv_rejects_a_non_finite_value(tmp_path, data, message):
    path = tmp_path / "feat.csv"
    with pytest.raises(ValueError, match=rf"non-finite value at {message}$"):
        save_feature_csv(path, np.array(data))
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0), (2, 2, 2)])
def test_save_feature_csv_rejects_empty_and_higher_dimensional_data(tmp_path, shape):
    path = tmp_path / "feat.csv"
    with pytest.raises(ValueError, match="need a non-empty vector or matrix"):
        save_feature_csv(path, np.zeros(shape))
    assert not path.exists()


def test_save_feature_csv_writes_a_vector_as_one_row(tmp_path):
    path = tmp_path / "feat.csv"
    vector = np.array([0.5, -0.0, 3.0])
    save_feature_csv(path, vector)
    assert path.read_text(encoding="utf-8") == "0.5,-0.0,3.0\n"
    assert load_audio_features(path, expected_dim=3).tobytes() == vector.tobytes()


@pytest.mark.parametrize("key", ["audio", "frames"])
def test_manifest_rejects_an_absolute_feature_path(tmp_path, key):
    outside = tmp_path / "outside.csv"
    save_feature_csv(outside, np.zeros((1, 2)))
    folder = tmp_path / "features"
    folder.mkdir()
    files = {"audio": "a.csv", "frames": "f.csv", key: str(outside)}
    path = folder / "manifest.json"
    path.write_text(json.dumps({"videos": {"v1": files}}), encoding="utf-8")
    with pytest.raises(FeatureFormatError, match=rf"video 'v1' has an absolute '{key}' path"):
        load_manifest(path)


def _manifest_in_subfolder(tmp_path, files):
    folder = tmp_path / "features"
    folder.mkdir()
    save_feature_csv(folder / "a.csv", np.zeros((1, 2)))
    save_feature_csv(folder / "f.csv", np.zeros((3, 2)))
    path = folder / "manifest.json"
    doc = {"audio_dim": 2, "frame_dim": 2, "videos": {"v1": files}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("key", ["audio", "frames"])
@pytest.mark.parametrize(
    "escape", ["../outside.csv", "sub/../../outside.csv", "./../features/../outside.csv"]
)
def test_manifest_rejects_a_feature_path_that_leaves_its_folder(tmp_path, key, escape):
    save_feature_csv(tmp_path / "outside.csv", np.zeros((1, 2)))
    path = _manifest_in_subfolder(tmp_path, {"audio": "a.csv", "frames": "f.csv", key: escape})
    message = f"video 'v1' has a '{key}' path '{escape}' that leaves the manifest's folder"
    with pytest.raises(FeatureFormatError, match=re.escape(message)):
        load_manifest(path)


def test_manifest_rejects_a_symlink_that_leads_out_of_its_folder(tmp_path):
    save_feature_csv(tmp_path / "outside.csv", np.zeros((1, 2)))
    path = _manifest_in_subfolder(tmp_path, {"audio": "link.csv", "frames": "f.csv"})
    (path.parent / "link.csv").symlink_to(tmp_path / "outside.csv")
    with pytest.raises(FeatureFormatError, match="'audio' path 'link.csv' that leaves"):
        load_manifest(path)


def test_manifest_accepts_a_dotted_path_that_stays_in_its_folder(tmp_path):
    path = _manifest_in_subfolder(tmp_path, {"audio": "sub/../a.csv", "frames": "./f.csv"})
    (path.parent / "sub").mkdir()
    features = load_video_features(load_manifest(path))
    assert features["v1"]["audio"].tolist() == [0.0, 0.0]
    assert features["v1"]["visual"].tolist() == [0.0, 0.0]
