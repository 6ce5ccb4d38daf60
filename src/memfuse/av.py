"""Ingestion of precomputed per-video audio and visual feature files.

Feature extraction itself (openSMILE-style audio statistics, deep and
theory-inspired frame descriptors) happens outside this package; here we only
define the file contract. Audio files hold one 1582-dimensional vector;
frame files hold one 8709-dimensional vector per extracted frame (271 + 4096
+ 4342). Both dimensions can be overridden for desk-scale fixtures via the
sidecar manifest.

File format: headerless CSV, UTF-8, one vector per line. Lines end in
``\n``, ``\r\n`` or ``\r``; the last may end without one. A line that is
empty or holds only whitespace is skipped but still counted, so line numbers
in errors are the file's own. Every other line is a row of fields separated by
``,``. A field is one ASCII decimal float, optionally surrounded by
whitespace: an optional sign, digits with an optional decimal point, and an
optional exponent (``e`` or ``E``, optional sign, digits). ``nan``, ``inf``
and ``infinity`` in any case, and values that overflow to infinity, parse but
are then rejected. Anything else is rejected: an empty field (so a trailing
comma), ``#`` (there are no comments), quotes, digit-group underscores such as
``1_000``, hexadecimal and non-ASCII digits.

The checks run in this order, each over the whole file, and the first that
fails raises `FeatureFormatError`:

1. every row has the same number of fields ("ragged rows with widths [...]");
2. that number is the expected width ("expected N columns, got M");
3. every field parses ("path:line: could not convert string to float: ..."
   for the first field of the first line that does not);
4. every value is finite ("non-finite value at row L, column C", the first in
   file order, with L the file line and C counted from 1);
5. the row count suits the loader: exactly one for audio, at least one for
   frames.

Manifest format: one JSON object, UTF-8, with

- ``videos`` (required): an object mapping each video id to an object with
  string ``audio`` and ``frames`` paths, relative to the manifest's folder.
  An absolute path is rejected, and so is a path that leaves the folder once
  ``..`` and symbolic links are resolved;
- ``audio_dim`` and ``frame_dim`` (optional, default 1582 and 8709): the
  width of every audio and frame row, each a positive JSON integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._checks import is_count

AUDIO_DIM = 1582
FRAME_DIM = 8709  # 271 theory-inspired + 4096 deep + 4342 visual-sentiment

__all__ = [
    "AUDIO_DIM",
    "FRAME_DIM",
    "FeatureFormatError",
    "load_audio_features",
    "load_frame_features",
    "pool_frames",
    "save_feature_csv",
    "AvManifest",
    "load_manifest",
    "load_video_features",
]


class FeatureFormatError(ValueError):
    """Raised for malformed or dimensionally wrong feature files."""


def _first_non_finite(matrix: np.ndarray) -> tuple[int, int] | None:
    """The 0-based (row, column) of a 2-d matrix's first non-finite value in row-major order."""
    finite = np.isfinite(matrix)
    return None if finite.all() else divmod(int(np.argmin(finite)), matrix.shape[1])


def _loadtxt(lines: list[str]) -> np.ndarray:
    # `max_rows` lets the reader allocate the result once, at its final size.
    return np.loadtxt(
        lines, delimiter=",", comments=None, ndmin=2, dtype=float, max_rows=len(lines)
    )


def _parses(text: str) -> bool:
    """Whether `_loadtxt` reads `text` as a row; it would skip an empty one, with a warning."""
    if not text:
        return False
    try:
        _loadtxt([text])
    except ValueError:
        return False
    return True


def _parse_rows(path: Path, expected_dim: int) -> np.ndarray:
    """The file's rows as an (n_rows, expected_dim) matrix; n_rows is 0 for a file without rows."""
    with open(path, encoding="utf-8") as fh:
        kept = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    if not kept:
        return np.empty((0, expected_dim))
    linenos, lines = zip(*kept)
    widths = {line.count(",") + 1 for line in lines}
    if len(widths) > 1:
        raise FeatureFormatError(f"{path}: ragged rows with widths {sorted(widths)}")
    width = widths.pop()
    if width != expected_dim:
        raise FeatureFormatError(f"{path}: expected {expected_dim} columns, got {width}")
    try:
        matrix = _loadtxt(list(lines))
    except ValueError as exc:
        for lineno, line in kept:
            if not _parses(line):
                fields = line.rstrip("\n").split(",")
                field = next((f for f in fields if not _parses(f)), line)
                raise FeatureFormatError(
                    f"{path}:{lineno}: could not convert string to float: {field!r}"
                ) from exc
        raise FeatureFormatError(f"{path}: {exc}") from exc
    bad = _first_non_finite(matrix)
    if bad is not None:
        raise FeatureFormatError(
            f"{path}: non-finite value at row {linenos[bad[0]]}, column {bad[1] + 1}"
        )
    return matrix


def load_audio_features(path: str | Path, expected_dim: int = AUDIO_DIM) -> np.ndarray:
    """The `(expected_dim,)` vector of a one-row audio feature CSV."""
    path = Path(path)
    matrix = _parse_rows(path, expected_dim)
    if matrix.shape[0] != 1:
        raise FeatureFormatError(f"{path}: expected exactly 1 row, got {matrix.shape[0]}")
    return matrix[0]


def load_frame_features(path: str | Path, expected_dim: int = FRAME_DIM) -> np.ndarray:
    """The `(n_frames, expected_dim)` matrix of a per-frame feature CSV, one row per frame."""
    path = Path(path)
    frames = _parse_rows(path, expected_dim)
    if frames.shape[0] == 0:
        raise FeatureFormatError(f"{path}: empty feature file")
    return frames


def pool_frames(frames: np.ndarray) -> np.ndarray:
    """Dimension-wise mean of an `(n_frames, d)` frame matrix; the per-video visual vector."""
    if frames.shape[0] < 1:
        raise ValueError("no frames to pool")
    return frames.mean(axis=0)


def save_feature_csv(path: str | Path, data: np.ndarray) -> None:
    """Write a feature vector or matrix using shortest-exact float text.

    Loading and re-saving a file written by this function reproduces it byte
    for byte, which makes feature files safe to fingerprint. Raises
    `ValueError` for data that the loaders would not read back: empty, more
    than 2-d, or holding a non-finite value.
    """
    matrix = np.atleast_2d(np.asarray(data, dtype=float))
    if matrix.ndim > 2 or matrix.size == 0:
        raise ValueError(f"need a non-empty vector or matrix, got shape {matrix.shape}")
    bad = _first_non_finite(matrix)
    if bad is not None:
        raise ValueError(f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


@dataclass(frozen=True)
class AvManifest:
    """Sidecar manifest mapping video ids to their feature files."""

    root: Path
    audio_dim: int
    frame_dim: int
    videos: dict[str, dict[str, str]]


def load_manifest(path: str | Path) -> AvManifest:
    """Read and check a feature manifest (its format is in the module docstring)."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("videos"), dict):
        raise FeatureFormatError(f"{path}: manifest missing a 'videos' object")
    defaults = {"audio_dim": AUDIO_DIM, "frame_dim": FRAME_DIM}
    dims = {key: doc.get(key, default) for key, default in defaults.items()}
    for key, dim in dims.items():
        if not is_count(dim, 1):
            raise FeatureFormatError(f"{path}: {key!r} must be a positive integer, got {dim!r}")
    root = path.parent.resolve()
    for video_id, files in doc["videos"].items():
        if not isinstance(files, dict) or not all(
            isinstance(files.get(key), str) for key in ("audio", "frames")
        ):
            raise FeatureFormatError(
                f"{path}: video {video_id!r} needs string 'audio' and 'frames' paths"
            )
        for key in ("audio", "frames"):
            if Path(files[key]).anchor:
                raise FeatureFormatError(
                    f"{path}: video {video_id!r} has an absolute {key!r} path {files[key]!r};"
                    " paths are relative to the manifest's folder"
                )
            if not (root / files[key]).resolve().is_relative_to(root):
                raise FeatureFormatError(
                    f"{path}: video {video_id!r} has a {key!r} path {files[key]!r}"
                    " that leaves the manifest's folder"
                )
    videos = {str(k): dict(v) for k, v in doc["videos"].items()}
    return AvManifest(root=path.parent, videos=videos, **dims)


def load_video_features(manifest: AvManifest) -> dict[str, dict[str, np.ndarray]]:
    """Load audio vectors and pooled visual vectors for every video."""
    out: dict[str, dict[str, np.ndarray]] = {}
    for video_id, files in sorted(manifest.videos.items()):
        audio = load_audio_features(manifest.root / files["audio"], manifest.audio_dim)
        frames = load_frame_features(manifest.root / files["frames"], manifest.frame_dim)
        out[video_id] = {"audio": audio, "visual": pool_frames(frames)}
    return out
