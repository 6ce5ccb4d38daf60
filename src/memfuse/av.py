"""Ingestion of precomputed per-video audio and visual feature files.

Feature extraction itself (openSMILE-style audio statistics, deep and
theory-inspired frame descriptors) happens outside this package; here we only
define the file contract. Audio files hold one 1582-dimensional vector;
frame files hold one 8709-dimensional vector per extracted frame (271 + 4096
+ 4342). Both dimensions can be overridden for desk-scale fixtures via the
sidecar manifest.

File format: headerless CSV, comma-separated decimal floats, one vector per
line, UTF-8.

Manifest format: one JSON object, UTF-8, with

- ``videos`` (required): an object mapping each video id to an object with
  string ``audio`` and ``frames`` paths, relative to the manifest's folder;
- ``audio_dim`` and ``frame_dim`` (optional, default 1582 and 8709): the
  width of every audio and frame row, each a positive JSON integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _parse_rows(path: Path, expected_dim: int) -> np.ndarray:
    """The file's rows as an (n_rows, expected_dim) matrix; n_rows is 0 for a file without rows."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            try:
                values = np.array(parts, dtype=float)
            except ValueError as exc:
                raise FeatureFormatError(f"{path}:{lineno}: {exc}") from exc
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise FeatureFormatError(
                    f"{path}: non-finite value at row {lineno}, column {bad[0] + 1}"
                )
            rows.append(values)
    if not rows:
        return np.empty((0, expected_dim))
    widths = {row.shape[0] for row in rows}
    if len(widths) > 1:
        raise FeatureFormatError(f"{path}: ragged rows with widths {sorted(widths)}")
    width = widths.pop()
    if width != expected_dim:
        raise FeatureFormatError(f"{path}: expected {expected_dim} columns, got {width}")
    return np.vstack(rows)


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
    for byte, which makes feature files safe to fingerprint.
    """
    matrix = np.atleast_2d(np.asarray(data, dtype=float))
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
        if not (isinstance(dim, int) and not isinstance(dim, bool) and dim > 0):
            raise FeatureFormatError(f"{path}: {key!r} must be a positive integer, got {dim!r}")
    for video_id, files in doc["videos"].items():
        if not isinstance(files, dict) or not all(
            isinstance(files.get(key), str) for key in ("audio", "frames")
        ):
            raise FeatureFormatError(
                f"{path}: video {video_id!r} needs string 'audio' and 'frames' paths"
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
