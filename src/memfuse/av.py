"""Ingestion of precomputed per-video audio and visual feature files.

Feature extraction itself (openSMILE-style audio statistics, deep and
theory-inspired frame descriptors) happens outside this package; here we only
define the file contract. Audio files hold one 1582-dimensional vector;
frame files hold one 8709-dimensional vector per extracted frame (271 + 4096
+ 4342). Both dimensions can be overridden for desk-scale fixtures via the
sidecar manifest.

File format: headerless CSV, comma-separated decimal floats, one vector per
line, UTF-8.
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
    "AudioFeatures",
    "FrameFeatures",
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


@dataclass(frozen=True)
class AudioFeatures:
    video_id: str
    vector: np.ndarray


@dataclass(frozen=True)
class FrameFeatures:
    video_id: str
    frames: np.ndarray  # (n_frames, frame_dim)


def _parse_rows(path: Path) -> list[np.ndarray]:
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
    return rows


def load_audio_features(
    path: str | Path, video_id: str | None = None, expected_dim: int = AUDIO_DIM
) -> AudioFeatures:
    """Load a one-row audio feature CSV, enforcing the dimension contract."""
    path = Path(path)
    rows = _parse_rows(path)
    if len(rows) != 1:
        raise FeatureFormatError(f"{path}: expected exactly 1 row, got {len(rows)}")
    vector = rows[0]
    if vector.shape[0] != expected_dim:
        raise FeatureFormatError(
            f"{path}: expected {expected_dim} columns, got {vector.shape[0]}"
        )
    return AudioFeatures(video_id=video_id or path.stem, vector=vector)


def load_frame_features(
    path: str | Path, video_id: str | None = None, expected_dim: int = FRAME_DIM
) -> FrameFeatures:
    """Load a per-frame feature CSV (one row per frame, ordered)."""
    path = Path(path)
    rows = _parse_rows(path)
    if not rows:
        raise FeatureFormatError(f"{path}: empty feature file")
    widths = {row.shape[0] for row in rows}
    if len(widths) > 1:
        raise FeatureFormatError(f"{path}: ragged rows with widths {sorted(widths)}")
    width = widths.pop()
    if width != expected_dim:
        raise FeatureFormatError(f"{path}: expected {expected_dim} columns, got {width}")
    return FrameFeatures(video_id=video_id or path.stem, frames=np.vstack(rows))


def pool_frames(features: FrameFeatures) -> np.ndarray:
    """Dimension-wise mean over frames; the per-video visual vector."""
    if features.frames.shape[0] < 1:
        raise ValueError("no frames to pool")
    return features.frames.mean(axis=0)


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

    def audio_path(self, video_id: str) -> Path:
        return self.root / self.videos[video_id]["audio"]

    def frames_path(self, video_id: str) -> Path:
        return self.root / self.videos[video_id]["frames"]


def load_manifest(path: str | Path) -> AvManifest:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "videos" not in doc:
        raise FeatureFormatError(f"{path}: manifest missing 'videos'")
    return AvManifest(
        root=path.parent,
        audio_dim=int(doc.get("audio_dim", AUDIO_DIM)),
        frame_dim=int(doc.get("frame_dim", FRAME_DIM)),
        videos={str(k): dict(v) for k, v in doc["videos"].items()},
    )


def load_video_features(manifest: AvManifest) -> dict[str, dict[str, np.ndarray]]:
    """Load audio vectors and pooled visual vectors for every video."""
    out: dict[str, dict[str, np.ndarray]] = {}
    for video_id in sorted(manifest.videos):
        audio = load_audio_features(
            manifest.audio_path(video_id), video_id, expected_dim=manifest.audio_dim
        )
        frames = load_frame_features(
            manifest.frames_path(video_id), video_id, expected_dim=manifest.frame_dim
        )
        out[video_id] = {"audio": audio.vector, "visual": pool_frames(frames)}
    return out
