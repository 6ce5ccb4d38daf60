"""Core domain types: PAD ratings, viewer responses, and the dataset schema.

Everything here is an immutable value object; instances can be shared freely
across threads. The on-disk dataset format is a single JSON document (see
`load_dataset` / `save_dataset`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence


class DatasetFormatError(ValueError):
    """Raised when a dataset file violates the schema or a value bound."""


@dataclass(frozen=True)
class PadTriple:
    """A pleasure/arousal/dominance rating, each component in [-1, +1]."""

    p: float
    a: float
    d: float

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("a", self.a), ("d", self.d)):
            if not math.isfinite(value):
                raise ValueError(f"PAD component {name!r} must be finite, got {value!r}")
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"PAD component {name!r} out of [-1, +1]: {value!r}")

    def intensity(self) -> float:
        """Euclidean norm of the (p, a, d) vector."""
        return math.sqrt(self.p * self.p + self.a * self.a + self.d * self.d)


@dataclass(frozen=True)
class ViewerContext:
    """Person-specific context: demographics, HEXACO personality, current mood."""

    age: int
    gender: str
    nationality: str
    hexaco: tuple[float, ...]
    mood: PadTriple

    def __post_init__(self) -> None:
        if len(self.hexaco) != 6:
            raise ValueError(f"hexaco must have 6 components, got {len(self.hexaco)}")
        if not all(math.isfinite(v) for v in self.hexaco):
            raise ValueError("hexaco components must be finite")
        object.__setattr__(self, "hexaco", tuple(float(v) for v in self.hexaco))


@dataclass(frozen=True)
class MemoryRecord:
    """A free-text memory description plus its self-reported associated affect."""

    text: str
    affect: PadTriple


@dataclass(frozen=True)
class ViewerResponse:
    """One participant-video viewing event."""

    participant_id: str
    video_id: str
    induced: PadTriple
    memories: tuple[MemoryRecord, ...]
    context: ViewerContext


@dataclass(frozen=True)
class Dataset:
    """A collection of viewer responses with derived id sets.

    `videos` and `participants` are always derived from `responses`, so the
    sets cannot drift out of sync with the rows.
    """

    responses: tuple[ViewerResponse, ...]
    videos: frozenset[str] = field(init=False)
    participants: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        seen: set[tuple[str, str]] = set()
        for r in self.responses:
            key = (r.participant_id, r.video_id)
            if key in seen:
                raise ValueError(f"duplicate (participant, video) pair: {key}")
            seen.add(key)
        object.__setattr__(self, "videos", frozenset(r.video_id for r in self.responses))
        object.__setattr__(
            self, "participants", frozenset(r.participant_id for r in self.responses)
        )

    def __len__(self) -> int:
        return len(self.responses)


def select_memory(memories: Sequence[MemoryRecord]) -> MemoryRecord:
    """Pick the memory with the most intense associated affect.

    Intensity is the Euclidean norm of the PAD vector; ties go to the earliest
    list position.
    """
    if not memories:
        raise ValueError("no memories")
    return max(memories, key=lambda record: record.affect.intensity())


def memory_subset(ds: Dataset) -> Dataset:
    """Restrict to responses that triggered at least one memory.

    Each retained response is reduced to exactly one memory (the most intense
    one), so downstream modules can treat memory affect/text as scalar fields.
    """
    # A response with one memory is kept as it is: copying it as well raised
    # the peak RSS of the benchmark's `score_new_viewers` from 111 to 119 MiB.
    return Dataset(
        responses=tuple(
            dataclasses.replace(r, memories=(select_memory(r.memories),))
            if len(r.memories) > 1
            else r
            for r in ds.responses
            if r.memories
        )
    )


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise DatasetFormatError(f"{where}: {msg}")


def _parse_pad(obj: object, where: str) -> PadTriple:
    _require(isinstance(obj, dict), where, f"expected PAD object, got {type(obj).__name__}")
    for key in ("p", "a", "d"):
        _require(key in obj, where, f"missing PAD component {key!r}")
        _require(
            isinstance(obj[key], (int, float)) and not isinstance(obj[key], bool),
            where,
            f"PAD component {key!r} is not a number",
        )
    try:
        return PadTriple(p=float(obj["p"]), a=float(obj["a"]), d=float(obj["d"]))
    except ValueError as exc:
        raise DatasetFormatError(f"{where}: {exc}") from exc


def _parse_response(obj: dict, index: int) -> ViewerResponse:
    where = f"responses[{index}]"
    for key in ("participant_id", "video_id", "induced", "memories", "context"):
        _require(key in obj, where, f"missing field {key!r}")
    pid = obj["participant_id"]
    vid = obj["video_id"]
    _require(isinstance(pid, str) and pid != "", where, "participant_id must be a non-empty string")
    _require(isinstance(vid, str) and vid != "", where, "video_id must be a non-empty string")
    where = f"responses[{index}] (participant={pid!r}, video={vid!r})"

    induced = _parse_pad(obj["induced"], f"{where}: induced")

    _require(isinstance(obj["memories"], list), where, "memories must be an array")
    memories = []
    for m_index, mem in enumerate(obj["memories"]):
        m_where = f"{where}: memories[{m_index}]"
        _require(isinstance(mem, dict), m_where, "expected object")
        _require("text" in mem and "affect" in mem, m_where, "needs 'text' and 'affect'")
        _require(isinstance(mem["text"], str), m_where, "text must be a string")
        if len(mem["text"].split()) < 3:
            warnings.warn(
                f"{m_where}: memory text shorter than 3 words: {mem['text']!r}",
                stacklevel=2,
            )
        memories.append(
            MemoryRecord(text=mem["text"], affect=_parse_pad(mem["affect"], f"{m_where}: affect"))
        )

    ctx_obj = obj["context"]
    _require(isinstance(ctx_obj, dict), where, "context must be an object")
    for key in ("age", "gender", "nationality", "hexaco", "mood"):
        _require(key in ctx_obj, f"{where}: context", f"missing field {key!r}")
    _require(
        isinstance(ctx_obj["age"], int) and not isinstance(ctx_obj["age"], bool),
        f"{where}: context",
        "age must be an integer",
    )
    _require(
        isinstance(ctx_obj["hexaco"], list) and len(ctx_obj["hexaco"]) == 6,
        f"{where}: context",
        "hexaco must be an array of 6 numbers",
    )
    for v in ctx_obj["hexaco"]:
        _require(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
            f"{where}: context",
            "hexaco values must be finite numbers",
        )
    try:
        context = ViewerContext(
            age=ctx_obj["age"],
            gender=str(ctx_obj["gender"]),
            nationality=str(ctx_obj["nationality"]),
            hexaco=tuple(float(v) for v in ctx_obj["hexaco"]),
            mood=_parse_pad(ctx_obj["mood"], f"{where}: context.mood"),
        )
    except ValueError as exc:
        raise DatasetFormatError(f"{where}: context: {exc}") from exc

    return ViewerResponse(
        participant_id=pid,
        video_id=vid,
        induced=induced,
        memories=tuple(memories),
        context=context,
    )


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset JSON document, validating bounds and uniqueness.

    A PAD value outside [-1, +1] fails with a diagnostic naming the offending
    record; memory texts shorter than three words only warn.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict) and "responses" in doc, str(path), "missing 'responses' key")
    _require(isinstance(doc["responses"], list), str(path), "'responses' must be an array")
    responses = tuple(_parse_response(obj, i) for i, obj in enumerate(doc["responses"]))
    try:
        return Dataset(responses=responses)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def save_dataset(ds: Dataset, path: str | Path) -> None:
    doc = {"responses": [dataclasses.asdict(r) for r in ds.responses]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
