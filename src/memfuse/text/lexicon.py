"""Affect lexicon and word-embedding resources.

A word table maps lowercase, unique words to finite vectors of one width. A
lexicon is a TSV file with a header line ``word<TAB>dim1<TAB>...`` and one
``word<TAB>v1<TAB>...`` row per word. An embedding table has one
whitespace-separated ``word v1 ... vd`` line per word, its width taken from
the first line. One reader loads both: it skips blank lines, lowercases words,
and raises `ResourceFormatError` naming ``path:line`` for a repeated word, a
row of another width or a non-finite value. `Lexicon` and `EmbeddingTable`
check their words and widths when built, and pack their vectors into one
read-only float matrix, whose rows the entries then hold (`vectors`). The
bundled sample suite under ``resources/`` is declared by a manifest listing
each lexicon slot, its dimensions, the rule scorer's valence lexicon, and two
embedding tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .sentiment import RuleScorer

__all__ = [
    "Lexicon",
    "EmbeddingTable",
    "TextResources",
    "ResourceFormatError",
    "load_lexicon_tsv",
    "load_embedding_text",
    "load_resources",
    "bundled_resource_dir",
]


class ResourceFormatError(ValueError):
    """Raised for malformed lexicon or embedding files."""


def _pack(
    kind: str, name: str, entries: dict[str, np.ndarray], width: int
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """`entries` as rows of one read-only float matrix, and that matrix.

    Raises unless every word is lowercase and every vector has `width`
    values. The returned entries map each word to a view of its row, in the
    order of `entries`.
    """
    for word, vec in entries.items():
        if word != word.lower():
            raise ValueError(f"{kind} {name!r}: word {word!r} is not lowercase")
        if vec.shape != (width,):
            raise ValueError(
                f"{kind} {name!r}: entry {word!r} has shape {vec.shape}, expected ({width},)"
            )
    vectors = np.array(list(entries.values()), dtype=float).reshape(len(entries), width)
    vectors.flags.writeable = False
    return dict(zip(entries, vectors)), vectors


@dataclass(frozen=True)
class Lexicon:
    """A named word -> vector affect dictionary with fixed dimension names."""

    name: str
    dims: tuple[str, ...]
    entries: dict[str, np.ndarray]
    # Every vector, one row per word in `entries` order; the entries are views of its rows.
    vectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries, vectors = _pack("lexicon", self.name, self.entries, self.width)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "vectors", vectors)

    @property
    def width(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class EmbeddingTable:
    """A named word -> dense vector table of uniform dimension."""

    name: str
    dim: int
    entries: dict[str, np.ndarray]
    # Every vector, one row per word in `entries` order; the entries are views of its rows.
    vectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries, vectors = _pack("embedding table", self.name, self.entries, self.dim)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "vectors", vectors)

    @property
    def width(self) -> int:
        return self.dim


def _read_table(
    path: Path,
    lines: Iterable[tuple[int, str]],
    sep: str | None,
    width: int | None,
) -> tuple[dict[str, np.ndarray], int | None]:
    """Entries and width of a word table from its numbered lines.

    A line splits at `sep` (None: any whitespace) into the word and its
    values; `width` is the expected number of values, or None to take it
    from the first row.
    """
    entries: dict[str, np.ndarray] = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(sep)
        word, fields = parts[0].lower(), parts[1:]
        if width is None and fields:
            width = len(fields)
        if len(fields) != width:
            expected = "some" if width is None else width
            raise ResourceFormatError(
                f"{path}:{lineno}: expected a word and {expected} values, got {len(fields)}"
            )
        if word in entries:
            raise ResourceFormatError(f"{path}:{lineno}: duplicate word {word!r}")
        try:
            values = list(map(float, fields))
        except ValueError as exc:
            raise ResourceFormatError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ResourceFormatError(f"{path}:{lineno}: non-finite value")
        entries[word] = np.asarray(values, dtype=float)
    return entries, width


def load_lexicon_tsv(path: str | Path, name: str | None = None) -> Lexicon:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ResourceFormatError(f"{path}:1: empty or missing header line")
        columns = header.rstrip("\n").split("\t")
        if len(columns) < 2 or columns[0] != "word":
            raise ResourceFormatError(
                f"{path}:1: header must be 'word<TAB>dim1[<TAB>...]', got {header.rstrip()!r}"
            )
        dims = tuple(columns[1:])
        entries, _ = _read_table(path, enumerate(fh, start=2), "\t", len(dims))
    return Lexicon(name=name if name is not None else path.stem, dims=dims, entries=entries)


def load_embedding_text(path: str | Path, name: str | None = None) -> EmbeddingTable:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        entries, dim = _read_table(path, enumerate(fh, start=1), None, None)
    if dim is None:
        raise ResourceFormatError(f"{path}: empty embedding file")
    return EmbeddingTable(name=name if name is not None else path.stem, dim=dim, entries=entries)


def _load_scorer_lexicon(path: Path) -> RuleScorer:
    lex = load_lexicon_tsv(path, name="rule_scorer_valence")
    if lex.width != 1:
        raise ResourceFormatError(f"{path}: scorer lexicon must have exactly one value column")
    valences = {}
    for word, vec in lex.entries.items():
        v = float(vec[0])
        if not -4.0 <= v <= 4.0:
            raise ResourceFormatError(f"{path}: valence for {word!r} out of [-4, +4]: {v}")
        valences[word] = v
    return RuleScorer(valences=valences)


@dataclass(frozen=True)
class TextResources:
    """The loaded lexicon suite, rule scorer and embedding tables."""

    lexicons: tuple[Lexicon, ...]
    scorer: RuleScorer
    embeddings: tuple[EmbeddingTable, ...]


def bundled_resource_dir() -> Path:
    return Path(importlib_resources.files("memfuse.text")) / "resources"


def load_resources(directory: str | Path | None = None) -> TextResources:
    """Load a resource suite from a directory with a ``manifest.json``.

    With no argument, loads the bundled sample suite.
    """
    directory = Path(directory) if directory is not None else bundled_resource_dir()
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"resource manifest not found: {manifest_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)

    lexicons = []
    for entry in manifest["lexicons"]:
        lex = load_lexicon_tsv(directory / entry["file"], name=entry["name"])
        declared = tuple(entry["dims"])
        if lex.dims != declared:
            raise ResourceFormatError(
                f"{entry['file']}: dims {lex.dims} do not match manifest {declared}"
            )
        lexicons.append(lex)
    scorer = _load_scorer_lexicon(directory / manifest["scorer"]["file"])
    embeddings = []
    for entry in manifest["embeddings"]:
        table = load_embedding_text(directory / entry["file"], name=entry["name"])
        if table.dim != entry["dim"]:
            raise ResourceFormatError(
                f"{entry['file']}: dimension {table.dim} does not match manifest {entry['dim']}"
            )
        embeddings.append(table)
    return TextResources(
        lexicons=tuple(lexicons), scorer=scorer, embeddings=tuple(embeddings)
    )
