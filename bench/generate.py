#!/usr/bin/env python3
"""Seeded synthetic inputs of paper shape for the benchmark.

Writes, for one seed, into one directory:

- ``dataset.json``: every participant rates every video; each participant
  describes a memory for a fixed number of videos, dealt so that every video
  gets the same number of memories.
- ``new_viewers.json``: held-out participants with memories for the same
  videos, the rows the scoring workload predicts.
- ``av/manifest.json`` plus one audio CSV (one row) and one per-frame visual
  CSV per video, at the paper's dimensions.
- ``shape.json``: the seed and the shape below.

Each induced PAD rating is ``SCALE * (sqrt(VIDEO_SHARE) * video +
sqrt(MEMORY_SHARE) * memory + sqrt(NOISE_SHARE) * noise)``, clipped to
[-1, 1]. ``video`` is a per-video standard normal effect that the audio and
visual vectors carry. ``memory`` is the standardized mean pleasure, arousal or
dominance of the lexicon affect words in the memory text, as listed in the
bundled ``vad_ratings`` lexicon. The rest of each text is filler drawn from
the bundled embedding vocabulary, none of whose words or lemmas is a VAD word.

The same seed gives byte-identical files. Run from the repository root:

    python3 bench/generate.py --seed 1 --out bench/_data/seed-1
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import paths

paths.use_checkout_src()

from memfuse.av import save_feature_csv  # noqa: E402
from memfuse.model import (  # noqa: E402
    Dataset,
    MemoryRecord,
    PadTriple,
    ViewerContext,
    ViewerResponse,
    save_dataset,
)
from memfuse.text import (  # noqa: E402
    bundled_resource_dir,
    lemmatize,
    load_embedding_text,
    load_lexicon_tsv,
)

VIDEO_SHARE = 0.4
MEMORY_SHARE = 0.4
NOISE_SHARE = 0.2
SCALE = 0.3
AFFECT_WIDTH = 0.35  # how tightly a text's affect words cluster in PAD space


@dataclass(frozen=True)
class Shape:
    participants: int
    videos: int
    memories_per_participant: int
    new_viewers: int
    audio_dim: int
    frame_dim: int
    frames: int
    affect_words: int
    filler_words: int


PAPER = Shape(
    participants=48,
    videos=24,
    memories_per_participant=5,
    new_viewers=24,
    audio_dim=1582,
    frame_dim=8709,
    frames=12,
    affect_words=8,
    filler_words=42,
)
TINY = Shape(
    participants=12,
    videos=6,
    memories_per_participant=3,
    new_viewers=3,
    audio_dim=16,
    frame_dim=24,
    frames=2,
    affect_words=4,
    filler_words=10,
)  # for the benchmark's own tests


def _vocabulary():
    """(affect words, their PAD matrix, filler words) from the bundled resources."""
    res = bundled_resource_dir()
    vad = load_lexicon_tsv(res / "vad_ratings.tsv")
    affect = sorted(vad.entries)
    pad = np.array([vad.entries[w] for w in affect])
    vocab = load_embedding_text(res / "embedding_context_300d.txt").entries
    filler = sorted(
        w for w in vocab if w not in vad.entries and lemmatize(w) not in vad.entries
    )
    return affect, pad, filler


def _memory_text(rng, shape: Shape, affect, pad, filler) -> tuple[str, np.ndarray]:
    """A memory description and the mean PAD of its affect words."""
    center = rng.uniform(-1.0, 1.0, size=3)
    weights = np.exp(-((pad - center) ** 2).sum(axis=1) / (2 * AFFECT_WIDTH**2))
    picks = rng.choice(len(affect), size=shape.affect_words, p=weights / weights.sum())
    words = [affect[i] for i in picks]
    words += [filler[i] for i in rng.integers(0, len(filler), size=shape.filler_words)]
    words = [words[i] for i in rng.permutation(len(words))]
    sentences, start = [], 0
    while start < len(words):
        stop = min(len(words), start + int(rng.integers(8, 15)))
        sentence = " ".join(words[start:stop])
        end = "!" if rng.random() < 0.1 else "."
        sentences.append(sentence[0].upper() + sentence[1:] + end)
        start = stop
    return " ".join(sentences), pad[picks].mean(axis=0)


def _context(rng):
    return ViewerContext(
        age=int(rng.integers(18, 70)),
        gender=str(rng.choice(["female", "male", "other"])),
        nationality=str(rng.choice(["DE", "NL", "US", "IN", "BR"])),
        hexaco=tuple(round(float(v), 4) for v in rng.uniform(1.0, 5.0, size=6)),
        mood=_pad(rng.uniform(-0.5, 0.5, size=3)),
    )


def _pad(values):
    return PadTriple(*(round(float(np.clip(v, -1.0, 1.0)), 4) for v in values))


def _responses(rng, pids, shape, video_ids, video_effect, memory_rows, texts, memory_z):
    """Dataset rows; `memory_rows` maps (participant index, video index) to a text index."""
    out = []
    for pi, pid in enumerate(pids):
        context = _context(rng)
        for vi, vid in enumerate(video_ids):
            noise = rng.standard_normal(3)
            t = memory_rows.get((pi, vi))
            if t is None:
                induced = math.sqrt(VIDEO_SHARE) * video_effect[vi] + math.sqrt(
                    MEMORY_SHARE + NOISE_SHARE
                ) * noise
                memories = []
            else:
                induced = (
                    math.sqrt(VIDEO_SHARE) * video_effect[vi]
                    + math.sqrt(MEMORY_SHARE) * memory_z[t]
                    + math.sqrt(NOISE_SHARE) * noise
                )
                affect = 0.5 * memory_z[t] + 0.1 * rng.standard_normal(3)
                memories = [MemoryRecord(text=texts[t], affect=_pad(0.4 * affect))]
            out.append(
                ViewerResponse(
                    participant_id=pid,
                    video_id=vid,
                    induced=_pad(SCALE * induced),
                    memories=tuple(memories),
                    context=context,
                )
            )
    return out


def _dealt(n_people: int, shape: Shape) -> list[tuple[int, int]]:
    """(participant, video) memory slots, dealt round-robin over the videos."""
    m = shape.memories_per_participant
    return [(pi, (pi * m + j) % shape.videos) for pi in range(n_people) for j in range(m)]


def generate(seed: int, out: Path, shape: Shape = PAPER) -> None:
    rng = np.random.default_rng(seed)
    affect, pad, filler = _vocabulary()
    video_ids = [f"v{i:02d}" for i in range(shape.videos)]
    video_effect = rng.standard_normal((shape.videos, 3))
    train_slots = _dealt(shape.participants, shape)
    new_slots = _dealt(shape.new_viewers, shape)
    texts, means = [], []
    for _ in range(len(train_slots) + len(new_slots)):
        text, mean = _memory_text(rng, shape, affect, pad, filler)
        texts.append(text)
        means.append(mean)
    means = np.array(means)
    memory_z = (means - means.mean(axis=0)) / means.std(axis=0)

    out.mkdir(parents=True, exist_ok=True)
    files = (
        ("dataset.json", "p", shape.participants, train_slots, 0),
        ("new_viewers.json", "n", shape.new_viewers, new_slots, len(train_slots)),
    )
    for name, prefix, n_people, slots, first_text in files:
        pids = [f"{prefix}{i:02d}" for i in range(n_people)]
        rows = {slot: first_text + t for t, slot in enumerate(slots)}
        responses = _responses(rng, pids, shape, video_ids, video_effect, rows, texts, memory_z)
        save_dataset(Dataset(responses=tuple(responses)), out / name)

    av_dir = out / "av"
    av_dir.mkdir(exist_ok=True)
    audio_w = rng.standard_normal((shape.audio_dim, 3))
    visual_w = rng.standard_normal((shape.frame_dim, 3))
    videos = {}
    for vi, vid in enumerate(video_ids):
        audio = audio_w @ video_effect[vi] + rng.standard_normal(shape.audio_dim)
        base = visual_w @ video_effect[vi] + rng.standard_normal(shape.frame_dim)
        frames = base + 0.5 * rng.standard_normal((shape.frames, shape.frame_dim))
        save_feature_csv(av_dir / f"{vid}.audio.csv", np.round(audio, 4))
        save_feature_csv(av_dir / f"{vid}.frames.csv", np.round(frames, 4))
        videos[vid] = {"audio": f"{vid}.audio.csv", "frames": f"{vid}.frames.csv"}
    manifest = {"audio_dim": shape.audio_dim, "frame_dim": shape.frame_dim, "videos": videos}
    with open(av_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "shape.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, **asdict(shape)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
