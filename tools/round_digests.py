#!/usr/bin/env python3
"""Print a digest of one seed's benchmark inputs and of each workload's round outputs.

    python tools/round_digests.py [--seed N]

It generates the seed's inputs afresh into a temporary directory with the
checkout's `bench/generate.py`, in a child process as `bench/run.py` does, and
prints ``inputs <digest>``: a digest of every generated file's relative path
and bytes. The inputs are made anew rather than taken from `bench/_data`,
whose sets are keyed on `generate.py` alone and so can predate a change to the
dataset or feature writers or to the bundled resources that they use.

Next it prints ``av <digest>``, a digest of the bytes of every audio vector and
pooled visual vector that `memfuse.av.load_video_features` loads from those
inputs, in sorted video-id order. Two checkouts whose ``av`` digests match
read the same feature files into the same arrays, bit for bit.

Next it prints ``text <digest>``, a digest of the bytes of every lexical and
embedding vector and both coverages that `memfuse.text.TextFeatureExtractor`
extracts from every memory text of the seed's dataset and then of its new
viewers, in file order. Two checkouts whose ``text`` digests match extract the
same text features, bit for bit.

Then, for each workload in `bench/workloads.py`, it sets the workload up on
those inputs, runs one round of its operations and prints ``<workload>
<digest>``, a digest of `json.dumps(outputs, sort_keys=True)`.

After ``score_new_viewers`` it saves that workload's set-up model, a late
fusion AVM model, with `memfuse.fusion.save_fusion_model` into the temporary
directory, loads it back with `load_fusion_model` and runs the round again on
the loaded model. It prints ``score_new_viewers_reloaded <digest>``, which
equals the ``score_new_viewers`` digest when a saved model predicts as the
fitted one, and ``model_mib <size>``, the saved folder's size in MiB.

Last it prints ``experiment2 <digest>``, a digest of the report that
`tools/experiment2_report.py` writes for the seed: a reduced `run_experiment2`
on those inputs, early and late fusion, whose late AV bases are fitted at
several SVR settings. It equals the start of that report file's sha256.

Each digest is the first 16 hex digits of a sha256. Two checkouts whose
digests match on a seed generated the same inputs and produced the same
reports and scores for it, number for number. The outputs depend on the BLAS
thread count, so compare digests taken with the same thread settings (the
benchmark pins one thread). The script only prints; it checks nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
BENCH_DIR = TOOLS_DIR.parent / "bench"


def _files_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{path.relative_to(directory).as_posix()}\0{content}\n".encode())
    return digest.hexdigest()[:16]


def _av_digest(data_dir: Path) -> str:
    from memfuse import av

    features = av.load_video_features(av.load_manifest(data_dir / "av" / "manifest.json"))
    digest = hashlib.sha256()
    for video_id in sorted(features):
        digest.update(features[video_id]["audio"].tobytes())
        digest.update(features[video_id]["visual"].tobytes())
    return digest.hexdigest()[:16]


def _text_digest(data_dir: Path) -> str:
    import numpy as np

    from memfuse import model, text

    extractor = text.TextFeatureExtractor(text.load_resources())
    digest = hashlib.sha256()
    for name in ("dataset.json", "new_viewers.json"):
        for response in model.load_dataset(data_dir / name).responses:
            for memory in response.memories:
                feats = extractor.extract(memory.text)
                digest.update(feats.lexical.tobytes())
                digest.update(feats.embedding.tobytes())
                coverages = [feats.lexical_coverage, feats.embedding_coverage]
                digest.update(np.array(coverages).tobytes())
    return digest.hexdigest()[:16]


def _round_digest(run, workload, state) -> str:
    """The digest of one round of `workload`'s operations on its set-up `state`."""
    _, outputs, _ = run.run_round(workload.operations(state))
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(BENCH_DIR), str(TOOLS_DIR)]
    import experiment2_report
    import paths
    import run

    paths.use_checkout_src()
    import workloads
    from memfuse import fusion

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / f"seed-{args.seed}"
        experiment2_report.generate_inputs(args.seed, data_dir)
        print(f"inputs {_files_digest(data_dir)}", flush=True)
        print(f"av {_av_digest(data_dir)}", flush=True)
        print(f"text {_text_digest(data_dir)}", flush=True)
        for name, workload_cls in workloads.WORKLOADS.items():
            workload = workload_cls(data_dir, args.seed)
            state = workload.setup()
            print(f"{name} {_round_digest(run, workload, state)}", flush=True)
            if name == "score_new_viewers":
                model_dir = Path(tmp) / "score_new_viewers_model"
                fusion.save_fusion_model(state["model"], model_dir)
                state = {**state, "model": fusion.load_fusion_model(model_dir)}
                print(f"{name}_reloaded {_round_digest(run, workload, state)}", flush=True)
                size = sum(p.stat().st_size for p in model_dir.iterdir())
                print(f"model_mib {size / 2**20:.2f}", flush=True)
        report = experiment2_report.report_text(data_dir, args.seed)
        print(f"experiment2 {hashlib.sha256(report.encode()).hexdigest()[:16]}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
