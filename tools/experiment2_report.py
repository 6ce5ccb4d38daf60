#!/usr/bin/env python3
"""Write the report of a seeded, reduced `run_experiment2` on benchmark inputs.

    python tools/experiment2_report.py --seed 1 --out report.json

It generates the seed's inputs afresh into a temporary directory with the
checkout's `bench/generate.py`, in a child process as `bench/run.py` does,
and runs AV, AVM and AV-dagger, early and late fusion, for pleasure, at
k_outer 3 and k_inner 2 over a small grid. The report JSON
(`ExperimentReport.to_json()`) goes to `--out`. The BLAS thread count is taken
from the environment, so two runs under other thread settings can be compared
with `tools/compare_reports.py --tol`:

    for t in 1 2; do
        OMP_NUM_THREADS=$t OPENBLAS_NUM_THREADS=$t MKL_NUM_THREADS=$t \\
            python tools/experiment2_report.py --seed 1 --out report_$t.json
    done
    python tools/compare_reports.py --tol 1e-6 report_1.json report_2.json

`tools/round_digests.py` prints a digest of the same report (`report_text`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = {
    "svr.c": [0.1, 1.0],
    "svr.epsilon": [0.05, 0.2],
    "forest.n_trees": [4],
    "forest.max_features": [0.1],
    "forest.min_leaf": [5],
    "ridge.alpha": [1.0],
    "stack.k_inner": [2],
}


def generate_inputs(seed: int, data_dir: Path) -> None:
    """Generate the seed's benchmark inputs into `data_dir`, in a child process."""
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "generate.py"), "--seed", str(seed),
         "--out", str(data_dir)],
        check=True,
    )


def report_text(data_dir: Path, seed: int) -> str:
    """The report JSON, as `--out` receives it, of the reduced run on the inputs in `data_dir`."""
    from memfuse import av, evaluation, model

    report = evaluation.run_experiment2(
        model.load_dataset(data_dir / "dataset.json"),
        av.load_video_features(av.load_manifest(data_dir / "av" / "manifest.json")),
        GRID,
        seed,
        k_outer=3,
        k_inner=2,
        dims=("p",),
    )
    return json.dumps(report.to_json(), indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / f"seed-{args.seed}"
        generate_inputs(args.seed, data_dir)
        text = report_text(data_dir, args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
