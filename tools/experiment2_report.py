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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from memfuse import av, evaluation, model

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / f"seed-{args.seed}"
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "generate.py"), "--seed", str(args.seed),
             "--out", str(data_dir)],
            check=True,
        )
        report = evaluation.run_experiment2(
            model.load_dataset(data_dir / "dataset.json"),
            av.load_video_features(av.load_manifest(data_dir / "av" / "manifest.json")),
            GRID,
            args.seed,
            k_outer=3,
            k_inner=2,
            dims=("p",),
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report.to_json(), indent=1, sort_keys=True) + "\n"
    args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
