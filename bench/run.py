#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload exp1_memory --seed 1 --seconds 25 --trace 0

The inputs for a seed are made first by `generate.py` in a child process,
untimed, and kept under ``bench/_data``; this process only reads them. It is
one caller in a closed loop: each operation starts when the previous one has
returned.

With ``--trace 0`` it sets the workload up several times (``setup_s`` is the
median) and then runs whole rounds of the workload's operations while the
next round still fits in ``--seconds`` (``run_s`` is the median round, at
least one round). ``peak_rss_mb`` is this process's peak resident memory.

With ``--trace 1`` it traces one set-up and one round through `tracer.py`
and reports per-layer metrics; within ``--seconds`` it alternates untraced
and traced rounds, and ``trace.overhead_s`` is the difference of their
medians. The trace is written to ``bench/_out/trace_<workload>.json``.

Either way the round outputs are checked, and the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``. The full result,
with the machine record, is written to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import paths

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KEEP_SEEDS = 3  # generated input sets kept on disk


def ensure_inputs(seed: int):
    """Generate the inputs for `seed` in a child process unless already on disk."""
    with open(paths.BENCH_DIR / "generate.py", "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    target = paths.DATA_DIR / f"seed-{seed}-{version}"
    if target.is_dir():
        return target
    paths.DATA_DIR.mkdir(parents=True, exist_ok=True)
    old = sorted(paths.DATA_DIR.glob("seed-*"), key=lambda p: p.stat().st_mtime)
    for stale in old[: max(0, len(old) - KEEP_SEEDS + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
    tmp = paths.DATA_DIR / f".tmp-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(paths.BENCH_DIR / "generate.py"), "--seed", str(seed), "--out", str(tmp)],
        check=True,
        timeout=300,
    )
    os.replace(tmp, target)
    return target


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def run_round(operations) -> tuple[float, list, int]:
    """Run every operation once; (wall time, outputs, failed count)."""
    outputs, failed = [], 0
    gc.collect()
    start = time.perf_counter()
    for op in operations:
        try:
            outputs.append(op())
        except Exception:
            failed += 1
            outputs.append(None)
            traceback.print_exc()
    return time.perf_counter() - start, outputs, failed


def timed_setup(workload) -> tuple[object, float]:
    gc.collect()
    start = time.perf_counter()
    state = workload.setup()
    return state, time.perf_counter() - start


def measure(workload, seconds: float) -> dict:
    """Rounds while the next one fits in `seconds`, with the set-ups spread among them.

    The set-ups are spread over the first four fifths of the run, so that they
    sample the same stretch of machine time as the rounds: on a shared host,
    slow spells lasting tens of seconds then move both alike.
    """
    setup_times, round_times, rounds, failed = [], [], [], 0
    state, start = None, time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if round_times and elapsed + statistics.median(round_times) > seconds:
            break
        due = 1 + (workload.setup_reps - 1) * min(1.0, elapsed / (0.8 * seconds))
        while len(setup_times) < due:
            state = None
            state, took = timed_setup(workload)
            setup_times.append(took)
        wall, outputs, bad = run_round(workload.operations(state))
        round_times.append(wall)
        rounds.append(outputs)
        failed += bad
    while len(setup_times) < workload.setup_reps:
        state = None
        state, took = timed_setup(workload)
        setup_times.append(took)
    return {
        "state": state,
        "rounds": rounds,
        "failed": failed,
        "metrics": {
            "run_s": (statistics.median(round_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
        "samples": {"round_s": round_times, "setup_s": setup_times},
    }


def measure_traced(workload, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        state = workload.setup()
    plain, traced, rounds, failed = [], [], [], 0
    while not traced or (
        sum(plain) + sum(traced) + statistics.median(plain) + statistics.median(traced) <= seconds
    ):
        wall, outputs, bad = run_round(workload.operations(state))
        plain.append(wall)
        rounds.append(outputs)
        failed += bad
        # The first traced round feeds the per-layer metrics; later ones only time.
        round_tracer = Tracer() if traced else tracer
        with round_tracer.installed(), round_tracer.span("bench.round"):
            wall, outputs, bad = run_round(workload.operations(state))
        traced.append(wall)
        rounds.append(outputs)
        failed += bad
        if round_tracer is not tracer:
            tracer.problems += round_tracer.problems
    overhead = statistics.median(traced) - statistics.median(plain)
    return {
        "state": state,
        "rounds": rounds,
        "failed": failed,
        "tracer": tracer,
        "metrics": layer_metrics(tracer, overhead),
        "samples": {"plain_round_s": plain, "traced_round_s": traced},
    }


def layer_metrics(tr, overhead: float) -> dict:
    table, counts = tr.by_name(), tr.counts

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    ingest = total("av.load_manifest") + total("av.load_video_features")
    evaluation_self = sum(row["self_s"] for name, row in table.items() if name.startswith("evaluation."))
    return {
        "model.load_dataset_s": (total("model.load_dataset"), "s"),
        "text.load_resources_s": (total("text.load_resources"), "s"),
        "text.extract_s": (total("text.extract"), "s"),
        "text.extract_calls": (calls("text.extract"), "count"),
        "text.tokenize_per_extract": (
            ratio(tr.count_under("text.tokenize", "text.extract"), calls("text.extract")),
            "ratio",
        ),
        "av.ingest_s": (ingest, "s"),
        "av.ingest_mb_per_s": (ratio(counts["av.bytes"] / 1e6, ingest), "MB/s"),
        "svr.kernel_s": (total("svr.kernel"), "s"),
        "svr.kernel_calls": (calls("svr.kernel"), "count"),
        "svr.kernel_gflop": (counts["svr.kernel_flop"] / 1e9, "GFLOP"),
        "svr.kernel_distinct_frac": (
            ratio(counts["svr.kernel.distinct"], counts["svr.kernel.calls"]),
            "ratio",
        ),
        "svr.fit_s": (total("svr.fit"), "s"),
        "svr.fit_calls": (calls("svr.fit"), "count"),
        "svr.fit_distinct_frac": (ratio(counts["svr.fit.distinct"], counts["svr.fit.calls"]), "ratio"),
        "svr.smo_iters": (counts["svr.smo_iters"], "count"),
        "svr.unconverged": (counts["svr.unconverged"], "count"),
        "svr.predict_s": (total("svr.predict"), "s"),
        "svr.predict_rows": (counts["svr.predict_rows"], "count"),
        "forest.fit_s": (total("forest.fit"), "s"),
        "forest.fit_calls": (calls("forest.fit"), "count"),
        "forest.fit_distinct_frac": (
            ratio(counts["forest.fit.distinct"], counts["forest.fit.calls"]),
            "ratio",
        ),
        "forest.trees": (counts["forest.trees"], "count"),
        "forest.nodes": (counts["forest.nodes"], "count"),
        "forest.predict_s": (total("forest.predict"), "s"),
        "forest.predict_rows": (counts["forest.predict_rows"], "count"),
        "ridge.fit_s": (total("ridge.fit"), "s"),
        "ridge.fit_calls": (calls("ridge.fit"), "count"),
        "fusion.early_fit_s": (total("fusion.early_fit"), "s"),
        "fusion.late_fit_s": (total("fusion.late_fit"), "s"),
        "fusion.late_fit_calls": (calls("fusion.late_fit"), "count"),
        "fusion.predict_s": (total("fusion.predict"), "s"),
        "fusion.predict_calls": (calls("fusion.predict"), "count"),
        "evaluation.grid_search_s": (total("evaluation.grid_search"), "s"),
        "evaluation.grid_points": (counts["evaluation.grid_points"], "count"),
        "evaluation.self_s": (evaluation_self, "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one memfuse benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    paths.use_checkout_src()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    data_dir = ensure_inputs(args.seed)
    workload = workloads.WORKLOADS[args.workload](data_dir, args.seed)
    result = (measure_traced if args.trace else measure)(workload, args.seconds)

    problems = workload.check(result["state"], result["rounds"])
    if args.trace:
        problems += result["tracer"].problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": sum(len(r) for r in result["rounds"]),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }

    paths.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}{'.traced' if args.trace else ''}"
    with open(paths.OUT_DIR / f"BENCH_{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                **summary,
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "problems": problems,
                "samples": result["samples"],
                "machine": machine_record(),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    if args.trace:
        result["tracer"].write(paths.OUT_DIR / f"trace_{args.workload}.json")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
