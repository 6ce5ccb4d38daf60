#!/usr/bin/env python3
"""Print one digest per benchmark workload of one round's outputs.

    python tools/round_digests.py [--seed N]

For each workload in `bench/workloads.py` it makes (or reuses) the seed's
inputs through `bench/run.py`'s `ensure_inputs`, sets the workload up, runs
one round of its operations and prints ``<workload> <digest>``. The digest is
the first 16 hex digits of the sha256 of `json.dumps(outputs,
sort_keys=True)`. Two checkouts whose digests match on a seed produced the
same reports and scores for it, number for number. The outputs depend on the
BLAS thread count, so compare digests taken with the same thread settings
(the benchmark pins one thread). The script only prints; it checks nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    import paths
    import run

    paths.use_checkout_src()
    import workloads

    data_dir = run.ensure_inputs(args.seed)
    for name, workload_cls in workloads.WORKLOADS.items():
        workload = workload_cls(data_dir, args.seed)
        _, outputs, _ = run.run_round(workload.operations(workload.setup()))
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        print(f"{name} {digest[:16]}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
