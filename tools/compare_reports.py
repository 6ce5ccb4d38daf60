#!/usr/bin/env python3
"""Compare two ExperimentReport JSON documents number for number.

Either file may hold one report (`ExperimentReport.to_json()`) or a mapping of
names to reports, as `tests/data/golden_report.json` does. The script fails
unless both hold the same cells and deltas with identical `mean_r2`, `fold_r2`
and delta values, and unless every selected hyperparameter that both sides
carry has the same value. It lists, per cell, the grid keys present on one
side only. Use it to check a regenerated golden file:

    git show HEAD:tests/data/golden_report.json > /tmp/old.json
    python tools/compare_reports.py /tmp/old.json tests/data/golden_report.json

With `--tol X` the numbers (`mean_r2`, `fold_r2` and deltas) may differ by up
to X each, as the same run under another BLAS thread count does; selections
must still be identical. It prints the largest difference it saw.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def _reports(doc: dict) -> dict[str, dict]:
    return {"": doc} if "cells" in doc else doc


def _gap(a, b) -> float:
    """The largest |a - b| over two numbers or two equally long lists; inf if they do not pair."""
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)):
            return math.inf
        return max((_gap(x, y) for x, y in zip(a, b)), default=0.0)
    return abs(a - b)


def compare(old: dict, new: dict, tol: float = 0.0) -> tuple[list[str], list[str], float]:
    """Return (differences beyond `tol` or in selections, notes on keys only one side selects,
    the largest numeric difference)."""
    problems, notes = [], []
    worst = 0.0
    old, new = _reports(old), _reports(new)
    if sorted(old) != sorted(new):
        return [f"reports {sorted(old)} vs {sorted(new)}"], notes, worst
    for name in sorted(old):
        a, b = old[name], new[name]
        da, db = a.get("deltas") or {}, b.get("deltas") or {}
        if sorted(da) != sorted(db):
            problems.append(f"{name}: deltas differ")
        else:
            gap = max((_gap(da[k], db[k]) for k in da), default=0.0)
            worst = max(worst, gap)
            if gap > tol:
                problems.append(f"{name}: deltas differ")
        if sorted(a["cells"]) != sorted(b["cells"]):
            problems.append(f"{name}: cells {sorted(a['cells'])} vs {sorted(b['cells'])}")
            continue
        for key in sorted(a["cells"]):
            ca, cb = a["cells"][key], b["cells"][key]
            for field in ("mean_r2", "fold_r2"):
                gap = _gap(ca[field], cb[field])
                worst = max(worst, gap)
                if gap > tol:
                    problems.append(f"{name} {key}: {field} {ca[field]} vs {cb[field]}")
            if (ca["params"] is None) != (cb["params"] is None):
                problems.append(f"{name} {key}: params present on one side only")
                continue
            dropped, added = set(), set()
            for pa, pb in zip(ca["params"] or [], cb["params"] or []):
                dropped |= pa.keys() - pb.keys()
                added |= pb.keys() - pa.keys()
                for k in pa.keys() & pb.keys():
                    if pa[k] != pb[k]:
                        problems.append(f"{name} {key}: {k} {pa[k]} vs {pb[k]}")
            if dropped or added:
                notes.append(f"{name} {key}: dropped {sorted(dropped)}, added {sorted(added)}")
    return problems, notes, worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument(
        "--tol", type=float, default=0.0, help="largest allowed difference of a number (default 0)"
    )
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        parser.error(f"--tol must be non-negative and finite, got {args.tol}")
    docs = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    problems, notes, worst = compare(*docs, tol=args.tol)
    for line in notes:
        print(line)
    for line in problems:
        print(f"DIFFERS: {line}")
    if args.tol:
        print(f"largest numeric difference {worst:.3g} (tolerance {args.tol:g})")
    print(f"{len(problems)} numeric or value differences, {len(notes)} cells with changed keys")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
