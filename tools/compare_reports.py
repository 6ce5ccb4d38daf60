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
"""

from __future__ import annotations

import json
import sys


def _reports(doc: dict) -> dict[str, dict]:
    return {"": doc} if "cells" in doc else doc


def compare(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """Return (differences in numbers, notes on keys only one side selects)."""
    problems, notes = [], []
    old, new = _reports(old), _reports(new)
    if sorted(old) != sorted(new):
        return [f"reports {sorted(old)} vs {sorted(new)}"], notes
    for name in sorted(old):
        a, b = old[name], new[name]
        if a.get("deltas") != b.get("deltas"):
            problems.append(f"{name}: deltas differ")
        if sorted(a["cells"]) != sorted(b["cells"]):
            problems.append(f"{name}: cells {sorted(a['cells'])} vs {sorted(b['cells'])}")
            continue
        for key in sorted(a["cells"]):
            ca, cb = a["cells"][key], b["cells"][key]
            for field in ("mean_r2", "fold_r2"):
                if ca[field] != cb[field]:
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
    return problems, notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    problems, notes = compare(*docs)
    for line in notes:
        print(line)
    for line in problems:
        print(f"DIFFERS: {line}")
    print(f"{len(problems)} numeric or value differences, {len(notes)} cells with changed keys")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
