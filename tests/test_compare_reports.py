"""Tests of `tools/compare_reports.py`, which vets a regenerated golden file."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_report.json"


@pytest.fixture(scope="module")
def compare_reports():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", ROOT / "tools" / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _run(compare_reports, tmp_path, old, new) -> int:
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return compare_reports.main(paths)


def test_identical_reports_pass(compare_reports, golden, tmp_path, capsys):
    assert _run(compare_reports, tmp_path, golden, copy.deepcopy(golden)) == 0
    assert "0 numeric or value differences, 0 cells with changed keys" in capsys.readouterr().out


def test_a_changed_fold_r2_or_delta_fails(compare_reports, golden, tmp_path, capsys):
    fold = copy.deepcopy(golden)
    cell = fold["experiment2"]["cells"]["p|AVM|late"]
    cell["fold_r2"][1] += 1e-12
    assert _run(compare_reports, tmp_path, golden, fold) == 1
    assert "DIFFERS: experiment2 p|AVM|late: fold_r2" in capsys.readouterr().out

    delta = copy.deepcopy(golden)
    delta["experiment2"]["deltas"]["a|early"] += 1e-12
    assert _run(compare_reports, tmp_path, golden, delta) == 1
    assert "DIFFERS: experiment2: deltas differ" in capsys.readouterr().out


def test_a_key_selected_on_one_side_only_is_a_note(compare_reports, golden, tmp_path, capsys):
    new = copy.deepcopy(golden)
    for chosen in new["experiment1"]["cells"]["d|M|early"]["params"]:
        chosen["svr.epsilon"] = 0.1
    assert _run(compare_reports, tmp_path, golden, new) == 0
    out = capsys.readouterr().out
    assert "experiment1 d|M|early: dropped [], added ['svr.epsilon']" in out
    assert "DIFFERS" not in out
