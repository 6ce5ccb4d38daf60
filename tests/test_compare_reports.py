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


def _run_with_tol(compare_reports, tmp_path, old, new, tol) -> int:
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return compare_reports.main([*paths, "--tol", str(tol)])


def test_numbers_within_the_tolerance_pass(compare_reports, golden, tmp_path, capsys):
    new = copy.deepcopy(golden)
    cell = new["experiment2"]["cells"]["p|AVM|early"]
    cell["fold_r2"][0] += 4e-7
    cell["mean_r2"] -= 3e-7
    new["experiment2"]["deltas"]["p|early"] += 2e-7
    assert _run_with_tol(compare_reports, tmp_path, golden, new, 1e-6) == 0
    out = capsys.readouterr().out
    assert "largest numeric difference 4e-07 (tolerance 1e-06)" in out
    assert "0 numeric or value differences" in out
    assert _run(compare_reports, tmp_path, golden, new) == 1  # exact by default


@pytest.mark.parametrize("where", ["fold_r2", "mean_r2", "deltas"])
def test_a_number_beyond_the_tolerance_fails(compare_reports, golden, tmp_path, capsys, where):
    new = copy.deepcopy(golden)
    if where == "fold_r2":
        new["experiment2"]["cells"]["d|AV|late"]["fold_r2"][2] -= 2e-6
    elif where == "mean_r2":
        new["experiment2"]["cells"]["d|AV|late"]["mean_r2"] -= 2e-6
    else:
        new["experiment2"]["deltas"]["d|late"] += 2e-6
    assert _run_with_tol(compare_reports, tmp_path, golden, new, 1e-6) == 1
    out = capsys.readouterr().out
    line = "DIFFERS: experiment2: deltas differ" if where == "deltas" else (
        f"DIFFERS: experiment2 d|AV|late: {where}"
    )
    assert line in out


def test_a_flipped_selection_fails_under_a_tolerance(compare_reports, golden, tmp_path, capsys):
    new = copy.deepcopy(golden)
    chosen = new["experiment2"]["cells"]["a|AVM|early"]["params"][0]
    chosen["svr.c"] = 2.0 if chosen["svr.c"] == 0.5 else 0.5
    assert _run_with_tol(compare_reports, tmp_path, golden, new, 1.0) == 1
    assert "DIFFERS: experiment2 a|AVM|early: svr.c" in capsys.readouterr().out
