"""The benchmark's three workloads.

Each workload has a `setup()` made only of program calls, whose wall time is
`setup_s`; a round of operations whose wall time is `run_s`; and a `check()`
of the round outputs against independent computations or required
properties. Functions are looked up on their module at call time, so the
tracer's wrappers see every call.

- ``exp1_memory``: `run_experiment1` on the memory condition, early and late
  fusion, one operation per PAD dimension. Forest growth dominates.
- ``exp2_av_early``: `run_experiment2` on AV, AVM and AV-dagger, early fusion
  only, one operation per dimension. RBF Gram builds on ~10.9k-d inputs and
  the SMO solve dominate; no forest runs.
- ``score_new_viewers``: set-up also fits one late-fusion AVM model for
  pleasure; a round scores every held-out memory response one at a time
  (text features, then `fusion_predict`). Prediction, not fitting.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import reference
from memfuse import av, evaluation, fusion, model, text
from memfuse.regressors import ForestParams, SvrParams

DIMS = ("p", "a", "d")


def _grid_problems(report_json: dict, grid: dict, k_outer: int, with_params) -> list[str]:
    """Fold-count, finiteness, mean and grid-membership checks on every cell."""
    problems = []
    for key, cell in report_json["cells"].items():
        folds = cell["fold_r2"]
        if len(folds) != k_outer or not all(math.isfinite(v) for v in folds):
            problems.append(f"{key}: fold scores {folds} are not {k_outer} finite values")
        elif abs(cell["mean_r2"] - float(np.mean(folds))) > 1e-12:
            problems.append(f"{key}: mean_r2 {cell['mean_r2']} is not the mean of {folds}")
        if key.split("|")[1] not in with_params:
            continue
        params = cell["params"] or []
        if len(params) != k_outer:
            problems.append(f"{key}: {len(params)} selections for {k_outer} outer folds")
        for chosen in params:
            for name, value in chosen.items():
                if value not in grid.get(name, ()):
                    problems.append(f"{key}: selected {name}={value!r} is not in the grid")
    return problems


def _same_every_round(rounds: list[list]) -> list[str]:
    first = rounds[0]
    if any(json.dumps(r, sort_keys=True) != json.dumps(first, sort_keys=True) for r in rounds[1:]):
        return ["outputs differ between rounds of the same inputs"]
    return []


class Exp1Memory:
    name = "exp1_memory"
    setup_reps = 30
    k_outer, k_inner = 3, 2
    grid = {
        "svr.c": [0.1, 1.0],
        "ridge.alpha": [0.1, 10.0],
        "forest.n_trees": [4],
        "forest.max_features": [0.1],
        "forest.min_leaf": [5],
    }

    def __init__(self, data_dir: Path, seed: int):
        self.data_dir, self.seed = data_dir, seed

    def setup(self) -> dict:
        return {
            "ds": model.load_dataset(self.data_dir / "dataset.json"),
            "extractor": text.TextFeatureExtractor(text.load_resources()),
        }

    def operations(self, state):
        def op(dim):
            return lambda: evaluation.run_experiment1(
                state["ds"],
                self.grid,
                self.seed,
                extractor=state["extractor"],
                k_outer=self.k_outer,
                k_inner=self.k_inner,
                dims=(dim,),
            ).to_json()

        return [op(dim) for dim in DIMS]

    def check(self, state, rounds: list[list]) -> list[str]:
        problems = _same_every_round(rounds)
        for report in filter(None, rounds[0]):  # None marks a failed operation
            problems += _grid_problems(report, self.grid, self.k_outer, ("M",))
            for key, cell in report["cells"].items():
                if not cell["mean_r2"] > 0.0:
                    problems.append(f"{key}: memory-only R2 {cell['mean_r2']} is not above 0")
        return problems


class Exp2AvEarly:
    name = "exp2_av_early"
    setup_reps = 6
    k_outer, k_inner = 3, 2
    grid = {"svr.c": [0.1, 1.0], "svr.epsilon": [0.05, 0.2]}

    def __init__(self, data_dir: Path, seed: int):
        self.data_dir, self.seed = data_dir, seed

    def setup(self) -> dict:
        return {
            "ds": model.load_dataset(self.data_dir / "dataset.json"),
            "extractor": text.TextFeatureExtractor(text.load_resources()),
            "av": av.load_video_features(av.load_manifest(self.data_dir / "av" / "manifest.json")),
        }

    def operations(self, state):
        def op(dim):
            return lambda: evaluation.run_experiment2(
                state["ds"],
                state["av"],
                self.grid,
                self.seed,
                extractor=state["extractor"],
                conditions=("AV", "AVM", "AVdagger"),
                strategies=("early",),
                k_outer=self.k_outer,
                k_inner=self.k_inner,
                dims=(dim,),
            ).to_json()

        return [op(dim) for dim in DIMS]

    def check(self, state, rounds: list[list]) -> list[str]:
        problems = _same_every_round(rounds)
        rows = [r for r in state["ds"].responses if r.memories]
        participants = [r.participant_id for r in rows]
        videos = [r.video_id for r in rows]
        for dim, report in zip(DIMS, rounds[0]):
            if report is None:
                continue
            problems += _grid_problems(report, self.grid, self.k_outer, ("AV", "AVM"))
            cells = report["cells"]
            y = np.array([getattr(r.induced, dim) for r in rows])
            expected = reference.av_dagger_fold_r2(participants, videos, y, self.k_outer, self.seed)
            got = cells[f"{dim}|AVdagger|early"]["fold_r2"]
            if len(got) != len(expected) or max(abs(a - b) for a, b in zip(got, expected)) > 1e-12:
                problems.append(f"{dim}: AV-dagger folds {got} differ from reference {expected}")
            avm, av_ = cells[f"{dim}|AVM|early"]["mean_r2"], cells[f"{dim}|AV|early"]["mean_r2"]
            if report["deltas"][f"{dim}|early"] != avm - av_:
                problems.append(f"{dim}: delta {report['deltas'][f'{dim}|early']} != AVM - AV")
            if not avm > av_:
                problems.append(f"{dim}: AVM R2 {avm} does not beat AV R2 {av_}")
        return problems


class ScoreNewViewers:
    name = "score_new_viewers"
    setup_reps = 4
    svr = SvrParams(c=1.0, epsilon=0.1)
    forest = ForestParams(n_trees=20, max_features=0.1, min_leaf=5)
    meta_alpha = 1.0

    def __init__(self, data_dir: Path, seed: int):
        self.data_dir, self.seed = data_dir, seed

    def _bundle(self, av_features, extractor, response):
        feats = extractor.extract(response.memories[0].text)
        video = av_features[response.video_id]
        return fusion.ModalityBundle(
            audio=video["audio"],
            visual=video["visual"],
            mem_lexical=feats.lexical,
            mem_embedding=feats.embedding,
        )

    def setup(self) -> dict:
        ds = model.memory_subset(model.load_dataset(self.data_dir / "dataset.json"))
        new = model.memory_subset(model.load_dataset(self.data_dir / "new_viewers.json"))
        extractor = text.TextFeatureExtractor(text.load_resources())
        av_features = av.load_video_features(av.load_manifest(self.data_dir / "av" / "manifest.json"))
        bundles = [self._bundle(av_features, extractor, r) for r in ds.responses]
        fitted = fusion.late_fusion_fit(
            bundles,
            np.array([r.induced.p for r in ds.responses]),
            fusion.LateFusionParams(
                audio=self.svr,
                visual=self.svr,
                memory=dataclasses.replace(self.forest, seed=self.seed),
            ),
            meta_alpha=self.meta_alpha,
            groups=[r.participant_id for r in ds.responses],
            seed=self.seed,
        )
        return {"new": new.responses, "extractor": extractor, "av": av_features, "model": fitted}

    def score(self, state, response) -> float:
        bundle = self._bundle(state["av"], state["extractor"], response)
        return float(fusion.fusion_predict(state["model"], [bundle])[0])

    def operations(self, state):
        return [lambda r=r: self.score(state, r) for r in state["new"]]

    def check(self, state, rounds: list[list]) -> list[str]:
        problems = _same_every_round(rounds)
        scored = [(r, p) for r, p in zip(state["new"], rounds[0]) if p is not None]
        if not scored:
            return problems
        if self.score(state, scored[0][0]) != scored[0][1]:
            problems.append("scoring the same response twice gave different outputs")
        extractor, fitted = state["extractor"], state["model"]
        worst = 0.0
        for response, pred in scored:
            video = state["av"][response.video_id]
            feats = extractor.extract(response.memories[0].text)
            memory = np.concatenate([feats.lexical, feats.embedding])
            expected = reference.late_fusion_predict(fitted, video["audio"], video["visual"], memory)
            worst = max(worst, abs(expected - pred))
        if worst > 1e-9:
            problems.append(f"predictions differ from the numpy re-evaluation by up to {worst!r}")
        preds = [p for _, p in scored]
        truth = [r.induced.p for r, _ in scored]
        corr = float(np.corrcoef(preds, truth)[0, 1])
        if not corr > 0.0:
            problems.append(f"predictions correlate {corr} with the held-out targets")
        return problems


WORKLOADS = {w.name: w for w in (Exp1Memory, Exp2AvEarly, ScoreNewViewers)}
