"""Tests of the benchmark itself: generator, reference computations and tracer.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import generate
import reference
from memfuse import av, evaluation, fusion, model, text
from memfuse._seeds import child_seed
from memfuse.regressors import ForestParams, SvrParams
from tracer import TARGETS, Tracer

SEED = 7


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "data"
    generate.generate(SEED, out, generate.TINY)
    return out


@pytest.fixture(scope="module")
def loaded(tiny):
    ds = model.load_dataset(tiny / "dataset.json")
    features = av.load_video_features(av.load_manifest(tiny / "av" / "manifest.json"))
    return ds, features, text.TextFeatureExtractor(text.load_resources())


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_byte_stable_for_a_seed(tiny, tmp_path):
    generate.generate(SEED, tmp_path / "again", generate.TINY)
    generate.generate(SEED + 1, tmp_path / "other", generate.TINY)
    first, again = _files(tiny), _files(tmp_path / "again")
    assert first == again
    assert _files(tmp_path / "other")["dataset.json"] != first["dataset.json"]


def test_generator_deals_every_video_the_same_number_of_memories(loaded):
    ds, _, _ = loaded
    rows = [r for r in ds.responses if r.memories]
    shape = generate.TINY
    assert len(rows) == shape.participants * shape.memories_per_participant
    counts = {v: sum(r.video_id == v for r in rows) for v in ds.videos}
    assert set(counts.values()) == {len(rows) // shape.videos}


def test_reference_seed_and_folds_match_program():
    pids = [f"p{i:02d}" for i in range(11)]
    assert reference.child_seed(SEED, "outer-folds") == child_seed(SEED, "outer-folds")
    plan = evaluation.make_lpo_folds(set(pids), 3, child_seed(SEED, "outer-folds"))
    assert reference.outer_fold_of(pids, 3, SEED) == plan.assignments


def test_reference_av_dagger_matches_program(loaded):
    ds, features, extractor = loaded
    report = evaluation.run_experiment2(
        ds, features, {"svr.c": [1.0]}, SEED, extractor=extractor,
        conditions=("AVdagger",), strategies=("early",), k_outer=3,
    )
    rows = [r for r in ds.responses if r.memories]
    for dim in ("p", "a", "d"):
        y = np.array([getattr(r.induced, dim) for r in rows])
        expected = reference.av_dagger_fold_r2(
            [r.participant_id for r in rows], [r.video_id for r in rows], y, 3, SEED
        )
        got = report.cells[(dim, "AVdagger", "early")].fold_r2
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_reference_late_fusion_matches_program(loaded):
    ds, features, extractor = loaded
    rows = [r for r in ds.responses if r.memories]
    feats = [extractor.extract(r.memories[0].text) for r in rows]
    bundles = [
        fusion.ModalityBundle(
            audio=features[r.video_id]["audio"],
            visual=features[r.video_id]["visual"],
            mem_lexical=f.lexical,
            mem_embedding=f.embedding,
        )
        for r, f in zip(rows, feats)
    ]
    fitted = fusion.late_fusion_fit(
        bundles,
        np.array([r.induced.p for r in rows]),
        fusion.LateFusionParams(
            audio=SvrParams(), visual=SvrParams(), memory=ForestParams(n_trees=5, seed=SEED)
        ),
        meta_alpha=1.0,
        groups=[r.participant_id for r in rows],
        seed=SEED,
    )
    got = fusion.fusion_predict(fitted, bundles)
    expected = [
        reference.late_fusion_predict(
            fitted,
            features[r.video_id]["audio"],
            features[r.video_id]["visual"],
            np.concatenate([f.lexical, f.embedding]),
        )
        for r, f in zip(rows, feats)
    ]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def _experiment1(ds, extractor):
    grid = {"svr.c": [0.1, 1.0], "ridge.alpha": [1.0], "forest.n_trees": [2]}
    return evaluation.run_experiment1(
        ds, grid, SEED, extractor=extractor, k_outer=3, k_inner=2, dims=("p",)
    ).to_json()


def test_traced_self_times_sum_to_traced_wall_time(loaded):
    ds, _, extractor = loaded
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed(), tracer.span("bench.round"):
        _experiment1(ds, extractor)
    outside = time.perf_counter() - start
    names = {span[0] for span in tracer.spans}
    assert {"forest.fit", "svr.kernel", "text.tokenize", "evaluation.grid_search"} <= names
    assert sum(tracer.self_times()) == pytest.approx(tracer.wall(), rel=0, abs=1e-9)
    assert 0.0 < tracer.wall() <= outside
    assert all(own >= -1e-9 for own in tracer.self_times())


def test_traced_report_equals_untraced_report(loaded):
    ds, _, extractor = loaded
    plain = _experiment1(ds, extractor)
    with Tracer().installed():
        traced = _experiment1(ds, extractor)
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)


def test_uninstall_restores_every_target():
    import importlib

    def lookup(module, attribute):
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        return owner

    before = [lookup(m, a) for m, a, _, _ in TARGETS]
    tracer = Tracer()
    with tracer.installed():
        assert all(lookup(m, a) is not b for (m, a, _, _), b in zip(TARGETS, before))
    assert [lookup(m, a) for m, a, _, _ in TARGETS] == before
