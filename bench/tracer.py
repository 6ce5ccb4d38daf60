"""Span tracer that wraps memfuse's public functions from outside the program.

`Tracer.install()` replaces each function named in `TARGETS` in the module
namespace where its caller looks it up (``memfuse.fusion.fit_forest``,
``memfuse.regressors.svr.rbf_kernel_matrix``, ...) with a wrapper that opens a
span around the call; `uninstall()` puts the originals back. Spans keep a
parent stack and stay in memory until `write()`. A span's self time is its
duration minus the durations of its children, so the self times of all spans
sum to the durations of the root spans.

Some targets carry a hook that runs after the call, inside a ``trace.hook``
span so its cost is never charged to a layer. Hooks count work (rows, trees,
nodes, SMO iterations, kernel flops, bytes read) and record whether a call's
inputs were seen before in the run, which gives the ``*_distinct_frac``
waste ratios. Inputs are compared by fingerprint: shape, dtype and the bytes
of at most 64 evenly spaced columns of every row.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

_SAMPLED_COLUMNS = 64


def fingerprint(value) -> str:
    """A stable digest of an array, dataclass, tuple or scalar."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(repr((value.shape, value.dtype.str)).encode())
        if value.ndim == 2 and value.shape[1] > _SAMPLED_COLUMNS:
            value = value[:, :: value.shape[1] // _SAMPLED_COLUMNS]
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(repr(value).encode())


# ---------------------------------------------------------------------------
# Hooks: (tracer, bound arguments, result) -> None


def _kernel(tr, a, result) -> None:
    A, B = np.atleast_2d(a["A"]), np.atleast_2d(a["B"])
    tr.counts["svr.kernel_flop"] += 2 * A.shape[0] * B.shape[0] * A.shape[1]
    tr.note_inputs("svr.kernel", (A, B, a["gamma"]))


def _svr_fit(tr, a, model) -> None:
    tr.counts["svr.smo_iters"] += model.n_iter
    tr.counts["svr.unconverged"] += not model.converged
    tr.note_inputs("svr.fit", (a["X"], a["y"], a["params"]))
    beta, c = model.dual_coefs, model.params.c
    if abs(float(beta.sum())) > 1e-9:
        tr.problems.append(f"SVR dual coefficients sum to {float(beta.sum())!r}, not 0")
    if beta.size and float(np.abs(beta).max()) > c:
        tr.problems.append(f"SVR |beta| reaches {float(np.abs(beta).max())!r} > C={c!r}")


def _rows(counter):
    def hook(tr, a, result) -> None:
        tr.counts[counter] += np.atleast_2d(a["X"]).shape[0]

    return hook


def _forest_fit(tr, a, model) -> None:
    tr.counts["forest.trees"] += len(model.trees)
    tr.counts["forest.nodes"] += sum(int(t.feature.shape[0]) for t in model.trees)
    tr.note_inputs("forest.fit", (a["X"], a["y"], a["params"]))


def _file_bytes(tr, a, result) -> None:
    tr.counts["av.bytes"] += os.path.getsize(a["path"])


def _grid_points(tr, a, result) -> None:
    tr.counts["evaluation.grid_points"] += len(result[1])


# (module, attribute, span name, hook). A function that two modules look up
# is listed under both names.
TARGETS = (
    ("memfuse.model", "load_dataset", "model.load_dataset", None),
    ("memfuse.model", "memory_subset", "model.memory_subset", None),
    ("memfuse.evaluation", "memory_subset", "model.memory_subset", None),
    ("memfuse.text", "load_resources", "text.load_resources", None),
    ("memfuse.evaluation", "load_resources", "text.load_resources", None),
    ("memfuse.text.features", "TextFeatureExtractor.extract", "text.extract", None),
    ("memfuse.text.features", "lexical_features", "text.lexical_features", None),
    ("memfuse.text.features", "embed_features", "text.embed_features", None),
    ("memfuse.text.features", "tokenize", "text.tokenize", None),
    ("memfuse.text.sentiment", "tokenize", "text.tokenize", None),
    ("memfuse.text.sentiment", "RuleScorer.score", "text.sentiment_score", None),
    ("memfuse.av", "load_manifest", "av.load_manifest", _file_bytes),
    ("memfuse.av", "load_video_features", "av.load_video_features", None),
    ("memfuse.av", "load_audio_features", "av.load_audio_features", _file_bytes),
    ("memfuse.av", "load_frame_features", "av.load_frame_features", _file_bytes),
    ("memfuse.av", "pool_frames", "av.pool_frames", None),
    ("memfuse.regressors.svr", "rbf_kernel_matrix", "svr.kernel", _kernel),
    ("memfuse.fusion", "fit_svr", "svr.fit", _svr_fit),
    ("memfuse.fusion", "predict_svr", "svr.predict", _rows("svr.predict_rows")),
    ("memfuse.fusion", "fit_forest", "forest.fit", _forest_fit),
    ("memfuse.fusion", "predict_forest", "forest.predict", _rows("forest.predict_rows")),
    ("memfuse.fusion", "fit_ridge", "ridge.fit", None),
    ("memfuse.fusion", "predict_ridge", "ridge.predict", None),
    ("memfuse.fusion", "early_fusion_fit", "fusion.early_fit", None),
    ("memfuse.evaluation", "early_fusion_fit", "fusion.early_fit", None),
    ("memfuse.fusion", "late_fusion_fit", "fusion.late_fit", None),
    ("memfuse.evaluation", "late_fusion_fit", "fusion.late_fit", None),
    ("memfuse.fusion", "fusion_predict", "fusion.predict", None),
    ("memfuse.evaluation", "fusion_predict", "fusion.predict", None),
    ("memfuse.evaluation", "run_experiment1", "evaluation.run_experiment1", None),
    ("memfuse.evaluation", "run_experiment2", "evaluation.run_experiment2", None),
    ("memfuse.evaluation", "grid_search", "evaluation.grid_search", _grid_points),
    ("memfuse.evaluation", "r2_score", "evaluation.r2_score", None),
    ("memfuse.evaluation", "av_dagger_baseline", "evaluation.av_dagger_baseline", None),
    ("memfuse.evaluation", "make_lpo_folds", "evaluation.make_lpo_folds", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def note_inputs(self, kind: str, inputs) -> None:
        key = fingerprint(inputs)
        self.counts[f"{kind}.calls"] += 1
        if key not in self._seen[kind]:
            self._seen[kind].add(key)
            self.counts[f"{kind}.distinct"] += 1

    def _wrap(self, fn, name: str, hook):
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.span("trace.hook"):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attribute, name, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading the trace -------------------------------------------------

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def wall(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def by_name(self) -> dict[str, dict]:
        """Calls, total time (children included) and self time per span name."""
        table: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return table

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have an ancestor span called `ancestor`."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def write(self, path) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "by_name": self.by_name(),
            "counts": dict(self.counts),
            "problems": self.problems,
            "wall_s": self.wall(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
