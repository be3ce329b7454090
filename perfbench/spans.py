"""Spans around the calls into each layer of the package, recorded from
outside the package.

Each wrapper is installed in the namespace where its caller looks the
function up: ``experiment`` imports ``vr_persistence``, ``feature_vector``
and the others by name, and ``compactness`` imports ``ot_infinity`` by
name, so patching only the defining module would miss those calls. Counts
are derived from arguments and return values after the span closes.

Spans stay in memory and are aggregated when the traced run ends. A forked
pool worker inherits the wrappers and the open parent span; it appends its
spans to a file per process, which the parent reads back.
"""
from __future__ import annotations

import inspect
import json
import os
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from empers import compactness, experiment, io, learn, transport

_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rips_counts(args, result):
    """Simplices n + C(n,2) + C(n,3) within max_radius, and diagram points."""
    dm, opts = args["dm"], args["opts"]
    adjacency = (dm.entries <= opts.max_radius).astype(np.int64)
    np.fill_diagonal(adjacency, 0)
    simplices = dm.n + int(adjacency.sum()) // 2
    if opts.max_dim >= 1:
        simplices += int(np.trace(adjacency @ adjacency @ adjacency)) // 6
    return {"simplices": simplices, "diagram_points": sum(len(d) for d in result.values())}


def _image_counts(args, result):
    return {"pixels": int(args["img"].values.size), "diagram_points": len(result)}


def _written_bytes(args, _result):
    return {"bytes": os.path.getsize(args["path"])}


def _feature_counts():
    seen = []  # template systems already counted, compared by identity

    def count(args, _result):
        system = args["system"]
        new = not any(system is s for s in seen)
        if new:
            seen.append(system)
        return {"points_in": sum(len(d) for d in args["diagrams"]),
                "templates": len(system) if new else 0}
    return count


def _train_counts(args, model):
    return {"iters": model.n_iters, "unconverged": int(model.n_iters == args["cfg"].max_iters)}


def _coincident(points: np.ndarray) -> int:
    """Atoms that share their point with another atom of the same measure."""
    if len(points) == 0:
        return 0
    _, counts = np.unique(points, axis=0, return_counts=True)
    return int(counts[counts > 1].sum())


def _transport_counts(args, result):
    mu, nu = args["mu"], args["nu"]
    return {"atoms": mu.n_atoms + nu.n_atoms, "thresholds_tested": result.thresholds_tested,
            "coincident_atoms": _coincident(mu.points) + _coincident(nu.points)}


def _feasible_counts(_args, result):
    return {"feasible": int(result is not None)}


_COUNT_KEYS = {
    "persistence.vr_persistence": ("simplices", "diagram_points"),
    "persistence.image_sublevel_h0": ("pixels", "diagram_points"),
    "io.write_point_cloud_csv": ("bytes",),
    "io.write_diagram_csv": ("bytes",),
    "features.feature_vector": ("points_in", "templates"),
    "learn.train_logistic": ("iters", "unconverged"),
    "transport.ot_infinity": ("atoms", "thresholds_tested", "coincident_atoms"),
    "transport.feasible_at": ("feasible",),
}


def _wrap_points():
    """(namespace, attribute, layer, counter) for every wrapped call site."""
    feature_counts = _feature_counts()
    points = [
        (experiment, "vr_persistence", "persistence.vr_persistence", _rips_counts),
        (experiment, "image_sublevel_h0", "persistence.image_sublevel_h0", _image_counts),
        (experiment, "feature_vector", "features.feature_vector", feature_counts),
        (experiment, "train_logistic", "learn.train_logistic", _train_counts),
        (learn, "train_logistic", "learn.train_logistic", _train_counts),
        (experiment, "predict", "learn.predict", None),
        (compactness, "ot_infinity", "transport.ot_infinity", _transport_counts),
        (transport, "feasible_at", "transport.feasible_at", _feasible_counts),
        (compactness, "build_report", "compactness.build_report", None),
        (compactness, "diameter_bound", "compactness.diameter_bound", None),
    ]
    for op in ("write", "read"):
        for kind in ("point_cloud", "diagram", "feature"):
            name = f"{op}_{kind}_csv"
            counter = _written_bytes if op == "write" and kind != "feature" else None
            points.append((io, name, f"io.{name}", counter))
    for stage in ("stage_sample", "stage_diagrams", "stage_featurize", "stage_train",
                  "image_h0_features"):
        points.append((experiment, stage, f"experiment.{stage}", None))
    return points


class Tracer:
    """Records spans: layer name, start, end, id ("pid:n"), parent id, counts."""

    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._next = 0

    def _record(self, span: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a") as f:
                f.write(json.dumps(span) + "\n")

    def _wrap(self, fn, layer: str, counter):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            self._next += 1
            span_id = f"{os.getpid()}:{self._next}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.stack.pop()
                self._record({"name": layer, "start": start, "end": perf_counter(),
                              "id": span_id, "parent": parent, "counts": {}})
                raise
            end = perf_counter()
            self.stack.pop()
            counts = {}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            self._record({"name": layer, "start": start, "end": end,
                          "id": span_id, "parent": parent, "counts": counts})
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        saved = []
        try:
            for namespace, attr, layer, counter in _wrap_points():
                original = getattr(namespace, attr)
                saved.append((namespace, attr, original))
                setattr(namespace, attr, self._wrap(original, layer, counter))
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def all_spans(self) -> list[dict]:
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text().splitlines())
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _tail(durations_ms: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least 10 samples beyond it, and
    its value; (0, 0) when there are too few samples for any."""
    n = len(durations_ms)
    for pct in _TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(durations_ms, pct))
    return 0.0, 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures from the spans of one traced batch job: calls and
    busy time for every layer, latency percentiles where calls are many,
    self time for the experiment stages, and the summed counts."""
    by_layer: dict[str, list[dict]] = {}
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        by_layer.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))

    out: dict[str, float] = {}
    layers = {layer for _, _, layer, _ in _wrap_points()}
    for layer in sorted(layers):
        group = by_layer.get(layer, [])
        durations = [s["end"] - s["start"] for s in group]
        out[f"{layer}.calls"] = len(group)
        out[f"{layer}.busy_s"] = sum(durations)
        if layer.startswith("experiment."):
            out[f"{layer}.self_s"] = sum(
                (s["end"] - s["start"])
                - _union_length([(max(a, s["start"]), min(b, s["end"]))
                                 for a, b in children.get(s["id"], []) if b > s["start"] and a < s["end"]])
                for s in group)
        for key in _COUNT_KEYS.get(layer, ()):
            out[f"{layer}.{key}"] = sum(s["counts"].get(key, 0) for s in group)
        if layer in ("persistence.vr_persistence", "persistence.image_sublevel_h0",
                     "transport.ot_infinity"):
            ms = [d * 1e3 for d in durations]
            out[f"{layer}.p50_ms"] = statistics.median(ms) if ms else 0.0
            out[f"{layer}.tail_pct"], out[f"{layer}.tail_ms"] = _tail(ms)

    out["features.templates"] = out.pop("features.feature_vector.templates")
    feasible = out.pop("transport.feasible_at.feasible")
    out["transport.feasible_at.feasible_ratio"] = _ratio(feasible, out["transport.feasible_at.calls"])
    coincident = out.pop("transport.ot_infinity.coincident_atoms")
    out["transport.ot_infinity.coincident_atom_share"] = _ratio(
        coincident, out["transport.ot_infinity.atoms"])
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
