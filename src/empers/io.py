"""File formats: diagrams (CSV), point clouds (CSV), template systems and
models (JSON), and feature matrices (CSV with a trailing label column).
Measures (JSON) are read only: the ``distance`` and ``diagnose`` commands
take them as input, and no stage writes them. Images have no file format
yet: the texture experiment synthesizes its images in memory.

Floats are written with ``repr`` so files round-trip bit-for-bit and reruns
of a deterministic pipeline produce byte-identical artifacts.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import DataError
from .features import BIRTH_PERSISTENCE, StepKernel, TemplateFunction, TemplateSystem
from .learn import LogisticModel, PolynomialMap, TrainConfig
from .measure import MetricConfig, PersistenceDiagram, PersistenceMeasure, Rectangle

PathLike = Union[str, Path]


def write_diagram_csv(path: PathLike, diagram: PersistenceDiagram) -> None:
    lines = ["birth,death"]
    lines.extend(f"{repr(float(b))},{repr(float(d))}" for b, d in diagram.points)
    Path(path).write_text("\n".join(lines) + "\n")


def read_diagram_csv(path: PathLike) -> PersistenceDiagram:
    text = Path(path).read_text().strip()
    lines = text.splitlines()
    if not lines or lines[0].strip().lower() != "birth,death":
        raise DataError(f"{path}: expected 'birth,death' header")
    points = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        try:
            b, d = (float(tok) for tok in ln.split(","))
        except ValueError as exc:
            raise DataError(f"{path}: bad diagram row {ln!r}") from exc
        points.append((b, d))
    try:
        return PersistenceDiagram(points)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_measure_json(path: PathLike) -> tuple[PersistenceMeasure, MetricConfig]:
    """A measure file: {"atoms": [{"birth", "death", "mass"}, ...], "q": number
    or "inf" (the default)}."""
    try:
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict):
            raise ValueError("the top level must be a JSON object")
        q = obj.get("q", "inf")
        q = math.inf if q in ("inf", "Infinity") else float(q)
        atoms = [((a["birth"], a["death"]), a["mass"]) for a in obj["atoms"]]
        return PersistenceMeasure(atoms), MetricConfig(q)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: invalid measure file: {exc}") from exc


def write_point_cloud_csv(path: PathLike, points: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in np.asarray(points)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_point_cloud_csv(path: PathLike) -> np.ndarray:
    try:
        rows = [[float(tok) for tok in ln.split(",")]
                for ln in Path(path).read_text().strip().splitlines() if ln.strip()]
        cloud = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise DataError(f"{path}: invalid point cloud: {exc}") from exc
    if cloud.ndim != 2:
        raise DataError(f"{path}: rows have inconsistent lengths")
    if not np.all(np.isfinite(cloud)):
        raise DataError(f"{path}: point coordinates must be finite")
    return cloud


def _rect_to_json(r: Rectangle) -> dict:
    return {"x_min": r.x_min, "x_max": r.x_max, "y_min": r.y_min, "y_max": r.y_max}


def _rect_from_json(obj: dict) -> Rectangle:
    return Rectangle(obj["x_min"], obj["x_max"], obj["y_min"], obj["y_max"])


def write_template_system_json(path: PathLike, system: TemplateSystem) -> None:
    obj = {
        "kernel": _rect_to_json(system.kernel.support),
        "templates": [_rect_to_json(t.support) for t in system.templates],
        "frame": BIRTH_PERSISTENCE,
    }
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def read_template_system_json(path: PathLike) -> TemplateSystem:
    try:
        obj = json.loads(Path(path).read_text())
        system = TemplateSystem(
            kernel=StepKernel(_rect_from_json(obj["kernel"])),
            templates=tuple(TemplateFunction(_rect_from_json(t)) for t in obj["templates"]),
        )
        if obj.get("frame", BIRTH_PERSISTENCE) != BIRTH_PERSISTENCE:
            raise ValueError(f"unsupported coordinate frame {obj['frame']!r}")
        return system
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: invalid template system: {exc}") from exc


def write_feature_csv(path: PathLike, matrix: np.ndarray, labels: Sequence[str],
                      column_ids: Sequence[str]) -> None:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] != len(labels) or matrix.shape[1] != len(column_ids):
        raise ValueError("feature matrix, labels, and column ids are inconsistent")
    lines = [",".join([*column_ids, "label"])]
    for row, label in zip(matrix, labels):
        lines.append(",".join([*(repr(float(v)) for v in row), str(label)]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_feature_csv(path: PathLike) -> tuple[np.ndarray, list[str], list[str]]:
    """Returns (matrix, labels, column_ids)."""
    lines = [ln for ln in Path(path).read_text().strip().splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty feature file")
    header = lines[0].split(",")
    if header[-1] != "label":
        raise DataError(f"{path}: final column must be 'label'")
    column_ids = header[:-1]
    rows, labels = [], []
    for ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != len(header):
            raise DataError(f"{path}: row with {len(toks)} fields, expected {len(header)}")
        try:
            rows.append([float(t) for t in toks[:-1]])
        except ValueError as exc:
            raise DataError(f"{path}: bad feature row {ln!r}") from exc
        labels.append(toks[-1])
    return np.asarray(rows, dtype=float), labels, column_ids


def write_model_json(path: PathLike, model: LogisticModel) -> None:
    obj = {
        "weights": model.weights.tolist(),
        "polynomial": {"degree": model.polynomial.degree,
                       "n_features": model.polynomial.n_features,
                       "include_bias": model.polynomial.include_bias},
        "feature_means": model.feature_means.tolist(),
        "feature_scales": model.feature_scales.tolist(),
        "label_names": list(model.label_names),
        "train_config": {"l2": model.train_config.l2,
                         "max_iters": model.train_config.max_iters,
                         "tol": model.train_config.tol,
                         "seed": model.train_config.seed},
        "n_iters": model.n_iters,
        "final_loss": model.final_loss,
        "converged": model.converged,
        "final_grad_norm": model.final_grad_norm,
        "template_system_ref": model.template_system_ref,
    }
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def read_model_json(path: PathLike) -> LogisticModel:
    try:
        obj = json.loads(Path(path).read_text())
        pmap = PolynomialMap(**obj["polynomial"])
        return LogisticModel(
            weights=np.asarray(obj["weights"], dtype=float),
            polynomial=pmap,
            feature_means=np.asarray(obj["feature_means"], dtype=float),
            feature_scales=np.asarray(obj["feature_scales"], dtype=float),
            label_names=tuple(obj["label_names"]),
            train_config=TrainConfig(**obj["train_config"]),
            n_iters=obj["n_iters"],
            final_loss=obj["final_loss"],
            converged=obj["converged"],
            final_grad_norm=obj["final_grad_norm"],
            template_system_ref=obj.get("template_system_ref"),
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: invalid model file: {exc}") from exc


def write_json(path: PathLike, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
