"""The batch pipeline: sample point clouds, compute diagrams, featurize,
train, and evaluate, with file artifacts at every stage.

Clouds and diagrams pass between stages as one CSV file per sample, named
``<label>__<instance>__<repeat>.csv`` (plus a ``__h<degree>`` suffix for
diagrams), so any stage can be rerun or inspected in isolation. Four
functions own that layout, each keyed by ``(label, instance, repeat)``:
``write_clouds`` and ``read_clouds``, ``write_diagrams`` and
``read_diagrams``. Nothing else builds or parses those names, globs for
them or removes the ones an earlier run left behind, and the sample,
diagram and featurize stages do no file I/O of their own. The diagram
stage reads every cloud first and hands ``write_diagrams`` each cloud's
diagrams as the workers return them, so files are written while the rest
are computed.

A manifest records per-stage outputs and timings; with ``resume`` enabled,
stages whose outputs already exist under the same config hash are skipped.
"""
from __future__ import annotations

import json
import math
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import io
from ._version import __version__
from .config import ExperimentConfig, derive_seed
from .errors import ConfigError, DataError
from .features import (
    TemplateSystem,
    StepKernel,
    drop_zero_columns,
    enclosing_bounds,
    feature_vector,
    template_grid,
)
from .learn import (
    Dataset,
    LogisticModel,
    PolynomialMap,
    TrainConfig,
    accuracy,
    confusion_matrix,
    predict,
    train_logistic,
    train_test_split,
)
from .measure import PersistenceDiagram
from .persistence import FiltrationOptions, GrayImage, image_sublevel_h0, vr_persistence
from .samplers import PointCloud, pairwise_distances, sample_patches, sample_shape

TOOL_VERSION = f"empers {__version__}"

Key = tuple[str, int, int]  # (label, instance, repeat) of one sampled cloud

_ARTIFACT_NAME = re.compile(r"(.+)__([0-9]+)__([0-9]+)(?:__h([0-9]+))?\.csv")


def _artifact_name(key: Key, degree: Optional[int] = None) -> str:
    label, instance, repeat = key
    suffix = "" if degree is None else f"__h{degree}"
    return f"{label}__{instance:04d}__{repeat:04d}{suffix}.csv"


def _parse_artifact_name(name: str) -> tuple[Key, Optional[int]]:
    """The key and degree (None for a cloud) that ``_artifact_name`` made
    ``name`` from. The label is everything before the last two numbers, so
    labels may contain ``__``."""
    match = _ARTIFACT_NAME.fullmatch(name)
    if match is None:
        raise DataError(f"cannot parse artifact name {name!r}: expected "
                        "<label>__<instance>__<repeat>[__h<degree>].csv")
    label, instance, repeat, degree = match.groups()
    return (label, int(instance), int(repeat)), None if degree is None else int(degree)


def _clear_artifacts(out_dir: Path, diagrams: bool) -> None:
    """Create ``out_dir`` and delete the clouds (or, with ``diagrams``, the
    diagrams) an earlier run left there: readers take every artifact in the
    directory, so stale files would join this run's. Other files stay."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.glob("*.csv"):
        try:
            degree = _parse_artifact_name(path.name)[1]
        except DataError:
            continue
        if (degree is not None) == diagrams:
            path.unlink()


def write_clouds(out_dir: Path, clouds: dict[Key, np.ndarray]) -> list[Path]:
    """One CSV per cloud, in the dict's order, replacing the clouds an
    earlier run left in ``out_dir``. Returns the paths written."""
    _clear_artifacts(out_dir, diagrams=False)
    paths = []
    for key, points in clouds.items():
        path = out_dir / _artifact_name(key)
        io.write_point_cloud_csv(path, points)
        paths.append(path)
    return paths


def read_clouds(in_dir: Path) -> dict[Key, np.ndarray]:
    """Every cloud in ``in_dir``, in file-name order. Diagrams there are
    skipped, so one directory can hold both stages' artifacts; any other
    CSV file is a ``DataError``."""
    clouds = {}
    for path in sorted(in_dir.glob("*.csv")):
        try:
            key, degree = _parse_artifact_name(path.name)
        except DataError as exc:
            raise DataError(f"{in_dir}: {exc}") from None
        if degree is None:
            clouds[key] = io.read_point_cloud_csv(path)
    return clouds


def write_diagrams(out_dir: Path,
                   diagrams: Iterable[tuple[Key, dict[int, PersistenceDiagram]]]) -> list[Path]:
    """One CSV per (cloud, degree), replacing the diagrams an earlier run
    left in ``out_dir``. ``diagrams`` is consumed lazily, so each file is
    written as soon as its cloud's diagrams arrive. Returns the paths
    written."""
    _clear_artifacts(out_dir, diagrams=True)
    paths = []
    for key, by_degree in diagrams:
        for degree, diagram in by_degree.items():
            path = out_dir / _artifact_name(key, degree)
            io.write_diagram_csv(path, diagram)
            paths.append(path)
    return paths


def read_diagrams(in_dir: Path, degree: int,
                  n_samples: int) -> dict[tuple[str, int], list[PersistenceDiagram]]:
    """Diagrams of one degree grouped per (label, instance), keeping repeats
    below ``n_samples``. Every instance must have each of the repeats
    0..n_samples-1, or the estimate would average fewer diagrams than asked."""
    found: dict[tuple[str, int], list[tuple[int, Path]]] = {}
    for path in sorted(in_dir.glob(f"*__h{degree}.csv")):
        (label, instance, repeat), _ = _parse_artifact_name(path.name)
        if repeat < n_samples:
            found.setdefault((label, instance), []).append((repeat, path))
    for (label, instance), entries in found.items():
        if sorted(r for r, _ in entries) != list(range(n_samples)):
            raise DataError(f"instance {label}/{instance} has {len(entries)} degree-{degree} "
                            f"diagram(s) with repeat below {n_samples}; featurizing needs "
                            f"repeats 0..{n_samples - 1}, one each")
    return {key: [io.read_diagram_csv(p) for _, p in entries] for key, entries in found.items()}


def stage_sample(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """One point cloud per (class, instance, repeat), deterministically
    seeded from the master seed, written with ``write_clouds``."""
    clouds = {}
    for class_idx, shape in enumerate(cfg.shapes):
        for instance in range(shape.instances):
            for repeat in range(cfg.max_samples):
                seed = derive_seed(cfg.master_seed, "sample", class_idx, instance, repeat)
                spec = shape.spec(cfg.points_per_sample, seed)
                clouds[shape.class_label, instance, repeat] = sample_shape(spec).points
    return write_clouds(out_dir, clouds)


def _diagram_task(points: np.ndarray, opts: FiltrationOptions,
                  degrees: tuple[int, ...]) -> dict[int, PersistenceDiagram]:
    """Worker: the Rips diagrams of one cloud in the given degrees."""
    diagrams = vr_persistence(pairwise_distances(PointCloud(points)), opts)
    return {degree: diagrams[degree] for degree in degrees}


def stage_diagrams(in_dir: Path, cfg: ExperimentConfig, out_dir: Path,
                   jobs: int = 1) -> list[Path]:
    """Vietoris-Rips diagrams for every cloud in ``in_dir``, per degree.

    The results go to ``write_diagrams`` in cloud order as they are
    computed; with a pool, the parent writes while the workers compute."""
    clouds = read_clouds(in_dir)
    degrees = tuple(cfg.homology_degrees)
    opts = FiltrationOptions(
        max_dim=max(degrees), essential_policy=cfg.essential_policy,
        max_radius=math.inf if cfg.max_radius is None else cfg.max_radius)
    task = partial(_diagram_task, opts=opts, degrees=degrees)
    if jobs > 1 and len(clouds) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return write_diagrams(out_dir, zip(clouds, pool.map(task, clouds.values(),
                                                                chunksize=16)))
    return write_diagrams(out_dir, zip(clouds, map(task, clouds.values())))


def _read_fixed_system(cfg: ExperimentConfig) -> Optional[TemplateSystem]:
    """The template system of the config's ``template_system_file``, if any."""
    if not cfg.template_system_file:
        return None
    return io.read_template_system_json(cfg.template_system_file)


def _write_features(out_csv: Path, matrix: np.ndarray, labels: list[str],
                    column_ids: list[str], systems: dict[int, TemplateSystem],
                    system_dir: Optional[Path]) -> None:
    """The feature CSV and, in ``system_dir`` if given, each degree's
    template system as ``templates_h<degree>.json``."""
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    io.write_feature_csv(out_csv, matrix, labels, column_ids)
    if system_dir is not None:
        system_dir.mkdir(parents=True, exist_ok=True)
        for degree, system in systems.items():
            io.write_template_system_json(system_dir / f"templates_h{degree}.json", system)


def stage_featurize(diagram_dir: Path, cfg: ExperimentConfig, n_samples: int,
                    out_csv: Path, system_dir: Optional[Path] = None) -> Path:
    """One feature row per instance: per-degree template-grid features of the
    diagram batch, concatenated across degrees.

    The grid for each degree encloses every diagram of that degree and is
    frozen to JSON next to the feature matrix for reuse at prediction time.
    A ``template_system_file`` (which the config allows for one degree only)
    replaces the grid.
    """
    if n_samples < 1:
        raise ConfigError(f"samples per object must be >= 1, got {n_samples}")
    kernel = StepKernel(cfg.kernel_support)
    fixed_system = _read_fixed_system(cfg)
    per_degree_groups = {}
    systems: dict[int, TemplateSystem] = {}
    for degree in cfg.homology_degrees:
        groups = read_diagrams(diagram_dir, degree, n_samples)
        if not groups:
            raise DataError(f"no degree-{degree} diagrams found in {diagram_dir}")
        per_degree_groups[degree] = groups
        if fixed_system is not None:
            systems[degree] = fixed_system
        else:
            # widen degenerate axes (e.g. all births equal) to one full cell
            bounds = enclosing_bounds(groups.values(), min_extent=cfg.template_cell_side)
            systems[degree] = TemplateSystem(kernel, template_grid(bounds, cfg.template_cell_side))

    keys = sorted({k for groups in per_degree_groups.values() for k in groups})
    rows, labels = [], []
    column_ids: list[str] = []
    for degree in cfg.homology_degrees:
        column_ids.extend(f"h{degree}_t{i:03d}" for i in range(len(systems[degree])))
    for label, instance in keys:
        parts = []
        for degree in cfg.homology_degrees:
            batch = per_degree_groups[degree].get((label, instance))
            if batch is None:
                raise DataError(f"instance {label}/{instance} missing degree-{degree} diagrams")
            fv = feature_vector(batch, systems[degree])
            parts.append(fv.values)
        rows.append(np.concatenate(parts))
        labels.append(label)

    matrix = np.vstack(rows)
    if cfg.drop_zero_columns:
        matrix, column_ids = drop_zero_columns(matrix, column_ids)

    _write_features(out_csv, matrix, labels, column_ids, systems, system_dir)
    return out_csv


def image_h0_features(images: Sequence[GrayImage], patch_size: int,
                      patches_per_image: int, kernel: StepKernel, cell_side: float,
                      seed: int) -> tuple[np.ndarray, TemplateSystem]:
    """Texture-style featurization: per image, sublevel-set H0 diagrams of
    random patches estimate its expected persistence measure; features come
    from one template grid enclosing every diagram. Returns the per-image
    feature matrix and the frozen system."""
    opts = FiltrationOptions()
    batches = []
    for idx, img in enumerate(images):
        patches = sample_patches(img, patch_size, patches_per_image,
                                 derive_seed(seed, "patches", idx))
        batches.append([image_sublevel_h0(p, opts) for p in patches])
    bounds = enclosing_bounds(batches, min_extent=cell_side)
    system = TemplateSystem(kernel, template_grid(bounds, cell_side))
    matrix = np.vstack([feature_vector(batch, system).values for batch in batches])
    return matrix, system


def dataset_from_features(matrix: np.ndarray, labels: Sequence[str]) -> Dataset:
    names = tuple(sorted(set(labels)))
    index = {n: i for i, n in enumerate(names)}
    y = np.asarray([index[l] for l in labels], dtype=int)
    return Dataset(matrix, y, names)


def evaluate_model(model, ds: Dataset) -> dict:
    pred, _ = predict(model, ds.X)
    return {
        "accuracy": accuracy(ds.y, pred),
        "confusion_matrix": confusion_matrix(ds.y, pred, len(model.label_names)).tolist(),
        "class_labels": list(model.label_names),
        "n_instances": int(len(ds.y)),
    }


def train_and_evaluate(ds: Dataset, cfg: ExperimentConfig,
                       template_system_ref: Optional[str] = None) -> tuple[LogisticModel, dict]:
    """Stratified split, training on the train part, and the metrics of both
    parts. The split and the initial weights are seeded from the master seed."""
    train_ds, test_ds = train_test_split(ds, cfg.split_ratio,
                                         derive_seed(cfg.master_seed, "split"))
    pmap = PolynomialMap(cfg.polynomial_degree, ds.X.shape[1])
    tc = TrainConfig(l2=cfg.l2, max_iters=cfg.train_max_iters, tol=cfg.train_tol,
                     seed=derive_seed(cfg.master_seed, "train"))
    model = train_logistic(train_ds, pmap, tc, template_system_ref)
    return model, {"train": evaluate_model(model, train_ds), "test": evaluate_model(model, test_ds)}


def stage_train(features_csv: Path, cfg: ExperimentConfig, model_out: Path,
                metrics_out: Path, template_system_ref: Optional[str] = None) -> dict:
    """``train_and_evaluate`` on a feature file; writes the model and the
    metrics, with the config and the convergence record."""
    matrix, labels, _ = io.read_feature_csv(features_csv)
    model, metrics = train_and_evaluate(dataset_from_features(matrix, labels), cfg,
                                        template_system_ref)
    metrics.update(config=cfg.to_jsonable(), converged=model.converged,
                   final_grad_norm=model.final_grad_norm)
    io.write_model_json(model_out, model)
    io.write_json(metrics_out, metrics)
    return metrics


@dataclass
class RunManifest:
    config: dict
    config_hash: str
    tool_version: str = TOOL_VERSION
    stages: dict = None

    def __post_init__(self):
        if self.stages is None:
            self.stages = {}

    def to_jsonable(self) -> dict:
        return {"tool_version": self.tool_version, "config": self.config,
                "config_hash": self.config_hash, "stages": self.stages}

    @classmethod
    def load(cls, path: Path) -> Optional["RunManifest"]:
        if not path.exists():
            return None
        try:
            obj = json.loads(path.read_text())
            return cls(config=obj["config"], config_hash=obj["config_hash"],
                       tool_version=obj.get("tool_version", ""), stages=obj["stages"])
        except (json.JSONDecodeError, KeyError):
            return None


def _stage_done(manifest: Optional[RunManifest], fresh_hash: str, name: str) -> bool:
    if manifest is None or manifest.config_hash != fresh_hash:
        return False
    entry = manifest.stages.get(name)
    if not entry or not entry.get("completed"):
        return False
    return all(Path(p).exists() for p in entry.get("outputs", []))


def run_experiment(cfg: ExperimentConfig, out_dir: Path, jobs: int = 1,
                   resume: bool = False) -> RunManifest:
    """Full pipeline for every samples-per-object count in the config.

    Produces an accuracy table (CSV and plain text) across the counts plus
    per-count feature files, models, and metrics, and writes a manifest
    listing every artifact.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    fresh_hash = cfg.config_hash()
    previous = RunManifest.load(manifest_path) if resume else None
    manifest = RunManifest(config=cfg.to_jsonable(), config_hash=fresh_hash)

    def run_stage(name: str, fn):
        if resume and _stage_done(previous, fresh_hash, name):
            manifest.stages[name] = dict(previous.stages[name], resumed=True)
            return
        started = time.perf_counter()
        outputs = fn()
        manifest.stages[name] = {
            "completed": True,
            "outputs": [str(p) for p in outputs],
            "wall_time_s": round(time.perf_counter() - started, 6),
        }
        io.write_json(manifest_path, manifest.to_jsonable())

    clouds_dir = out_dir / "clouds"
    diagrams_dir = out_dir / "diagrams"
    run_stage("sample", lambda: stage_sample(cfg, clouds_dir))
    run_stage("diagram", lambda: stage_diagrams(clouds_dir, cfg, diagrams_dir, jobs))

    accuracies: dict[int, float] = {}
    for m in cfg.samples_per_object:
        features_csv = out_dir / f"features_m{m:03d}.csv"
        systems_dir = out_dir / f"templates_m{m:03d}"
        run_stage(f"featurize_m{m}",
                  lambda m=m, f=features_csv, s=systems_dir:
                  [stage_featurize(diagrams_dir, cfg, m, f, s)])

        model_out = out_dir / f"model_m{m:03d}.json"
        metrics_out = out_dir / f"metrics_m{m:03d}.json"

        def train_one(m=m, f=features_csv, mo=model_out, me=metrics_out):
            stage_train(f, cfg, mo, me, template_system_ref=f"templates_m{m:03d}")
            return [mo, me]

        run_stage(f"train_m{m}", train_one)
        metrics = json.loads(metrics_out.read_text())
        accuracies[m] = metrics["test"]["accuracy"]

    table_csv = out_dir / "accuracy_table.csv"
    table_txt = out_dir / "accuracy_table.txt"

    def write_tables():
        lines = ["samples_per_object,test_accuracy"]
        lines.extend(f"{m},{repr(accuracies[m])}" for m in cfg.samples_per_object)
        table_csv.write_text("\n".join(lines) + "\n")
        rows = ["samples per object | test accuracy", "-" * 36]
        rows.extend(f"{m:>18} | {accuracies[m]:.2%}" for m in cfg.samples_per_object)
        table_txt.write_text("\n".join(rows) + "\n")
        return [table_csv, table_txt]

    run_stage("accuracy_table", write_tables)
    io.write_json(manifest_path, manifest.to_jsonable())
    return manifest
