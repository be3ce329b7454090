"""The batch pipeline: sample point clouds, compute diagrams, featurize,
train, and evaluate, with file artifacts at every stage.

Stages communicate through files named ``<label>__<instance>__<repeat>``
(plus a ``__h<degree>`` suffix for diagrams) so any stage can be rerun or
inspected in isolation. A manifest records per-stage outputs and timings;
with ``resume`` enabled, stages whose outputs already exist under the same
config hash are skipped.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

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
from .samplers import ShapeSpec, pairwise_distances, sample_patches, sample_shape

TOOL_VERSION = f"empers {__version__}"


def _cloud_name(label: str, instance: int, repeat: int) -> str:
    return f"{label}__{instance:04d}__{repeat:04d}.csv"


def parse_artifact_name(name: str) -> tuple[str, int, int, Optional[int]]:
    """Split "<label>__<instance>__<repeat>[__h<degree>].csv" into parts."""
    stem = name[:-4] if name.endswith(".csv") else name
    parts = stem.split("__")
    degree = None
    if parts and parts[-1].startswith("h") and parts[-1][1:].isdigit():
        degree = int(parts[-1][1:])
        parts = parts[:-1]
    if len(parts) < 3:
        raise DataError(f"cannot parse artifact name {name!r}")
    label = "__".join(parts[:-2])
    return label, int(parts[-2]), int(parts[-1]), degree


def _clear_stage_dir(out_dir: Path, diagrams: bool) -> None:
    """Create ``out_dir`` and delete the clouds (or, with ``diagrams``, the
    diagrams) an earlier run left there: the next stage globs the directory,
    so stale files would join this run's. Other files stay."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.glob("*.csv"):
        try:
            degree = parse_artifact_name(path.name)[3]
        except ValueError:
            continue
        if (degree is not None) == diagrams:
            path.unlink()


def stage_sample(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """One point-cloud CSV per (class, instance, repeat), deterministically
    seeded from the master seed. Clouds of an earlier run in ``out_dir`` are
    deleted first."""
    _clear_stage_dir(out_dir, diagrams=False)
    outputs = []
    for class_idx, shape in enumerate(cfg.shapes):
        for instance in range(shape.instances):
            for repeat in range(cfg.max_samples):
                seed = derive_seed(cfg.master_seed, "sample", class_idx, instance, repeat)
                spec = ShapeSpec(kind=shape.kind, n=cfg.points_per_sample, seed=seed,
                                 radius=shape.radius,
                                 inner_radius=shape.inner_radius,
                                 outer_radius=shape.outer_radius,
                                 ring_radius=shape.ring_radius,
                                 tube_radius=shape.tube_radius)
                cloud = sample_shape(spec)
                path = out_dir / _cloud_name(shape.class_label, instance, repeat)
                io.write_point_cloud_csv(path, cloud.points)
                outputs.append(path)
    return outputs


def _diagram_task(args: tuple[str, str, tuple[int, ...], str, Optional[float]]) -> list[str]:
    """Worker: one cloud file to one diagram file per degree."""
    in_path, out_dir, degrees, essential_policy, max_radius = args
    from .samplers import PointCloud  # local import keeps the worker self-contained

    cloud = PointCloud(io.read_point_cloud_csv(in_path))
    dm = pairwise_distances(cloud)
    opts = FiltrationOptions(max_dim=max(degrees), essential_policy=essential_policy,
                             max_radius=max_radius if max_radius else float("inf"))
    diagrams = vr_persistence(dm, opts)
    outputs = []
    stem = Path(in_path).name[:-4]
    for degree in degrees:
        path = Path(out_dir) / f"{stem}__h{degree}.csv"
        io.write_diagram_csv(path, diagrams[degree])
        outputs.append(str(path))
    return outputs


def stage_diagrams(in_dir: Path, cfg: ExperimentConfig, out_dir: Path,
                   jobs: int = 1) -> list[Path]:
    """Vietoris-Rips diagrams for every cloud in ``in_dir``, per degree.
    Diagrams of an earlier run in ``out_dir`` are deleted first."""
    _clear_stage_dir(out_dir, diagrams=True)
    clouds = sorted(in_dir.glob("*.csv"))
    tasks = [(str(p), str(out_dir), tuple(cfg.homology_degrees),
              cfg.essential_policy, cfg.max_radius) for p in clouds]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            produced = list(pool.map(_diagram_task, tasks, chunksize=16))
    else:
        produced = [_diagram_task(t) for t in tasks]
    return [Path(p) for group in produced for p in group]


def load_diagram_groups(diagram_dir: Path, degree: int,
                        n_samples: int) -> dict[tuple[str, int], list[PersistenceDiagram]]:
    """Diagrams of one degree grouped per (label, instance), keeping repeats
    below ``n_samples``."""
    groups: dict[tuple[str, int], list[PersistenceDiagram]] = {}
    for path in sorted(diagram_dir.glob(f"*__h{degree}.csv")):
        label, instance, repeat, _ = parse_artifact_name(path.name)
        if repeat < n_samples:
            groups.setdefault((label, instance), []).append(io.read_diagram_csv(path))
    return groups


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
    fixed_system = (io.read_template_system_json(cfg.template_system_file)
                    if cfg.template_system_file else None)
    per_degree_groups = {}
    systems: dict[int, TemplateSystem] = {}
    for degree in cfg.homology_degrees:
        groups = load_diagram_groups(diagram_dir, degree, n_samples)
        if not groups:
            raise DataError(f"no degree-{degree} diagrams found in {diagram_dir}")
        if any(len(batch) == 0 for batch in groups.values()):
            raise DataError("every instance needs at least one diagram")
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

    out_csv.parent.mkdir(parents=True, exist_ok=True)
    io.write_feature_csv(out_csv, matrix, labels, column_ids)
    if system_dir is not None:
        system_dir.mkdir(parents=True, exist_ok=True)
        for degree, system in systems.items():
            io.write_template_system_json(system_dir / f"templates_h{degree}.json", system)
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


def stage_train(features_csv: Path, cfg: ExperimentConfig, model_out: Path,
                metrics_out: Path, template_system_ref: Optional[str] = None) -> dict:
    """Stratified split, training, and train/test metrics."""
    matrix, labels, _ = io.read_feature_csv(features_csv)
    ds = dataset_from_features(matrix, labels)
    train_ds, test_ds = train_test_split(ds, cfg.split_ratio,
                                         derive_seed(cfg.master_seed, "split"))
    pmap = PolynomialMap(cfg.polynomial_degree, matrix.shape[1])
    tc = TrainConfig(l2=cfg.l2, max_iters=cfg.train_max_iters, tol=cfg.train_tol,
                     seed=derive_seed(cfg.master_seed, "train"))
    model = train_logistic(train_ds, pmap, tc, template_system_ref)
    metrics = {
        "train": evaluate_model(model, train_ds),
        "test": evaluate_model(model, test_ds),
        "config": cfg.to_jsonable(),
    }
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
