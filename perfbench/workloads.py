"""The benchmark's four workloads: inputs made from a seed, one batch job
through the package's public functions, and checks of that job's outputs.

Each workload is a closed loop of whole batch jobs in one process; only
``rips_dense`` starts a process pool. The workloads stress different layers:

- ``shapes_pipeline``: the paper's shapes experiment as users run it. Many
  tiny Rips calls, one CSV file per sample, repeated diagram re-reads.
- ``rips_dense``: the same pipeline at 30 points per sample. About the same
  simplex count as ``shapes_pipeline`` in 25 times fewer calls, so a
  per-simplex gain shows here and a per-call gain shows there.
- ``texture_h0``: image sublevel persistence, featurization and training,
  with no Rips and no file I/O.
- ``ot_diagnose``: compactness diagnostics over expected persistence
  measures, the only workload that reaches the OT_inf layer.

Checks run outside the timed phase and return one message per failure.
"""
from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from empers import compactness, experiment, io, learn
from empers.config import DEFAULT_SHAPES, ExperimentConfig, derive_seed
from empers.features import StepKernel, feature_vector
from empers.learn import PolynomialMap, TrainConfig
from empers.measure import (
    DEFAULT_METRIC,
    PersistenceDiagram,
    PersistenceMeasure,
    diag_distance,
    ground_distance_matrix,
)
from empers.persistence import FiltrationOptions, image_sublevel_h0, vr_persistence
from empers.samplers import (
    PointCloud,
    ShapeSpec,
    pairwise_distances,
    sample_patches,
    sample_shape,
    synthetic_texture,
)
from empers.transport import cost_infinity, feasible_at, verify_coupling

import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    item: str                                   # what one unit of items_per_s is
    sizes: dict
    tiny: dict                                  # sizes for the benchmark's smoke test
    setup: Callable[[int, dict], object]        # (seed, sizes) -> inputs
    run: Callable[[object, Path], object]       # (inputs, empty dir) -> outputs
    check: Callable[[object, object, Path, random.Random], tuple[list[str], dict]]
    items: Callable[[dict], int]
    layers: tuple[str, ...]                     # layers a traced run must see called


# --- shapes experiment (shapes_pipeline, rips_dense) -------------------------

def _experiment_setup(seed: int, sizes: dict):
    shapes = tuple(dataclasses.replace(s, instances=sizes["instances"]) for s in DEFAULT_SHAPES)
    cfg = ExperimentConfig(shapes=shapes, points_per_sample=sizes["points"],
                           samples_per_object=tuple(sizes["samples"]), master_seed=seed)
    return cfg, sizes["jobs"]


def _experiment_run(inputs, out_dir: Path):
    cfg, jobs = inputs
    experiment.run_experiment(cfg, out_dir, jobs=jobs)


def _reduced_h1(dm: np.ndarray) -> list[tuple[float, float]]:
    """Degree-1 Rips diagram by column reduction over Python sets, for clouds
    too large for the dense naive oracle (it takes minutes at 30 points).
    Same filtration order and cap policy as ``oracles.naive_vr_diagrams``."""
    n = dm.shape[0]
    simplices = [(0.0, (i,)) for i in range(n)]
    simplices += [(float(dm[i, j]), (i, j)) for i, j in combinations(range(n), 2)]
    simplices += [(float(max(dm[i, j], dm[i, k], dm[j, k])), (i, j, k))
                  for i, j, k in combinations(range(n), 3)]
    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    index = {verts: i for i, (_, verts) in enumerate(simplices)}
    pivots: dict[int, set[int]] = {}
    paired: set[int] = set()
    points = []
    for j, (value, verts) in enumerate(simplices):
        col = {index[f] for f in combinations(verts, len(verts) - 1)} if len(verts) > 1 else set()
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = col
                paired.update((low, j))
                birth, birth_verts = simplices[low]
                if len(birth_verts) == 2 and birth < value:
                    points.append((birth, value))
                break
            col ^= pivots[low]
    cap = float(dm.max())
    points += [(value, cap) for i, (value, verts) in enumerate(simplices)
               if len(verts) == 2 and i not in paired and value < cap]
    return sorted(points)


def _artifact_size(out_dir: Path) -> tuple[int, int]:
    """Files and bytes the run left, without manifest.json: its timing
    strings change length from run to run."""
    files = [p for p in out_dir.rglob("*") if p.is_file() and p.name != "manifest.json"]
    return len(files), sum(p.stat().st_size for p in files)


def _experiment_check(inputs, _outputs, out_dir: Path, rng: random.Random,
                      n_clouds: int, dense: bool) -> tuple[list[str], dict]:
    cfg, _ = inputs
    problems = []
    rows = (out_dir / "accuracy_table.csv").read_text().split()[1:]
    table = {int(m): float(acc) for m, acc in (row.split(",") for row in rows)}
    if list(table) != list(cfg.samples_per_object):
        problems.append(f"accuracy table rows {list(table)}, expected {list(cfg.samples_per_object)}")
    if not all(0.0 <= acc <= 1.0 for acc in table.values()):
        problems.append(f"accuracy outside [0, 1]: {table}")

    clouds = sorted((out_dir / "clouds").glob("*.csv"))
    for cloud in rng.sample(clouds, min(n_clouds, len(clouds))):
        dm = pairwise_distances(PointCloud(io.read_point_cloud_csv(cloud))).entries
        expected = oracles.naive_vr_diagrams(dm, max_dim=0 if dense else 1)
        if dense:
            expected[1] = _reduced_h1(dm)
        for degree in cfg.homology_degrees:
            got = io.read_diagram_csv(out_dir / "diagrams" / f"{cloud.stem}__h{degree}.csv")
            if got.as_multiset() != expected[degree]:
                problems.append(f"{cloud.stem} H{degree} differs from the oracle")

    files, size = _artifact_size(out_dir)
    quality = {"test_accuracy_min": min(table.values(), default=0.0),
               "artifact_files": files, "artifact_mb": size / 1e6}
    return problems, quality


def _experiment_workload(name: str, sizes: dict, tiny: dict, n_clouds: int,
                         dense: bool, layers: tuple[str, ...]) -> Workload:
    return Workload(
        name=name, item="clouds", sizes=sizes, tiny=tiny,
        setup=_experiment_setup, run=_experiment_run,
        check=lambda i, o, d, r: _experiment_check(i, o, d, r, n_clouds, dense),
        items=lambda s: len(DEFAULT_SHAPES) * s["instances"] * max(s["samples"]),
        layers=layers)


_PIPELINE_LAYERS = (
    "persistence.vr_persistence",
    "io.write_point_cloud_csv", "io.read_point_cloud_csv",
    "io.write_diagram_csv", "io.read_diagram_csv",
    "io.write_feature_csv", "io.read_feature_csv",
    "features.feature_vector", "learn.train_logistic", "learn.predict",
    "experiment.stage_sample", "experiment.stage_diagrams",
    "experiment.stage_featurize", "experiment.stage_train",
)


# --- texture_h0 ----------------------------------------------------------------

# kernel, grid and model as in scripts/run_texture_experiment.py
_TEXTURE_KERNEL_HALF_WIDTH = 10.0
_TEXTURE_CELL_SIDE = 64.0


def _texture_setup(seed: int, sizes: dict):
    images, labels = [], []
    for kind in ("gradient", "salt_pepper"):
        for i in range(sizes["images_per_class"]):
            images.append(synthetic_texture(kind, sizes["image_size"], derive_seed(seed, kind, i)))
            labels.append(kind)
    return seed, sizes, images, labels


def _texture_run(inputs, _out_dir: Path):
    seed, sizes, images, labels = inputs
    kernel = StepKernel.from_half_widths(_TEXTURE_KERNEL_HALF_WIDTH, _TEXTURE_KERNEL_HALF_WIDTH)
    matrix, system = experiment.image_h0_features(
        images, sizes["patch_size"], sizes["patches"], kernel, _TEXTURE_CELL_SIDE,
        seed=derive_seed(seed, "patches"))
    ds = experiment.dataset_from_features(matrix, labels)
    train, test = learn.train_test_split(ds, 0.8, seed=derive_seed(seed, "split"))
    model = learn.train_logistic(train, PolynomialMap(3, matrix.shape[1]),
                                 TrainConfig(l2=1e-4, max_iters=500,
                                             seed=derive_seed(seed, "train")))
    return matrix, system, experiment.evaluate_model(model, test)


def _texture_check(inputs, outputs, _out_dir: Path, rng: random.Random) -> tuple[list[str], dict]:
    seed, sizes, images, _ = inputs
    matrix, system, metrics = outputs
    problems = []
    if matrix.shape[0] != len(images):
        problems.append(f"{matrix.shape[0]} feature rows for {len(images)} images")
    if not 0.0 <= metrics["accuracy"] <= 1.0:
        problems.append(f"accuracy {metrics['accuracy']} outside [0, 1]")
    # a sampled image's patches must have the oracle's diagrams, and its
    # feature row, rebuilt from those diagrams, the row the pipeline produced
    patch_seed = derive_seed(seed, "patches")
    for idx in rng.sample(range(len(images)), min(2, len(images))):
        patches = sample_patches(images[idx], sizes["patch_size"], sizes["patches"],
                                 derive_seed(patch_seed, "patches", idx))
        diagrams = [PersistenceDiagram(oracles.image_h0_naive_unionfind(p.values)) for p in patches]
        if any(image_sublevel_h0(p, FiltrationOptions()) != d for p, d in zip(patches, diagrams)):
            problems.append(f"image {idx}: a patch diagram differs from the oracle")
        expected = feature_vector(diagrams, system).values
        if not np.allclose(matrix[idx], expected, rtol=1e-9, atol=1e-12):
            problems.append(f"image {idx}: feature row differs from the oracle diagrams' row")
    return problems, {"test_accuracy_min": metrics["accuracy"], "artifact_files": 0,
                      "artifact_mb": 0.0}


# --- ot_diagnose ---------------------------------------------------------------

_EPS = (0.1, 0.5, 1.0)      # the defaults of `empers diagnose`
_BANDS = (1, 5, 10)


def _ot_setup(seed: int, sizes: dict) -> list[PersistenceMeasure]:
    """One expected measure per shape class plus a second torus: H0 and H1
    points of ``clouds`` Rips diagrams, each at mass 1/clouds."""
    classes = (*DEFAULT_SHAPES, DEFAULT_SHAPES[1])
    opts = FiltrationOptions()
    family = []
    for c, shape in enumerate(classes):
        atoms = []
        for r in range(sizes["clouds"]):
            spec = ShapeSpec(kind=shape.kind, n=sizes["points"], seed=derive_seed(seed, "ot", c, r),
                             radius=shape.radius, inner_radius=shape.inner_radius,
                             outer_radius=shape.outer_radius, ring_radius=shape.ring_radius,
                             tube_radius=shape.tube_radius)
            diagrams = vr_persistence(pairwise_distances(sample_shape(spec)), opts)
            atoms += [(tuple(p), 1.0 / sizes["clouds"]) for d in diagrams.values() for p in d.points]
        family.append(PersistenceMeasure(atoms))
    return family


def _ot_run(family, _out_dir: Path):
    """build_report, keeping every pair's transport result for the checks."""
    results = []
    inner = compactness.ot_infinity

    def keep(mu, nu, *args, **kwargs):
        res = inner(mu, nu, *args, **kwargs)
        results.append((mu, nu, res))
        return res

    compactness.ot_infinity = keep
    try:
        report = compactness.build_report(family, _EPS, _BANDS)
    finally:
        compactness.ot_infinity = inner
    return report, results


def _next_lower_candidate(mu: PersistenceMeasure, nu: PersistenceMeasure, t: float):
    cands = [0.0, *(diag_distance(p) for p in mu.points), *(diag_distance(p) for p in nu.points)]
    cands = np.unique(np.concatenate([cands, ground_distance_matrix(mu.points, nu.points).ravel()]))
    lower = cands[cands < t]
    return float(lower[-1]) if lower.size else None


def _ot_check(family, outputs, _out_dir: Path, _rng: random.Random) -> tuple[list[str], dict]:
    """An optimality certificate per pair: the coupling meets the marginals,
    its cost is the distance, and the next-lower candidate is infeasible."""
    report, results = outputs
    problems = []
    n_pairs = math.comb(len(family), 2)
    if len(results) != n_pairs:
        problems.append(f"{len(results)} transport pairs, expected {n_pairs}")
    for k, (mu, nu, res) in enumerate(results):
        if verify_coupling(res.coupling):
            problems.append(f"pair {k}: coupling violates the marginals")
        if cost_infinity(res.coupling, DEFAULT_METRIC) != res.distance:
            problems.append(f"pair {k}: coupling cost differs from the distance")
        lower = _next_lower_candidate(mu, nu, res.distance)
        if lower is not None and feasible_at(mu, nu, lower) is not None:
            problems.append(f"pair {k}: feasible below the distance, at {lower!r}")
    if results and report.diameter_upper_bound != max(r.distance for _, _, r in results):
        problems.append("diameter bound is not the largest pair distance")
    return problems, {"test_accuracy_min": 0.0, "artifact_files": 0, "artifact_mb": 0.0}


WORKLOADS = {w.name: w for w in (
    _experiment_workload(
        "shapes_pipeline",
        sizes={"instances": 25, "points": 10, "samples": [1, 10, 20, 40], "jobs": 1},
        tiny={"instances": 2, "points": 6, "samples": [1, 2], "jobs": 1},
        n_clouds=3, dense=False, layers=_PIPELINE_LAYERS),
    _experiment_workload(
        "rips_dense",
        sizes={"instances": 5, "points": 30, "samples": [1, 4, 8], "jobs": 2},
        tiny={"instances": 2, "points": 8, "samples": [1, 2], "jobs": 2},
        n_clouds=1, dense=True, layers=_PIPELINE_LAYERS),
    Workload(
        name="texture_h0", item="patches",
        sizes={"images_per_class": 100, "image_size": 64, "patch_size": 16, "patches": 40},
        tiny={"images_per_class": 3, "image_size": 24, "patch_size": 8, "patches": 4},
        setup=_texture_setup, run=_texture_run, check=_texture_check,
        items=lambda s: 2 * s["images_per_class"] * s["patches"],
        layers=("persistence.image_sublevel_h0", "features.feature_vector",
                "learn.train_logistic", "learn.predict", "experiment.image_h0_features")),
    Workload(
        name="ot_diagnose", item="transport pairs",
        # 14 clouds (about 155 atoms a measure) rather than 20 (about 220):
        # one 20-cloud job takes 12-19 s, too long to average several in a run
        sizes={"clouds": 14, "points": 10},
        tiny={"clouds": 2, "points": 6},
        setup=_ot_setup, run=_ot_run, check=_ot_check,
        items=lambda s: math.comb(len(DEFAULT_SHAPES) + 1, 2),
        layers=("transport.ot_infinity", "transport.feasible_at",
                "compactness.build_report", "compactness.diameter_bound")),
)}
