"""Experiment configuration and deterministic seed derivation.

Config files are JSON objects whose keys match the dataclass field names
exactly. Child seeds for per-task randomness are derived by hashing the
master seed together with the stage name and task indices, which keeps
parallel work reproducible regardless of scheduling.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError
from .measure import Rectangle
from .samplers import SHAPE_KINDS, ShapeSpec


def derive_seed(master_seed: int, *parts: Union[str, int]) -> int:
    """Stable 64-bit child seed from the master seed and task coordinates."""
    key = ":".join([str(master_seed), *map(str, parts)])
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _is_valid_label(label) -> bool:
    """Class labels name artifact files and end the rows of feature CSVs."""
    return (isinstance(label, str) and label != "" and label == label.strip()
            and label.splitlines() == [label] and not set(label) & set("/\\,\0"))


@dataclass(frozen=True)
class ShapeClassConfig:
    """One shape class of the experiment: its kind, geometry, and how many
    instances of it to generate."""

    kind: str
    instances: int = 1
    label: Optional[str] = None
    radius: float = 1.0
    inner_radius: float = 1.0
    outer_radius: float = 2.0
    ring_radius: float = 2.0
    tube_radius: float = 0.5

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ConfigError(f"unknown shape kind {self.kind!r}")
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if self.label is not None and not _is_valid_label(self.label):
            raise ConfigError(f"shape label must be a non-empty string without surrounding "
                              f"whitespace, '/', '\\', ',', line breaks or NUL, got {self.label!r}")
        try:
            self.spec(1, 0)
        except ValueError as exc:
            raise ConfigError(f"shape {self.class_label!r}: {exc}") from None

    def spec(self, n: int, seed: int) -> ShapeSpec:
        """The sampler's spec of this shape, for ``n`` points from ``seed``."""
        return ShapeSpec(kind=self.kind, n=n, seed=seed, radius=self.radius,
                         inner_radius=self.inner_radius, outer_radius=self.outer_radius,
                         ring_radius=self.ring_radius, tube_radius=self.tube_radius)

    @property
    def class_label(self) -> str:
        return self.label if self.label is not None else self.kind


# the four shapes share diameter 0.7, small against the default kernel and
# template cell, so a single 10-point sample rarely identifies the class and
# the benefit of averaging many samples shows up in the accuracy trend
DEFAULT_SHAPES = (
    ShapeClassConfig("sphere", instances=100, radius=0.35),
    ShapeClassConfig("torus", instances=100, ring_radius=0.245, tube_radius=0.105),
    ShapeClassConfig("circle", instances=100, radius=0.35),
    ShapeClassConfig("annulus", instances=100, inner_radius=0.1925, outer_radius=0.35),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration of the shapes experiment pipeline."""

    shapes: tuple[ShapeClassConfig, ...] = DEFAULT_SHAPES
    points_per_sample: int = 10
    samples_per_object: tuple[int, ...] = (1, 10, 20, 40)
    homology_degrees: tuple[int, ...] = (0, 1)
    essential_policy: str = "cap"
    max_radius: Optional[float] = None
    kernel_rectangle: tuple[float, float, float, float] = (-0.1, 0.1, -0.1, 0.1)
    template_cell_side: float = 0.4
    template_system_file: Optional[str] = None
    polynomial_degree: int = 2
    l2: float = 1e-4
    split_ratio: float = 0.8
    train_max_iters: int = 500
    train_tol: float = 1e-6
    drop_zero_columns: bool = False
    master_seed: int = 0

    def __post_init__(self):
        if not self.shapes:
            raise ConfigError("at least one shape class is required")
        if self.points_per_sample < 1:
            raise ConfigError("points_per_sample must be >= 1")
        if not self.samples_per_object or any(m < 1 for m in self.samples_per_object):
            raise ConfigError("samples_per_object must be non-empty positive counts")
        if any(d not in (0, 1) for d in self.homology_degrees) or not self.homology_degrees:
            raise ConfigError("homology_degrees must be a non-empty subset of {0, 1}")
        for name in ("samples_per_object", "homology_degrees"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value, got {list(values)}")
        if self.template_system_file and len(self.homology_degrees) > 1:
            raise ConfigError("template_system_file holds one template system, so "
                              "homology_degrees must name a single degree")
        if self.essential_policy not in ("cap", "drop"):
            raise ConfigError("essential_policy must be 'cap' or 'drop'")
        if self.max_radius is not None and not self.max_radius > 0:
            raise ConfigError(f"max_radius must be null or positive, got {self.max_radius}")
        x0, x1, y0, y1 = self.kernel_rectangle
        if not (math.isclose(x0, -x1, abs_tol=1e-12) and math.isclose(y0, -y1, abs_tol=1e-12)):
            raise ConfigError("kernel_rectangle must be symmetric about the origin")
        if x1 <= 0 or y1 <= 0:
            raise ConfigError("kernel_rectangle must have positive area")
        if self.template_cell_side <= 0:
            raise ConfigError("template_cell_side must be positive")
        if self.polynomial_degree < 1:
            raise ConfigError("polynomial_degree must be >= 1")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        labels = [s.class_label for s in self.shapes]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"shape class labels must be unique, got {labels}")

    @property
    def kernel_support(self) -> Rectangle:
        x0, x1, y0, y1 = self.kernel_rectangle
        return Rectangle(x0, x1, y0, y1)

    @property
    def max_samples(self) -> int:
        return max(self.samples_per_object)

    def to_jsonable(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_jsonable(), sort_keys=True).encode()).hexdigest()


def config_from_dict(obj: dict) -> ExperimentConfig:
    """Build the config from a JSON object. A field of the wrong JSON type or
    shape is a ``ConfigError``, like a bad value."""
    obj = dict(obj)
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        if "shapes" in obj:
            shapes = []
            for s in obj["shapes"]:
                if not isinstance(s, dict):
                    raise ConfigError(f"shape entries must be objects, got {s!r}")
                bad = set(s) - set(ShapeClassConfig.__dataclass_fields__)
                if bad:
                    raise ConfigError(f"unknown shape fields: {sorted(bad)}")
                shapes.append(ShapeClassConfig(**s))
            obj["shapes"] = tuple(shapes)
        for key in ("samples_per_object", "homology_degrees", "kernel_rectangle"):
            if key in obj:
                obj[key] = tuple(obj[key])
        return ExperimentConfig(**obj)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(obj)
