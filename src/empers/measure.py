"""Atomic measures on the birth-death half-plane and the ground pseudometric.

The half-plane is W = {(b, d) : b < d}. Points are (birth, death) pairs,
given as an (n, 2) array or a sequence of pairs. The diagonal is the sentinel
``DIAGONAL`` wherever a coupling moves mass to or from it. Distances depend
on a norm exponent q in [1, inf] carried by :class:`MetricConfig`: the
distance from a point to the diagonal has the closed form
(d - b) * 2**(1/q - 1), and ``ground_distance_matrix`` is the one
implementation of the pseudometric between points, the smaller of the direct
q-norm distance and the route through the diagonal.

All types are immutable after construction and all operations are pure, so
they are safe to use from concurrent workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class _Diagonal:
    """Sentinel for the diagonal boundary of the half-plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIAGONAL"


DIAGONAL = _Diagonal()


@dataclass(frozen=True)
class MetricConfig:
    """Norm exponent q >= 1 for the ground metric; q = inf is the default."""

    q: float = math.inf

    def __post_init__(self):
        if not (self.q >= 1.0):
            raise ValueError(f"norm exponent q must be >= 1, got {self.q}")

    @property
    def diag_factor(self) -> float:
        """The constant 2**(1/q - 1); equals 1/2 at q = inf."""
        if math.isinf(self.q):
            return 0.5
        return 2.0 ** (1.0 / self.q - 1.0)


DEFAULT_METRIC = MetricConfig()


def _as_point_array(points) -> np.ndarray:
    """A fresh (n, 2) float array of points of W: finite, birth < death."""
    pts = np.array(points, dtype=float)
    if pts.size == 0:
        return np.empty((0, 2))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be (birth, death) pairs, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    if not np.all(pts[:, 0] < pts[:, 1]):
        raise ValueError(f"points must satisfy birth < death, got {pts[pts[:, 0] >= pts[:, 1]][0]}")
    return pts


class PersistenceDiagram:
    """A finite multiset of birth-death points (order carries no meaning),
    built from an (n, 2) array or a sequence of pairs."""

    __slots__ = ("points",)

    def __init__(self, points=()):
        pts = _as_point_array(points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return sorted(map(tuple, self.points)) == sorted(map(tuple, other.points))

    def __repr__(self):
        return f"PersistenceDiagram({[tuple(p) for p in self.points]})"

    def as_multiset(self) -> list[tuple[float, float]]:
        return sorted(map(tuple, self.points))


class PersistenceMeasure:
    """A finite weighted atomic measure on W.

    Atoms with zero mass are dropped on construction; negative masses are an
    error. Equal points may appear as separate atoms (no deduplication);
    mass queries sum over all matching atoms.
    """

    __slots__ = ("points", "masses")

    def __init__(self, atoms: Iterable[tuple[object, float]] = ()):
        atoms = list(atoms)
        pts = _as_point_array([p for p, _ in atoms])
        ms = np.asarray([m for _, m in atoms], dtype=float)
        if ms.size and np.any(ms < 0):
            raise ValueError("atom masses must be non-negative")
        if ms.size and not np.all(np.isfinite(ms)):
            raise ValueError("atom masses must be finite")
        keep = ms > 0
        pts, ms = pts[keep], ms[keep]
        pts.setflags(write=False)
        ms.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def persistences(self) -> np.ndarray:
        return self.points[:, 1] - self.points[:, 0]

    def __repr__(self):
        return f"PersistenceMeasure({self.n_atoms} atoms, total mass {self.total_mass:.6g})"


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"degenerate rectangle orientation: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


def diag_distance(x, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Distance from a point of W to the diagonal: (death - birth) * 2**(1/q - 1)."""
    return (float(x[1]) - float(x[0])) * cfg.diag_factor


def ground_distance_matrix(xs: np.ndarray, ys: np.ndarray,
                           cfg: MetricConfig = DEFAULT_METRIC) -> np.ndarray:
    """Pairwise ground distances between two (n, 2) point arrays."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    db = np.abs(xs[:, None, 0] - ys[None, :, 0])
    dd = np.abs(xs[:, None, 1] - ys[None, :, 1])
    if math.isinf(cfg.q):
        direct = np.maximum(db, dd)
    elif cfg.q == 1.0:
        direct = db + dd
    else:
        direct = (db ** cfg.q + dd ** cfg.q) ** (1.0 / cfg.q)
    dx = (xs[:, 1] - xs[:, 0]) * cfg.diag_factor
    dy = (ys[:, 1] - ys[:, 0]) * cfg.diag_factor
    return np.minimum(direct, dx[:, None] + dy[None, :])


def mass_above(mu: PersistenceMeasure, eps: float) -> float:
    """Total mass of atoms with persistence >= eps."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return float(mu.masses[mu.persistences >= eps].sum())
