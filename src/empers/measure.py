"""Atomic measures on the birth-death half-plane and the ground pseudometric.

The half-plane is W = {(b, d) : b < d}. Its boundary diagonal is represented
by the module-level sentinel ``DIAGONAL``. Distances depend on a norm exponent
q in [1, inf] carried by :class:`MetricConfig`; the distance from a point to
the diagonal has the closed form (d - b) * 2**(1/q - 1).

All types are immutable after construction and all operations are pure, so
they are safe to use from concurrent workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

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


@dataclass(frozen=True)
class BirthDeathPoint:
    """A point (birth, death) strictly above the diagonal, both finite."""

    birth: float
    death: float

    def __post_init__(self):
        if not (math.isfinite(self.birth) and math.isfinite(self.death)):
            raise ValueError(f"coordinates must be finite, got ({self.birth}, {self.death})")
        if not self.birth < self.death:
            raise ValueError(f"birth must be < death, got ({self.birth}, {self.death})")

    def __iter__(self):
        yield self.birth
        yield self.death

    @property
    def persistence(self) -> float:
        return self.death - self.birth


PointLike = Union[BirthDeathPoint, Sequence[float]]


def _as_point_array(points: Iterable[PointLike]) -> np.ndarray:
    pts = np.asarray([(p[0], p[1]) if not isinstance(p, BirthDeathPoint) else (p.birth, p.death)
                      for p in points], dtype=float)
    if pts.size == 0:
        return np.empty((0, 2), dtype=float)
    return pts.reshape(-1, 2)


class PersistenceDiagram:
    """A finite multiset of birth-death points (order carries no meaning)."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[PointLike] = ()):
        pts = _as_point_array(points)
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("diagram coordinates must be finite")
        if pts.size and not np.all(pts[:, 0] < pts[:, 1]):
            bad = pts[~(pts[:, 0] < pts[:, 1])]
            raise ValueError(f"diagram points must satisfy birth < death, got {bad[0]}")
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

    def __init__(self, atoms: Iterable[tuple[PointLike, float]] = ()):
        atoms = list(atoms)
        pts = _as_point_array(p for p, _ in atoms)
        ms = np.asarray([m for _, m in atoms], dtype=float)
        if ms.size and np.any(ms < 0):
            raise ValueError("atom masses must be non-negative")
        if ms.size and not np.all(np.isfinite(ms)):
            raise ValueError("atom masses must be finite")
        keep = ms > 0
        pts, ms = pts[keep], ms[keep]
        if pts.size and not np.all(pts[:, 0] < pts[:, 1]):
            raise ValueError("measure atoms must satisfy birth < death")
        pts.setflags(write=False)
        ms.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)

    @classmethod
    def from_arrays(cls, points: np.ndarray, masses: np.ndarray) -> "PersistenceMeasure":
        return cls(zip(np.asarray(points, dtype=float), np.asarray(masses, dtype=float)))

    @classmethod
    def from_diagram(cls, diagram: PersistenceDiagram, mass: float = 1.0) -> "PersistenceMeasure":
        """Unit-mass (or uniformly weighted) measure of a diagram."""
        return cls((tuple(p), mass) for p in diagram.points)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def persistences(self) -> np.ndarray:
        if self.n_atoms == 0:
            return np.empty(0)
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

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def thickened(self, t: float) -> "Rectangle":
        return Rectangle(self.x_min - t, self.x_max + t, self.y_min - t, self.y_max + t)


def _coords(x: PointLike) -> tuple[float, float]:
    if isinstance(x, BirthDeathPoint):
        return x.birth, x.death
    return float(x[0]), float(x[1])


def diag_distance(x: PointLike, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Distance from a point of W to the diagonal: (death - birth) * 2**(1/q - 1)."""
    b, d = _coords(x)
    return (d - b) * cfg.diag_factor


def _norm_q(dx: float, dy: float, q: float) -> float:
    dx, dy = abs(dx), abs(dy)
    if math.isinf(q):
        return max(dx, dy)
    if q == 1.0:
        return dx + dy
    if q == 2.0:
        return math.hypot(dx, dy)
    return (dx ** q + dy ** q) ** (1.0 / q)


def ground_distance(x: Union[PointLike, _Diagonal], y: Union[PointLike, _Diagonal],
                    cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Pseudometric on W + {DIAGONAL}: min of the direct q-norm and the route
    through the diagonal."""
    x_diag = isinstance(x, _Diagonal)
    y_diag = isinstance(y, _Diagonal)
    if x_diag and y_diag:
        return 0.0
    if x_diag:
        return diag_distance(y, cfg)
    if y_diag:
        return diag_distance(x, cfg)
    xb, xd = _coords(x)
    yb, yd = _coords(y)
    direct = _norm_q(xb - yb, xd - yd, cfg.q)
    via_diagonal = diag_distance(x, cfg) + diag_distance(y, cfg)
    return min(direct, via_diagonal)


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


def pers_infinity(mu: PersistenceMeasure, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Supremal distance to the diagonal over the atoms; 0 for the empty measure."""
    if mu.n_atoms == 0:
        return 0.0
    return float(np.max(mu.persistences)) * cfg.diag_factor


def truncate(mu: PersistenceMeasure, eps: float,
             cfg: MetricConfig = DEFAULT_METRIC) -> PersistenceMeasure:
    """Restriction of the measure to the band {death - birth > eps}."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if mu.n_atoms == 0:
        return mu
    keep = mu.persistences > eps
    return PersistenceMeasure.from_arrays(mu.points[keep], mu.masses[keep])


def mass_above(mu: PersistenceMeasure, eps: float, closed: bool = True) -> float:
    """Total mass of atoms with persistence >= eps (closed) or > eps (open)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if mu.n_atoms == 0:
        return 0.0
    pers = mu.persistences
    keep = pers >= eps if closed else pers > eps
    return float(mu.masses[keep].sum())


def integrate(mu: PersistenceMeasure, f: Callable[[float, float], float]) -> float:
    """Integral of f against the atomic measure: sum of mass * f(birth, death)."""
    return float(sum(m * f(p[0], p[1]) for p, m in zip(mu.points, mu.masses)))
