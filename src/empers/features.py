"""Template-function features of the expected persistence measure.

A batch of diagrams estimates the expected persistence measure by kernel
density estimation with a step kernel on a centered rectangle A. Features
against a step template on a rectangle B then have the closed form
area((x - A) intersect B) / area(A) summed over diagram points x, so no
quadrature is involved. Feature grids live in (birth, persistence)
coordinates, i.e. after the shear (b, d) -> (b, d - b).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .measure import PersistenceDiagram, Rectangle


@dataclass(frozen=True)
class StepKernel:
    """Normalized indicator of a rectangle symmetric about the origin."""

    support: Rectangle

    def __post_init__(self):
        a = self.support
        if not (math.isclose(a.x_min, -a.x_max, rel_tol=0, abs_tol=1e-12)
                and math.isclose(a.y_min, -a.y_max, rel_tol=0, abs_tol=1e-12)):
            raise ValueError(f"kernel rectangle must be symmetric about the origin: {a}")
        if a.area <= 0:
            raise ValueError("kernel rectangle must have positive area")

    @classmethod
    def from_half_widths(cls, hx: float, hy: float) -> "StepKernel":
        return cls(Rectangle(-hx, hx, -hy, hy))


@dataclass(frozen=True)
class TemplateFunction:
    """Step template: the indicator of a rectangle with positive area."""

    support: Rectangle

    def __post_init__(self):
        if self.support.area <= 0:
            raise ValueError("template rectangle must have positive area")


BIRTH_PERSISTENCE = "birth-persistence"


@dataclass(frozen=True)
class TemplateSystem:
    """A kernel plus templates defining the feature map. The templates live
    in the ``BIRTH_PERSISTENCE`` frame, (birth, death - birth)."""

    kernel: StepKernel
    templates: tuple[TemplateFunction, ...]

    def __post_init__(self):
        if not self.templates:
            raise ValueError("template system needs at least one template")

    def __len__(self) -> int:
        return len(self.templates)


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray


def to_birth_persistence(points: np.ndarray) -> np.ndarray:
    """The shear (b, d) -> (b, d - b)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.column_stack([pts[:, 0], pts[:, 1] - pts[:, 0]])


def _batch_convolutions(points_bp: np.ndarray, system: TemplateSystem) -> np.ndarray:
    """(n_points, n_templates) matrix of closed-form convolution values for
    points already in (birth, persistence) coordinates."""
    a = system.kernel.support
    ax, ay = a.x_max, a.y_max
    rects = np.asarray([(t.support.x_min, t.support.x_max, t.support.y_min, t.support.y_max)
                        for t in system.templates])
    px = points_bp[:, 0][:, None]
    py = points_bp[:, 1][:, None]
    wx = np.minimum(px + ax, rects[None, :, 1]) - np.maximum(px - ax, rects[None, :, 0])
    wy = np.minimum(py + ay, rects[None, :, 3]) - np.maximum(py - ay, rects[None, :, 2])
    return np.clip(wx, 0.0, None) * np.clip(wy, 0.0, None) / a.area


def feature_vector(diagrams: Sequence[PersistenceDiagram],
                   system: TemplateSystem) -> FeatureVector:
    """One feature per template: the integral of the template against the
    kernel density estimate of the diagram batch, computed exactly.

    Diagrams are sheared to (birth, persistence) coordinates first.
    """
    if not diagrams:
        raise ValueError("need at least one diagram")
    values = np.zeros(len(system))
    for d in diagrams:
        if len(d):
            pts = to_birth_persistence(d.points)
            values += _batch_convolutions(pts, system).sum(axis=0)
    values /= len(diagrams)
    return FeatureVector(values)


def template_grid(bounds: Rectangle, cell_side: float) -> tuple[TemplateFunction, ...]:
    """Axis-aligned grid of ceil(width/cell) x ceil(height/cell) squares of
    side ``cell_side`` anchored at the lower-left corner of ``bounds``. Cells
    have pairwise-disjoint interiors and their union covers the bounds."""
    if cell_side <= 0:
        raise ValueError(f"cell_side must be positive, got {cell_side}")
    if bounds.width <= 0 or bounds.height <= 0:
        raise ValueError(f"bounds must have positive area, got {bounds}")
    nx = math.ceil(bounds.width / cell_side)
    ny = math.ceil(bounds.height / cell_side)
    cells = []
    for iy in range(ny):
        for ix in range(nx):
            x0 = bounds.x_min + ix * cell_side
            y0 = bounds.y_min + iy * cell_side
            cells.append(TemplateFunction(Rectangle(x0, x0 + cell_side, y0, y0 + cell_side)))
    return tuple(cells)


def enclosing_bounds(diagram_batches: Iterable[Sequence[PersistenceDiagram]],
                     min_extent: float) -> Rectangle:
    """Bounding rectangle, in (birth, persistence) coordinates, of every point
    of every diagram; each axis is widened to at least ``min_extent`` so the
    result is always a valid grid region."""
    lo = np.array([np.inf, np.inf])
    hi = np.array([-np.inf, -np.inf])
    for batch in diagram_batches:
        for d in batch:
            if len(d):
                pts = to_birth_persistence(d.points)
                lo = np.minimum(lo, pts.min(axis=0))
                hi = np.maximum(hi, pts.max(axis=0))
    if not np.all(np.isfinite(lo)):
        lo = np.zeros(2)
        hi = np.zeros(2)
    span = hi - lo
    pad = np.maximum(min_extent - span, 0.0)
    return Rectangle(float(lo[0]), float(hi[0] + pad[0]), float(lo[1]), float(hi[1] + pad[1]))


def drop_zero_columns(matrix: np.ndarray,
                      column_ids: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Remove feature columns that are identically zero across all rows."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    keep = ~np.all(m == 0.0, axis=0)
    kept_ids = [cid for cid, k in zip(column_ids, keep) if k]
    return m[:, keep], kept_ids
