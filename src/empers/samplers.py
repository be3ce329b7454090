"""Sampled metric measure spaces: parametric shapes, their Euclidean
distance matrices, synthetic textures, and image patches.

All randomness flows through the Philox counter-based generator seeded
explicitly, so identical specs produce identical samples across runs and
platforms. Child seeds for batch work are derived with
:func:`empers.config.derive_seed`.

Distance matrices are computed in numpy, in the summation order of scipy's
``pdist``: squared coordinate differences are added one dimension at a time,
then the square root is taken. That keeps every entry bit-equal to
``squareform(pdist(x))``, on which the diagrams and all later artifacts
depend, while the pipeline loads no scipy module: importing
``scipy.spatial`` took longer and more memory than the rest of the package.
A one-line ``((x[:, None] - x[None]) ** 2).sum(-1)`` is not equivalent:
numpy sums eight or more terms pairwise, which can change the last bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .persistence import DistanceMatrix, GrayImage

SHAPE_KINDS = ("sphere", "torus", "circle", "annulus")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (n, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ShapeSpec:
    """A parametric shape to sample uniformly with respect to its intrinsic
    (arc/surface/area) measure."""

    kind: str
    n: int
    seed: int
    radius: float = 1.0          # circle, sphere
    inner_radius: float = 1.0    # annulus
    outer_radius: float = 2.0    # annulus
    ring_radius: float = 2.0     # torus (center of tube to axis)
    tube_radius: float = 0.5     # torus

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}; expected one of {SHAPE_KINDS}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")
        for name in ("radius", "inner_radius", "outer_radius", "ring_radius", "tube_radius"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.kind == "annulus" and not self.inner_radius < self.outer_radius:
            raise ValueError("annulus requires inner_radius < outer_radius")
        if self.kind == "torus" and not self.tube_radius < self.ring_radius:
            raise ValueError("torus requires tube_radius < ring_radius")


def sample_shape(spec: ShapeSpec) -> PointCloud:
    """Uniform sample of a circle, sphere, annulus, or torus.

    Circle: uniform angle. Sphere: normalized Gaussian directions. Annulus:
    uniform angle with the radius drawn by inverse CDF, r = sqrt(u*(R^2 -
    r0^2) + r0^2). Torus: uniform axial angle with the tube angle drawn by
    rejection against (R + r*cos(theta))/(R + r), which corrects the surface
    area element.
    """
    rng = _rng(spec.seed)
    n = spec.n
    if spec.kind == "circle":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        pts = spec.radius * np.column_stack([np.cos(theta), np.sin(theta)])
    elif spec.kind == "sphere":
        g = rng.normal(size=(n, 3))
        pts = spec.radius * g / np.linalg.norm(g, axis=1, keepdims=True)
    elif spec.kind == "annulus":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        u = rng.random(n)
        r0, r1 = spec.inner_radius, spec.outer_radius
        r = np.sqrt(u * (r1 ** 2 - r0 ** 2) + r0 ** 2)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    else:  # torus
        big_r, small_r = spec.ring_radius, spec.tube_radius
        theta = np.empty(n)
        filled = 0
        while filled < n:
            cand = rng.uniform(0.0, 2.0 * np.pi, 2 * (n - filled))
            accept_p = (big_r + small_r * np.cos(cand)) / (big_r + small_r)
            keep = cand[rng.random(cand.size) < accept_p]
            take = min(keep.size, n - filled)
            theta[filled:filled + take] = keep[:take]
            filled += take
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        ring = big_r + small_r * np.cos(theta)
        pts = np.column_stack([ring * np.cos(phi), ring * np.sin(phi),
                               small_r * np.sin(theta)])
    return PointCloud(pts)


def pairwise_distances(pc: PointCloud) -> DistanceMatrix:
    """Euclidean distance matrix of a point cloud, bit-equal to
    ``squareform(pdist(pc.points))`` (see the module docstring)."""
    x = pc.points
    sq = np.zeros((pc.n, pc.n))
    for k in range(x.shape[1]):
        d = x[:, k, None] - x[None, :, k]
        sq += d * d
    return DistanceMatrix(np.sqrt(sq))


TEXTURE_KINDS = ("gradient", "salt_pepper")


def synthetic_texture(kind: str, size: int, seed: int, max_value: float = 255.0) -> GrayImage:
    """Synthetic texture images for pipeline demos and tests.

    "gradient": a random linear ramp with mild Gaussian noise, so patches
    have very few sublevel-set minima. "salt_pepper": mid-gray with random
    extreme pixels, so patches have many short-lived components.
    """
    if kind not in TEXTURE_KINDS:
        raise ValueError(f"unknown texture kind {kind!r}; expected one of {TEXTURE_KINDS}")
    rng = _rng(seed)
    if kind == "gradient":
        angle = rng.uniform(0.0, 2.0 * np.pi)
        xs, ys = np.meshgrid(np.arange(size), np.arange(size))
        ramp = np.cos(angle) * xs + np.sin(angle) * ys
        ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-12)
        values = ramp * max_value + rng.normal(0.0, 2.0, (size, size))
    else:
        values = max_value / 2 + rng.normal(0.0, 8.0, (size, size))
        flips = rng.random((size, size))
        values[flips < 0.1] = 0.0
        values[flips > 0.9] = max_value
    return GrayImage(np.clip(values, 0.0, max_value))


def sample_patches(img: GrayImage, size: int, m: int, seed: int) -> list[GrayImage]:
    """m square crops with corners uniform over the valid positions."""
    if size < 1:
        raise ValueError(f"patch size must be >= 1, got {size}")
    n_x = img.width - size + 1
    n_y = img.height - size + 1
    if n_x < 1 or n_y < 1:
        raise ValueError(f"patch of size {size} does not fit in a "
                         f"{img.width}x{img.height} image")
    rng = _rng(seed)
    cols = rng.integers(0, n_x, m)
    rows = rng.integers(0, n_y, m)
    return [GrayImage(img.values[r:r + size, c:c + size]) for r, c in zip(rows, cols)]
