import numpy as np
import pytest

from empers.persistence import GrayImage
from empers.samplers import (
    PointCloud,
    ShapeSpec,
    pairwise_distances,
    sample_patches,
    sample_shape,
)


def manifold_residual(spec: ShapeSpec, pts: np.ndarray) -> np.ndarray:
    if spec.kind == "circle":
        return np.abs(np.linalg.norm(pts, axis=1) - spec.radius)
    if spec.kind == "sphere":
        return np.abs(np.linalg.norm(pts, axis=1) - spec.radius)
    if spec.kind == "annulus":
        r = np.linalg.norm(pts, axis=1)
        return np.maximum(spec.inner_radius - r, r - spec.outer_radius).clip(min=0)
    ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) - spec.ring_radius
    return np.abs(np.sqrt(ring ** 2 + pts[:, 2] ** 2) - spec.tube_radius)


class TestSampleShape:
    def test_circle_points_on_manifold(self):
        pc = sample_shape(ShapeSpec("circle", n=4, seed=1, radius=1.0))
        assert pc.n == 4 and pc.dim == 2
        assert np.all(np.abs(np.linalg.norm(pc.points, axis=1) - 1.0) < 1e-12)

    @pytest.mark.parametrize("spec", [
        ShapeSpec("circle", n=200, seed=5, radius=2.0),
        ShapeSpec("sphere", n=200, seed=5, radius=1.5),
        ShapeSpec("annulus", n=200, seed=5, inner_radius=1.0, outer_radius=2.0),
        ShapeSpec("torus", n=200, seed=5, ring_radius=2.0, tube_radius=0.5),
    ])
    def test_all_kinds_stay_on_manifold(self, spec):
        pts = sample_shape(spec).points
        assert np.all(manifold_residual(spec, pts) < 1e-9)

    def test_sphere_mean_near_origin(self):
        pts = sample_shape(ShapeSpec("sphere", n=1000, seed=2, radius=1.0)).points
        assert np.linalg.norm(pts.mean(axis=0)) < 0.1

    def test_annulus_mean_radius(self):
        # uniform area measure on 1 <= r <= 2 has mean radius 14/9
        pts = sample_shape(ShapeSpec("annulus", n=1000, seed=3,
                                     inner_radius=1.0, outer_radius=2.0)).points
        mean_r = np.linalg.norm(pts, axis=1).mean()
        assert abs(mean_r - 14 / 9) < 0.05

    def test_torus_angle_distribution_is_area_weighted(self):
        # the outer half of the tube (cos(theta) > 0) carries more area
        spec = ShapeSpec("torus", n=4000, seed=7, ring_radius=2.0, tube_radius=0.5)
        pts = sample_shape(spec).points
        ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        outer_fraction = np.mean(ring > spec.ring_radius)
        # P(outer) = (1/2) + 2r/(2 pi R) integral ... = 0.5 + r/(pi R)
        expected = 0.5 + spec.tube_radius / (np.pi * spec.ring_radius)
        assert abs(outer_fraction - expected) < 0.03

    def test_determinism(self):
        spec = ShapeSpec("torus", n=50, seed=123, ring_radius=2.0, tube_radius=0.5)
        assert np.array_equal(sample_shape(spec).points, sample_shape(spec).points)

    def test_different_seeds_differ(self):
        a = sample_shape(ShapeSpec("circle", n=10, seed=1))
        b = sample_shape(ShapeSpec("circle", n=10, seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_invalid_radii_rejected(self):
        with pytest.raises(ValueError):
            ShapeSpec("annulus", n=5, seed=0, inner_radius=2.0, outer_radius=1.0)
        with pytest.raises(ValueError):
            ShapeSpec("torus", n=5, seed=0, ring_radius=0.5, tube_radius=1.0)
        with pytest.raises(ValueError):
            ShapeSpec("circle", n=5, seed=0, radius=-1.0)


class TestPairwiseDistances:
    def test_two_points(self):
        dm = pairwise_distances(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])))
        assert np.array_equal(dm.entries, np.array([[0, 1], [1, 0]], dtype=float))

    def test_unit_square_rows(self):
        dm = pairwise_distances(PointCloud(np.array(
            [[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)))
        for i in range(4):
            row = sorted(np.delete(dm.entries[i], i))
            assert row == pytest.approx([1, 1, np.sqrt(2)])

    def test_triangle_inequality_on_random_cloud(self):
        rng = np.random.default_rng(6)
        dm = pairwise_distances(PointCloud(rng.normal(size=(8, 3)))).entries
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert dm[i, k] <= dm[i, j] + dm[j, k] + 1e-12


class TestSamplePatches:
    def test_full_size_patch_is_the_image(self):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 255, (35, 35)).astype(float))
        patches = sample_patches(img, size=35, m=3, seed=1)
        assert len(patches) == 3
        for p in patches:
            assert np.array_equal(p.values, img.values)

    def test_region_too_small_rejected(self):
        img = GrayImage(np.zeros((20, 12)))
        with pytest.raises(ValueError):
            sample_patches(img, size=13, m=1, seed=0)

    def test_corner_positions_cover_the_valid_grid(self):
        img = GrayImage(np.arange(100 * 100, dtype=float).reshape(100, 100))
        patches = sample_patches(img, size=96, m=500, seed=3)
        corners = {(int(p.values[0, 0]) // 100, int(p.values[0, 0]) % 100)
                   for p in patches}
        assert corners <= {(r, c) for r in range(5) for c in range(5)}
        assert len(corners) == 25  # all 5x5 positions hit at this sample size
