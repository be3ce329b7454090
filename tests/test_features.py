import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empers.features import (
    StepKernel,
    TemplateFunction,
    TemplateSystem,
    drop_zero_columns,
    enclosing_bounds,
    feature_vector,
    template_grid,
    to_birth_persistence,
)
from empers.measure import PersistenceDiagram, Rectangle
from oracles import convolve_quadrature, convolve_step, feature_vector_per_diagram, kde_eval

K01 = StepKernel.from_half_widths(0.1, 0.1)


def grid_system(bounds, cell, kernel=K01):
    return TemplateSystem(kernel, template_grid(bounds, cell))


class TestStepKernel:
    def test_requires_symmetric_rectangle(self):
        with pytest.raises(ValueError):
            StepKernel(Rectangle(-0.1, 0.2, -0.1, 0.1))


class TestKdeEval:
    def test_single_point_inside_kernel(self):
        val = kde_eval([PersistenceDiagram([(1, 2)])], K01, (1.05, 2.05))
        assert val == pytest.approx(25.0)

    def test_outside_support_is_zero(self):
        assert kde_eval([PersistenceDiagram([(1, 2)])], K01, (2, 2)) == 0.0

    def test_averages_over_diagrams(self):
        val = kde_eval([PersistenceDiagram([(1, 2)]), PersistenceDiagram()], K01, (1, 2))
        assert val == pytest.approx(12.5)

    def test_integral_equals_average_point_count(self):
        rng = np.random.default_rng(3)
        kernel = StepKernel.from_half_widths(0.25, 0.25)
        diagrams = []
        for _ in range(4):
            n = rng.integers(1, 6)
            b = rng.uniform(0, 1, n)
            diagrams.append(PersistenceDiagram(np.column_stack([b, b + rng.uniform(0.2, 1, n)])))
        res = 1200
        xs = np.linspace(-0.5, 2.5, res, endpoint=False) + 3.0 / (2 * res)
        ys = np.linspace(-0.5, 3.5, res, endpoint=False) + 4.0 / (2 * res)
        cell = (3.0 / res) * (4.0 / res)
        density = np.zeros((res, res))
        for d in diagrams:
            for rb, rd in d.points:
                inside = ((np.abs(xs - rb)[:, None] <= 0.25)
                          & (np.abs(ys - rd)[None, :] <= 0.25))
                density += inside / kernel.support.area
        density /= len(diagrams)
        # pointwise, the vectorized density is exactly kde_eval
        for _ in range(25):
            i, j = rng.integers(0, res, 2)
            assert density[i, j] == pytest.approx(
                kde_eval(diagrams, kernel, (xs[i], ys[j])), abs=1e-12)
        avg_count = np.mean([len(d) for d in diagrams])
        assert abs(density.sum() * cell - avg_count) < 1e-2


class TestConvolveStep:
    def test_corner_overlap(self):
        f = TemplateFunction(Rectangle(0, 0.4, 0, 0.4))
        assert convolve_step(f, K01, (0, 0)) == pytest.approx(0.25)

    def test_far_from_support(self):
        f = TemplateFunction(Rectangle(0, 0.4, 0, 0.4))
        assert convolve_step(f, K01, (5, 5)) == 0.0

    def test_full_containment_gives_one(self):
        f = TemplateFunction(Rectangle(0, 0.4, 0, 0.4))
        assert convolve_step(f, K01, (0.2, 0.2)) == pytest.approx(1.0)

    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_value_in_unit_interval(self, x, y):
        f = TemplateFunction(Rectangle(-0.3, 0.5, -0.2, 0.6))
        assert 0.0 <= convolve_step(f, K01, (x, y)) <= 1.0

    def test_matches_midpoint_quadrature(self):
        # The midpoint rule on the shifted kernel support with an N x N grid
        # measures the overlap rectangle with error at most
        # (W_B/hx + H_B/hy) / (2N) of the normalized value, so keeping
        # W_B <= 0.3 hx and H_B <= 0.3 hy makes every draw err < 7.5e-4.
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(25):
            hx, hy = rng.uniform(0.2, 0.6, 2)
            kernel = StepKernel.from_half_widths(hx, hy)
            w_b = (0.05 + 0.25 * rng.random()) * hx
            h_b = (0.05 + 0.25 * rng.random()) * hy
            x0 = rng.uniform(-1, 1)
            y0 = rng.uniform(-1, 1)
            f = TemplateFunction(Rectangle(x0, x0 + w_b, y0, y0 + h_b))
            x = np.array([x0 + w_b / 2, y0 + h_b / 2]) + rng.uniform(-1.2, 1.2, 2) * [hx, hy]
            b = f.support
            indicator = lambda u, v: float(b.x_min <= u <= b.x_max and b.y_min <= v <= b.y_max)
            got = convolve_step(f, kernel, x)
            ref = convolve_quadrature(indicator, kernel, x, resolution=400)
            worst = max(worst, abs(got - ref))
        assert worst < 1e-3


class TestFeatureVector:
    def test_single_point_full_overlap(self):
        system = TemplateSystem(K01, (TemplateFunction(Rectangle(0.9, 1.3, 0.9, 1.3)),))
        fv = feature_vector([PersistenceDiagram([(1, 2)])], system)
        assert fv.values == pytest.approx([1.0])

    def test_empty_diagrams_give_zero_vector(self):
        system = grid_system(Rectangle(0, 1, 0, 1), 0.5)
        fv = feature_vector([PersistenceDiagram(), PersistenceDiagram()], system)
        assert np.all(fv.values == 0.0)

    def test_doubling_points_doubles_features(self):
        rng = np.random.default_rng(5)
        b = rng.uniform(0, 1, 4)
        pts = np.column_stack([b, b + rng.uniform(0.2, 1, 4)])
        d1 = PersistenceDiagram(pts)
        d2 = PersistenceDiagram(np.vstack([pts, pts]))
        system = grid_system(Rectangle(-0.5, 1.5, 0, 2), 0.25)
        f1 = feature_vector([d1], system).values
        f2 = feature_vector([d2], system).values
        assert f2 == pytest.approx(2 * f1)

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(9)
        b = rng.uniform(0, 1, 5)
        pts = np.column_stack([b, b + rng.uniform(0.2, 1, 5)])
        system = grid_system(Rectangle(-0.5, 1.5, 0, 2), 0.3)
        d_a = [PersistenceDiagram(pts), PersistenceDiagram(pts[:2])]
        d_b = [PersistenceDiagram(pts[:2]), PersistenceDiagram(pts[::-1])]
        assert feature_vector(d_a, system).values == pytest.approx(
            feature_vector(d_b, system).values)

    def test_uses_birth_persistence_frame(self):
        # the point (1, 2) shears to (1, 1); a template far from (1, 2) but
        # around (1, 1) must catch it
        system = TemplateSystem(K01, (TemplateFunction(Rectangle(0.8, 1.2, 0.8, 1.2)),))
        fv = feature_vector([PersistenceDiagram([(1, 2)])], system)
        assert fv.values[0] == pytest.approx(1.0)

    def test_full_grid_features_sum_to_average_count(self):
        # all shifted kernel supports inside the grid union: the sum over a
        # partition of indicator features equals the average point count
        rng = np.random.default_rng(11)
        diagrams = []
        for _ in range(3):
            n = rng.integers(1, 5)
            b = rng.uniform(0.5, 1.5, n)
            diagrams.append(PersistenceDiagram(np.column_stack([b, b + rng.uniform(0.5, 1.5, n)])))
        system = grid_system(Rectangle(0, 2, 0, 2), 0.25)
        total = feature_vector(diagrams, system).values.sum()
        avg = np.mean([len(d) for d in diagrams])
        assert total == pytest.approx(avg, rel=1e-12)


def _diagrams_from(rows):
    """Diagrams from lists of (birth, lifetime) pairs."""
    return [PersistenceDiagram([(b, b + life) for b, life in row]) for row in rows]


class TestFeatureVectorMatchesPerDiagramLoop:
    """One convolution per batch gives the bytes of one per diagram."""

    SYSTEM = grid_system(Rectangle(-1, 2, 0, 3), 0.35, StepKernel.from_half_widths(0.3, 0.2))

    def assert_same_bytes(self, diagrams, system=SYSTEM):
        got = feature_vector(diagrams, system).values
        assert np.array_equal(got, feature_vector_per_diagram(diagrams, system))

    def test_empty_diagrams_between_others(self):
        self.assert_same_bytes(_diagrams_from([[], [(0.1, 0.7), (0.4, 1.3)], [], [],
                                               [(1.1, 0.2)], []]))

    def test_all_diagrams_empty(self):
        self.assert_same_bytes(_diagrams_from([[], [], []]))

    def test_one_point_diagrams(self):
        rng = np.random.default_rng(21)
        self.assert_same_bytes(_diagrams_from(
            [[(rng.uniform(-1, 2), rng.uniform(0.1, 3))] for _ in range(40)]))

    def test_tied_points(self):
        self.assert_same_bytes(_diagrams_from([[(0.5, 1.0)] * 3, [(0.5, 1.0), (0.5, 1.0)],
                                               [(0.5, 1.0), (0.2, 1.0), (0.5, 1.0)]]))

    def test_points_outside_the_grid(self):
        self.assert_same_bytes(_diagrams_from([[(-5.0, 0.5), (0.3, 9.0)], [(7.0, 20.0)],
                                               [(0.3, 0.4), (-3.0, 0.1)]]))

    def test_one_template(self):
        system = TemplateSystem(K01, (TemplateFunction(Rectangle(0.0, 1.0, 0.0, 1.0)),))
        rng = np.random.default_rng(4)
        self.assert_same_bytes(_diagrams_from(
            [[(rng.uniform(0, 1), rng.uniform(0.05, 1)) for _ in range(k)] for k in range(9)]),
            system)

    @settings(max_examples=60)
    @given(st.lists(st.lists(st.tuples(st.floats(-2, 3), st.floats(0.01, 4)), max_size=7),
                    min_size=1, max_size=12),
           st.floats(0.05, 2), st.floats(0.05, 1), st.floats(0.05, 1))
    def test_property_random_batches(self, rows, cell, hx, hy):
        system = grid_system(Rectangle(-1, 2, 0, 3), cell, StepKernel.from_half_widths(hx, hy))
        self.assert_same_bytes(_diagrams_from(rows), system)


class TestTemplateGrid:
    def test_paper_like_grid_count(self):
        assert len(template_grid(Rectangle(0, 1.6, 0, 2.8), 0.4)) == 28

    def test_single_cell(self):
        assert len(template_grid(Rectangle(0, 1, 0, 1), 1.0)) == 1

    def test_ceiling_division(self):
        assert len(template_grid(Rectangle(0, 1, 0, 1), 0.6)) == 4

    def test_cells_are_interior_disjoint_and_cover(self):
        cells = template_grid(Rectangle(0, 1.1, 0, 0.9), 0.4)
        # pairwise interior-disjoint
        for i, a in enumerate(cells):
            for b_ in cells[i + 1:]:
                ra, rb = a.support, b_.support
                ox = min(ra.x_max, rb.x_max) - max(ra.x_min, rb.x_min)
                oy = min(ra.y_max, rb.y_max) - max(ra.y_min, rb.y_min)
                assert min(ox, oy) <= 1e-12
        # random points of the bounds are covered
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y = rng.uniform(0, 1.1), rng.uniform(0, 0.9)
            assert any(c.support.x_min <= x <= c.support.x_max
                       and c.support.y_min <= y <= c.support.y_max for c in cells)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            template_grid(Rectangle(0, 0, 0, 1), 0.5)


class TestEnclosingBounds:
    def test_pads_degenerate_axes(self):
        diagrams = [PersistenceDiagram([(0, 1), (0, 2)])]  # all births equal
        bounds = enclosing_bounds([diagrams], min_extent=0.4)
        assert bounds.width >= 0.4 and bounds.height >= 0.4
        pts = to_birth_persistence(diagrams[0].points)
        assert bounds.x_min <= pts[:, 0].min() and bounds.x_max >= pts[:, 0].max()
        assert bounds.y_min <= pts[:, 1].min() and bounds.y_max >= pts[:, 1].max()

    def test_equals_the_bounds_of_every_point(self):
        rng = np.random.default_rng(17)
        batches = [_diagrams_from([[(rng.normal(), rng.exponential()) for _ in range(k)]
                                   for k in rng.integers(0, 4, size=5)]) for _ in range(6)]
        pts = np.vstack([to_birth_persistence(d.points) for batch in batches for d in batch])
        bounds = enclosing_bounds(batches, min_extent=0.0)
        assert (bounds.x_min, bounds.x_max) == (pts[:, 0].min(), pts[:, 0].max())
        assert (bounds.y_min, bounds.y_max) == (pts[:, 1].min(), pts[:, 1].max())

    def test_no_points_gives_minimal_box(self):
        bounds = enclosing_bounds([[PersistenceDiagram()]], min_extent=0.4)
        assert bounds.width == pytest.approx(0.4)


class TestDropZeroColumns:
    def test_removes_only_zero_columns(self):
        m = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        reduced, kept = drop_zero_columns(m, ["a", "b", "c"])
        assert reduced.shape == (2, 1) and kept == ["b"]

    def test_identity_when_no_zero_columns(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        reduced, kept = drop_zero_columns(m, ["a", "b"])
        assert np.array_equal(reduced, m) and kept == ["a", "b"]
