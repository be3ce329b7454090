import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from empers.measure import (
    DIAGONAL,
    MetricConfig,
    PersistenceDiagram,
    PersistenceMeasure,
    Rectangle,
    diag_distance,
    ground_distance_matrix,
    mass_above,
)
from oracles import diag_distance_grid, ground_distance, integrate, pers_infinity, truncate

Q_INF = MetricConfig()
Q1 = MetricConfig(1.0)
Q2 = MetricConfig(2.0)


def finite_points(min_pers=1e-3):
    return st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.floats(min_pers, 10, allow_nan=False),
    ).map(lambda t: (t[0], t[0] + t[1]))


def small_measures(max_atoms=6):
    atom = st.tuples(finite_points(), st.floats(0.01, 5.0))
    return st.lists(atom, min_size=0, max_size=max_atoms).map(PersistenceMeasure)


class TestDiagDistance:
    def test_midpoint_at_q_inf(self):
        assert diag_distance((0, 1), Q_INF) == 0.5

    def test_q2_matches_closed_form_and_grid_oracle(self):
        val = diag_distance((0, 1), Q2)
        assert val == pytest.approx(2 ** -0.5, abs=1e-12)
        assert val == pytest.approx(diag_distance_grid((0, 1), 2.0), abs=1e-5)

    def test_q1_equals_persistence(self):
        val = diag_distance((2, 5), Q1)
        assert val == 3.0
        assert val == pytest.approx(diag_distance_grid((2, 5), 1.0), abs=1e-5)

    @given(finite_points(), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    def test_always_positive(self, p, q):
        assert diag_distance(p, MetricConfig(q)) > 0

    @given(finite_points(), st.sampled_from([1.0, 2.0, 4.0, math.inf]))
    def test_matches_grid_search(self, p, q):
        assert diag_distance(p, MetricConfig(q)) == pytest.approx(
            diag_distance_grid(p, q, n_grid=400_001), abs=2e-4)


def gd(x, y, cfg=Q_INF) -> float:
    """The library's ground distance between two single points."""
    return float(ground_distance_matrix([x], [y], cfg)[0, 0])


class TestGroundDistance:
    def test_direct_equals_via_diagonal(self):
        assert gd((0, 1), (0, 3)) == 2.0

    def test_via_diagonal_wins_for_far_points(self):
        assert gd((0, 1), (10, 10.2)) == pytest.approx(0.6)

    def test_distance_to_diagonal_token(self):
        # the oracle's diagonal token costs the library's diagonal distance
        assert ground_distance((1, 2), DIAGONAL, Q_INF) == diag_distance((1, 2), Q_INF) == 0.5
        assert ground_distance(DIAGONAL, (1, 2), Q_INF) == 0.5
        assert ground_distance(DIAGONAL, DIAGONAL, Q_INF) == 0.0

    @given(finite_points(), finite_points(),
           st.sampled_from([1.0, 2.0, math.inf]))
    def test_symmetry(self, x, y, q):
        cfg = MetricConfig(q)
        assert gd(x, y, cfg) == gd(y, x, cfg)

    @given(finite_points(), finite_points(), finite_points(),
           st.sampled_from([1.0, 2.0, math.inf]))
    def test_triangle_inequality(self, x, y, z, q):
        cfg = MetricConfig(q)
        assert gd(x, z, cfg) <= gd(x, y, cfg) + gd(y, z, cfg) + 1e-12

    @given(finite_points(), finite_points())
    def test_triangle_through_diagonal(self, x, y):
        # the diagonal acts as a point of the pseudometric space
        assert gd(x, y) <= diag_distance(x) + diag_distance(y) + 1e-12

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(7)
        b = rng.uniform(-3, 3, (5,))
        xs = np.column_stack([b, b + rng.uniform(0.1, 2, 5)])
        b2 = rng.uniform(-3, 3, (4,))
        ys = np.column_stack([b2, b2 + rng.uniform(0.1, 2, 4)])
        for cfg in (Q_INF, Q1, Q2, MetricConfig(3.0)):
            mat = ground_distance_matrix(xs, ys, cfg)
            for i in range(5):
                for j in range(4):
                    assert mat[i, j] == pytest.approx(
                        ground_distance(xs[i], ys[j], cfg), abs=1e-12)


class TestPersInfinity:
    def test_max_over_atoms(self):
        mu = PersistenceMeasure([((0, 1), 1.0), ((2, 5), 0.3)])
        assert pers_infinity(mu, Q_INF) == 1.5

    def test_empty_measure(self):
        assert pers_infinity(PersistenceMeasure(), Q_INF) == 0.0

    def test_single_atom_q1(self):
        mu = PersistenceMeasure([((0, 1), 7.0)])
        assert pers_infinity(mu, Q1) == 1.0

    @given(small_measures(), st.floats(0.05, 3.0))
    def test_truncation_never_increases(self, mu, eps):
        assert pers_infinity(truncate(mu, eps)) <= pers_infinity(mu)


class TestTruncate:
    def test_keeps_only_persistent_atoms(self):
        mu = PersistenceMeasure([((0, 1), 1.0), ((0, 0.1), 5.0)])
        out = truncate(mu, 0.5)
        assert out.n_atoms == 1
        assert out.total_mass == 1.0

    def test_small_eps_is_identity(self):
        mu = PersistenceMeasure([((0, 1), 1.0), ((2, 5), 0.3)])
        out = truncate(mu, 1e-6)
        assert out.n_atoms == mu.n_atoms
        assert out.total_mass == mu.total_mass

    def test_large_eps_empties(self):
        mu = PersistenceMeasure([((0, 1), 1.0), ((2, 5), 0.3)])
        assert truncate(mu, 3.0).n_atoms == 0

    def test_band_membership_is_strict(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        assert truncate(mu, 1.0).n_atoms == 0

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            truncate(PersistenceMeasure(), 0.0)


def just_above(eps: float) -> float:
    """The next float above eps: persistence > eps iff persistence >= this."""
    return float(np.nextafter(eps, math.inf))


class TestMassAbove:
    def test_closed_vs_open(self):
        mu = PersistenceMeasure([((0, 1), 2.0), ((0, 3), 0.5)])
        assert mass_above(mu, 1.0) == 2.5
        assert mass_above(mu, just_above(1.0)) == 0.5

    def test_empty(self):
        assert mass_above(PersistenceMeasure(), 2.0) == 0.0

    @given(small_measures())
    def test_open_at_zero_is_total_mass(self, mu):
        assert mass_above(mu, just_above(0.0)) == pytest.approx(mu.total_mass)

    @given(small_measures(), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
    def test_monotone_in_eps(self, mu, e1, e2):
        lo, hi = sorted([e1, e2])
        assert mass_above(mu, hi) <= mass_above(mu, lo) + 1e-15


class TestIntegrate:
    def test_constant_gives_total_mass(self):
        mu = PersistenceMeasure([((1, 2), 2.0)])
        assert integrate(mu, lambda b, d: 1.0) == 2.0

    def test_persistence_functional(self):
        mu = PersistenceMeasure([((1, 2), 2.0), ((0, 4), 1.0)])
        assert integrate(mu, lambda b, d: d - b) == 6.0

    def test_empty(self):
        assert integrate(PersistenceMeasure(), lambda b, d: 123.0) == 0.0

    @given(small_measures(), st.floats(-2, 2), st.floats(-2, 2))
    def test_linear_in_f(self, mu, a, c):
        f = lambda b, d: b + 2 * d
        g = lambda b, d: d - b
        combined = integrate(mu, lambda b, d: a * f(b, d) + c * g(b, d))
        assert combined == pytest.approx(a * integrate(mu, f) + c * integrate(mu, g),
                                         rel=1e-9, abs=1e-9)

    @given(small_measures(), small_measures())
    def test_additive_in_measure(self, mu, nu):
        f = lambda b, d: math.sin(b) + d
        union = PersistenceMeasure(
            list(zip(map(tuple, mu.points), mu.masses))
            + list(zip(map(tuple, nu.points), nu.masses)))
        assert integrate(union, f) == pytest.approx(
            integrate(mu, f) + integrate(nu, f), rel=1e-9, abs=1e-9)


class TestTypes:
    def test_point_requires_birth_before_death(self):
        for point in ((1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ValueError):
                PersistenceDiagram([point])
            with pytest.raises(ValueError):
                PersistenceMeasure([(point, 1.0)])

    def test_point_requires_finite_coordinates(self):
        with pytest.raises(ValueError):
            PersistenceDiagram([(0.0, math.inf)])
        with pytest.raises(ValueError, match="finite"):
            PersistenceMeasure([((0.0, math.inf), 1.0)])

    @pytest.mark.parametrize("points", [[(0.0, 1.0, 2.0)], [0.0, 1.0], [[(0.0, 1.0)]]])
    def test_points_must_be_pairs(self, points):
        with pytest.raises(ValueError):
            PersistenceDiagram(points)

    def test_array_and_pairs_give_the_same_points(self):
        pairs = [(0, 1), (0.5, 2.25)]
        assert np.array_equal(PersistenceDiagram(pairs).points,
                              PersistenceDiagram(np.array(pairs, dtype=float)).points)
        assert PersistenceDiagram(np.empty((0, 2))).points.shape == (0, 2)

    def test_measure_drops_zero_mass_atoms(self):
        mu = PersistenceMeasure([((0, 1), 0.0), ((0, 2), 1.5)])
        assert mu.n_atoms == 1

    def test_measure_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            PersistenceMeasure([((0, 1), -0.5)])

    def test_duplicate_atoms_are_kept_separately(self):
        mu = PersistenceMeasure([((0, 1), 1.0), ((0, 1), 2.0)])
        assert mu.n_atoms == 2
        assert mu.total_mass == 3.0

    def test_diagram_multiset_semantics(self):
        d1 = PersistenceDiagram([(0, 1), (0, 1), (2, 3)])
        d2 = PersistenceDiagram([(2, 3), (0, 1), (0, 1)])
        assert d1 == d2
        assert len(d1) == 3

    def test_metric_config_rejects_small_q(self):
        with pytest.raises(ValueError):
            MetricConfig(0.5)

    def test_rectangle_area_and_orientation(self):
        r = Rectangle(0, 2, -1, 1)
        assert (r.width, r.height, r.area) == (2, 2, 4.0)
        with pytest.raises(ValueError):
            Rectangle(1, 0, 0, 1)
