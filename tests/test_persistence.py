import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from empers.config import DEFAULT_SHAPES
from empers.measure import PersistenceDiagram
from empers.persistence import (
    CAP,
    DROP,
    DistanceMatrix,
    FiltrationOptions,
    GrayImage,
    image_sublevel_h0,
    vr_persistence,
)
from empers.samplers import ShapeSpec, pairwise_distances, sample_shape
from oracles import (
    boundary_reduction_vr_diagrams,
    image_h0_naive_unionfind,
    image_h0_rank_oracle,
    naive_vr_diagrams,
    reduce_boundary_matrix,
    rips_simplices,
)

CAP_OPTS = FiltrationOptions(max_dim=1, essential_policy=CAP)


def euclidean_dm(points):
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=2))
    return DistanceMatrix(np.minimum(d, d.T))


def multiset(diagram: PersistenceDiagram):
    return diagram.as_multiset()


class TestReduceBoundaryMatrix:
    def test_empty(self):
        reduced, pairs = reduce_boundary_matrix([])
        assert reduced == [] and pairs == []

    def test_filled_triangle_at_zero(self):
        # 3 vertices, 3 edges, 1 face, all at the same filtration value:
        # each joining edge kills a vertex, the face kills the cycle
        columns = [(), (), (), (0, 1), (0, 2), (1, 2), (3, 4, 5)]
        _, pairs = reduce_boundary_matrix(columns)
        assert sorted(pairs) == [(1, 3), (2, 4), (5, 6)]

    def test_lows_are_unique(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 2))
        dm = euclidean_dm(pts)
        # rebuild the rips columns and check the contract
        simplices = rips_simplices(dm, CAP_OPTS)
        index = {s[2]: i for i, s in enumerate(simplices)}
        from itertools import combinations
        columns = []
        for _, dim, verts in simplices:
            columns.append(sorted(index[f] for f in combinations(verts, dim)) if dim else ())
        reduced, pairs = reduce_boundary_matrix(columns)
        lows = [max(c) for c in reduced if c]
        assert len(lows) == len(set(lows))
        assert len(pairs) == len(lows)

    def test_rejects_forward_references(self):
        with pytest.raises(ValueError):
            reduce_boundary_matrix([(), (0, 2)])


class TestVrPersistence:
    def test_three_collinear_points(self):
        dm = DistanceMatrix(np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float))
        d = vr_persistence(dm, FiltrationOptions(max_dim=0, essential_policy=CAP))
        assert multiset(d[0]) == [(0, 1), (0, 2), (0, 3)]

    def test_unit_square_h1(self):
        dm = euclidean_dm([[0, 0], [1, 0], [0, 1], [1, 1]])
        d = vr_persistence(dm, CAP_OPTS)
        assert len(d[1]) == 1
        (birth, death), = d[1].as_multiset()
        assert abs(birth - 1.0) < 1e-12
        assert abs(death - math.sqrt(2)) < 1e-12

    def test_single_point_drop_policy(self):
        dm = DistanceMatrix(np.zeros((1, 1)))
        d = vr_persistence(dm, FiltrationOptions(max_dim=0, essential_policy=DROP))
        assert len(d[0]) == 0

    def test_h0_count_equals_point_count_with_cap(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 7):
            dm = euclidean_dm(rng.normal(size=(n, 3)))
            d = vr_persistence(dm, CAP_OPTS)
            assert len(d[0]) == n

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(6, 2))
        dm = euclidean_dm(pts)
        base = vr_persistence(dm, CAP_OPTS)
        perm = rng.permutation(6)
        permuted = DistanceMatrix(dm.entries[np.ix_(perm, perm)])
        other = vr_persistence(permuted, CAP_OPTS)
        for deg in (0, 1):
            assert np.allclose(base[deg].as_multiset(), other[deg].as_multiset())

    def test_matches_naive_reduction_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = rng.integers(2, 8)
            dm = euclidean_dm(rng.normal(size=(n, rng.integers(1, 4))))
            got = vr_persistence(dm, CAP_OPTS)
            expected = naive_vr_diagrams(dm.entries, max_dim=1, essential_policy=CAP)
            for deg in (0, 1):
                assert got[deg].as_multiset() == expected[deg]

    def test_max_radius_caps_essential_classes(self):
        dm = DistanceMatrix(np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]], dtype=float))
        d = vr_persistence(dm, FiltrationOptions(max_dim=0, max_radius=1.5,
                                                 essential_policy=CAP))
        # only the merge at 1 happens below the radius; two classes get capped
        assert multiset(d[0]) == [(0, 1), (0, 1.5), (0, 1.5)]

    def test_birth_strictly_before_death_everywhere(self):
        rng = np.random.default_rng(30)
        dm = euclidean_dm(rng.normal(size=(7, 2)))
        d = vr_persistence(dm, CAP_OPTS)
        for deg in (0, 1):
            pts = d[deg].points
            if len(pts):
                assert np.all(pts[:, 0] < pts[:, 1])

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0, 1], [2, 0]], dtype=float))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0, -1], [-1, 0]], dtype=float))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[1.0]]))


def assert_same_ordered_diagrams(dm: DistanceMatrix, opts: FiltrationOptions):
    got = vr_persistence(dm, opts)
    expected = boundary_reduction_vr_diagrams(dm, opts)
    assert got.keys() == expected.keys()
    for deg in expected:
        assert np.array_equal(got[deg].points, expected[deg].points), deg
    return got


def int_cloud_dm(rng, n, dim, high):
    if n == 0:
        return DistanceMatrix(np.zeros((0, 0)))
    return euclidean_dm(rng.integers(0, high, size=(n, dim)))


class TestVrPersistenceMatchesBoundaryReduction:
    """The coboundary algorithm emits the same points in the same order as
    the boundary reduction of the full simplex list."""

    OPTIONS = (CAP_OPTS, FiltrationOptions(max_dim=0),
               FiltrationOptions(max_dim=1, essential_policy=DROP))

    def test_random_clouds(self):
        rng = np.random.default_rng(40)
        for n in range(16):
            for _ in range(3):
                if n == 0:
                    dm = DistanceMatrix(np.zeros((0, 0)))
                else:
                    dm = euclidean_dm(rng.normal(size=(n, rng.integers(1, 4))))
                for opts in self.OPTIONS:
                    assert_same_ordered_diagrams(dm, opts)

    @pytest.mark.parametrize("dim, high", [(2, 3), (1, 5)])
    def test_integer_clouds_with_ties_and_duplicates(self, dim, high):
        rng = np.random.default_rng(41 + dim)
        for _ in range(40):
            dm = int_cloud_dm(rng, int(rng.integers(2, 13)), dim, high)
            for opts in self.OPTIONS:
                assert_same_ordered_diagrams(dm, opts)

    def test_finite_max_radius(self):
        rng = np.random.default_rng(43)
        h0_essentials = h1_essentials = 0
        for _ in range(60):
            dm = int_cloud_dm(rng, int(rng.integers(3, 13)), 2, 6)
            radius = float(rng.choice([1.0, 1.5, 2.0, 2.5]))
            for policy in (CAP, DROP):
                got = assert_same_ordered_diagrams(
                    dm, FiltrationOptions(max_dim=1, max_radius=radius, essential_policy=policy))
                if policy == CAP:
                    h0_essentials = max(h0_essentials, int(np.sum(got[0].points[:, 1] == radius)))
                    h1_essentials += int(np.sum(got[1].points[:, 1] == radius))
        # the radius leaves several components and some cycles unfilled
        assert h0_essentials > 1 and h1_essentials > 0

    def test_finite_max_radius_rings(self):
        # hexagons of circumradius 1, 1.2 and 1.4, far apart: below the
        # radius every side is an edge but no triangle fits, so each ring
        # keeps an essential H1 class with its own birth
        rng = np.random.default_rng(44)
        angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        for _ in range(10):
            rings = [np.column_stack([10 * k + r * np.cos(angles), r * np.sin(angles)])
                     for k, r in enumerate((1.0, 1.2, 1.4))]
            pts = np.vstack(rings) + rng.uniform(-0.05, 0.05, size=(18, 2))
            got = assert_same_ordered_diagrams(
                euclidean_dm(pts[rng.permutation(18)]), FiltrationOptions(max_radius=1.6))
            assert len(got[0].points[got[0].points[:, 1] == 1.6]) == 3
            essential_births = got[1].points[got[1].points[:, 1] == 1.6, 0]
            assert len(set(essential_births)) == 3

    def test_thirty_point_default_shape_cloud(self):
        torus = next(s for s in DEFAULT_SHAPES if s.kind == "torus")
        cloud = sample_shape(ShapeSpec(kind="torus", n=30, seed=5, ring_radius=torus.ring_radius,
                                       tube_radius=torus.tube_radius))
        got = assert_same_ordered_diagrams(pairwise_distances(cloud), CAP_OPTS)
        assert len(got[0]) == 30 and len(got[1]) > 0

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=11),
           st.sampled_from([0, 1]), st.sampled_from([CAP, DROP]),
           st.sampled_from([math.inf, 1.0, 2.0, 3.0]))
    def test_property_integer_clouds(self, pts, max_dim, policy, radius):
        dm = euclidean_dm(pts) if pts else DistanceMatrix(np.zeros((0, 0)))
        assert_same_ordered_diagrams(dm, FiltrationOptions(max_dim=max_dim, max_radius=radius,
                                                           essential_policy=policy))


class TestImageSublevelH0:
    def test_three_pixel_ramp(self):
        img = GrayImage(np.array([[0, 2, 1]], dtype=float))
        d = image_sublevel_h0(img, FiltrationOptions(essential_policy=CAP))
        assert multiset(d) == [(0, 2), (1, 2)]

    def test_constant_image_drop(self):
        img = GrayImage(np.full((4, 4), 3.0))
        d = image_sublevel_h0(img, FiltrationOptions(essential_policy=DROP))
        assert len(d) == 0

    def test_two_minima_elder_rule(self):
        img = GrayImage(np.array([[0, 3, 1, 3, 2]], dtype=float))
        d = image_sublevel_h0(img, FiltrationOptions(essential_policy=CAP))
        assert multiset(d) == [(0, 3), (1, 3), (2, 3)]

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            img = rng.integers(0, 8, size=(6, 6)).astype(float)
            got = image_sublevel_h0(GrayImage(img), FiltrationOptions(essential_policy=CAP))
            assert got.as_multiset() == image_h0_rank_oracle(img)

    def test_matches_naive_unionfind_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            img = rng.integers(0, 10, size=(5, 7)).astype(float)
            got = image_sublevel_h0(GrayImage(img), FiltrationOptions(essential_policy=CAP))
            assert got.as_multiset() == sorted(image_h0_naive_unionfind(img))

    def test_diagonal_neighbours_are_not_adjacent(self):
        # 4-connectivity: the two diagonal minima stay apart until a 9 enters
        img = GrayImage(np.array([[0, 9], [9, 1]], dtype=float))
        assert multiset(image_sublevel_h0(img, FiltrationOptions())) == [(0.0, 9.0), (1.0, 9.0)]

    def test_drop_policy_omits_exactly_the_global_component(self):
        rng = np.random.default_rng(19)
        img = rng.integers(0, 6, size=(8, 8)).astype(float)
        cap_d = image_sublevel_h0(GrayImage(img), FiltrationOptions(essential_policy=CAP))
        drop_d = image_sublevel_h0(GrayImage(img), FiltrationOptions(essential_policy=DROP))
        cap_points = cap_d.as_multiset()
        drop_points = drop_d.as_multiset()
        extra = [p for p in cap_points if p not in drop_points or
                 cap_points.count(p) > drop_points.count(p)]
        assert len(cap_points) - len(drop_points) in (0, 1)
        if extra:
            assert extra[0][0] == img.min()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pixels_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GrayImage(np.array([[0.0, bad, 1.0, 0.0]]))


def assert_same_ordered_image_diagram(values, policy):
    got = image_sublevel_h0(GrayImage(values), FiltrationOptions(essential_policy=policy))
    expected = image_h0_naive_unionfind(values, essential_policy=policy)
    assert np.array_equal(got.points, np.array(expected, dtype=float).reshape(-1, 2))


@pytest.mark.parametrize("policy", [CAP, DROP])
class TestImageSublevelH0Order:
    """The Kruskal sweep lists the naive union-find's points in its order."""

    def test_random_integer_images_with_ties(self, policy):
        rng = np.random.default_rng(29)
        for _ in range(60):
            h, w = rng.integers(1, 9, size=2)
            assert_same_ordered_image_diagram(
                rng.integers(0, 5, size=(h, w)).astype(float), policy)

    def test_random_float_images(self, policy):
        rng = np.random.default_rng(31)
        for _ in range(20):
            assert_same_ordered_image_diagram(rng.normal(size=(7, 5)), policy)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1)])
    def test_single_row_and_column(self, policy, shape):
        rng = np.random.default_rng(37)
        for _ in range(10):
            assert_same_ordered_image_diagram(
                rng.integers(0, 4, size=shape).astype(float), policy)

    def test_constant_image(self, policy):
        assert_same_ordered_image_diagram(np.full((5, 6), 2.5), policy)

    @settings(max_examples=60)
    @given(st.integers(1, 7).flatmap(lambda w: st.lists(
        st.lists(st.integers(0, 3), min_size=w, max_size=w), min_size=1, max_size=7)))
    def test_property_integer_images(self, policy, rows):
        assert_same_ordered_image_diagram(np.array(rows, dtype=float), policy)
