import math

import numpy as np
import pytest

from empers.measure import (
    DIAGONAL,
    MetricConfig,
    PersistenceDiagram,
    PersistenceMeasure,
    Rectangle,
    diag_distance,
    integrate,
    mass_above,
    pers_infinity,
    truncate,
)
from empers.transport import (
    Coupling,
    CouplingPair,
    bottleneck,
    cost_infinity,
    feasible_at,
    ot_infinity,
    verify_coupling,
)
from oracles import matching_ot

Q_INF = MetricConfig()


def random_measure(rng, max_atoms=6, birth_range=(-3, 3), pers_range=(0.05, 3.0),
                   mass_range=(0.1, 4.0)):
    n = rng.integers(0, max_atoms + 1)
    b = rng.uniform(*birth_range, n)
    p = rng.uniform(*pers_range, n)
    m = rng.uniform(*mass_range, n)
    return PersistenceMeasure.from_arrays(np.column_stack([b, b + p]), m)


def random_diagram(rng, max_points=5):
    n = rng.integers(0, max_points + 1)
    b = rng.uniform(-3, 3, n)
    p = rng.uniform(0.05, 3.0, n)
    return PersistenceDiagram(np.column_stack([b, b + p]))


class TestCostInfinity:
    def test_single_diagonal_pair(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        pi = Coupling((CouplingPair(0, DIAGONAL, 1.0),), mu, PersistenceMeasure())
        assert cost_infinity(pi, Q_INF) == 0.5

    def test_identity_transport_is_free(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        pi = Coupling((CouplingPair(0, 0, 1.0),), mu, mu)
        assert cost_infinity(pi, Q_INF) == 0.0

    def test_max_over_pairs(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        nu = PersistenceMeasure([((0, 3), 0.2)])
        pi = Coupling((CouplingPair(0, 0, 0.2), CouplingPair(0, DIAGONAL, 0.8)), mu, nu)
        assert cost_infinity(pi, Q_INF) == 2.0

    def test_empty_coupling(self):
        e = PersistenceMeasure()
        assert cost_infinity(Coupling((), e, e), Q_INF) == 0.0


class TestFeasibleAt:
    def test_all_mass_to_diagonal_at_exact_threshold(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        pi = feasible_at(mu, PersistenceMeasure(), 0.5, Q_INF)
        assert pi is not None
        assert pi.pairs == (CouplingPair(0, DIAGONAL, 1.0),)

    def test_infeasible_below_diagonal_distance(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        assert feasible_at(mu, PersistenceMeasure(), 0.4, Q_INF) is None

    def test_dirac_pair_feasible_exactly_at_diag_distance(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        nu = PersistenceMeasure([((0, 1), 2.0)])
        assert feasible_at(mu, nu, 0.49, Q_INF) is None
        pi = feasible_at(mu, nu, 0.5, Q_INF)
        assert pi is not None
        assert verify_coupling(pi) == []
        assert cost_infinity(pi, Q_INF) <= 0.5

    def test_outputs_always_satisfy_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            mu, nu = random_measure(rng), random_measure(rng)
            t = rng.uniform(0, 4)
            pi = feasible_at(mu, nu, t, Q_INF)
            if pi is not None:
                assert verify_coupling(pi, tol=1e-9) == []
                assert cost_infinity(pi, Q_INF) <= t

    def test_empty_vs_empty(self):
        pi = feasible_at(PersistenceMeasure(), PersistenceMeasure(), 0.0, Q_INF)
        assert pi is not None and pi.pairs == ()


class TestOtInfinity:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, max_atoms=5)
        res = ot_infinity(mu, mu, Q_INF)
        assert res.distance == 0.0
        assert cost_infinity(res.coupling, Q_INF) == 0.0

    def test_dirac_lemma_instance(self):
        a = PersistenceMeasure([((0, 1), 1.0)])
        b = PersistenceMeasure([((0, 1), 2.0)])
        assert ot_infinity(a, b, Q_INF).distance == 0.5

    def test_distance_to_zero_measure_is_pers_infinity(self):
        mu = PersistenceMeasure([((0, 1), 1.0), ((2, 5), 2.0)])
        res = ot_infinity(mu, PersistenceMeasure(), Q_INF)
        assert res.distance == 1.5
        assert res.distance == pers_infinity(mu, Q_INF)
        # cross-check against matching enumeration on the unit-mass analogue
        d = PersistenceDiagram([(0, 1), (2, 5)])
        assert matching_ot(d, PersistenceDiagram(), Q_INF) == 1.5

    def test_result_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu, nu = random_measure(rng), random_measure(rng)
            res = ot_infinity(mu, nu, Q_INF)
            assert cost_infinity(res.coupling, Q_INF) <= res.distance + 1e-9
            assert verify_coupling(res.coupling) == []
            assert res.thresholds_tested >= 1

    def test_symmetry_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            mu, nu = random_measure(rng), random_measure(rng)
            assert ot_infinity(mu, nu, Q_INF).distance == ot_infinity(nu, mu, Q_INF).distance

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b, c = (random_measure(rng, max_atoms=4) for _ in range(3))
            dab = ot_infinity(a, b, Q_INF).distance
            dbc = ot_infinity(b, c, Q_INF).distance
            dac = ot_infinity(a, c, Q_INF).distance
            assert dac <= dab + dbc + 1e-9

    def test_other_q_values(self):
        a = PersistenceMeasure([((0, 1), 1.0)])
        b = PersistenceMeasure([((0, 1), 3.0)])
        assert ot_infinity(a, b, MetricConfig(1.0)).distance == 1.0
        assert ot_infinity(a, b, MetricConfig(2.0)).distance == pytest.approx(2 ** -0.5)

    def test_truncation_bound_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            mu = random_measure(rng, max_atoms=8)
            for eps in (0.1, 0.5, 1.0):
                res = ot_infinity(mu, truncate(mu, eps), Q_INF)
                assert res.distance <= eps + 1e-9

    def test_interleaving_of_band_masses(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(40):
            mu, nu = random_measure(rng), random_measure(rng)
            t = ot_infinity(mu, nu, Q_INF).distance
            eps = 2 * t * 1.01 + 0.01
            assert mass_above(mu, eps, closed=True) <= mass_above(nu, eps / 2, closed=False)
            checked += 1
        assert checked == 40

    def test_matches_matching_enumeration_on_unit_masses(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            got = ot_infinity(PersistenceMeasure.from_diagram(d1),
                              PersistenceMeasure.from_diagram(d2), Q_INF).distance
            assert got == matching_ot(d1, d2, Q_INF)

    def test_empty_vs_empty(self):
        res = ot_infinity(PersistenceMeasure(), PersistenceMeasure(), Q_INF)
        assert res.distance == 0.0 and res.coupling.pairs == ()

    def test_lipschitz_functional_continuity(self):
        # |integral of f d(mu - nu)| <= Lip(f) * t * (mu(B^t) + nu(B^t))
        # for f a tent supported in a rectangle B strictly above the diagonal
        # (so f vanishes both on the boundary of B and toward the diagonal)
        rng = np.random.default_rng(41)
        box = Rectangle(-1.0, 1.2, 1.5, 4.0)
        cx, cy = 0.1, 2.75
        wx, wy = 1.1, 1.25  # half extents
        lip = max(1.0 / wx, 1.0 / wy)

        def tent(b, d):
            return max(0.0, 1.0 - max(abs(b - cx) / wx, abs(d - cy) / wy))

        def mass_in(mu, rect):
            if mu.n_atoms == 0:
                return 0.0
            inside = ((mu.points[:, 0] >= rect.x_min) & (mu.points[:, 0] <= rect.x_max)
                      & (mu.points[:, 1] >= rect.y_min) & (mu.points[:, 1] <= rect.y_max))
            return float(mu.masses[inside].sum())

        for _ in range(25):
            mu, nu = random_measure(rng), random_measure(rng)
            t = ot_infinity(mu, nu, Q_INF).distance
            gap = abs(integrate(mu, tent) - integrate(nu, tent))
            bound = lip * t * (mass_in(mu, box.thickened(t)) + mass_in(nu, box.thickened(t)))
            assert gap <= bound + 1e-9


class TestBottleneck:
    def test_identical_diagrams(self):
        d = PersistenceDiagram([(0, 1), (2, 4)])
        assert bottleneck(d, d, Q_INF) == 0.0

    def test_single_point_to_empty(self):
        assert bottleneck(PersistenceDiagram([(0, 2)]), PersistenceDiagram(), Q_INF) == 1.0

    def test_direct_match_beats_diagonal(self):
        d1 = PersistenceDiagram([(0, 2)])
        d2 = PersistenceDiagram([(0.2, 2.2)])
        val = bottleneck(d1, d2, Q_INF)
        assert val == pytest.approx(0.2)
        assert val == matching_ot(d1, d2, Q_INF)


class TestVerifyCoupling:
    def test_missing_mass_is_reported(self):
        mu = PersistenceMeasure([((0, 1), 1.0)])
        nu = PersistenceMeasure([((0, 1), 1.0)])
        pi = Coupling((CouplingPair(0, 0, 0.5),), mu, nu)
        violations = verify_coupling(pi)
        assert len(violations) == 2
        assert all(v.discrepancy == pytest.approx(0.5) for v in violations)

    def test_empty_coupling_of_empty_measures(self):
        e = PersistenceMeasure()
        assert verify_coupling(Coupling((), e, e)) == []

    def test_dirac_lemma_coupling_shape(self):
        # alpha stays in place, the excess beta - alpha enters from the diagonal
        a = PersistenceMeasure([((0, 1), 1.0)])
        b = PersistenceMeasure([((0, 1), 2.0)])
        res = ot_infinity(a, b, Q_INF)
        srcs = sorted((("D" if p.source is DIAGONAL else str(p.source))
                       for p in res.coupling.pairs))
        assert srcs == ["0", "D"]
        assert verify_coupling(res.coupling) == []
