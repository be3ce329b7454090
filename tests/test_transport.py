import math
from fractions import Fraction

import numpy as np
import pytest

from empers import transport
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
from empers.transport import (
    Coupling,
    CouplingPair,
    cost_infinity,
    feasible_at,
    ot_infinity,
    verify_coupling,
)
from oracles import bottleneck, integrate, matching_ot, pers_infinity, truncate

Q_INF = MetricConfig()
INT32_MAX = 2**31 - 1


def random_measure(rng, max_atoms=6, birth_range=(-3, 3), pers_range=(0.05, 3.0),
                   mass_range=(0.1, 4.0)):
    n = rng.integers(0, max_atoms + 1)
    b = rng.uniform(*birth_range, n)
    p = rng.uniform(*pers_range, n)
    m = rng.uniform(*mass_range, n)
    return PersistenceMeasure(zip(np.column_stack([b, b + p]), m))


def uniform_measure(d, mass=1.0):
    """The measure with one atom of the given mass at each point of a diagram."""
    return PersistenceMeasure((p, mass) for p in d.points)


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

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
    def test_optimal_coupling_costs_exactly_the_distance(self, q):
        cfg = MetricConfig(q)
        # math.hypot and the matrix's sqrt(db**2 + dd**2) differ by one ulp
        # on this pair, as do the scalar and array cube roots at q = 3
        pairs = [(PersistenceMeasure([((1.6, 4.0), 1.0)]),
                  PersistenceMeasure([((1.7, 5.5), 1.0)]))]
        rng = np.random.default_rng(47)
        for _ in range(40):
            pairs.append(tuple(PersistenceMeasure(
                [(tuple(p), k / m) for p, k in zip(random_diagram(rng).points, (1, 2, 1, 3, 1))])
                for m in (3, 7)))
        for mu, nu in pairs:
            res = ot_infinity(mu, nu, cfg)
            assert cost_infinity(res.coupling, cfg) == res.distance


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
            # mass of nu at persistence > eps / 2: >= the next float up
            assert mass_above(mu, eps) <= mass_above(nu, np.nextafter(eps / 2, math.inf))
            checked += 1
        assert checked == 40

    def test_matches_matching_enumeration_on_unit_masses(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            got = ot_infinity(uniform_measure(d1), uniform_measure(d2), Q_INF).distance
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
            thick = Rectangle(box.x_min - t, box.x_max + t, box.y_min - t, box.y_max + t)
            bound = lip * t * (mass_in(mu, thick) + mass_in(nu, thick))
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
        assert all(abs(v.expected - v.actual) == pytest.approx(0.5) for v in violations)

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


def _refuse(*_args, **_kwargs):
    raise AssertionError("this max-flow solver must not be reached")


def _next_lower_candidate(mu, nu, t):
    cands = [0.0, *(diag_distance(p) for p in mu.points), *(diag_distance(p) for p in nu.points)]
    if mu.n_atoms and nu.n_atoms:
        cands.extend(ground_distance_matrix(mu.points, nu.points).ravel().tolist())
    lower = [c for c in cands if c < t]
    return max(lower) if lower else None


def _assert_certificate(mu, nu, res):
    assert verify_coupling(res.coupling) == []
    assert cost_infinity(res.coupling, Q_INF) == res.distance
    lower = _next_lower_candidate(mu, nu, res.distance)
    if lower is not None:
        assert feasible_at(mu, nu, lower, Q_INF) is None


class TestFlowSolvers:
    def test_scaled_unions_match_matching_enumeration(self, monkeypatch):
        # the union of k diagrams at mass 1/k has the OT distance of the
        # unit-mass union: every capacity reduces to 1, on the int32 solver
        monkeypatch.setattr(transport, "_max_flow_exact", _refuse)
        rng = np.random.default_rng(43)
        for k in (3, 7, 14):
            for _ in range(15):
                d1, d2 = random_diagram(rng), random_diagram(rng)
                if len(d2) and rng.random() < 0.5:  # coincident atoms
                    d2 = PersistenceDiagram(np.vstack([d2.points, d2.points[:1]]))

                def union_of_k(d):
                    parts = np.array_split(d.points[rng.permutation(len(d))], k)
                    return PersistenceMeasure([(tuple(p), 1.0 / k) for part in parts for p in part])

                mu, nu = union_of_k(d1), union_of_k(d2)
                res = ot_infinity(mu, nu, Q_INF)
                assert res.distance == matching_ot(d1, d2, Q_INF)
                assert verify_coupling(res.coupling) == []

    def test_mixed_thirds_and_fifths_take_the_exact_solver(self, monkeypatch):
        # float(1/3) and float(1/5) reduce to a 54-bit total; thirds with
        # sevenths would not do, as their floats are exactly in ratio 7:3
        assert transport._quantize(np.array([1 / 3]), np.array([1 / 7])) == ([7], [3])
        monkeypatch.setattr(transport, "_max_flow_int32", _refuse)
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(10):
            mu, nu = random_measure(rng, max_atoms=8), random_measure(rng, max_atoms=8)
            if mu.n_atoms + nu.n_atoms < 2:
                continue
            mu = PersistenceMeasure(zip(
                mu.points, np.where(rng.random(mu.n_atoms) < 0.5, 1 / 3, 1 / 5)))
            nu = PersistenceMeasure(zip(
                nu.points, np.where(rng.random(nu.n_atoms) < 0.5, 1 / 5, 1 / 3)))
            u, v = transport._quantize(mu.masses, nu.masses)
            if len(set(u + v)) < 2:
                continue
            assert sum(u) + sum(v) > INT32_MAX
            _assert_certificate(mu, nu, ot_infinity(mu, nu, Q_INF))
            checked += 1
        assert checked >= 5

    def test_random_float_masses_take_the_exact_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu, nu = random_measure(rng), random_measure(rng)
            if mu.n_atoms and nu.n_atoms:
                u, v = transport._quantize(mu.masses, nu.masses)
                assert sum(u) + sum(v) > INT32_MAX

    def test_both_solvers_give_the_same_certificate(self, monkeypatch):
        # masses 1/4 and 1/2 quantize to 1 and 2: the int32 solver decides
        # the whole search, or the exact one once int32 is ruled out
        rng = np.random.default_rng(53)
        for _ in range(10):
            d1, d2 = random_diagram(rng, max_points=8), random_diagram(rng, max_points=8)
            mu = PersistenceMeasure([((-1, 2), 1 / 2)]
                                    + [(tuple(p), 1 / 4) for p in d1.points])
            nu = uniform_measure(d2, 1 / 4)
            fast = ot_infinity(mu, nu, Q_INF)
            _assert_certificate(mu, nu, fast)
            monkeypatch.setattr(transport, "_INT32_MAX", -1)
            exact = ot_infinity(mu, nu, Q_INF)
            monkeypatch.undo()
            assert exact.distance == fast.distance
            _assert_certificate(mu, nu, exact)
            assert (fast.solver, exact.solver) == ("int32 flow", "exact flow")

    @pytest.mark.parametrize("masses", [
        [0.1, 0.2, 0.3, 3.7],
        [1 / 14] * 5 + [2 / 14, 1 / 3],
        [2.0, 4.0, 6.0],
        [1e-300, 1e300, 0.5],
        [0.75],
        list(np.random.default_rng(59).uniform(0.1, 4.0, 12)),
    ])
    def test_quantize_is_exact_and_reduced(self, masses):
        u, v = transport._quantize(np.asarray(masses[:2]), np.asarray(masses[2:]))
        ints = u + v
        assert len(ints) == len(masses)
        assert all(isinstance(k, int) and k > 0 for k in ints)
        assert math.gcd(*ints) == 1
        scale = Fraction(masses[0]) / ints[0]
        assert all(Fraction(m) == k * scale for m, k in zip(masses, ints))

    def test_equal_masses_quantize_to_one(self):
        u, v = transport._quantize(np.full(155, 1 / 14), np.full(160, 1 / 14))
        assert set(u + v) == {1}

    def test_solvers_agree_on_random_graphs(self):
        rng = np.random.default_rng(61)
        for trial in range(60):
            n_nodes = int(rng.integers(2, 12))
            pairs = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)
                     if rng.random() < 0.4]
            # orient each pair at random; the source 0 only sends, the sink 1 only receives
            edges = []
            for a, b in pairs:
                u, v = (a, b) if rng.random() < 0.5 else (b, a)
                if u == 1 or v == 0:
                    u, v = v, u
                if u == 1 or v == 0:
                    continue
                edges.append((u, v))
            if not edges:
                continue
            tails = np.array([e[0] for e in edges], dtype=np.intp)
            heads = np.array([e[1] for e in edges], dtype=np.intp)
            top = 20 if trial % 2 else INT32_MAX // len(edges)
            caps = rng.integers(0, top + 1, len(edges)).tolist()
            value, flow = transport._max_flow_int32(n_nodes, tails, heads, np.asarray(caps))
            exact_value, exact_flow = transport._max_flow_exact(n_nodes, tails, heads, caps)
            assert value == exact_value
            for f in (flow, exact_flow):
                f = [int(x) for x in f]
                assert all(0 <= x <= c for x, c in zip(f, caps))
                net = np.zeros(n_nodes, dtype=object)
                for (u, v), x in zip(edges, f):
                    net[u] -= x
                    net[v] += x
                assert net[0] == -value and net[1] == value
                assert not any(net[2:])


def counted(monkeypatch, name):
    """Replace ``transport.<name>`` by a wrapper that logs each call; returns the log."""
    calls = []
    inner = getattr(transport, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(transport, name, wrapper)
    return calls


def thirds_and_fifths(d, rng):
    return PersistenceMeasure(zip(d.points, np.where(rng.random(len(d)) < 0.5, 1 / 3, 1 / 5)))


def random_single_mass_pair(rng):
    """Two measures whose atoms all carry one mass 1/k; either side may be
    empty. Every other pair lies on a coarse grid, so atoms coincide within
    and across the measures and many distances tie."""
    mass = 1.0 / int(rng.integers(1, 15))
    coarse = rng.random() < 0.5

    def side():
        n = int(rng.integers(0, 6))
        if coarse:
            b, p = rng.integers(0, 4, n) * 0.5, rng.integers(1, 4, n) * 0.5
        else:
            b, p = rng.uniform(-3, 3, n), rng.uniform(0.05, 3.0, n)
        return PersistenceMeasure((pt, mass) for pt in np.column_stack([b, b + p]))

    return side(), side()


def has_coincident_atoms(mu, nu):
    pts = [tuple(p) for p in np.vstack([mu.points, nu.points])]
    return len(set(pts)) < len(pts)


class TestMatchingDecision:
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
    def test_agrees_with_the_flow_at_every_candidate(self, q):
        cfg = MetricConfig(q)
        rng = np.random.default_rng(71)
        seen = {"empty side": 0, "n != m": 0, "coincident": 0, "feasible": 0, "infeasible": 0}
        for _ in range(60):
            mu, nu = random_single_mass_pair(rng)
            if mu.n_atoms == 0 and nu.n_atoms == 0:
                continue
            seen["empty side"] += mu.n_atoms == 0 or nu.n_atoms == 0
            seen["n != m"] += mu.n_atoms != nu.n_atoms
            seen["coincident"] += has_coincident_atoms(mu, nu)
            pair = transport._pair(mu, nu, cfg)
            assert set(pair.u + pair.v) == {1}
            for t in np.unique(np.concatenate([[0.0], pair.du, pair.dv, pair.gd.ravel()])):
                decided = transport._matching_feasible(pair, t)
                assert decided == (feasible_at(mu, nu, t, cfg) is not None)
                seen["feasible" if decided else "infeasible"] += 1
        assert min(seen.values()) >= 3, seen

    def test_single_mass_pairs_run_one_flow(self, monkeypatch):
        # the search runs on matchings alone; the only flow extracts the coupling
        flows = counted(monkeypatch, "_max_flow_int32")
        monkeypatch.setattr(transport, "_max_flow_exact", _refuse)
        rng = np.random.default_rng(73)
        checked = 0
        for _ in range(20):
            mu, nu = random_single_mass_pair(rng)
            if mu.n_atoms + nu.n_atoms < 3:
                continue
            flows.clear()
            res = ot_infinity(mu, nu, Q_INF)
            assert len(flows) == 1 and res.solver == "matching"
            assert res.thresholds_tested >= 2
            _assert_certificate(mu, nu, res)
            checked += 1
        assert checked >= 10


class TestOnePrecomputationPerPair:
    @staticmethod
    def pairs(kind, seed):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            d1, d2 = random_diagram(rng, max_points=10), random_diagram(rng, max_points=10)
            if len(d1) + len(d2) < 3:
                continue
            if kind == "unit":
                yield uniform_measure(d1, 1 / 7), uniform_measure(d2, 1 / 7)
            else:
                yield thirds_and_fifths(d1, rng), thirds_and_fifths(d2, rng)

    @pytest.mark.parametrize("kind", ["unit", "thirds and fifths"])
    def test_ground_distances_are_built_at_most_twice(self, monkeypatch, kind):
        # once for the search and once for the final coupling's feasible_at,
        # however many thresholds the search decides
        builds = counted(monkeypatch, "ground_distance_matrix")
        for mu, nu in self.pairs(kind, 83):
            builds.clear()
            res = ot_infinity(mu, nu, Q_INF)
            assert res.thresholds_tested > 2
            assert len(builds) <= 2

    @pytest.mark.parametrize("kind, decision", [("unit", "_matching_feasible"),
                                                ("thirds and fifths", "_flow_feasible")])
    def test_thresholds_tested_counts_the_decisions(self, monkeypatch, kind, decision):
        # the search's decisions plus the final coupling; the top candidate,
        # always feasible, is never decided on its own
        decided = counted(monkeypatch, decision)
        finals = counted(monkeypatch, "feasible_at")
        for mu, nu in self.pairs(kind, 89):
            decided.clear()
            finals.clear()
            res = ot_infinity(mu, nu, Q_INF)
            assert res.thresholds_tested == len(decided) + len(finals)
            assert [args[2] for args in finals] == [res.distance]
            pair = transport._pair(mu, nu, Q_INF)
            top = max(a.max(initial=0.0) for a in (pair.gd, pair.du, pair.dv))
            assert top not in [args[1] for args in decided]
