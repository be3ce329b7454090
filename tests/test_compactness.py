import numpy as np
import pytest

from empers.compactness import build_report, diameter_bound, odut_profile, uodf_profile
from empers.measure import MetricConfig, PersistenceMeasure
from empers.transport import ot_infinity
from oracles import counterexample_family

Q_INF = MetricConfig()


def dirac(b, d, mass=1.0):
    return PersistenceMeasure([((b, d), mass)])


class TestUodfProfile:
    def test_max_mass_over_family(self):
        family = [dirac(0, 1, n) for n in range(1, 6)]
        assert uodf_profile(family, [0.5])[0.5] == 5.0

    def test_empty_measures(self):
        family = [PersistenceMeasure(), PersistenceMeasure()]
        prof = uodf_profile(family, [0.1, 1.0])
        assert prof == {0.1: 0.0, 1.0: 0.0}

    def test_band_membership_is_closed(self):
        family = [dirac(0, 1), dirac(0, 3)]
        assert uodf_profile(family, [2.0])[2.0] == 1.0

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(2)
        family = []
        for _ in range(5):
            b = rng.uniform(-2, 2, 6)
            p = rng.uniform(0.1, 3, 6)
            family.append(PersistenceMeasure(zip(
                np.column_stack([b, b + p]), rng.uniform(0.2, 2, 6))))
        eps = [0.1, 0.5, 1.0, 2.0, 3.5]
        prof = uodf_profile(family, eps)
        vals = [prof[e] for e in eps]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            uodf_profile([dirac(0, 1)], [])
        with pytest.raises(ValueError):
            uodf_profile([dirac(0, 1)], [-1.0])


class TestOdutProfile:
    def test_birth_band_excludes_mass(self):
        family = [dirac(10, 12)]
        prof = odut_profile(family, 1.0, [5, 11])
        assert prof[5] == 1.0
        assert prof[11] == 0.0

    def test_unit_square_support_is_always_inside(self):
        family = [dirac(0.2, 0.9), dirac(0.1, 1.0)]
        prof = odut_profile(family, 0.05, [1, 2, 10])
        assert all(v == 0.0 for v in prof.values())

    def test_persistence_filter_is_strict(self):
        family = [dirac(10, 10.5)]
        assert odut_profile(family, 1.0, [5])[5] == 0.0

    def test_monotone_in_n(self):
        family = [dirac(3, 5, 2.0), dirac(-8, -6, 1.0), dirac(20, 23, 0.5)]
        prof = odut_profile(family, 0.5, [1, 4, 10, 25])
        vals = [prof[n] for n in [1, 4, 10, 25]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestDiameterBound:
    def test_singleton(self):
        assert diameter_bound([dirac(0, 1)]) == 0.0

    def test_dirac_against_zero(self):
        assert diameter_bound([dirac(0, 1), PersistenceMeasure()], Q_INF) == 0.5

    def test_scaled_diracs_all_at_diagonal_distance(self):
        family = [dirac(0, 1, a) for a in (1.0, 2.0, 3.0)]
        assert diameter_bound(family, Q_INF) == 0.5

    def test_upper_bounds_every_pair(self):
        rng = np.random.default_rng(9)
        family = []
        for _ in range(4):
            b = rng.uniform(-1, 1, 3)
            p = rng.uniform(0.1, 2, 3)
            family.append(PersistenceMeasure(zip(
                np.column_stack([b, b + p]), rng.uniform(0.5, 2, 3))))
        diam = diameter_bound(family, Q_INF)
        for i in range(4):
            for j in range(4):
                assert ot_infinity(family[i], family[j], Q_INF).distance <= diam


class TestCounterexampleFamily:
    def test_masses_are_reciprocals(self):
        fam = counterexample_family((0, 1), 3)
        assert [m.total_mass for m in fam] == pytest.approx([1.0, 0.5, 1 / 3])
        assert all(m.n_atoms == 1 for m in fam)

    def test_singleton(self):
        fam = counterexample_family((0, 1), 1)
        assert len(fam) == 1 and fam[0].total_mass == 1.0

    def test_pairwise_distances_equal_diag_distance(self):
        fam = counterexample_family((0, 1), 5)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert ot_infinity(fam[i], fam[j], Q_INF).distance == 0.5

    def test_necessary_conditions_hold_but_family_does_not_converge(self):
        # all three diagnostics are finite, yet no two members get close:
        # the conditions are necessary, not sufficient
        fam = counterexample_family((0, 1), 8)
        report = build_report(fam, eps_list=[0.25, 0.5], n_list=[1, 5], cfg=Q_INF)
        assert report.diameter_upper_bound == 0.5
        assert all(np.isfinite(v) for v in report.uodf.values())
        assert max(report.uodf.values()) == 1.0
        assert all(v == 0.0 for by_n in report.odut.values() for v in by_n.values())
        min_pairwise = min(
            ot_infinity(fam[i], fam[j], Q_INF).distance
            for i in range(len(fam)) for j in range(i + 1, len(fam)))
        assert min_pairwise == 0.5


class TestReport:
    def test_flags_against_thresholds(self):
        fam = [dirac(0, 1), dirac(0, 2, 0.5)]
        report = build_report(fam, [0.5], [5], Q_INF,
                              thresholds={"diameter": 2.0, "uodf": 0.75, "odut": 0.1})
        assert report.flags["bounded"] is True
        assert report.flags["uodf"] is False  # mass 1.0 above threshold 0.75
        assert report.flags["odut"] is True

    def test_jsonable_round_trip_keys(self):
        fam = [dirac(0, 1)]
        obj = build_report(fam, [0.5], [1], Q_INF).to_jsonable()
        assert set(obj) == {"n_measures", "diameter_upper_bound",
                            "uodf_profile", "odut_profile", "flags"}

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            build_report([], [0.5], [1])
