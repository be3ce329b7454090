"""Necessary-condition diagnostics for relative compactness of measure families.

Three conditions are profiled over a finite family: boundedness (via an
exact pairwise-distance diameter bound), uniform off-diagonal finiteness
(mass above each persistence level), and off-diagonal uniform tightness
(mass far from the birth band [-N, N]). Every finite atomic family passes
all three with finite values, and that is the point: the profiles are
reported without a compactness verdict, because the conditions are
necessary but not sufficient. The classic witness is the family
{(1/k) * dirac at x}, whose profiles are all finite while every pair sits
at distance d(x, diagonal) from every other.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .measure import (
    DEFAULT_METRIC,
    MetricConfig,
    PersistenceMeasure,
    mass_above,
)
from .transport import ot_infinity


def uodf_profile(family: Sequence[PersistenceMeasure],
                 eps_list: Sequence[float]) -> dict[float, float]:
    """For each eps, the largest closed mass above persistence eps in the family."""
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list must be non-empty")
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    return {float(e): max((mass_above(mu, e) for mu in family), default=0.0)
            for e in eps_list}


def odut_profile(family: Sequence[PersistenceMeasure], eps: float,
                 n_list: Sequence[int]) -> dict[int, float]:
    """For each N, the largest mass with persistence > eps and birth outside [-N, N]."""
    n_list = list(n_list)
    if not n_list or eps <= 0:
        raise ValueError("need eps > 0 and a non-empty n_list")

    def out_of_band(mu: PersistenceMeasure, n: int) -> float:
        if mu.n_atoms == 0:
            return 0.0
        keep = (mu.persistences > eps) & (np.abs(mu.points[:, 0]) > n)
        return float(mu.masses[keep].sum())

    return {int(n): max((out_of_band(mu, n) for mu in family), default=0.0)
            for n in n_list}


def diameter_bound(family: Sequence[PersistenceMeasure],
                   cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Max pairwise transport distance; exact for finite families."""
    if not family:
        raise ValueError("family must be non-empty")
    worst = 0.0
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            worst = max(worst, ot_infinity(family[i], family[j], cfg).distance)
    return worst


@dataclass(frozen=True)
class FamilyReport:
    """Compactness diagnostics for a finite family of measures.

    ``uodf`` maps eps -> sup mass; ``odut`` maps eps -> (N -> sup out-of-band
    mass). Profiles are non-increasing in eps and in N respectively. ``flags``
    holds pass/fail against user thresholds when thresholds were supplied.
    """

    n_measures: int
    diameter_upper_bound: float
    uodf: dict[float, float]
    odut: dict[float, dict[int, float]]
    flags: dict[str, bool] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "n_measures": self.n_measures,
            "diameter_upper_bound": self.diameter_upper_bound,
            "uodf_profile": {repr(e): v for e, v in self.uodf.items()},
            "odut_profile": {repr(e): {str(n): v for n, v in by_n.items()}
                             for e, by_n in self.odut.items()},
            "flags": dict(self.flags),
        }


def build_report(family: Sequence[PersistenceMeasure],
                 eps_list: Sequence[float],
                 n_list: Sequence[int],
                 cfg: MetricConfig = DEFAULT_METRIC,
                 thresholds: Optional[dict[str, float]] = None) -> FamilyReport:
    """Run all three diagnostics over a family.

    ``thresholds`` may contain "diameter", "uodf", and "odut" values; the
    corresponding flag passes when the computed quantity stays below the
    threshold (for odut, the mass at the largest N for every eps).
    """
    if not family:
        raise ValueError("family must be non-empty")
    diam = diameter_bound(family, cfg)
    uodf = uodf_profile(family, eps_list)
    odut = {float(e): odut_profile(family, e, n_list) for e in eps_list}
    flags: dict[str, bool] = {}
    if thresholds:
        if "diameter" in thresholds:
            flags["bounded"] = diam <= thresholds["diameter"]
        if "uodf" in thresholds:
            flags["uodf"] = max(uodf.values()) <= thresholds["uodf"]
        if "odut" in thresholds:
            n_max = max(n_list)
            flags["odut"] = all(by_n[n_max] <= thresholds["odut"] for by_n in odut.values())
    return FamilyReport(len(family), diam, uodf, odut, flags)
