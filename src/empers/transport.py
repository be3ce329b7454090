"""Partial infinity-optimal-transport distance between finite atomic measures.

The distance is the smallest worst-pair cost over couplings that may create
or destroy mass at the diagonal. For finite atomic measures the optimum is
attained at one of finitely many candidate thresholds (the pairwise ground
distances and the distances to the diagonal), and feasibility at a threshold
reduces to a max-flow saturation check after augmenting each side with a
diagonal atom carrying the other side's total mass.

Masses are converted to integers exactly (floats are dyadic rationals), so
feasibility decisions are exact and extracted couplings satisfy the marginal
conditions to float round-off.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .measure import (
    DEFAULT_METRIC,
    DIAGONAL,
    MetricConfig,
    PersistenceDiagram,
    PersistenceMeasure,
    diag_distance,
    ground_distance,
    ground_distance_matrix,
    _Diagonal,
)

AtomRef = Union[int, _Diagonal]


@dataclass(frozen=True)
class CouplingPair:
    source: AtomRef
    target: AtomRef
    mass: float


@dataclass(frozen=True)
class Coupling:
    """A transport plan between two measures' atoms and the diagonal.

    Pairs never include the diagonal-to-diagonal cell (it is cost-free and
    normalized away). The referenced measures are kept so marginals can be
    checked against them.
    """

    pairs: tuple[CouplingPair, ...]
    mu: PersistenceMeasure
    nu: PersistenceMeasure


@dataclass(frozen=True)
class TransportResult:
    distance: float
    coupling: Coupling
    thresholds_tested: int


class _Dinic:
    """Max flow on integer capacities (arbitrary-precision Python ints)."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    queue.append(v)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: int) -> int:
        if u == t:
            return pushed
        while self.iter[u] < len(self.head[u]):
            e = self.head[u][self.iter[u]]
            v = self.to[e]
            if self.cap[e] > 0 and self.level[v] == self.level[u] + 1:
                d = self._dfs(v, t, min(pushed, self.cap[e]))
                if d > 0:
                    self.cap[e] -= d
                    self.cap[e ^ 1] += d
                    return d
            self.iter[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        inf = sum(self.cap[e] for e in self.head[s]) + 1
        while self._bfs(s, t):
            self.iter = [0] * self.n
            while True:
                pushed = self._dfs(s, t, inf)
                if pushed == 0:
                    break
                flow += pushed
        return flow

    def flow_on(self, edge_idx: int) -> int:
        # flow equals the capacity accumulated on the reverse edge
        return self.cap[edge_idx ^ 1]


def _quantize(masses: np.ndarray, other: np.ndarray) -> tuple[list[int], list[int]]:
    """Convert both mass vectors exactly to integers on a common scale: every
    float is a dyadic rational, so all masses are integer multiples of a
    common power of two."""
    fracs_u = [Fraction(float(m)) for m in masses]
    fracs_v = [Fraction(float(m)) for m in other]
    denom = 1
    for f in fracs_u + fracs_v:
        denom = max(denom, f.denominator)
    u = [int(f * denom) for f in fracs_u]
    v = [int(f * denom) for f in fracs_v]
    return u, v


def feasible_at(mu: PersistenceMeasure, nu: PersistenceMeasure, t: float,
                cfg: MetricConfig = DEFAULT_METRIC) -> Optional[Coupling]:
    """Return a coupling with worst-pair cost <= t, or None if none exists.

    Each side is augmented with a diagonal atom carrying the opposite side's
    total mass; an edge is admitted exactly when its ground distance is <= t
    (closed comparison, no epsilon), and the diagonal-to-diagonal edge is
    always admitted. Feasibility is a saturation check for the max flow.
    """
    if t < 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    n, m = mu.n_atoms, nu.n_atoms
    if n == 0 and m == 0:
        return Coupling(pairs=(), mu=mu, nu=nu)

    u_int, v_int = _quantize(mu.masses, nu.masses)
    total_u, total_v = sum(u_int), sum(v_int)
    total = total_u + total_v

    mu_diag_ok = [diag_distance(p, cfg) <= t for p in mu.points]
    nu_diag_ok = [diag_distance(p, cfg) <= t for p in nu.points]
    gd = ground_distance_matrix(mu.points, nu.points, cfg) if n and m else None

    # node ids: source, sink, mu atoms, mu-side diagonal, nu atoms, nu-side diagonal
    src, snk = 0, 1
    mu_base, mu_diag = 2, 2 + n
    nu_base, nu_diag = 3 + n, 3 + n + m
    net = _Dinic(4 + n + m)

    for i in range(n):
        net.add_edge(src, mu_base + i, u_int[i])
    net.add_edge(src, mu_diag, total_v)
    for j in range(m):
        net.add_edge(nu_base + j, snk, v_int[j])
    net.add_edge(nu_diag, snk, total_u)

    middle: list[tuple[AtomRef, AtomRef, int]] = []
    if gd is not None:
        for i in range(n):
            for j in range(m):
                if gd[i, j] <= t:
                    middle.append((i, j, net.add_edge(mu_base + i, nu_base + j, total)))
    for i in range(n):
        if mu_diag_ok[i]:
            middle.append((i, DIAGONAL, net.add_edge(mu_base + i, nu_diag, total)))
    for j in range(m):
        if nu_diag_ok[j]:
            middle.append((DIAGONAL, j, net.add_edge(mu_diag, nu_base + j, total)))
    net.add_edge(mu_diag, nu_diag, total)  # diagonal-to-diagonal, free, not extracted

    if net.max_flow(src, snk) != total:
        return None

    denom_u = {i: u for i, u in enumerate(u_int)}
    denom_v = {j: v for j, v in enumerate(v_int)}
    pairs = []
    for a, b, edge in middle:
        f = net.flow_on(edge)
        if f <= 0:
            continue
        # express the pair mass as a fraction of the exact atom mass so that
        # marginals match the original measures to float round-off
        if isinstance(a, _Diagonal):
            mass = float(nu.masses[b]) * (f / denom_v[b])
        else:
            mass = float(mu.masses[a]) * (f / denom_u[a])
        pairs.append(CouplingPair(a, b, mass))
    return Coupling(pairs=tuple(pairs), mu=mu, nu=nu)


def cost_infinity(pi: Coupling, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Worst ground distance over pairs carrying positive mass; 0 if empty."""
    worst = 0.0
    for pair in pi.pairs:
        if pair.mass <= 0:
            continue
        x = DIAGONAL if isinstance(pair.source, _Diagonal) else pi.mu.points[pair.source]
        y = DIAGONAL if isinstance(pair.target, _Diagonal) else pi.nu.points[pair.target]
        worst = max(worst, ground_distance(x, y, cfg))
    return worst


def _candidate_thresholds(mu: PersistenceMeasure, nu: PersistenceMeasure,
                          cfg: MetricConfig) -> np.ndarray:
    cands = [0.0]
    cands.extend(diag_distance(p, cfg) for p in mu.points)
    cands.extend(diag_distance(p, cfg) for p in nu.points)
    if mu.n_atoms and nu.n_atoms:
        cands.extend(ground_distance_matrix(mu.points, nu.points, cfg).ravel().tolist())
    return np.unique(np.asarray(cands, dtype=float))


def ot_infinity(mu: PersistenceMeasure, nu: PersistenceMeasure,
                cfg: MetricConfig = DEFAULT_METRIC) -> TransportResult:
    """Partial infinity-optimal-transport distance with an optimal coupling.

    Feasibility is monotone in the threshold and can only change when a new
    edge becomes admissible, so the optimum lies in the finite candidate set
    of pairwise and diagonal distances; it is located by binary search.
    """
    if mu.n_atoms == 0 and nu.n_atoms == 0:
        return TransportResult(0.0, Coupling((), mu, nu), 0)

    cands = _candidate_thresholds(mu, nu, cfg)
    lo, hi = 0, len(cands) - 1
    best = feasible_at(mu, nu, cands[hi], cfg)
    tested = 1
    if best is None:  # cannot happen: everything may move to the diagonal at the top
        raise AssertionError("transport infeasible at the maximal candidate threshold")

    while lo < hi:
        mid = (lo + hi) // 2
        pi = feasible_at(mu, nu, cands[mid], cfg)
        tested += 1
        if pi is None:
            lo = mid + 1
        else:
            best = pi
            hi = mid
    return TransportResult(float(cands[hi]), best, tested)


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram,
               cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Bottleneck distance: the transport distance of the unit-mass measures."""
    return ot_infinity(PersistenceMeasure.from_diagram(d1),
                       PersistenceMeasure.from_diagram(d2), cfg).distance


@dataclass(frozen=True)
class MarginalViolation:
    side: str  # "source" or "target"
    atom_index: int
    expected: float
    actual: float

    @property
    def discrepancy(self) -> float:
        return abs(self.expected - self.actual)


def verify_coupling(pi: Coupling, tol: float = 1e-9) -> list[MarginalViolation]:
    """Check the marginal conditions; one entry per violated atom."""
    out: list[MarginalViolation] = []
    src_totals = np.zeros(pi.mu.n_atoms)
    tgt_totals = np.zeros(pi.nu.n_atoms)
    for pair in pi.pairs:
        if not isinstance(pair.source, _Diagonal):
            src_totals[pair.source] += pair.mass
        if not isinstance(pair.target, _Diagonal):
            tgt_totals[pair.target] += pair.mass
    for i in range(pi.mu.n_atoms):
        if abs(src_totals[i] - pi.mu.masses[i]) > tol:
            out.append(MarginalViolation("source", i, float(pi.mu.masses[i]), float(src_totals[i])))
    for j in range(pi.nu.n_atoms):
        if abs(tgt_totals[j] - pi.nu.masses[j]) > tol:
            out.append(MarginalViolation("target", j, float(pi.nu.masses[j]), float(tgt_totals[j])))
    return out
