"""Partial infinity-optimal-transport distance between finite atomic measures.

The distance is the smallest worst-pair cost over couplings that may create
or destroy mass at the diagonal. For finite atomic measures the optimum is
attained at one of finitely many candidate thresholds (the pairwise ground
distances and the distances to the diagonal), and feasibility is monotone
in the threshold. ``ot_infinity`` therefore computes the masses, the ground
distances and the diagonal distances of a pair once, binary-searches the
candidates with a yes/no decision per threshold, and extracts an optimal
coupling once, at the threshold found, by ``feasible_at``.

Masses are converted to integers exactly: floats are dyadic rationals, so
all masses are integer multiples of one power of two, and the integers are
then divided by their greatest common divisor. Saturation and the ratio of a
pair's flow to its atom's capacity do not change under a common scale, so
feasibility decisions are exact and extracted couplings satisfy the marginal
conditions to float round-off.

Single-mass pairs, such as two expected measures at mass 1/m, reduce to
unit capacities. A coupling at threshold t is then a matching, along edges
of ground distance <= t, that covers the set A of mu atoms and the set B of
nu atoms farther than t from the diagonal; every other atom goes to the
diagonal, and the diagonal-to-diagonal cell carries the rest. Coincident
atoms stay separate unit atoms. Such a matching exists exactly when one
matching covers A and another covers B (Mendelsohn-Dulmage): the union of
the two splits into alternating paths and cycles, and on each of them one
of the two matchings covers every vertex of A and of B (the first, unless
the component is a path ending in B at an edge of the second). So a
threshold is decided by two calls to scipy's compiled Hopcroft-Karp
``maximum_bipartite_matching``.

Pairs with mixed masses are decided by max flow after augmenting each side
with a diagonal atom carrying the other side's total mass, and so is every
extracted coupling. The flow network is built with numpy and solved by one
of two max-flow solvers, chosen by exactness alone: scipy's compiled
``maximum_flow`` when the total capacity fits in int32, and otherwise an
arbitrary-precision Dinic in Python on the same edge arrays
(``maximum_flow`` stores capacities as int32 and gives wrong flows on larger
ones). Either returns an optimal coupling; when several exist, the two may
return different ones.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .measure import (
    DEFAULT_METRIC,
    DIAGONAL,
    MetricConfig,
    PersistenceMeasure,
    ground_distance_matrix,
    _Diagonal,
)

AtomRef = Union[int, _Diagonal]

_INT32_MAX = int(np.iinfo(np.int32).max)


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
    """The distance, an optimal coupling, the number of thresholds decided
    (the final coupling's included) and the solver that decided the search:
    ``"matching"``, ``"int32 flow"``, ``"exact flow"``, or ``"none"`` when
    both measures are empty."""

    distance: float
    coupling: Coupling
    thresholds_tested: int
    solver: str


class _Dinic:
    """Max flow on integer capacities (arbitrary-precision Python ints).

    Edge k is stored at index 2k and its reverse at 2k + 1, so the flow on
    edge k is the capacity accumulated on index 2k + 1."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)

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


def _max_flow_exact(n_nodes: int, tails: np.ndarray, heads: np.ndarray,
                    caps: list[int]) -> tuple[int, np.ndarray]:
    """Max flow from node 0 to node 1 on capacities of any size: the flow
    value and the flow on each edge, in edge order (an object array of ints)."""
    net = _Dinic(n_nodes)
    for u, v, c in zip(tails.tolist(), heads.tolist(), caps):
        net.add_edge(u, v, c)
    value = net.max_flow(0, 1)
    return value, np.array(net.cap[1::2], dtype=object)


def _max_flow_int32(n_nodes: int, tails: np.ndarray, heads: np.ndarray,
                    caps: np.ndarray) -> tuple[int, np.ndarray]:
    """Max flow from node 0 to node 1 by scipy's compiled solver, which is
    exact only while the capacities and the flow value fit in int32. Edges
    must be distinct and not antiparallel; returns what ``_max_flow_exact``
    does, with the edge flows as int32."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    graph = csr_array((np.asarray(caps, dtype=np.int32), (tails, heads)),
                      shape=(n_nodes, n_nodes))
    res = maximum_flow(graph, 0, 1)
    # scipy < 1.11 returns the flow as a csr_matrix, whose fancy indexing
    # gives a (1, k) matrix
    return int(res.flow_value), np.asarray(res.flow[tails, heads]).ravel()


def _quantize(masses: np.ndarray, other: np.ndarray) -> tuple[list[int], list[int]]:
    """Convert both mass vectors exactly to integers on a common scale: every
    float is a dyadic rational, so all masses are integer multiples of a
    common power of two. The integers are then divided by their greatest
    common divisor, which keeps them exact and makes masses k/m small."""
    values, inverse = np.unique(np.concatenate([masses, other]).astype(float),
                                return_inverse=True)
    ratios = [x.as_integer_ratio() for x in values.tolist()]
    denom = max((d for _, d in ratios), default=1)
    ints = [num * (denom // d) for num, d in ratios]
    g = math.gcd(*ints) or 1
    reduced = np.array([k // g for k in ints], dtype=object)[inverse].tolist()
    return reduced[:len(masses)], reduced[len(masses):]


def _diag_distances(points: np.ndarray, cfg: MetricConfig) -> np.ndarray:
    """``diag_distance`` of each row, by the same float operations."""
    return (points[:, 1] - points[:, 0]) * cfg.diag_factor


class _Pair(NamedTuple):
    """What feasibility needs of two measures at any threshold: the quantized
    masses, the ground distances between their atoms and each atom's distance
    to the diagonal."""

    u: list[int]
    v: list[int]
    gd: np.ndarray
    du: np.ndarray
    dv: np.ndarray


def _pair(mu: PersistenceMeasure, nu: PersistenceMeasure, cfg: MetricConfig) -> _Pair:
    u, v = _quantize(mu.masses, nu.masses)
    return _Pair(u, v, ground_distance_matrix(mu.points, nu.points, cfg),
                 _diag_distances(mu.points, cfg), _diag_distances(nu.points, cfg))


def _saturating_flow(pair: _Pair, t: float
                     ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A max flow that saturates the network at threshold t, or None if the
    max flow falls short: the admitted edges as (mu atom, nu atom) index
    arrays, with -1 for the diagonal, and the flow on each edge."""
    u_int, v_int = pair.u, pair.v
    n, m = len(u_int), len(v_int)
    total_u, total_v = sum(u_int), sum(v_int)
    total = total_u + total_v

    # node ids: source, sink, mu atoms, mu-side diagonal, nu atoms, nu-side diagonal
    mu_base, mu_diag = 2, 2 + n
    nu_base, nu_diag = 3 + n, 3 + n + m
    n_nodes = 4 + n + m

    # terminal edges: source -> mu atoms and mu-side diagonal, nu atoms and
    # nu-side diagonal -> sink
    term_caps = [*u_int, total_v, *v_int, total_u]
    term_tails = np.concatenate([np.zeros(n + 1, dtype=np.intp), np.arange(nu_base, n_nodes)])
    term_heads = np.concatenate([np.arange(mu_base, nu_base), np.ones(m + 1, dtype=np.intp)])

    # admitted middle edges: atom pairs, atoms to the diagonal, the diagonal
    # to atoms, then the diagonal-to-diagonal edge (free, not extracted)
    ii, jj = np.nonzero(pair.gd <= t)
    di = np.flatnonzero(pair.du <= t)
    dj = np.flatnonzero(pair.dv <= t)
    src_atom = np.concatenate([ii, di, np.full(len(dj) + 1, -1)])
    tgt_atom = np.concatenate([jj, np.full(len(di), -1), dj, [-1]])
    tails = np.concatenate([term_tails, np.where(src_atom < 0, mu_diag, mu_base + src_atom)])
    heads = np.concatenate([term_heads, np.where(tgt_atom < 0, nu_diag, nu_base + tgt_atom)])

    if total <= _INT32_MAX:
        caps = np.concatenate([term_caps, np.full(len(src_atom), total)])
        value, flow = _max_flow_int32(n_nodes, tails, heads, caps)
    else:
        value, flow = _max_flow_exact(n_nodes, tails, heads,
                                      term_caps + [total] * len(src_atom))
    if value != total:
        return None
    return src_atom[:-1], tgt_atom[:-1], flow[len(term_caps):-1]


def _flow_feasible(pair: _Pair, t: float) -> bool:
    return _saturating_flow(pair, t) is not None


def _covers_rows(admitted: np.ndarray) -> bool:
    """Whether one matching of the bipartite graph with boolean adjacency
    matrix ``admitted`` (rows to columns) covers every row."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n_rows, n_cols = admitted.shape
    if n_rows == 0:
        return True
    degrees = np.count_nonzero(admitted, axis=1)
    if n_rows > n_cols or not degrees.all():
        return False
    # CSR arrays built directly: flatnonzero is row-major, and much cheaper
    # than the 2-d nonzero or a conversion from the dense matrix
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int32)
    indices = (np.flatnonzero(admitted) % n_cols).astype(np.int32)
    graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                       shape=admitted.shape)
    return bool(np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0))


def _matching_feasible(pair: _Pair, t: float) -> bool:
    """Feasibility at t of a pair whose atoms all have unit capacity: the mu
    atoms farther than t from the diagonal match into nu, and the nu atoms
    farther than t match into mu, along edges of ground distance <= t."""
    admitted = pair.gd <= t
    return (_covers_rows(admitted[pair.du > t])
            and _covers_rows(admitted[:, pair.dv > t].T))


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
    if mu.n_atoms == 0 and nu.n_atoms == 0:
        return Coupling(pairs=(), mu=mu, nu=nu)

    pair = _pair(mu, nu, cfg)
    found = _saturating_flow(pair, t)
    if found is None:
        return None
    src_atom, tgt_atom, middle_flow = found
    pairs = []
    for k in np.flatnonzero(middle_flow > 0).tolist():
        a, b, f = int(src_atom[k]), int(tgt_atom[k]), int(middle_flow[k])
        # express the pair mass as a fraction of the exact atom mass so that
        # marginals match the original measures to float round-off
        if a < 0:
            pairs.append(CouplingPair(DIAGONAL, b, float(nu.masses[b]) * (f / pair.v[b])))
        else:
            pairs.append(CouplingPair(a, DIAGONAL if b < 0 else b,
                                      float(mu.masses[a]) * (f / pair.u[a])))
    return Coupling(pairs=tuple(pairs), mu=mu, nu=nu)


def cost_infinity(pi: Coupling, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Worst ground distance over pairs carrying positive mass; 0 if empty.

    Distances come from the float operations that admit edges in
    ``feasible_at``, so an optimal coupling costs exactly its distance.
    """
    def index(ref: AtomRef) -> int:
        return -1 if isinstance(ref, _Diagonal) else ref

    carried = [(index(p.source), index(p.target)) for p in pi.pairs if p.mass > 0]
    src, tgt = np.array(carried, dtype=np.intp).reshape(-1, 2).T
    costs = [np.zeros(1),
             _diag_distances(pi.mu.points, cfg)[src[(src >= 0) & (tgt < 0)]],
             _diag_distances(pi.nu.points, cfg)[tgt[(src < 0) & (tgt >= 0)]]]
    both = (src >= 0) & (tgt >= 0)
    if both.any():
        gd = ground_distance_matrix(pi.mu.points, pi.nu.points, cfg)
        costs.append(gd[src[both], tgt[both]])
    return float(np.concatenate(costs).max())


def ot_infinity(mu: PersistenceMeasure, nu: PersistenceMeasure,
                cfg: MetricConfig = DEFAULT_METRIC) -> TransportResult:
    """Partial infinity-optimal-transport distance with an optimal coupling.

    Feasibility is monotone in the threshold and can only change when a new
    edge becomes admissible, so the optimum lies in the finite candidate set
    of pairwise and diagonal distances; it is located by binary search with
    a yes/no decision per candidate, and the coupling is extracted once, at
    the candidate found.
    """
    if mu.n_atoms == 0 and nu.n_atoms == 0:
        return TransportResult(0.0, Coupling((), mu, nu), 0, "none")

    pair = _pair(mu, nu, cfg)
    if max(pair.u + pair.v) == 1:
        solver, feasible = "matching", _matching_feasible
    else:
        solver = "int32 flow" if sum(pair.u) + sum(pair.v) <= _INT32_MAX else "exact flow"
        feasible = _flow_feasible
    cands = np.unique(np.concatenate([np.zeros(1), pair.du, pair.dv, pair.gd.ravel()]))
    # everything may move to the diagonal at the top candidate
    lo, hi = 0, len(cands) - 1
    tested = 0
    while lo < hi:
        mid = (lo + hi) // 2
        tested += 1
        if feasible(pair, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    best = feasible_at(mu, nu, cands[hi], cfg)
    if best is None:  # cannot happen: the search ends at a feasible candidate
        raise AssertionError(f"transport infeasible at the threshold found, {cands[hi]!r}")
    return TransportResult(float(cands[hi]), best, tested + 1, solver)


@dataclass(frozen=True)
class MarginalViolation:
    side: str  # "source" or "target"
    atom_index: int
    expected: float
    actual: float


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
