"""Independent oracles used by the test suite.

Each oracle recomputes a quantity that the library computes by a different
route: brute-force minimization instead of closed forms, exhaustive matching
enumeration (on the scalar ``ground_distance``, with ``_norm_q``) instead of
max-flow feasibility search on ``ground_distance_matrix``, homology boundary
reductions (dense naive, and bitmask columns over the full simplex list)
instead of the Kruskal sweep and edge-coboundary reduction, and flood-fill
component ranks instead of the elder-rule union-find sweep.

Reference helpers that only tests call also live here: ``kde_eval``,
``convolve_step``, ``convolve_quadrature``, and ``cross_entropy_loss`` with
``cross_entropy_grad`` (the library's gradient) for finite differences; the
measure functionals ``pers_infinity``, ``truncate`` and ``integrate``;
``bottleneck`` (``ot_infinity`` of unit-mass diagrams); the compactness
witness ``counterexample_family``; and ``write_measure_json``, which writes
the measure files that the CLI reads.
"""
from __future__ import annotations

import json
import math
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from empers.features import StepKernel, TemplateFunction
from empers.learn import _loss_and_grad
from empers.measure import (
    DEFAULT_METRIC,
    DIAGONAL,
    MetricConfig,
    PersistenceDiagram,
    PersistenceMeasure,
    diag_distance,
)
from empers.persistence import CAP, DistanceMatrix, FiltrationOptions
from empers.transport import ot_infinity


def diag_distance_grid(point, q: float, n_grid: int = 2_000_001) -> float:
    """Distance to the diagonal by brute-force search over diagonal points."""
    b, d = float(point[0]), float(point[1])
    ts = np.linspace(b - 1.0, d + 1.0, n_grid)
    db, dd = np.abs(b - ts), np.abs(d - ts)
    if math.isinf(q):
        vals = np.maximum(db, dd)
    else:
        vals = (db ** q + dd ** q) ** (1.0 / q)
    return float(vals.min())


def _norm_q(dx: float, dy: float, q: float) -> float:
    dx, dy = abs(dx), abs(dy)
    if math.isinf(q):
        return max(dx, dy)
    if q == 1.0:
        return dx + dy
    if q == 2.0:
        return math.hypot(dx, dy)
    return (dx ** q + dy ** q) ** (1.0 / q)


def ground_distance(x, y, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Pseudometric on W + {DIAGONAL}, one pair at a time: the smaller of the
    direct q-norm and the route through the diagonal."""
    if x is DIAGONAL and y is DIAGONAL:
        return 0.0
    if x is DIAGONAL:
        return diag_distance(y, cfg)
    if y is DIAGONAL:
        return diag_distance(x, cfg)
    direct = _norm_q(float(x[0]) - float(y[0]), float(x[1]) - float(y[1]), cfg.q)
    return min(direct, diag_distance(x, cfg) + diag_distance(y, cfg))


def matching_ot(d1: PersistenceDiagram, d2: PersistenceDiagram,
                cfg: MetricConfig) -> float:
    """Bottleneck cost by exhaustive enumeration over partial matchings:
    every point is matched to a point of the other diagram or to the
    diagonal, injectively."""
    xs = [tuple(p) for p in d1.points]
    ys = [tuple(p) for p in d2.points]
    dd_x = [diag_distance(x, cfg) for x in xs]
    dd_y = [diag_distance(y, cfg) for y in ys]
    best = math.inf
    n, m = len(xs), len(ys)
    for k in range(min(n, m) + 1):
        for subset_x in combinations(range(n), k):
            for subset_y in permutations(range(m), k):
                cost = 0.0
                for i, j in zip(subset_x, subset_y):
                    cost = max(cost, ground_distance(xs[i], ys[j], cfg))
                for i in range(n):
                    if i not in subset_x:
                        cost = max(cost, dd_x[i])
                matched_y = set(subset_y)
                for j in range(m):
                    if j not in matched_y:
                        cost = max(cost, dd_y[j])
                best = min(best, cost)
    return best


def naive_vr_diagrams(dm: np.ndarray, max_dim: int,
                      essential_policy: str = "cap") -> dict[int, list[tuple[float, float]]]:
    """Vietoris-Rips persistence by dense naive reduction: full simplex
    enumeration, a dense 0/1 matrix, and left-to-right reduction that rescans
    the lows of all earlier columns for a match at every step. A reduced
    column never changes again, so its low is recorded once."""
    n = dm.shape[0]
    simplices = [(0.0, (i,)) for i in range(n)]
    for i, j in combinations(range(n), 2):
        simplices.append((float(dm[i, j]), (i, j)))
    if max_dim >= 1:
        for i, j, k in combinations(range(n), 3):
            simplices.append((float(max(dm[i, j], dm[i, k], dm[j, k])), (i, j, k)))
    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    index = {verts: i for i, (_, verts) in enumerate(simplices)}

    big_n = len(simplices)
    R = np.zeros((big_n, big_n), dtype=np.uint8)
    for j, (_, verts) in enumerate(simplices):
        if len(verts) > 1:
            for face in combinations(verts, len(verts) - 1):
                R[index[face], j] = 1

    def low(col):
        rows = np.flatnonzero(R[:, col])
        return int(rows[-1]) if len(rows) else -1

    lows: list[int] = []  # lows[k]: low of reduced column k, -1 if it is zero
    pairs = []
    for j in range(big_n):
        lj = low(j)
        while lj != -1:
            pivot = next((k for k, lk in enumerate(lows) if lk == lj), None)
            if pivot is None:
                pairs.append((lj, j))
                break
            R[:, j] = (R[:, j] + R[:, pivot]) % 2
            lj = low(j)
        lows.append(lj)

    diagrams: dict[int, list[tuple[float, float]]] = {d: [] for d in range(max_dim + 1)}
    paired = set()
    for i, j in pairs:
        paired.add(i)
        paired.add(j)
        b_val, b_verts = simplices[i]
        d_val = simplices[j][0]
        dim = len(b_verts) - 1
        if dim <= max_dim and b_val < d_val:
            diagrams[dim].append((b_val, d_val))
    if essential_policy == "cap":
        cap = float(dm.max())
        for i, (val, verts) in enumerate(simplices):
            dim = len(verts) - 1
            if i not in paired and dim <= max_dim and val < cap:
                diagrams[dim].append((val, cap))
    for d in diagrams:
        diagrams[d].sort()
    return diagrams


def reduce_boundary_matrix(columns: Sequence[Iterable[int]]) -> tuple[list[set[int]], list[tuple[int, int]]]:
    """Left-to-right column reduction over the two-element field.

    ``columns[j]`` holds the row indices of the boundary of simplex j, all of
    which must be < j (simplices in filtration order). Returns the reduced
    columns and the pairing (low, j) for every column whose reduced form is
    non-empty; each low index appears at most once.
    """
    reduced: list[int] = []
    pivot: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for j, rows in enumerate(columns):
        col = 0
        for r in rows:
            if not (0 <= r < j):
                raise ValueError(f"column {j} references row {r}; boundaries must point backwards")
            col ^= 1 << r
        while col:
            low = col.bit_length() - 1
            other = pivot.get(low)
            if other is None:
                pivot[low] = j
                pairs.append((low, j))
                break
            col ^= reduced[other]
        reduced.append(col)
    as_sets = [{r for r in range(c.bit_length()) if c >> r & 1} for c in reduced]
    return as_sets, pairs


def rips_simplices(dm: DistanceMatrix, opts: FiltrationOptions):
    """All simplices up to dimension max_dim + 1 within max_radius, in
    filtration order (value, dimension, lexicographic vertices)."""
    d = dm.entries
    n = dm.n
    simplices: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (i,)) for i in range(n)]
    r_max = opts.max_radius
    for i, j in combinations(range(n), 2):
        v = d[i, j]
        if v <= r_max:
            simplices.append((float(v), 1, (i, j)))
    if opts.max_dim >= 1:
        for i, j, k in combinations(range(n), 3):
            v = max(d[i, j], d[i, k], d[j, k])
            if v <= r_max:
                simplices.append((float(v), 2, (i, j, k)))
    simplices.sort()
    return simplices


def boundary_reduction_vr_diagrams(dm: DistanceMatrix,
                                   opts: FiltrationOptions) -> dict[int, PersistenceDiagram]:
    """Vietoris-Rips diagrams by boundary reduction of the full simplex list.

    Same contract and same point order as ``empers.persistence.vr_persistence``:
    finite points of each degree ordered by the position of their death
    simplex, then the capped essential classes ordered by the position of
    their birth simplex.
    """
    simplices = rips_simplices(dm, opts)
    index = {s[2]: i for i, s in enumerate(simplices)}
    columns = []
    for _, dim, verts in simplices:
        if dim == 0:
            columns.append(())
        else:
            columns.append(sorted(index[f] for f in combinations(verts, dim)))
    _, pairs = reduce_boundary_matrix(columns)

    points: dict[int, list[tuple[float, float]]] = {deg: [] for deg in range(opts.max_dim + 1)}
    paired_births = set()
    for low, j in pairs:
        paired_births.add(low)
        birth_val, birth_dim, _ = simplices[low]
        death_val = simplices[j][0]
        if birth_dim <= opts.max_dim and birth_val < death_val:
            points[birth_dim].append((birth_val, death_val))

    if opts.essential_policy == CAP:
        if math.isfinite(opts.max_radius):
            cap = float(opts.max_radius)
        else:
            cap = float(dm.entries.max()) if dm.n else 0.0
        destroyer_cols = {j for _, j in pairs}
        for i, (val, dim, _) in enumerate(simplices):
            if i in paired_births or i in destroyer_cols:
                continue
            if dim <= opts.max_dim and val < cap:
                points[dim].append((val, cap))

    return {deg: PersistenceDiagram(pts) for deg, pts in points.items()}


def _components_at_level(values: np.ndarray, level: float):
    """Flood-fill labels of the 4-connected sublevel set {pixels <= level};
    -1 outside."""
    h, w = values.shape
    labels = -np.ones((h, w), dtype=int)
    offs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    next_label = 0
    for r0 in range(h):
        for c0 in range(w):
            if values[r0, c0] <= level and labels[r0, c0] < 0:
                stack = [(r0, c0)]
                labels[r0, c0] = next_label
                while stack:
                    r, c = stack.pop()
                    for dr, dc in offs:
                        rr, cc = r + dr, c + dc
                        if (0 <= rr < h and 0 <= cc < w and values[rr, cc] <= level
                                and labels[rr, cc] < 0):
                            labels[rr, cc] = next_label
                            stack.append((rr, cc))
                next_label += 1
    return labels, next_label


def image_h0_rank_oracle(values: np.ndarray,
                         essential_policy: str = "cap") -> list[tuple[float, float]]:
    """Sublevel-set H0 diagram from the rank function of component inclusions.

    rank(i, j) counts components of the level-j sublevel set that contain a
    pixel of the level-i sublevel set; point multiplicities follow by
    inclusion-exclusion over consecutive levels. No union-find, no elder rule.
    """
    values = np.asarray(values, dtype=float)
    levels = np.unique(values)
    n_lev = len(levels)
    label_maps = [_components_at_level(values, lv)[0] for lv in levels]

    def rank(i: int, j: int) -> int:
        if i < 0:
            return 0
        lab_j = label_maps[j]
        present = np.unique(lab_j[(values <= levels[i]) & (lab_j >= 0)])
        return len(present)

    points: list[tuple[float, float]] = []
    for i in range(n_lev):
        for j in range(i + 1, n_lev):
            mult = (rank(i, j - 1) - rank(i, j)) - (rank(i - 1, j - 1) - rank(i - 1, j))
            points.extend([(float(levels[i]), float(levels[j]))] * mult)
        if essential_policy == "cap":
            ess = rank(i, n_lev - 1) - rank(i - 1, n_lev - 1)
            if levels[i] < levels[-1]:
                points.extend([(float(levels[i]), float(levels[-1]))] * ess)
    return sorted(points)


def image_h0_naive_unionfind(values: np.ndarray,
                             essential_policy: str = "cap") -> list[tuple[float, float]]:
    """Sublevel-set H0 by a plain dictionary union-find written from scratch,
    pixel by pixel over 4-neighbours.

    Points are emitted in the library's pinned order: by the death pixel's
    position in (intensity, row-major index) order, the components dying at
    one pixel by (birth, root), then the capped essential class.
    """
    values = np.asarray(values, dtype=float)
    h, w = values.shape
    offs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    birth: dict[tuple[int, int], float] = {}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    points = []
    order = sorted(((values[r, c], (r, c)) for r in range(h) for c in range(w)),
                   key=lambda t: (t[0], t[1]))
    for v, p in order:
        parent[p] = p
        birth[p] = v
        neighbor_roots = set()
        for dr, dc in offs:
            q = (p[0] + dr, p[1] + dc)
            if q in parent:
                neighbor_roots.add(find(q))
        neighbor_roots.discard(p)
        if not neighbor_roots:
            continue
        roots = sorted(neighbor_roots, key=lambda r: (birth[r], r))
        winner = roots[0]
        parent[p] = winner
        for loser in roots[1:]:
            if birth[loser] < v:
                points.append((birth[loser], v))
            parent[loser] = winner
    if essential_policy == "cap":
        top = float(values.max())
        root = find(order[0][1])
        if birth[root] < top:
            points.append((birth[root], top))
    return points


def kde_eval(diagrams: Sequence[PersistenceDiagram], kernel: StepKernel,
             x: Sequence[float]) -> float:
    """Kernel density estimate at a point: average over diagrams of the
    summed kernel values. Evaluation happens in the diagrams' own frame."""
    if not diagrams:
        raise ValueError("need at least one diagram")
    x = np.asarray(x, dtype=float)
    total = 0.0
    for d in diagrams:
        if len(d):
            diffs = x[None, :] - d.points
            inside = ((np.abs(diffs[:, 0]) <= kernel.support.x_max)
                      & (np.abs(diffs[:, 1]) <= kernel.support.y_max))
            total += inside.sum() / kernel.support.area
    return total / len(diagrams)


def convolve_step(f: TemplateFunction, kernel: StepKernel, x: Sequence[float]) -> float:
    """Closed-form convolution of a step template with a step kernel:
    area((x - A) intersect B) / area(A), always in [0, 1]."""
    a, b = kernel.support, f.support
    px, py = float(x[0]), float(x[1])
    # A is symmetric, so x - A = [px - ax, px + ax] x [py - ay, py + ay]
    wx = min(px + a.x_max, b.x_max) - max(px - a.x_max, b.x_min)
    wy = min(py + a.y_max, b.y_max) - max(py - a.y_max, b.y_min)
    if wx <= 0 or wy <= 0:
        return 0.0
    return (wx * wy) / a.area


def convolve_quadrature(f: Callable[[float, float], float], kernel: StepKernel,
                        x: Sequence[float], resolution: int = 200) -> float:
    """Midpoint-rule integral of any template f over the shifted kernel
    support x - A, normalized by area(A)."""
    a = kernel.support
    px, py = float(x[0]), float(x[1])
    xs = px - a.x_max + (np.arange(resolution) + 0.5) * (2 * a.x_max / resolution)
    ys = py - a.y_max + (np.arange(resolution) + 0.5) * (2 * a.y_max / resolution)
    cell = (2 * a.x_max / resolution) * (2 * a.y_max / resolution)
    total = sum(f(u, v) for u in xs for v in ys)
    return total * cell / a.area


def cross_entropy_loss(W: np.ndarray, Phi: np.ndarray, y: np.ndarray, l2: float) -> float:
    scores = Phi @ W
    log_probs = scores - np.logaddexp.reduce(scores, axis=1, keepdims=True)
    return float(-np.mean(log_probs[np.arange(len(y)), y]) + 0.5 * l2 * (W ** 2).sum())


def cross_entropy_grad(W: np.ndarray, Phi: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    return _loss_and_grad(W, Phi, np.eye(W.shape[1])[y], l2)[1]


def pers_infinity(mu: PersistenceMeasure, cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Supremal distance to the diagonal over the atoms; 0 for the empty measure."""
    if mu.n_atoms == 0:
        return 0.0
    return float(np.max(mu.persistences)) * cfg.diag_factor


def truncate(mu: PersistenceMeasure, eps: float) -> PersistenceMeasure:
    """Restriction of the measure to the band {death - birth > eps}."""
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    keep = mu.persistences > eps
    return PersistenceMeasure(zip(mu.points[keep], mu.masses[keep]))


def integrate(mu: PersistenceMeasure, f: Callable[[float, float], float]) -> float:
    """Integral of f against the atomic measure: sum of mass * f(birth, death)."""
    return float(sum(m * f(p[0], p[1]) for p, m in zip(mu.points, mu.masses)))


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram,
               cfg: MetricConfig = DEFAULT_METRIC) -> float:
    """Bottleneck distance: the transport distance of the unit-mass measures."""
    return ot_infinity(PersistenceMeasure((p, 1.0) for p in d1.points),
                       PersistenceMeasure((p, 1.0) for p in d2.points), cfg).distance


def counterexample_family(x: tuple[float, float], n: int) -> list[PersistenceMeasure]:
    """The family {(1/k) * dirac at x : k = 1..n}.

    Passes all three necessary conditions of ``empers.compactness`` with
    finite profiles, yet all pairwise distances equal d(x, diagonal), so it
    is not relatively compact.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [PersistenceMeasure([(x, 1.0 / k)]) for k in range(1, n + 1)]


def write_measure_json(path, mu: PersistenceMeasure,
                       cfg: MetricConfig = DEFAULT_METRIC) -> None:
    """A measure file in the format ``empers.io.read_measure_json`` reads."""
    obj = {
        "atoms": [{"birth": float(p[0]), "death": float(p[1]), "mass": float(m)}
                  for p, m in zip(mu.points, mu.masses)],
        "q": "inf" if math.isinf(cfg.q) else cfg.q,
    }
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")
