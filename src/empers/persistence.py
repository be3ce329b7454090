"""Persistent homology: Vietoris-Rips H0/H1 and sublevel-set H0 of images.

Both H0 computations are one Kruskal sweep: the edges of a filtered graph go
through a union-find in filtration order, and an edge that joins two
components kills the younger one (elder rule: the smaller birth survives,
ties broken by root index). Vertices are numbered in filtration order, so
births never decrease with the index (Rips births are all 0) and the elder
rule reduces to "the smaller root index survives".

Work that depends only on the input's size is done once per size and kept in
small caches of read-only arrays: the upper-triangle edges and the
lexicographic triangles of n vertices with the (n, n, n) table from a vertex
triple to its triangle, and the 4-neighbour edges of an image shape. A call
only gathers its values into these and sorts them.

- Rips simplices are totally ordered by (filtration value, dimension,
  lexicographic vertex tuple), which makes diagrams reproducible across
  runs; the output multiset is independent of the input point order. H0
  sweeps the edges in that order, with every vertex born at 0.
- Rips H1 reduces edge coboundaries over the two-element field (Bauer,
  "Ripser", 2021). Columns are the edges in reverse order and the pivot of a
  column is its earliest cofacet triangle. Clearing skips the H0 death
  edges, whose columns reduce to zero. An edge that is the latest facet of
  its earliest cofacet forms an apparent pair with it and is paired without
  reduction; its column is built only if another column reaches that pivot.
  By the duality of persistent homology and cohomology (de Silva, Morozov
  and Vejdemo-Johansson, 2011) the pairs are those of the boundary
  reduction of the full simplex list.
- Image pixels are ordered by (intensity, row-major index) and born at their
  intensity; each 4-neighbour grid edge enters with its later pixel and
  dies, if it merges, at that pixel's intensity. The first edge of each
  pixel only merges the pixel's own singleton, a zero-persistence point, so
  those edges are linked up front in one array assignment and only the rest
  go through the sweep.

Points are listed in a pinned order. Rips: per degree, the finite points
ordered by the position of their death simplex, then the capped essential
classes ordered by the position of their birth simplex. Images: the finite
points ordered by (position of the death pixel, birth), then the capped
essential class. Downstream float sums, and hence the artifacts, depend on
this order.

Essential classes are finitized per ``essential_policy``: capped at the
enclosing radius (or the global max intensity for images), or dropped.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measure import PersistenceDiagram

CAP = "cap"
DROP = "drop"


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative matrix with zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("distance matrix entries must be finite")
        if np.any(m < 0):
            raise ValueError("distance matrix entries must be >= 0")
        if not np.array_equal(m, m.T):
            raise ValueError("distance matrix must be exactly symmetric")
        if np.any(np.diag(m) != 0):
            raise ValueError("distance matrix must have a zero diagonal")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image; ``values`` is a (height, width) array of finite floats."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"image must be a non-empty 2-D array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("image intensities must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FiltrationOptions:
    """Options for persistence computations.

    ``max_dim`` is the top homology degree (0 or 1). ``max_radius`` truncates
    the Rips filtration; infinite means no truncation. Images ignore both:
    their H0 is the sweep of Rips H0 run over the 4-neighbour pixel grid.
    ``essential_policy`` caps or drops the essential classes.
    """

    max_dim: int = 1
    max_radius: float = math.inf
    essential_policy: str = CAP

    def __post_init__(self):
        if self.max_dim not in (0, 1):
            raise ValueError(f"max_dim must be 0 or 1, got {self.max_dim}")
        if self.essential_policy not in (CAP, DROP):
            raise ValueError(f"essential_policy must be '{CAP}' or '{DROP}'")
        if self.max_radius <= 0:
            raise ValueError("max_radius must be positive")


def vr_persistence(dm: DistanceMatrix, opts: FiltrationOptions) -> dict[int, PersistenceDiagram]:
    """Vietoris-Rips persistence diagrams by degree from a distance matrix.

    The filtration value of a simplex is the largest pairwise distance of its
    vertices. Zero-persistence pairs are discarded. Essential classes get a
    death equal to the enclosing radius (the max matrix entry, or max_radius
    when finite) under the cap policy, and are omitted under drop. Points are
    listed in the order given in the module docstring.
    """
    d = dm.entries
    n = dm.n
    # edges within max_radius in filtration order (value, i, j): the cached
    # edges are lexicographic, so a stable sort by value is that order
    ii, jj = _edges(n)
    values = d[ii, jj]
    if math.isfinite(opts.max_radius):
        keep = values <= opts.max_radius
        ii, jj, values = ii[keep], jj[keep], values[keep]
    order = np.argsort(values, kind="stable")
    ii, jj, values = ii[order], jj[order], values[order]
    edge_vals = values.tolist()

    points: dict[int, list[tuple[float, float]]] = {deg: [] for deg in range(opts.max_dim + 1)}
    # H0: an edge that joins two components kills one of them (born at 0)
    deaths, _ = _h0_deaths(list(range(n)), ii.tolist(), jj.tolist())
    points[0] = [(0.0, edge_vals[e]) for e in deaths if 0.0 < edge_vals[e]]
    components = n - len(deaths)

    essential_edges: list[int] = []
    if opts.max_dim >= 1 and edge_vals:
        pairs, essential_edges, tri_vals = _h1_pairs(d, ii, jj, set(deaths),
                                                      opts.max_radius)
        for t in sorted(pairs):
            birth, death = edge_vals[pairs[t]], tri_vals[t]
            if birth < death:
                points[1].append((birth, death))

    if opts.essential_policy == CAP:
        if math.isfinite(opts.max_radius):
            cap = float(opts.max_radius)
        else:
            cap = float(d.max()) if n else 0.0
        if 0.0 < cap:
            points[0].extend([(0.0, cap)] * components)
        for e in sorted(essential_edges):
            if edge_vals[e] < cap:
                points[1].append((edge_vals[e], cap))

    return {deg: PersistenceDiagram(pts) for deg, pts in points.items()}


@lru_cache(maxsize=8)
def _edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges (i, j), i < j, of n vertices in lexicographic order."""
    ii, jj = np.triu_indices(n, 1)
    return _read_only(ii), _read_only(jj)


@lru_cache(maxsize=8)
def _triangles(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The triangles (a, b, c), a < b < c, of n vertices in lexicographic
    order, and the (n, n, n) table from any ordering of a triangle's vertices
    to its position in that order (the triangle count where the three
    vertices are not distinct)."""
    idx = np.arange(n)
    a, b, c = np.nonzero((idx[:, None, None] < idx[None, :, None])
                         & (idx[None, :, None] < idx[None, None, :]))
    table = np.full((n, n, n), len(a), dtype=np.intp)
    ids = np.arange(len(a))
    for p, q, r in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        table[p, q, r] = ids
    return _read_only(a), _read_only(b), _read_only(c), _read_only(table)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _h1_pairs(d: np.ndarray, ii: np.ndarray, jj: np.ndarray, death_edges: set[int],
              max_radius: float) -> tuple[dict[int, int], list[int], list[float]]:
    """Degree-1 persistence pairs by reduction of edge coboundaries.

    ``ii``, ``jj`` list the edges within ``max_radius`` in filtration order;
    edge e is the edge of rank e, and triangles are named by their rank in
    the same total order. Returns the pairing {triangle: edge}, the edges
    whose column reduces to zero (essential classes) and the triangle values
    by rank.
    """
    n = d.shape[0]
    n_edges = len(ii)
    edge_rank = np.full((n, n), -1, dtype=np.intp)
    edge_rank[ii, jj] = edge_rank[jj, ii] = np.arange(n_edges)

    # triangles within max_radius (all three edges present), ranked by
    # (value, i, j, k): the cached triangles are lexicographic, so a stable
    # sort by value is that order
    a, b, c, table = _triangles(n)
    n_all = len(a)
    tri_values = np.maximum(np.maximum(d[a, b], d[a, c]), d[b, c])
    ids = np.arange(n_all)
    if math.isfinite(max_radius):
        ids = ids[tri_values <= max_radius]
        a, b, c, tri_values = a[ids], b[ids], c[ids], tri_values[ids]
    order = np.argsort(tri_values, kind="stable")
    n_tri = len(order)
    tri_rank = np.empty(n_tri, dtype=np.intp)
    tri_rank[order] = np.arange(n_tri)

    # cofacets[e, k]: rank of the triangle of edge e and vertex k, or n_tri
    # when there is none
    rank_of_id = np.full(n_all + 1, n_tri, dtype=np.intp)
    rank_of_id[ids] = tri_rank
    cofacets = rank_of_id[table[ii, jj]]

    # (e, t) is an apparent pair when t, the earliest cofacet of e, has e as
    # its latest facet: the column of e is then reduced as it stands
    latest_facet = np.full(n_tri + 1, -1, dtype=np.intp)
    latest_facet[tri_rank] = np.maximum(np.maximum(edge_rank[a, b], edge_rank[a, c]),
                                        edge_rank[b, c])
    earliest = cofacets.min(axis=1)
    apparent = (latest_facet[earliest] == np.arange(n_edges)).tolist()
    earliest = earliest.tolist()

    def coboundary(e: int) -> set[int]:
        row = cofacets[e]
        return set(row[row < n_tri].tolist())

    pairs: dict[int, int] = {}  # pivot triangle -> edge
    columns: dict[int, set[int]] = {}  # edge -> reduced column, built on demand
    essential: list[int] = []
    for e in range(n_edges - 1, -1, -1):
        if e in death_edges:
            continue  # clearing: an H0 death edge's column reduces to zero
        if apparent[e]:
            pairs[earliest[e]] = e
            continue
        col = coboundary(e)
        while col and (owner := pairs.get(min(col))) is not None:
            if owner not in columns:
                columns[owner] = coboundary(owner)
            col ^= columns[owner]
        if col:
            pairs[min(col)] = e
            columns[e] = col
        else:
            essential.append(e)
    return pairs, essential, tri_values[order].tolist()


def _h0_deaths(parent: list[int], ii: list[int], jj: list[int]) -> tuple[list[int], list[int]]:
    """Elder-rule union-find sweep over edges given in filtration order.

    ``parent`` is the initial union-find forest over vertices numbered in
    filtration order, each entry pointing to a smaller index or to itself;
    edge e joins ``ii[e]`` and ``jj[e]``. A component's root is its smallest
    vertex, so when an edge joins two components the smaller root survives
    (the elder rule, as births do not decrease with the index). Returns, in
    edge order, the positions of the merging edges and the roots of the
    components they kill; the sweep stops once one component is left.
    """
    edges: list[int] = []
    killed: list[int] = []
    merges_left = sum(map(operator.eq, parent, range(len(parent)))) - 1
    for e, (i, j) in enumerate(zip(ii, jj)):
        if not merges_left:
            break
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i == j:
            continue
        if i > j:
            i, j = j, i
        parent[j] = i
        edges.append(e)
        killed.append(j)
        merges_left -= 1
    return edges, killed


@lru_cache(maxsize=8)
def _grid_edges(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The 4-neighbour edges of an image shape as pairs of row-major pixel
    indices: the horizontal edges, then the vertical ones, row by row."""
    grid = np.arange(shape[0] * shape[1]).reshape(shape)
    first = np.concatenate((grid[:, :-1].ravel(), grid[:-1].ravel()))
    second = np.concatenate((grid[:, 1:].ravel(), grid[1:].ravel()))
    return _read_only(first), _read_only(second)


def image_sublevel_h0(img: GrayImage, opts: FiltrationOptions) -> PersistenceDiagram:
    """Degree-0 persistence of the sublevel-set filtration of pixel intensities.

    Pixels enter in increasing intensity (ties by row-major index) and each
    4-neighbour edge enters with its later pixel; when an edge joins two
    components the younger one dies at that pixel's intensity (elder rule).
    The surviving global component is capped at the maximum intensity or
    dropped, per policy. Zero-persistence points are discarded.
    """
    vals = img.values.ravel()
    order = np.argsort(vals, kind="stable")
    rank = np.empty(len(vals), dtype=np.intp)
    rank[order] = np.arange(len(vals))
    # grid edges between pixel ranks, ordered by the rank of their later pixel
    first, second = _grid_edges(img.values.shape)
    ii, jj = rank[first], rank[second]
    later = np.maximum(ii, jj)
    by_later = np.argsort(later, kind="stable")
    earlier, later = np.minimum(ii, jj)[by_later], later[by_later]
    # a pixel's first edge joins its singleton to an older component: link
    # those up front and sweep the rest
    opens = np.ones(len(later), dtype=bool)
    opens[1:] = later[1:] != later[:-1]
    parent = np.arange(len(vals))
    parent[later[opens]] = earlier[opens]
    rest = ~opens
    later = later[rest].tolist()
    edges, killed = _h0_deaths(parent.tolist(), earlier[rest].tolist(), later)

    births = vals[order].tolist()
    pairs = sorted((later[e], births[k]) for e, k in zip(edges, killed))
    points = [(birth, births[v]) for v, birth in pairs if birth < births[v]]
    if opts.essential_policy == CAP and births[0] < births[-1]:
        points.append((births[0], births[-1]))
    return PersistenceDiagram(points)
