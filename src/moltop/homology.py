"""Vietoris-Rips persistence over graph geodesic distances.

Hop distances come from one walk per molecule, from every source at once:
each frontier is the last one times the bond adjacency matrix, less the
vertices already reached; row masks walk each row within itself.  For a
vertex subset, edges enter the complex at the hop distance between their
endpoints and triangles at the largest of their three edge scales (clique
rule, capped at dimension 2).  The filtration order is (scale, dimension,
sorted vertex tuple).  Triangles are never listed: an edge's cofacets are
its in-range third vertices, read from the row's hop block.

Reduction follows Ripser (Bauer 2021) in three steps:

1. Apparent pairs, in one vectorized pass: an edge whose oldest cofacet has
   that edge as its youngest face is paired with it without any reduction.
   Every such pair enters at a single scale, so it has zero persistence.
2. A union-find sweep over the other edges in filtration order yields the
   dimension-0 pairs.  The edges that merge components die in dimension 0;
   clearing (Chen & Kerber 2011) drops their coboundary columns, which
   would reduce to zero.
3. The few remaining cycle-creating edges are reduced as coboundary columns
   over GF(2) in reverse filtration order (persistent cohomology, de Silva,
   Morozov & Vejdemo-Johansson 2011).  Columns are computed lazily from the
   hop block; the pivot table starts with the apparent pivots, apparent
   columns are recomputed when a reduction needs them, and only reduced
   columns are stored.  A column that reduces to zero is an essential class.

Cohomology yields the same pairs as boundary-matrix reduction in the same
order; the test suite checks that against a triangle-list reducer, naive
single-matrix reduction and an independent rank oracle.

Before a row is built, ``strong_collapse`` shrinks it.  Say x and a are in
the row, hops[x, a] == 1, and hops[a, y] <= hops[x, y] for every other row
vertex y.  Then at every scale t >= 1 the closed neighbourhood of x lies in
that of a, so x is strongly dominated and removing it is a strong collapse
(Barmak & Minian 2012).  Removing x commutes with the inclusions between
scales (Boissonnat, Pritam & Pareek, "Strong collapse for persistence",
ESA 2018), so the smaller filtration has the same persistence from scale 1
on.  Only scale 0 differs: there x is one more component, which joins a's
at scale 1.  So PD_1 is unchanged and PD_0 loses exactly one (0, 1) pair
per removed vertex, which the caller adds back.  Hydrogens are always
dominated, and repeating the rule peels chains and branches.  One call
collapses all distinct rows of a molecule, in either distance mode.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InternalInvariantError
from .molgraph import MolecularGraph

UNREACHABLE = -1


@dataclass(frozen=True)
class DistanceMatrix:
    hops: np.ndarray  # (n, n) or (R, n, n) int32, UNREACHABLE between components
    diameter: int     # max finite entry


def geodesic_distances(graph: MolecularGraph, rows=None) -> DistanceMatrix:
    """Hop distances from every source at once, by frontier products: (n, n)
    for the whole graph, or (R, n, n) with each of the (R, n) ``rows`` masks
    walked within itself, where a vertex outside its row is UNREACHABLE."""
    n = graph.n_atoms
    if n == 0:
        raise DataError("cannot compute distances on an empty graph")
    inside = np.ones((1, n), dtype=bool) if rows is None else np.asarray(rows, dtype=bool)
    adj = np.zeros((n, n))
    for bond in graph.bonds:
        adj[bond.a, bond.b] = adj[bond.b, bond.a] = 1
    adj = adj * (inside[:, :, None] & inside[:, None, :])  # bonds within each row
    # frontier[r, s, v]: v is first reached from s at distance dist.  The
    # products count paths of 0/1 entries, so they are exact in floats.
    frontier = np.eye(n) * inside[:, None, :]
    hops = np.where(frontier > 0, 0, UNREACHABLE).astype(np.int32)
    dist = 0
    while frontier.any():
        dist += 1
        frontier = (frontier @ adj > 0) & (hops == UNREACHABLE)
        hops[frontier] = dist
    return DistanceMatrix(hops[0] if rows is None else hops, int(hops.max(initial=0)))


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Filtered clique 2-skeleton of one row, with the triangles left implicit.

    Vertices enter at 0 and edges at the hop distance of their endpoints, in
    (scale, u, v) order.  A triangle exists where all three vertex pairs are
    in range; it enters at the largest of the three hops and is ordered by
    (scale, a, b, c).  Local ids index ``vertices`` and the hop block.
    """
    vertices: tuple[int, ...]
    edge_eps: np.ndarray    # (E,) in filtration order
    edge_local: np.ndarray  # (E, 2) local vertex ids, u < v
    hops: np.ndarray        # (n, n) hop block of the row
    in_range: np.ndarray    # (n, n) bool: the pair is joined by eps_max
    eps_max: int


def build_vr_row(vertex_set, hops: np.ndarray, eps_max: int) -> FilteredComplex:
    """Filtered clique 2-skeleton on a vertex set; unreachable pairs never join."""
    verts = sorted(vertex_set)
    if not verts:
        raise DataError("vertex set must be non-empty")
    hops = hops[np.ix_(verts, verts)]
    in_range = (hops > 0) & (hops <= eps_max)  # > 0: off the diagonal, reachable
    eu, ev = np.nonzero(np.triu(in_range))     # (u, v) order
    eps = hops[eu, ev]
    order = np.argsort(eps, kind="stable")
    return FilteredComplex(tuple(verts), eps[order],
                           np.stack([eu[order], ev[order]], axis=1), hops, in_range,
                           int(eps_max))


def strong_collapse(hops: np.ndarray, rows: np.ndarray, eps_max: int) -> np.ndarray:
    """Row masks ``rows`` (R, n) less the vertices a strong collapse removes.

    ``hops`` is the hop matrix every row's complex is built from: one (n, n)
    block shared by all rows, or an (R, n, n) stack with a block per row.  A
    vertex x of a row is dominated by a row vertex a when hops[x, a] == 1
    and hops[a, y] <= hops[x, y] for every other row vertex y, UNREACHABLE
    counting as infinity.  Each round removes every dominated x with a
    dominator a that is either not dominated itself or larger than x.  Taken
    in ascending order, each x then goes while its a is still in the row,
    and removing other vertices never undoes a domination; of two mutual
    twins the smaller goes.  The smallest dominated vertex always goes, and
    rounds repeat until no row has a dominated vertex.
    """
    keep = np.array(rows, dtype=bool)
    if eps_max < 1:
        return keep  # no edges: every vertex stays its own component
    hops = hops.reshape((-1,) + hops.shape[-2:])  # (1 or R, n, n)
    far = np.where(hops == UNREACHABLE, np.iinfo(hops.dtype).max, hops)
    x, a = np.nonzero((hops == 1).any(axis=0))   # pair p: x[p] and its candidate a[p]
    near = hops[:, x, a] == 1                    # (1 or R, pairs): a[p] is x[p]'s neighbour
    owner = np.eye(keep.shape[1], dtype=bool)[x]  # owner[p, v]: v is x[p]
    # closer[., y, p]: y is nearer x[p] than a[p]
    closer = ((far[:, a] > far[:, x]) & ~owner).swapaxes(1, 2)
    while True:
        free = keep[:, x] & keep[:, a] & near & ~(keep[:, None] @ closer)[:, 0]
        if not free.any():  # free[r, p]: a[p] dominates x[p] in row r
            return keep
        dominated = free @ owner
        keep &= ~((free & ((a > x) | ~dominated[:, a])) @ owner)


@dataclass(frozen=True)
class PersistenceDiagram:
    dim: int
    pairs: tuple[tuple[int, int], ...]  # finite (birth, death), birth < death
    essentials: tuple[int, ...]         # births of never-dying classes
    eps_max: int


def _validate(cx: FilteredComplex):
    n = len(cx.vertices)
    hops = cx.hops
    if (hops.shape != (n, n) or cx.in_range.shape != (n, n)
            or not np.array_equal(hops, hops.T) or np.any(np.diagonal(hops) != 0)):
        raise InternalInvariantError("hop block is not symmetric with a zero diagonal")
    if not len(cx.edge_eps):
        return
    u, v = cx.edge_local.T
    if u.min() < 0 or v.max() >= n:
        raise InternalInvariantError("an edge has an endpoint outside the vertex set")
    key = (cx.edge_eps.astype(np.int64) * n + u) * n + v
    if not (np.all(u < v) and np.all(np.diff(key) > 0)):
        raise InternalInvariantError("edges are not sorted by (eps, u, v)")


def _triangle_key(n, eps, a, b, c):
    """Rank key of the triangle a < b < c entering at eps: keys order like
    (eps, a, b, c), and key // n**3 is eps."""
    return ((eps * n + a) * n + b) * n + c


def _coboundary(n: int, tri_eps: np.ndarray, eps_max: int, u: int, v: int) -> set:
    """Keys of the cofacets of edge (u, v), u < v; ``tri_eps[w]`` is the scale
    of the triangle {u, v, w}, above eps_max where there is none."""
    col = set()
    for w, eps in enumerate(tri_eps.tolist()):
        if eps <= eps_max:
            if w < u:
                col.add(_triangle_key(n, eps, w, u, v))
            elif w < v:
                col.add(_triangle_key(n, eps, u, w, v))
            else:
                col.add(_triangle_key(n, eps, u, v, w))
    return col


def reduce_complex(cx: FilteredComplex, validate: bool = True
                   ) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    """Persistence pairing over GF(2); returns the (PD_0, PD_1) diagrams.

    Zero-persistence pairs are dropped.  Edges that merge components pair
    vertex births at 0; the remaining edges create cycles, which triangles
    kill in filtration order.
    """
    if validate:
        _validate(cx)
    n = len(cx.vertices)
    eps_max = cx.eps_max
    eps = cx.edge_eps
    n_edges = len(eps)
    u, v = cx.edge_local.T
    rows = np.arange(n_edges)

    # 1. Apparent pairs.  tri_eps[i, w] is the scale of the triangle on edge
    # i and vertex w, eps_max + 1 where there is none.  The cofacets of one
    # edge order like their third vertex within a scale, so argmin (the first
    # minimum) finds the oldest.  The youngest face sets a triangle's scale,
    # so an apparent pair has zero persistence and is never recorded.
    capped = np.where(cx.in_range, cx.hops, eps_max + 1)
    tri_eps = np.maximum(capped[u], capped[v])
    np.maximum(tri_eps, eps[:, None], out=tri_eps)
    w = tri_eps.argmin(axis=1)
    oldest = tri_eps[rows, w]  # scale of each edge's oldest cofacet
    pos = np.zeros((n, n), dtype=np.intp)
    pos[u, v] = pos[v, u] = rows
    apparent = (oldest <= eps_max) & (np.maximum(pos[u, w], pos[v, w]) < rows)

    # 2. Union-find over the other edges: an apparent edge closes a cycle, so
    # skipping it leaves the components unchanged.
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    pd0_pairs = []
    positive = []
    others = np.flatnonzero(~apparent)
    for i, a, b, e in zip(others.tolist(), u[others].tolist(), v[others].tolist(),
                          eps[others].tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            positive.append((i, a, b, e))
        else:
            parent[rb] = ra
            pd0_pairs.append((0, e))

    # 3. Cohomology reduction of the remaining cycle creators, youngest first.
    pd1_pairs = []
    essentials = []
    reduced = {}
    if positive:
        app = np.flatnonzero(apparent)
        lo = np.minimum(u[app], w[app])
        hi = np.maximum(v[app], w[app])
        keys = _triangle_key(n, oldest[app].astype(np.int64), lo,
                             u[app] + v[app] + w[app] - lo - hi, hi)
        pivot_of = dict(zip(keys.tolist(), app.tolist()))
        for i, a, b, e in reversed(positive):
            col = _coboundary(n, tri_eps[i], eps_max, a, b)
            while col:
                low = min(col)
                j = pivot_of.get(low)
                if j is None:
                    break
                other = reduced.get(j)
                if other is None:  # an apparent column, recomputed on demand
                    other = _coboundary(n, tri_eps[j], eps_max, int(u[j]), int(v[j]))
                col ^= other
            if col:
                pivot_of[low] = i
                reduced[i] = col
                if low // n ** 3 > e:
                    pd1_pairs.append((e, low // n ** 3))
            else:
                essentials.append(e)

    n_apparent = int(np.count_nonzero(apparent))
    if len(pd0_pairs) + n_apparent + len(reduced) + len(essentials) != n_edges:
        raise InternalInvariantError(
            "negative, apparent, reduced and essential edges do not add up to the edges")
    pd0 = PersistenceDiagram(0, tuple(sorted(pd0_pairs)), (0,) * (n - len(pd0_pairs)),
                             eps_max)
    pd1 = PersistenceDiagram(1, tuple(sorted(pd1_pairs)), tuple(sorted(essentials)),
                             eps_max)
    return pd0, pd1
