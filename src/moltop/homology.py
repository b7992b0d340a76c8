"""Vietoris-Rips persistence over graph geodesic distances.

Hop distances come from one walk per molecule, from every source at once:
each frontier is the last one times the bond adjacency matrix, less the
vertices already reached; row masks walk each row within itself.  For a
vertex subset, edges enter the complex at the hop distance between their
endpoints and triangles at the largest of their three edge scales (clique
rule, capped at dimension 2).  The filtration order is (scale, dimension,
sorted vertex tuple).  Triangles are never listed on their own: an edge's
cofacets are its in-range third vertices, read from the row's hop block.

A molecule's rows are built and reduced together, in one stack.
``build_rows`` puts each row's hop block into an (R, m, m) array, padded to
the largest row with UNREACHABLE, and orders the edges of all rows by (row,
scale, u, v), so each row keeps its own filtration order.  ``reduce_rows``
then follows Ripser (Bauer 2021) in four steps, each over all rows at once:

0. Like Ripser, it first cuts each row at its enclosing radius R, the
   smallest eccentricity of its vertices (UNREACHABLE counting as
   infinity), where R <= eps_max.  From scale R on the row's complex is a
   cone on a vertex of eccentricity R: connected, with H_1 = 0.  A
   filtration prefix is paired as the prefix of the pairing, so only edges
   and triangles below R are reduced; each component and cycle still alive
   below R dies at R, and nothing born later has positive persistence.
1. Apparent pairs, in one vectorized pass over an (edges, m) array of
   triangle scales: an edge whose oldest cofacet has that edge as its
   youngest face is paired with it without any reduction.  Every such pair
   enters at a single scale, so it has zero persistence.
2. A union-find sweep over the other edges in filtration order yields the
   dimension-0 pairs; vertex r * m + v stands for vertex v of row r, so rows
   never join.  The edges that merge components die in dimension 0;
   clearing (Chen & Kerber 2011) drops their coboundary columns, which
   would reduce to zero.
3. The few remaining cycle-creating edges are reduced as coboundary columns
   over GF(2) in reverse filtration order (persistent cohomology, de Silva,
   Morozov & Vejdemo-Johansson 2011).  A triangle's key starts at its row's
   offset, so columns of different rows never meet, and a column only looks
   at its own row's vertices.  Every edge's cofacet keys come from step 1's
   triangle scales, once per stack, in one (edges, m) array, and a column is
   one row of it; the pivot table starts with the apparent pivots, apparent
   columns are read again when a reduction needs them, and only reduced
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
collapses all distinct rows of a molecule, in either distance mode, and the
distinct vertex sets it keeps make up the molecule's one stack.  A round's
domination tests are two matrix products over 0/1 entries.  They run in
float32, which numpy hands to BLAS (its boolean products have none); each
entry counts at most n vertices, exact in float32, so > 0 reads them exactly.
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
class RowStack:
    """Filtered clique 2-skeletons of several rows, built and reduced together.

    Row r's hop block is hops[r, :k, :k] for its k = len(vertices[r]) local
    vertices, padded to the largest row with UNREACHABLE.  Edges enter at the
    hop distance of their endpoints, in (row, scale, u, v) order.
    """
    vertices: tuple[tuple[int, ...], ...]
    hops: np.ndarray        # (R, m, m) hop blocks, m the largest row
    edge_row: np.ndarray    # (E,) in filtration order
    edge_eps: np.ndarray    # (E,)
    edge_local: np.ndarray  # (E, 2) local vertex ids, u < v
    eps_max: int


def _inside(vertices) -> np.ndarray:
    """(R, m) bool: local id j is a vertex of row r."""
    sizes = np.array([len(row) for row in vertices], dtype=np.intp)
    return np.arange(sizes.max(initial=0)) < sizes[:, None]


def build_rows(vertex_sets, hops: np.ndarray, eps_max: int) -> RowStack:
    """Filtered clique 2-skeletons on the vertex sets, in one stack; ``hops``
    is one (n, n) block for every set or an (R, n, n) stack with a block per
    set.  Unreachable pairs never join."""
    verts = [sorted(s) for s in vertex_sets]
    if not all(verts):
        raise DataError("vertex set must be non-empty")
    inside = _inside(verts)
    index = np.zeros(inside.shape, dtype=np.intp)
    index[inside] = [v for row in verts for v in row]
    hops = np.broadcast_to(hops, (len(verts),) + np.shape(hops)[-2:])
    block = hops[np.arange(len(verts))[:, None, None], index[:, :, None], index[:, None, :]]
    block = np.where(inside[:, :, None] & inside[:, None, :], block, UNREACHABLE)
    in_range = (block > 0) & (block <= eps_max)  # > 0: off the diagonal, reachable
    er, eu, ev = np.nonzero(np.triu(in_range))   # (row, u, v) order
    eps = block[er, eu, ev]
    order = np.argsort(er * (eps_max + 1) + eps, kind="stable")
    return RowStack(tuple(map(tuple, verts)), block, er[order], eps[order],
                    np.stack([eu[order], ev[order]], axis=1), int(eps_max))


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
    owner = np.eye(keep.shape[1], dtype=np.float32)[x]  # owner[p, v]: v is x[p]
    # closer[., y, p]: y is nearer x[p] than a[p].  With owner and closer in
    # float32 the products below run in BLAS; an entry counts at most n
    # vertices, so > 0 is exact.
    closer = np.ascontiguousarray(((far[:, a] > far[:, x]) & (owner == 0)).swapaxes(1, 2),
                                  dtype=np.float32)
    while True:
        blocked = keep @ closer[0] if len(closer) == 1 else (keep[:, None] @ closer)[:, 0]
        free = keep[:, x] & keep[:, a] & near & (blocked == 0)
        if not free.any():  # free[r, p]: a[p] dominates x[p] in row r
            return keep
        dominated = free @ owner > 0
        keep &= ~((free & ((a > x) | ~dominated[:, a])) @ owner > 0)


@dataclass(frozen=True)
class PersistenceDiagram:
    dim: int
    pairs: tuple[tuple[int, int], ...]  # finite (birth, death), birth < death
    essentials: tuple[int, ...]         # births of never-dying classes
    eps_max: int


def truncate(pd: PersistenceDiagram, eps_max: int) -> PersistenceDiagram:
    """``pd`` cut at ``eps_max`` <= pd.eps_max, as a reduction at eps_max gives
    it: a filtration prefix is paired as the prefix of the pairing, so a pair
    alive at eps_max becomes an essential class and nothing born later stays."""
    if eps_max == pd.eps_max:
        return pd
    essentials = ([b for b, d in pd.pairs if b <= eps_max < d]
                  + [b for b in pd.essentials if b <= eps_max])
    return PersistenceDiagram(pd.dim, tuple(p for p in pd.pairs if p[1] <= eps_max),
                              tuple(sorted(essentials)), eps_max)


def _validate(stack: RowStack):
    hops = stack.hops
    inside = _inside(stack.vertices)
    if (hops.shape != inside.shape + inside.shape[-1:]
            or not np.array_equal(hops, hops.swapaxes(1, 2))
            or np.any(np.diagonal(hops, axis1=1, axis2=2)[inside] != 0)
            or np.any(hops[~(inside[:, :, None] & inside[:, None, :])] != UNREACHABLE)):
        raise InternalInvariantError(
            "hop blocks are not symmetric with a zero diagonal and UNREACHABLE padding")
    if not len(stack.edge_eps):
        return
    r = stack.edge_row
    u, v = stack.edge_local.T
    n_rows, m = inside.shape
    if r.min() < 0 or r.max() >= n_rows or u.min() < 0 or v.max() >= m or not inside[r, v].all():
        raise InternalInvariantError("an edge has an endpoint outside its row")
    key = ((r.astype(np.int64) * (stack.eps_max + 1) + stack.edge_eps) * m + u) * m + v
    if not (np.all(u < v) and np.all(np.diff(key) > 0)):
        raise InternalInvariantError("edges are not sorted by (row, eps, u, v)")


def _column(cofacets: np.ndarray, i: int) -> set:
    """The coboundary column of edge i: its row of triangle keys, less the -1s."""
    col = set(cofacets[i].tolist())
    col.discard(-1)
    return col


def reduce_rows(stack: RowStack, validate: bool = True
                ) -> list[tuple[PersistenceDiagram, PersistenceDiagram]]:
    """Persistence pairing over GF(2); returns each row's (PD_0, PD_1).

    Zero-persistence pairs are dropped.  Edges that merge components pair
    vertex births at 0; the remaining edges create cycles, which triangles
    kill in filtration order.  All rows go through each step together, and
    no step lets one row's simplices meet another's.
    """
    if validate:
        _validate(stack)
    if not stack.vertices:
        return []
    n_rows, m = stack.hops.shape[:2]
    # Triangle (a, b, c) of row r entering at eps has the key
    # r * offset + ((eps * m + a) * m + b) * m + c: keys order like
    # (row, eps, a, b, c), and (key - r * offset) // m**3 is eps.
    cube = m ** 3
    if n_rows * (stack.eps_max + 1) * cube > np.iinfo(np.int64).max:  # keep int64 keys exact
        raise DataError(f"{n_rows} rows of up to {m} vertices at k_grid {stack.eps_max} "
                        "are too large to reduce")
    # Every scale is a hop distance, so capping at the largest hop reduces the
    # same complex, and keeps eps_max + 1 within the hop blocks' dtype.
    eps_max = min(stack.eps_max, int(stack.hops.max()))
    offset = (eps_max + 1) * cube

    # 0. The enclosing radius: each row's smallest eccentricity, eps_max + 1
    # where it is above eps_max or infinite.  From it on the row's complex is
    # a cone, so only the edges and triangles below it are reduced.
    far = np.where(stack.hops == UNREACHABLE, eps_max + 1, stack.hops)
    radius = np.minimum(np.where(_inside(stack.vertices)[:, None], far, 0).max(axis=2).min(axis=1),
                        eps_max + 1)
    below = stack.edge_eps < radius[stack.edge_row]
    eps = stack.edge_eps[below]
    r = stack.edge_row[below]
    u, v = stack.edge_local[below].T
    edges = np.arange(len(eps))

    # 1. Apparent pairs.  tri_eps[i, w] is the scale of the triangle on edge
    # i and vertex w of its row, eps_max + 1 where there is none.  The
    # cofacets of one edge order like their third vertex within a scale, so
    # argmin (the first minimum) finds the oldest.  The youngest face sets a
    # triangle's scale, so an apparent pair has zero persistence and is never
    # recorded.
    capped = np.where((stack.hops > 0) & (stack.hops < radius[:, None, None]), stack.hops,
                      eps_max + 1)
    tri_eps = np.maximum(capped[r, u], capped[r, v])
    np.maximum(tri_eps, eps[:, None], out=tri_eps)
    w = tri_eps.argmin(axis=1)
    oldest = tri_eps[edges, w]  # scale of each edge's oldest cofacet
    pos = np.zeros((n_rows, m, m), dtype=np.intp)
    pos[r, u, v] = pos[r, v, u] = edges
    apparent = (oldest <= eps_max) & (np.maximum(pos[r, u, w], pos[r, v, w]) < edges)

    # 2. Union-find over the other edges, on vertex ids r * m + local: an
    # apparent edge closes a cycle, so skipping it leaves the components
    # unchanged.
    parent = list(range(n_rows * m))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    pd0_pairs = [[] for _ in range(n_rows)]
    positive = []
    others = np.flatnonzero(~apparent)
    row_start = r * m
    for i, row, a, b, e in zip(others.tolist(), r[others].tolist(),
                               (row_start + u)[others].tolist(),
                               (row_start + v)[others].tolist(), eps[others].tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            positive.append((i, row, e))
        else:
            parent[rb] = ra
            pd0_pairs[row].append((0, e))

    # 3. Cohomology reduction of the remaining cycle creators, youngest first;
    # a column only loops over its own row's vertices.
    pd1_pairs = [[] for _ in range(n_rows)]
    essentials = [[] for _ in range(n_rows)]
    reduced = {}
    if positive:
        # cofacets[i, w]: key of the triangle on edge i and row vertex w, -1
        # where there is none.  With lo < mid < hi its sorted vertices and
        # mid = u + v + w - lo - hi, lo * m**2 + mid * m + hi splits into
        # by_u[u, w] + by_v[v, w].
        local = np.arange(m, dtype=np.int64)
        by_u = np.minimum(local[:, None], local) * (m * m - m) + local[:, None] * m
        by_v = np.maximum(local[:, None], local) * (1 - m) + (local[:, None] + local) * m
        cofacets = np.where(tri_eps <= eps_max,
                            (tri_eps + r[:, None].astype(np.int64) * (eps_max + 1)) * cube
                            + by_u[u] + by_v[v],
                            -1)
        app = np.flatnonzero(apparent)
        pivot_of = dict(zip(cofacets[app, w[app]].tolist(), app.tolist()))
        for i, row, e in reversed(positive):
            col = _column(cofacets, i)
            while col:
                low = min(col)
                j = pivot_of.get(low)
                if j is None:
                    break
                other = reduced.get(j)
                col ^= _column(cofacets, j) if other is None else other  # None: apparent
            if col:
                pivot_of[low] = i
                reduced[i] = col
                death = (low - row * offset) // cube
                if death > e:
                    pd1_pairs[row].append((e, death))
            else:
                essentials[row].append(e)

    n_pd0 = sum(map(len, pd0_pairs))
    n_essential = sum(map(len, essentials))
    if (n_pd0 + int(np.count_nonzero(apparent)) + len(reduced) + n_essential
            + int(np.count_nonzero(~below)) != len(stack.edge_eps)):
        raise InternalInvariantError("negative, apparent, reduced, essential and cut edges "
                                     "do not add up to the edges")
    for row, pairs0, pairs1, ess, rad in zip(stack.vertices, pd0_pairs, pd1_pairs,
                                             essentials, radius.tolist()):
        if rad <= eps_max:  # the cone at rad kills every class still alive
            pairs0 += [(0, rad)] * (len(row) - 1 - len(pairs0))
            pairs1 += [(birth, rad) for birth in ess]
            ess.clear()
    return [(PersistenceDiagram(0, tuple(sorted(pairs0)), (0,) * (len(row) - len(pairs0)),
                                stack.eps_max),
             PersistenceDiagram(1, tuple(sorted(pairs1)), tuple(sorted(ess)), stack.eps_max))
            for row, pairs0, pairs1, ess in zip(stack.vertices, pd0_pairs, pd1_pairs,
                                                essentials)]
