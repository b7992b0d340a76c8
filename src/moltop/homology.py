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
``build_rows`` takes the rows as an (R, n) boolean matrix of vertex masks,
puts each row's hop block into an (R, m, m) array, padded to the largest
row with UNREACHABLE, and orders the edges of all rows by (row, scale,
u, v), so each row keeps its own filtration order.  Like Ripser (Bauer
2021), it builds only the edges below each row's enclosing radius R, the
smallest eccentricity of its vertices (UNREACHABLE counting as infinity),
where R <= eps_max.  From R on the complex is a cone on a vertex of
eccentricity R, connected with H_1 = 0, and a filtration prefix is paired
as the prefix of the pairing: each component and cycle still alive below R
dies at R, and nothing born later has positive persistence.
``reduce_rows`` then follows Ripser in three steps, each over all rows at
once, into one ``Pairing`` of every class's row, dimension, birth and death.

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
single-matrix reduction and an independent rank oracle.  ``reduce_rows``
trusts the structure of its stack; the tests check every stack that
``row_cores`` builds.

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
import functools

import numpy as np

from .errors import DataError, InternalInvariantError
from .molgraph import MolecularGraph

UNREACHABLE = -1


def geodesic_distances(graph: MolecularGraph, rows=None) -> np.ndarray:
    """Int32 hop distances from every source at once, by frontier products:
    (n, n) for the whole graph, or (R, n, n) with each of the (R, n) ``rows``
    masks walked within itself.  Vertices in different components, and a
    vertex outside its row, are UNREACHABLE."""
    n = graph.n_atoms
    if n == 0:
        raise DataError("cannot compute distances on an empty graph")
    ends = np.array([(bond.a, bond.b) for bond in graph.bonds], dtype=np.intp).reshape(-1, 2)
    adj = np.zeros((n, n))
    adj[ends, ends[:, ::-1]] = 1
    # frontier[(r,) s, v]: v is first reached from s at distance dist.  The
    # products count paths of 0/1 entries, so they are exact in floats.
    frontier = np.eye(n)
    if rows is not None:
        inside = np.asarray(rows, dtype=bool)
        adj = adj * (inside[:, :, None] & inside[:, None, :])  # bonds within each row
        frontier = frontier * inside[:, None, :]
    hops = np.where(frontier > 0, 0, UNREACHABLE).astype(np.int32)
    dist = 0
    while frontier.any():
        dist += 1
        frontier = (frontier @ adj > 0) & (hops == UNREACHABLE)
        hops[frontier] = dist
    return hops


@dataclass(frozen=True, eq=False)
class RowStack:
    """Filtered clique 2-skeletons of several rows, built and reduced together.

    Row r's local vertices are its set's vertices in ascending order, and its
    hop block is hops[r, :k, :k] for the k = inside[r].sum() of them, padded
    to the largest row with UNREACHABLE.  Edges enter at the hop distance of
    their endpoints, in (row, scale, u, v) order, and only below their row's
    radius.
    """
    inside: np.ndarray      # (R, m) bool: local id j is a vertex of row r
    hops: np.ndarray        # (R, m, m) hop blocks, m the largest row
    radius: np.ndarray      # (R,) enclosing radii, capped at min(eps_max, largest hop) + 1
    edge_row: np.ndarray    # (E,) in filtration order
    edge_eps: np.ndarray    # (E,)
    edge_local: np.ndarray  # (E, 2) local vertex ids, u < v
    eps_max: int


def build_rows(sets: np.ndarray, hops: np.ndarray, eps_max: int) -> RowStack:
    """Filtered clique 2-skeletons on the (R, n) boolean vertex masks
    ``sets``, in one stack, each cut at its enclosing radius; ``hops`` is one
    (n, n) block for every set or an (R, n, n) stack with a block per set.
    Unreachable pairs never join."""
    sizes = np.count_nonzero(sets, axis=1)
    if not sizes.all():
        raise DataError("vertex set must be non-empty")
    m = int(sizes.max(initial=0))
    inside = np.arange(m) < sizes[:, None]
    # padding repeats a row's first vertex: the row's eccentricities stay
    index = np.repeat(sets.argmax(axis=1)[:, None], m, axis=1)
    index[inside] = np.nonzero(sets)[1]
    block = (hops[index[:, :, None], index[:, None, :]] if hops.ndim == 2  # one for all rows
             else hops[np.arange(len(sizes))[:, None, None], index[:, :, None], index[:, None, :]])
    # Every scale is a hop distance, so no edge enters past top - 1.  Read
    # unsigned, UNREACHABLE is larger than any hop, so a row's smallest
    # eccentricity is its radius, capped at top.
    top = min(eps_max, int(block.max(initial=0))) + 1
    far = block.view(f"u{block.itemsize}")
    radius = np.minimum(far.max(axis=2, initial=0).min(axis=1, initial=top), top)
    block[~inside] = block.swapaxes(1, 2)[~inside] = UNREACHABLE
    # below the radius, so reachable and at most eps_max
    er, eu, ev = np.nonzero((far < radius[:, None, None]) & _block_tables(m)[0])
    eps = block[er, eu, ev]  # (row, u, v) order
    order = np.argsort(er * top + eps, kind="stable")
    return RowStack(inside, block, radius.astype(block.dtype), er[order], eps[order],
                    np.column_stack([eu[order], ev[order]]), int(eps_max))


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
    far = hops.view(f"u{hops.itemsize}")  # UNREACHABLE reads as the largest value
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


@dataclass(frozen=True, eq=False)
class Pairing:
    """The classes of positive persistence of a stack's rows, as flat arrays:
    class i, of row row[i] in dimension dim[i], lives on [birth[i],
    death[i]), and death[i] is eps_max + 1 for an essential class."""
    row: np.ndarray
    dim: np.ndarray
    birth: np.ndarray
    death: np.ndarray
    eps_max: int
    rows: int

    def diagrams(self, eps_max: int | None = None) -> list:
        """Each row's (PD_0, PD_1), cut at ``eps_max`` <= self.eps_max as a
        reduction at eps_max gives them: a filtration prefix is paired as the
        prefix of the pairing, so a class alive at eps_max becomes essential
        and nothing born later stays."""
        cap = self.eps_max if eps_max is None else eps_max
        out = [([], [], [], []) for _ in range(self.rows)]  # pairs, essentials per dim
        for r, dim, birth, death in sorted(zip(self.row.tolist(), self.dim.tolist(),
                                               self.birth.tolist(), self.death.tolist())):
            if birth <= cap:
                out[r][2 * dim + (death > cap)].append(birth if death > cap else (birth, death))
        return [(PersistenceDiagram(0, tuple(p0), tuple(e0), cap),
                 PersistenceDiagram(1, tuple(p1), tuple(e1), cap)) for p0, e0, p1, e1 in out]


def _column(cofacets: np.ndarray, i: int) -> set:
    """The coboundary column of edge i: its row of triangle keys, less the -1s."""
    col = set(cofacets[i].tolist())
    col.discard(-1)
    return col


def reduce_rows(stack: RowStack) -> Pairing:
    """Persistence pairing over GF(2) of every row of ``stack``.

    Zero-persistence pairs are dropped.  Edges that merge components pair
    vertex births at 0; the remaining edges create cycles, which triangles
    kill in filtration order.  All rows go through each step together, and
    no step lets one row's simplices meet another's.
    """
    n_rows, m = stack.hops.shape[:2]
    if not n_rows:
        return Pairing(*np.zeros((4, 0), dtype=np.int64), stack.eps_max, 0)
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
    eps, r = stack.edge_eps, stack.edge_row
    u, v = stack.edge_local.T
    edges = np.arange(len(eps))
    # Where a row's radius is within eps_max, the cone there kills every
    # class still alive but one component; elsewhere they are essential.
    fate = [rad if rad <= eps_max else stack.eps_max + 1 for rad in stack.radius.tolist()]

    # 1. Apparent pairs.  tri_eps[i, w] is the scale of the triangle on edge
    # i and vertex w of its row, eps_max + 1 where there is none below the
    # row's radius.  The cofacets of one edge order like their third vertex
    # within a scale, so argmin (the first minimum) finds the oldest.  The
    # youngest face sets a triangle's scale, so an apparent pair has zero
    # persistence and is never recorded.
    capped = np.where((stack.hops > 0) & (stack.hops < stack.radius[:, None, None]),
                      stack.hops, eps_max + 1)
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

    classes = []  # row, dim, birth, death of each class of positive persistence, flat
    merges = [0] * n_rows
    positive = []
    others = np.flatnonzero(~apparent)
    rows = r[others]
    ends = (stack.edge_local[others] + rows[:, None] * m).T.tolist()
    for i, row, a, b, e in zip(others.tolist(), rows.tolist(), *ends, eps[others].tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            positive.append((i, row, e))
        else:
            parent[rb] = ra
            merges[row] += 1
            classes += (row, 0, 0, e)

    # 3. Cohomology reduction of the remaining cycle creators, youngest first;
    # a column only loops over its own row's vertices.
    reduced = {}
    n_essential = 0
    if positive:
        # cofacets[i, w]: key of the triangle on edge i and row vertex w, -1
        # where there is none.
        _, by_u, by_v = _block_tables(m)
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
                    classes += (row, 1, e, death)
            else:
                n_essential += 1
                classes += (row, 1, e, fate[row])

    if sum(merges) + int(np.count_nonzero(apparent)) + len(reduced) + n_essential != len(eps):
        raise InternalInvariantError("negative, apparent, reduced and essential edges "
                                     "do not add up to the edges")
    # Every vertex is born at 0.  Of the components no edge merges, one per
    # row never dies and the others meet their row's fate.
    for row, size in enumerate(np.count_nonzero(stack.inside, axis=1).tolist()):
        classes += ((row, 0, 0, fate[row]) * (size - 1 - merges[row])
                    + (row, 0, 0, stack.eps_max + 1))
    return Pairing(*np.array(classes, dtype=np.int64).reshape(-1, 4).T, stack.eps_max, n_rows)


@functools.lru_cache(maxsize=64)  # three (m, m) tables per size
def _block_tables(m: int):
    """The mask u < v of an (m, m) block, and by_u, by_v with by_u[u, w] +
    by_v[v, w] == (lo * m + mid) * m + hi, lo < mid < hi the vertices of the
    triangle on edge (u, v) and vertex w: mid is u + v + w - lo - hi."""
    local = np.arange(m, dtype=np.int64)
    return (local[:, None] < local,
            np.minimum(local[:, None], local) * (m * m - m) + local[:, None] * m,
            np.maximum(local[:, None], local) * (1 - m) + (local[:, None] + local) * m)
