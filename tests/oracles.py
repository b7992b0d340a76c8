"""Independent brute-force oracles the engine is checked against.

Everything here favors directness over speed: dense GF(2) Gaussian
elimination for Betti numbers, the textbook single-matrix column reduction
for persistence pairs, a check of the structure a row stack must have
before it is reduced, enclosing radii by one scan of each vertex's
distances, diagrams cut one pair at a time, exhaustive matching enumeration
for Wasserstein distances, naive threshold loops for the classification
metrics, one scan of every atom per level (or one sort and a bisection per
level) for sublevel rows, fingerprints from one row's Betti curve at a
time, Betti curves of many diagrams from one bincount over their tuples,
a plain 256-slot histogram tree grower for the boosting trainer, binning
with one search and one ``np.unique`` per column, prediction that walks one
tree at a time, the fingerprint CSV read row by row with ``csv.reader`` and
``int``, edge-removal reachability for ring bonds,
a cycle walk for permutation parity, a walk over the positions of a
random split, the synthetic molecule generator drawing each element
with ``Generator.choice`` and copying atoms with ``replace``, and the JSON
molecule loader that builds one ``Atom`` per atom entry and validates the
valences in a second pass over the sorted bonds.  None of it shares code
with the production paths, except the classical boosting reference, which
reuses the trainer's losses and base prediction so that the trees it is
compared with can be equal, that molecule generator, which reuses datagen's
tables and ring-closure walk for the same reason, and that loader, which
reuses the JSON format's key sets and the valence model so that its
messages can be equal, and that CSV reader, which reuses the layout, the
entry rule and the repeated-id check for the same reason.
"""

import csv
import io
import math
from bisect import bisect_right
from dataclasses import replace
from itertools import chain, combinations, permutations

import numpy as np

from moltop.datagen import (
    ELECTRONEGATIVITY,
    _ELEMENT_POOL,
    _ELEMENT_WEIGHTS,
    _ORDER_FACTOR,
    _hop_distance,
)
from moltop.elements import ATOMIC_MASS, SUPPORTED_ELEMENTS, VALENCES, allowed_valences
from moltop.errors import DataError, InternalInvariantError, SchemaError, note_line, read_text
from moltop.homology import PersistenceDiagram
from moltop.molgraph import (
    _AROMATIC_MAX_DEGREE,
    _ATOM_KEYS,
    _BOND_KEYS,
    _FLOAT_MAX,
    _ORDER_X2,
    BOND_ORDERS,
    CHI_CCW,
    CHI_CW,
    CHI_NONE,
    CHIRALITY_TAGS,
    Atom,
    Bond,
    MolecularGraph,
    add_hydrogens,
)
from moltop.sglb import (
    _MIN_GAIN,
    TASK_REGRESSION,
    SglbModel,
    Tree,
    _base_prediction,
    _classification_negative_gradients,
    _regression_negative_gradients,
    _validate_training_data,
)
from moltop.vectorize import (
    _CSV_MAGIC,
    KIND_ABBREV,
    LAYOUT_VERSION,
    Fingerprint,
    FingerprintLayout,
    _plain_digits,
)

UNREACHABLE = -1


# ---------------------------------------------------------------------------
# graph6 decoding (frozen enumeration of connected graphs on <= 7 vertices)

def decode_graph6(line: str):
    """Adjacency matrix (numpy int) from one graph6 line (n <= 62)."""
    data = [ord(c) - 63 for c in line.strip()]
    n = data[0]
    bits = []
    for value in data[1:]:
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    adj = np.zeros((n, n), dtype=int)
    k = 0
    for j in range(1, n):
        for i in range(j):
            adj[i, j] = adj[j, i] = bits[k]
            k += 1
    return adj


def load_graph6_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [decode_graph6(line) for line in fh if line.strip()]


def hop_distances(adj: np.ndarray) -> np.ndarray:
    """BFS hop counts from a 0/1 adjacency matrix."""
    n = len(adj)
    hops = np.full((n, n), UNREACHABLE, dtype=int)
    for s in range(n):
        hops[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in range(n):
                    if adj[v, w] and hops[s, w] == UNREACHABLE:
                        hops[s, w] = d
                        nxt.append(w)
            frontier = nxt
    return hops


def graph_diameter(graph) -> int:
    """The largest finite hop count between two atoms of ``graph``."""
    adj = np.zeros((graph.n_atoms, graph.n_atoms), dtype=int)
    for bond in graph.bonds:
        adj[bond.a, bond.b] = adj[bond.b, bond.a] = 1
    return int(hop_distances(adj).max())


# ---------------------------------------------------------------------------
# Clique 2-skeleton and GF(2) ranks

def complex_at(vertices, hops, eps):
    """(vertices, edges, triangles) of the clique 2-skeleton at scale eps."""
    verts = sorted(vertices)
    edges = [(u, v) for u, v in combinations(verts, 2)
             if hops[u, v] != UNREACHABLE and hops[u, v] <= eps]
    edge_set = set(edges)
    triangles = [(a, b, c) for a, b, c in combinations(verts, 3)
                 if (a, b) in edge_set and (a, c) in edge_set and (b, c) in edge_set]
    return verts, edges, triangles


def enclosing_radius(vertices, hops):
    """min over ``vertices`` of their largest hop distance to one another,
    UNREACHABLE counting as infinity."""
    def eccentricity(u):
        far = [math.inf if hops[u, v] == UNREACHABLE else int(hops[u, v]) for v in vertices]
        return max(far)
    return min(eccentricity(u) for u in vertices)


def gf2_rank(matrix: np.ndarray) -> int:
    m = matrix.copy() % 2
    rank = 0
    rows, cols = m.shape
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        for r in range(rows):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def betti_numbers_at(vertices, hops, eps):
    """(beta_0, beta_1, beta_2) of the capped clique complex by rank computation."""
    verts, edges, triangles = complex_at(vertices, hops, eps)
    v_index = {v: i for i, v in enumerate(verts)}
    e_index = {e: i for i, e in enumerate(edges)}
    d1 = np.zeros((len(verts), len(edges)), dtype=int)
    for j, (u, v) in enumerate(edges):
        d1[v_index[u], j] = 1
        d1[v_index[v], j] = 1
    d2 = np.zeros((len(edges), len(triangles)), dtype=int)
    for j, (a, b, c) in enumerate(triangles):
        for face in ((a, b), (a, c), (b, c)):
            d2[e_index[face], j] = 1
    r1 = gf2_rank(d1) if edges else 0
    r2 = gf2_rank(d2) if triangles else 0
    beta0 = len(verts) - r1
    beta1 = len(edges) - r1 - r2
    beta2 = len(triangles) - r2  # no 3-simplices in the capped complex
    return beta0, beta1, beta2


def betti_at(pd, t: int) -> int:
    """Classes of a diagram alive at scale t, counted one pair at a time."""
    if not 0 <= t <= pd.eps_max:
        raise ValueError(f"scale {t} outside the grid [0, {pd.eps_max}]")
    alive = sum(1 for b, d in pd.pairs if b <= t < d)
    alive += sum(1 for b in pd.essentials if b <= t)
    return alive


def betti_curve(pd, k_grid: int) -> np.ndarray:
    """Betti numbers of one diagram at scales 0..k_grid, one pair at a time."""
    diff = np.zeros(k_grid + 2, dtype=np.int64)
    for b, d in pd.pairs:
        diff[b] += 1
        diff[min(d, k_grid + 1)] -= 1
    for b in pd.essentials:
        diff[b] += 1
    return np.cumsum(diff[:-1])


def betti_curves(diagrams, k_grid: int) -> np.ndarray:
    """(len(diagrams), k_grid + 1) Betti numbers at scales 0..k_grid, from
    one bincount of births minus one of deaths, all diagrams side by side."""
    width = k_grid + 2  # the last slot takes deaths past the grid
    size = len(diagrams) * width
    base = np.arange(0, size, width)
    flat = chain.from_iterable
    pairs = np.fromiter(flat(flat(pd.pairs for pd in diagrams)), dtype=np.intp).reshape(-1, 2)
    at = np.repeat(base, [len(pd.pairs) for pd in diagrams])
    births = np.concatenate([
        at + pairs[:, 0],
        np.repeat(base, [len(pd.essentials) for pd in diagrams])
        + np.fromiter(flat(pd.essentials for pd in diagrams), dtype=np.intp)])
    diff = (np.bincount(births, minlength=size)
            - np.bincount(at + np.minimum(pairs[:, 1], k_grid + 1), minlength=size))
    return np.cumsum(diff.reshape(-1, width)[:, :-1], axis=1)


def truncate(pd, eps_max: int):
    """``pd`` cut at ``eps_max`` <= pd.eps_max, one pair at a time: a pair
    alive at eps_max becomes an essential class and nothing born later
    stays."""
    if eps_max == pd.eps_max:
        return pd
    essentials = ([b for b, d in pd.pairs if b <= eps_max < d]
                  + [b for b in pd.essentials if b <= eps_max])
    return PersistenceDiagram(pd.dim, tuple(p for p in pd.pairs if p[1] <= eps_max),
                              tuple(sorted(essentials)), eps_max)


def fingerprint_from_rows(rows, specs, k_grid: int, record_id: str) -> Fingerprint:
    """The fingerprint of ``row_diagrams`` rows, one row's curve at a time:
    per kind, the PD_0 curve of each of its rows, then their PD_1 curves; a
    diagram reduced past k_grid gives its first k_grid + 1 scales."""
    layout = FingerprintLayout(LAYOUT_VERSION, tuple(s.kind for s in specs), k_grid)
    curves = [betti_curve(pds[dim], max(k_grid, pds[dim].eps_max))[:k_grid + 1]
              for spec in specs for dim in (0, 1)
              for kind, _, *pds in rows if kind == spec.kind]
    return Fingerprint(record_id, layout, np.concatenate(curves))


# ---------------------------------------------------------------------------
# Textbook persistence: one boundary matrix, left-to-right column reduction

def naive_persistence(vertices, hops, eps_max):
    """Persistence pairs and essentials by single-matrix reduction.

    Returns {dim: (sorted finite pairs, sorted essential births)} for
    dimensions 0 and 1, with zero-persistence pairs dropped.
    """
    verts, edges, triangles = complex_at(vertices, hops, eps_max)
    simplices = [(0, 0, (v,)) for v in verts]
    simplices += [(int(hops[u, v]), 1, (u, v)) for u, v in edges]
    simplices += [(max(int(hops[a, b]), int(hops[a, c]), int(hops[b, c])), 2, (a, b, c))
                  for a, b, c in triangles]
    simplices.sort()
    index = {s[2]: i for i, s in enumerate(simplices)}

    columns = []
    for eps, dim, simplex in simplices:
        if dim == 0:
            columns.append(0)
        else:
            col = 0
            for face in combinations(simplex, dim):
                col |= 1 << index[face]
            columns.append(col)

    low_to_col = {}
    pair_of = {}
    for j in range(len(columns)):
        col = columns[j]
        while col:
            low = col.bit_length() - 1
            if low not in low_to_col:
                break
            col ^= columns[low_to_col[low]]
        columns[j] = col
        if col:
            low = col.bit_length() - 1
            low_to_col[low] = j
            pair_of[low] = j

    result = {0: ([], []), 1: ([], [])}
    paired_as_death = set(pair_of.values())
    for i, (eps, dim, _) in enumerate(simplices):
        if dim not in result:
            continue
        if columns[i] == 0:
            death_col = pair_of.get(i)
            if death_col is None:
                if i not in paired_as_death:
                    result[dim][1].append(eps)
            else:
                death_eps = simplices[death_col][0]
                if eps < death_eps:
                    result[dim][0].append((eps, death_eps))
    return {dim: (sorted(pairs), sorted(ess)) for dim, (pairs, ess) in result.items()}


# ---------------------------------------------------------------------------
# Triangle-list persistence: every triangle built, boundary columns reduced

def check_stack(stack):
    """Raise InternalInvariantError unless ``stack``'s hop blocks are symmetric
    with a zero diagonal and UNREACHABLE padding, each row's radius is its
    enclosing radius where that is at most eps_max (else one past the cap
    min(eps_max, largest hop)), and its edges lie within their rows in (row,
    eps, u, v) order, each below its row's enclosing radius."""
    hops = stack.hops
    inside = stack.inside
    if (hops.shape != inside.shape + inside.shape[-1:]
            or not np.array_equal(hops, hops.swapaxes(1, 2))
            or np.any(np.diagonal(hops, axis1=1, axis2=2)[inside] != 0)
            or np.any(hops[~(inside[:, :, None] & inside[:, None, :])] != UNREACHABLE)):
        raise InternalInvariantError(
            "hop blocks are not symmetric with a zero diagonal and UNREACHABLE padding")
    radii = [enclosing_radius(np.flatnonzero(row).tolist(), block)
             for row, block in zip(inside, hops)]
    past = min(stack.eps_max, int(hops.max(initial=0))) + 1
    if stack.radius.tolist() != [r if r <= stack.eps_max else past for r in radii]:
        raise InternalInvariantError("a row's radius is not its enclosing radius")
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
    if any(e >= radii[row] for row, e in zip(r.tolist(), stack.edge_eps.tolist())):
        raise InternalInvariantError("an edge is at or past its row's enclosing radius")


def triangle_complex(vertices, hops, eps_max):
    """Edge and triangle arrays of the capped clique 2-skeleton.

    Returns (edge_eps, edge_pairs, tri_eps, tri_verts, tri_edge_pos): edges
    sorted by (eps, u, v), triangles by (eps, a, b, c), and each triangle's
    three faces as positions in the edge order.  Built from all C(n, 3)
    vertex triples.
    """
    verts = sorted(vertices)
    n = len(verts)
    vert_array = np.asarray(verts, dtype=np.int64)
    sub = np.asarray(hops)[np.ix_(verts, verts)].astype(np.int64)

    if n >= 2:
        iu, ju = np.triu_indices(n, 1)
        d = sub[iu, ju]
        keep = (d != UNREACHABLE) & (d <= eps_max)
        eu, ev, ee = iu[keep], ju[keep], d[keep]
        order = np.lexsort((ev, eu, ee))
        eu, ev, ee = eu[order], ev[order], ee[order]
    else:
        eu = ev = ee = np.empty(0, dtype=np.int64)
    pos = np.full((n, n), -1, dtype=np.int64)
    pos[eu, ev] = np.arange(len(ee))
    edge_pairs = np.stack([vert_array[eu], vert_array[ev]], axis=1) if len(ee) \
        else np.empty((0, 2), dtype=np.int64)

    if n >= 3:
        trio = np.fromiter(combinations(range(n), 3),
                           dtype=np.dtype((np.intp, 3)), count=math.comb(n, 3))
        d01 = sub[trio[:, 0], trio[:, 1]]
        d02 = sub[trio[:, 0], trio[:, 2]]
        d12 = sub[trio[:, 1], trio[:, 2]]
        teps = np.maximum(np.maximum(d01, d02), d12)
        ok = ((d01 != UNREACHABLE) & (d02 != UNREACHABLE) & (d12 != UNREACHABLE)
              & (teps <= eps_max))
        trio, teps = trio[ok], teps[ok]
        torder = np.lexsort((trio[:, 2], trio[:, 1], trio[:, 0], teps))
        trio, teps = trio[torder], teps[torder]
        tri_edge_pos = np.stack([pos[trio[:, 0], trio[:, 1]],
                                 pos[trio[:, 0], trio[:, 2]],
                                 pos[trio[:, 1], trio[:, 2]]], axis=1)
        tri_verts = vert_array[trio]
    else:
        teps = np.empty(0, dtype=np.int64)
        tri_verts = np.empty((0, 3), dtype=np.int64)
        tri_edge_pos = np.empty((0, 3), dtype=np.int64)
    return ee, edge_pairs, teps, tri_verts, tri_edge_pos


def triangle_persistence(vertices, hops, eps_max):
    """Pairs by union-find over the edges and left-to-right GF(2) reduction
    of the triangle boundary columns, kept as bitmasks over the edge order.

    Returns {dim: (sorted finite pairs, sorted essential births)} for
    dimensions 0 and 1, with zero-persistence pairs dropped.
    """
    edge_eps, edge_pairs, tri_eps, _, tri_edge_pos = triangle_complex(
        vertices, hops, eps_max)
    verts = sorted(vertices)
    local = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pd0_pairs = []
    births = [-1] * len(edge_eps)  # birth scale of still-unpaired cycle creators
    for pos, (u, v) in enumerate(edge_pairs.tolist()):
        ru, rv = find(local[u]), find(local[v])
        if ru != rv:
            parent[rv] = ru
            pd0_pairs.append((0, int(edge_eps[pos])))
        else:
            births[pos] = int(edge_eps[pos])

    pd1_pairs = []
    lows = {}
    for t, (p0, p1, p2) in enumerate(tri_edge_pos.tolist()):
        col = (1 << p0) | (1 << p1) | (1 << p2)
        while col:
            low = col.bit_length() - 1
            if low not in lows:
                break
            col ^= lows[low]
        if col:
            low = col.bit_length() - 1
            lows[low] = col
            birth, births[low] = births[low], -1
            assert birth >= 0, "a triangle paired a component-merging edge"
            if birth < tri_eps[t]:
                pd1_pairs.append((birth, int(tri_eps[t])))
    components = len(verts) - len(pd0_pairs)
    return {0: (sorted(pd0_pairs), [0] * components),
            1: (sorted(pd1_pairs), sorted(b for b in births if b >= 0))}


# ---------------------------------------------------------------------------
# Exhaustive Wasserstein matching

def exhaustive_wasserstein(pairs_a, pairs_b, p=1.0):
    """Minimum matching cost enumerated over every partial injection."""

    def diag_cost(point):
        return ((point[1] - point[0]) / 2.0) ** p

    def ground(x, y):
        return max(abs(x[0] - y[0]), abs(x[1] - y[1])) ** p

    a, b = list(pairs_a), list(pairs_b)
    best = math.inf
    for size in range(min(len(a), len(b)) + 1):
        for chosen_a in combinations(range(len(a)), size):
            rest_a = [i for i in range(len(a)) if i not in chosen_a]
            for chosen_b in permutations(range(len(b)), size):
                cost = sum(ground(a[i], b[j]) for i, j in zip(chosen_a, chosen_b))
                cost += sum(diag_cost(a[i]) for i in rest_a)
                cost += sum(diag_cost(b[j]) for j in range(len(b))
                            if j not in set(chosen_b))
                best = min(best, cost)
    return best ** (1.0 / p)


# ---------------------------------------------------------------------------
# Metric oracles: literal threshold loops

def naive_roc_auc(scores, labels):
    scores = list(map(float, scores))
    labels = list(map(float, labels))
    thresholds = sorted(set(scores), reverse=True)
    pos = sum(labels)
    neg = len(labels) - pos
    points = [(0.0, 0.0)]
    for q in thresholds:
        tp = sum(1 for s, c in zip(scores, labels) if s >= q and c == 1)
        fp = sum(1 for s, c in zip(scores, labels) if s >= q and c == 0)
        points.append((fp / neg, tp / pos))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y1 + y0) / 2.0
    return area


def naive_prc_auc(scores, labels):
    scores = list(map(float, scores))
    labels = list(map(float, labels))
    pos = sum(labels)
    thresholds = sorted(set(scores) | {0.0}, reverse=True)
    area = 0.0
    prev_recall = 0.0
    for q in thresholds:
        tp = sum(1 for s, c in zip(scores, labels) if s > q and c == 1)
        fp = sum(1 for s, c in zip(scores, labels) if s > q and c == 0)
        if tp + fp == 0:
            continue
        recall = tp / pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def naive_f1(scores, labels, threshold=0.5):
    tp = sum(1 for s, c in zip(scores, labels) if s > threshold and c == 1)
    fp = sum(1 for s, c in zip(scores, labels) if s > threshold and c == 0)
    fn = sum(1 for s, c in zip(scores, labels) if s <= threshold and c == 1)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def random_split_tags(n, ratios, seed) -> list[str]:
    """The split tag of each of n records: the seeded permutation's first
    n * ratios[0] positions (rounded down) name TRAIN records, the next
    n * ratios[1] VALID ones, and the rest TEST ones."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(n * ratios[0])
    n_valid = int(n * ratios[1])
    tags = [""] * n
    for pos, rec_idx in enumerate(order):
        if pos < n_train:
            tags[rec_idx] = "TRAIN"
        elif pos < n_train + n_valid:
            tags[rec_idx] = "VALID"
        else:
            tags[rec_idx] = "TEST"
    return tags


# ---------------------------------------------------------------------------
# Plain 256-slot histogram tree growing: every varying column, duplicates
# included, gets a full 256-slot histogram row.

def quantile_bin_edges_loop(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Per-feature ascending split-candidate values, one np.quantile per column."""
    probs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    edges = []
    for f in range(X.shape[1]):
        col = X[:, f]
        if col[0] == col.min() == col.max():
            edges.append(np.empty(0))
            continue
        edges.append(np.unique(np.quantile(col, probs)))
    return edges


class ReferenceBinned:
    """Quantile-binned view of the training features."""

    def __init__(self, X: np.ndarray, max_bins: int):
        self.edges = quantile_bin_edges_loop(X, max_bins)
        self.active = np.array([f for f, e in enumerate(self.edges) if e.size],
                               dtype=np.intp)
        n = X.shape[0]
        self.codes = np.zeros((n, len(self.active)), dtype=np.uint8)
        for j, f in enumerate(self.active):
            # code <= c exactly when x <= edges[c]
            self.codes[:, j] = np.searchsorted(self.edges[f], X[:, f], side="left")
        self.offsets = (np.arange(len(self.active)) * 256).astype(np.intp)


class LoopBinned:
    """``sglb._Binned`` by per-column loops: one search per varying column, the
    kept columns from ``np.unique(axis=1)`` and each one's codes from its own
    ``np.unique(return_inverse=True)``."""

    def __init__(self, X: np.ndarray, max_bins: int):
        self.edges = quantile_bin_edges_loop(X, max_bins)
        varying = [f for f, e in enumerate(self.edges) if e.size]
        codes = np.zeros((X.shape[0], len(varying)), dtype=np.uint8)
        for j, f in enumerate(varying):
            codes[:, j] = np.searchsorted(self.edges[f], X[:, f], side="left")
        keep = np.sort(np.unique(codes, axis=1, return_index=True)[1])
        self.active = np.array(varying, dtype=np.intp)[keep]
        self.codes = np.empty((X.shape[0], keep.size), dtype=np.uint8)
        self.occupied = []
        for j, k in enumerate(keep):
            occupied, self.codes[:, j] = np.unique(codes[:, k], return_inverse=True)
            self.occupied.append(occupied)
        self.width = max((o.size for o in self.occupied), default=0)
        self.slots = self.codes + np.arange(keep.size, dtype=np.intp) * self.width


class ReferenceTreeGrower:
    def __init__(self, binned: ReferenceBinned, max_depth: int, min_samples_split: int):
        self.binned = binned
        self.max_depth = max_depth
        self.min_split = max(2, min_samples_split)

    def _histogram(self, idx: np.ndarray, targets: np.ndarray) -> np.ndarray:
        binned = self.binned
        ncand = len(binned.active)
        out = np.zeros((1 + targets.shape[1], ncand * 256))
        flat = (binned.codes[idx].astype(np.intp) + binned.offsets[None, :]).ravel()
        out[0] = np.bincount(flat, minlength=ncand * 256)
        for d in range(targets.shape[1]):
            out[1 + d] = np.bincount(flat, weights=np.repeat(targets[idx, d], ncand),
                                     minlength=ncand * 256)
        return out.reshape(1 + targets.shape[1], ncand, 256)

    def _best_split(self, hist: np.ndarray):
        cnt = np.cumsum(hist[0], axis=1)
        m = cnt[0, -1]
        nl = cnt[:, :-1]
        nr = m - nl
        valid = (nl > 0) & (nr > 0)
        if not valid.any():
            return None
        gain = np.zeros_like(nl)
        base = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for d in range(1, hist.shape[0]):
                sums = np.cumsum(hist[d], axis=1)
                total = sums[0, -1]
                sl = sums[:, :-1]
                gain += np.where(valid, sl * sl / nl + (total - sl) ** 2 / nr, -np.inf)
                base += total * total / m
        gain = np.where(valid, gain - base, -np.inf)
        flat_best = int(np.argmax(gain))
        j, cut = divmod(flat_best, gain.shape[1])
        if not gain[j, cut] > _MIN_GAIN:
            return None
        return j, cut

    def grow(self, targets: np.ndarray) -> tuple[Tree, np.ndarray]:
        """The tree and each training row's leaf id, as the compact grower returns."""
        n, dim = targets.shape
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(np.zeros(dim))
            return len(feature) - 1

        root = new_node()
        binned = self.binned
        leaf_of = np.zeros(n, dtype=np.intp)
        if len(binned.active) == 0:  # every feature constant: nothing to split on
            value[root] = targets.mean(axis=0)
            return Tree(np.array(feature, dtype=np.int32),
                        np.array(threshold, dtype=np.float64),
                        np.array(left, dtype=np.int32),
                        np.array(right, dtype=np.int32),
                        np.vstack(value)), leaf_of
        stack = [(root, np.arange(n, dtype=np.intp), 0, None)]
        while stack:
            node, idx, depth, hist = stack.pop()
            if hist is None:
                hist = self._histogram(idx, targets)
            m = len(idx)
            split = None
            if depth < self.max_depth and m >= self.min_split:
                split = self._best_split(hist)
            if split is None:
                value[node] = hist[1:, 0, :].sum(axis=1) / m
                leaf_of[idx] = node
                continue
            j, cut = split
            codes = binned.codes[idx, j]
            go_left = codes <= cut
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            feature[node] = int(binned.active[j])
            threshold[node] = float(binned.edges[binned.active[j]][cut])
            lchild, rchild = new_node(), new_node()
            left[node], right[node] = lchild, rchild
            if len(left_idx) <= len(right_idx):
                small_idx, big_idx, small_node, big_node = left_idx, right_idx, lchild, rchild
            else:
                small_idx, big_idx, small_node, big_node = right_idx, left_idx, rchild, lchild
            small_hist = self._histogram(small_idx, targets)
            stack.append((big_node, big_idx, depth + 1, hist - small_hist))
            stack.append((small_node, small_idx, depth + 1, small_hist))

        return Tree(np.array(feature, dtype=np.int32),
                    np.array(threshold, dtype=np.float64),
                    np.array(left, dtype=np.int32),
                    np.array(right, dtype=np.int32),
                    np.vstack(value)), leaf_of


# ---------------------------------------------------------------------------
# One tree at a time

def tree_leaves(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches in ``tree``, walking that tree alone."""
    idx = np.zeros(len(X), dtype=np.int32)
    while True:
        f = tree.feature[idx]
        active = np.nonzero(f >= 0)[0]
        if active.size == 0:
            return idx
        node = idx[active]
        go_left = X[active, f[active]] <= tree.threshold[node]
        idx[active] = np.where(go_left, tree.left[node], tree.right[node])


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The tree's output for each row of X, (rows, out_dim)."""
    return tree.value[tree_leaves(tree, X)]


def raw_predict_tree_by_tree(model: SglbModel, X) -> np.ndarray:
    """A model's raw prediction, folding in one separately walked tree at a time."""
    X = np.asarray(X, dtype=np.float64)
    keep = 1.0 - model.config.gamma * model.config.learning_rate
    eta = model.config.learning_rate
    F = np.tile(model.base, (len(X), 1))
    for tree in model.trees:
        F = keep * F + eta * tree_predict(tree, X)
    return F


# ---------------------------------------------------------------------------
# Classical gradient boosting

def fit_classical_reference(X, y, config, layout=None):
    """Plain gradient boosting (no gradient noise, no shrinking term).

    The noisy trainer must reproduce it tree for tree when its noise is
    disabled and gamma is zero.
    """
    X, y = _validate_training_data(X, y, config.task)
    grower = ReferenceTreeGrower(ReferenceBinned(X, config.max_bins), config.max_depth,
                                 config.min_samples_split)
    grad_fn = (_regression_negative_gradients if config.task == TASK_REGRESSION
               else _classification_negative_gradients)
    base = _base_prediction(config.task, y)
    eta = config.learning_rate
    F = np.tile(base, (len(y), 1))
    trees = []
    for _ in range(config.iterations):
        tree, _ = grower.grow(grad_fn(F, y))
        trees.append(tree)
        F = F + eta * tree_predict(tree, X)
    reference_config = replace(config, gamma=0.0, beta=math.inf)
    return SglbModel(reference_config, base, tuple(trees), X.shape[1], layout)


# ---------------------------------------------------------------------------
# Cycle membership by edge-removal reachability

def cycle_edges(n, edges):
    """Edges on some cycle: removing the edge leaves its endpoints connected."""
    out = set()
    for edge in edges:
        remaining = [e for e in edges if e != edge]
        adj = {v: [] for v in range(n)}
        for u, v in remaining:
            adj[u].append(v)
            adj[v].append(u)
        seen = {edge[0]}
        stack = [edge[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if edge[1] in seen:
            out.add(tuple(sorted(edge)))
    return out


# ---------------------------------------------------------------------------
# Sublevel rows by one scan of every atom per level

def atom_values(graph, kind):
    """Each atom's filtration value of ``kind``, written out case by case;
    ring atoms come from ``cycle_edges``."""
    if kind == "ATOMIC_MASS":
        return [ATOMIC_MASS[a.element] for a in graph.atoms]
    if kind == "PARTIAL_CHARGE":
        return [a.partial_charge for a in graph.atoms]
    degree = [0] * graph.n_atoms
    for bond in graph.bonds:
        degree[bond.a] += 1
        degree[bond.b] += 1
    if kind == "CHIRALITY":
        return [{CHI_CW: 1, CHI_CCW: 2}.get(a.chirality, 0) if d == 4 else 0
                for a, d in zip(graph.atoms, degree)]
    rings = {v for edge in cycle_edges(graph.n_atoms, [b.endpoints for b in graph.bonds])
             for v in edge}
    triple = {v for b in graph.bonds if b.order == "TRIPLE" for v in b.endpoints}
    double = {v for b in graph.bonds if b.order == "DOUBLE" for v in b.endpoints}
    return [0 if v in rings else 1 if v in triple else 2 if v in double else 3
            for v in range(graph.n_atoms)]


def nearest_rank_deciles(values):
    ordered = sorted(values)
    return tuple(ordered[math.ceil(i * len(ordered) / 10) - 1] for i in range(1, 11))


def sublevel_sets(graph, kind, thresholds):
    """Level i: every atom whose value is at most ``thresholds[i]``."""
    values = atom_values(graph, kind)
    return tuple(frozenset(v for v, value in enumerate(values) if value <= alpha)
                 for alpha in thresholds)


def sorted_levels(values, thresholds):
    """Level i by one sort and a bisection: the atoms in value order up to
    the last value at most ``thresholds[i]``."""
    order = sorted(range(len(values)), key=lambda v: (values[v], v))
    ordered = [values[v] for v in order]
    return tuple(frozenset(order[:bisect_right(ordered, alpha)]) for alpha in thresholds)


# ---------------------------------------------------------------------------
# Molecular-graph helpers: permutation parity, reflection, relabeling,
# connected components and valence slots

def cycle_parity(values) -> int:
    """0 if sorting ``values`` is an even permutation, 1 if odd: each cycle
    of the sorting permutation of length L is L - 1 transpositions."""
    order = sorted(range(len(values)), key=values.__getitem__)
    seen = [False] * len(order)
    parity = 0
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        parity ^= (length - 1) & 1
    return parity


_MIRROR_TAG = {CHI_CW: CHI_CCW, CHI_CCW: CHI_CW}


def mirror(graph):
    """Reflected copy: every CW tag becomes CCW and vice versa."""
    atoms = tuple(replace(a, chirality=_MIRROR_TAG.get(a.chirality, a.chirality))
                  for a in graph.atoms)
    return replace(graph, atoms=atoms)


def relabel(graph, perm: list[int]):
    """Apply a vertex relabeling (old id -> perm[old id]).

    All atom fields, chirality tags included, travel verbatim with their
    atoms: tags are opaque input data here, so a relabeled graph carries
    exactly the same tag multiset and downstream fingerprints are identical.
    """
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(graph.n_atoms)):
        raise ValueError("perm must be a permutation of the atom ids")
    new_atoms = [None] * graph.n_atoms
    for old, atom in enumerate(graph.atoms):
        new_atoms[perm[old]] = atom
    new_bonds = tuple(sorted(
        (replace(b, a=perm[b.a], b=perm[b.b]) for b in graph.bonds),
        key=lambda b: (b.a, b.b)))
    return replace(graph, atoms=tuple(new_atoms), bonds=new_bonds)


def components(graph) -> list[list[int]]:
    """Sorted atom ids of each connected component, by depth-first search."""
    adj = [[] for _ in graph.atoms]
    for bond in graph.bonds:
        adj[bond.a].append(bond.b)
        adj[bond.b].append(bond.a)
    seen = [False] * graph.n_atoms
    out = []
    for start in range(graph.n_atoms):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


_BOND_ORDER = {"SINGLE": 1.0, "DOUBLE": 2.0, "TRIPLE": 3.0, "AROMATIC": 1.5}


def valence_slots(graph) -> list[float]:
    """Per-atom bond-order sum (hydrogens are atoms, so their bonds count)."""
    totals = [0.0] * graph.n_atoms
    for bond in graph.bonds:
        totals[bond.a] += _BOND_ORDER[bond.order]
        totals[bond.b] += _BOND_ORDER[bond.order]
    return totals


def assign_reference_charges_by_replace(graph):
    """``graph`` with the charges ``datagen._reference_charges`` gives its atoms,
    from one pass over the bonds and a ``replace`` of every atom: the charged
    molecules the tests build from SMILES."""
    totals = [0.0] * graph.n_atoms
    for bond in graph.bonds:
        chi_a = ELECTRONEGATIVITY[graph.atoms[bond.a].element]
        chi_b = ELECTRONEGATIVITY[graph.atoms[bond.b].element]
        shift = (chi_b - chi_a) * 0.05 * _ORDER_FACTOR[bond.order]
        totals[bond.a] += shift
        totals[bond.b] -= shift
    atoms = tuple(replace(a, partial_charge=round(total, 4))
                  for a, total in zip(graph.atoms, totals))
    return replace(graph, atoms=atoms)


def random_molecule_by_replace(rng: np.random.Generator, name: str):
    """``datagen.random_molecule`` drawing each element with
    ``Generator.choice``, adding the hydrogens with ``add_hydrogens``, reading
    degrees from the graph, and copying every changed atom with ``replace``."""
    target_heavy = int(rng.integers(5, 23))
    first = str(rng.choice(_ELEMENT_POOL, p=_ELEMENT_WEIGHTS))
    if VALENCES[first][0] < 2:
        first = "C"
    elements = [first]
    free = [VALENCES[first][0]]
    bonds: list[tuple[int, int, str]] = []
    adj: list[set[int]] = [set()]

    while len(elements) < target_heavy:
        open_atoms = [v for v in range(len(elements)) if free[v] >= 1]
        if not open_atoms:
            break
        child = len(elements)
        element = str(rng.choice(_ELEMENT_POOL, p=_ELEMENT_WEIGHTS))
        elements.append(element)
        free.append(VALENCES[element][0])
        adj.append(set())
        parent = int(open_atoms[rng.integers(len(open_atoms))])
        order = "SINGLE"
        if free[parent] >= 2 and free[child] >= 2 and rng.random() < 0.12:
            order = "DOUBLE"
            if free[parent] >= 3 and free[child] >= 3 and rng.random() < 0.15:
                order = "TRIPLE"
        used = {"SINGLE": 1, "DOUBLE": 2, "TRIPLE": 3}[order]
        free[parent] -= used
        free[child] -= used
        bonds.append((parent, child, order))
        adj[parent].add(child)
        adj[child].add(parent)
    n_heavy = len(elements)

    for _ in range(int(rng.integers(0, 3))):
        candidates = [v for v in range(n_heavy) if free[v] >= 1]
        if len(candidates) < 2:
            break
        for _attempt in range(8):
            u, v = (int(x) for x in rng.choice(candidates, size=2, replace=False))
            if v in adj[u]:
                continue
            if not 2 <= _hop_distance(adj, u, v) <= 7:
                continue
            free[u] -= 1
            free[v] -= 1
            bonds.append((min(u, v), max(u, v), "SINGLE"))
            adj[u].add(v)
            adj[v].add(u)
            break

    graph = MolecularGraph(name, tuple(Atom(e) for e in elements),
                           tuple(Bond(a, b, order) for a, b, order in sorted(bonds)))
    graph = add_hydrogens(graph, free)

    tagged = 0
    new_atoms = list(graph.atoms)
    degrees = [sum(v in b.endpoints for b in graph.bonds) for v in range(graph.n_atoms)]
    for i, (atom, degree) in enumerate(zip(graph.atoms, degrees)):
        if degree == 4 and tagged < 3 and rng.random() < 0.3:
            tag = CHI_CW if rng.random() < 0.5 else CHI_CCW
            new_atoms[i] = replace(atom, chirality=tag)
            tagged += 1
    graph = replace(graph, atoms=tuple(new_atoms))
    return assign_reference_charges_by_replace(graph)


# ---------------------------------------------------------------------------
# The JSON molecule loader: one Atom per atom entry, then the valences
# checked over the sorted bonds.

def graph_from_json_dict_reference(doc: dict) -> MolecularGraph:
    """``molgraph.graph_from_json_dict`` with one ``Atom`` built per atom entry,
    each ``Bond`` normalized by its constructor, and the valence tally taken
    in a second pass over the sorted bonds."""
    if not isinstance(doc, dict):
        raise SchemaError("molecule document must be an object")
    extra = set(doc) - {"name", "atoms", "bonds"}
    if extra:
        raise SchemaError(f"unknown keys {sorted(extra)}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name must be a string", "$.name")
    raw_atoms = doc.get("atoms")
    raw_bonds = doc.get("bonds", [])
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise SchemaError("atoms must be a non-empty array", "$.atoms")
    if not isinstance(raw_bonds, list):
        raise SchemaError("bonds must be an array", "$.bonds")

    atoms = []
    for i, entry in enumerate(raw_atoms):
        if not isinstance(entry, dict):
            raise SchemaError("atom must be an object", f"$.atoms[{i}]")
        if not entry.keys() <= _ATOM_KEYS:
            raise SchemaError(f"unknown atom keys {sorted(set(entry) - _ATOM_KEYS)}",
                              f"$.atoms[{i}]")
        element = entry.get("element")
        if element not in SUPPORTED_ELEMENTS:
            raise SchemaError(f"unsupported element {element!r}", f"$.atoms[{i}].element")
        charge = entry.get("formal_charge", 0)
        if not isinstance(charge, int) or isinstance(charge, bool):
            raise SchemaError("formal_charge must be an integer", f"$.atoms[{i}].formal_charge")
        partial = entry.get("partial_charge")
        if partial is not None and (isinstance(partial, bool)
                                    or not isinstance(partial, (int, float))
                                    or not -_FLOAT_MAX <= partial <= _FLOAT_MAX):
            raise SchemaError("partial_charge must be a finite number",
                              f"$.atoms[{i}].partial_charge")
        tag = entry.get("chirality", CHI_NONE)
        if tag not in CHIRALITY_TAGS:
            raise SchemaError(f"invalid chirality {tag!r}", f"$.atoms[{i}].chirality")
        atoms.append(Atom(element, charge,
                          None if partial is None else float(partial), tag))

    seen_pairs = set()
    bonds = []
    for i, entry in enumerate(raw_bonds):
        if not isinstance(entry, dict):
            raise SchemaError("bond must be an object", f"$.bonds[{i}]")
        if not entry.keys() <= _BOND_KEYS:
            raise SchemaError(f"unknown bond keys {sorted(set(entry) - _BOND_KEYS)}",
                              f"$.bonds[{i}]")
        a, b, order = entry.get("a"), entry.get("b"), entry.get("order")
        for key, val in (("a", a), ("b", b)):
            if not isinstance(val, int) or isinstance(val, bool) or not 0 <= val < len(atoms):
                raise SchemaError(f"endpoint {key} out of range", f"$.bonds[{i}].{key}")
        if a == b:
            raise SchemaError("bond endpoints must differ", f"$.bonds[{i}]")
        if order not in BOND_ORDERS:
            raise SchemaError(f"invalid bond order {order!r}", f"$.bonds[{i}].order")
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            raise SchemaError("duplicate bond", f"$.bonds[{i}]")
        seen_pairs.add(pair)
        bonds.append(Bond(a, b, order))

    graph = MolecularGraph(name, tuple(atoms), tuple(sorted(bonds, key=lambda b: (b.a, b.b))))
    bond_x2, degree, aromatic = [0] * graph.n_atoms, [0] * graph.n_atoms, [False] * graph.n_atoms
    for bond in graph.bonds:
        for v in bond.endpoints:
            bond_x2[v] += _ORDER_X2[bond.order]
            degree[v] += 1
            aromatic[v] = aromatic[v] or bond.order == "AROMATIC"
    for i, atom in enumerate(graph.atoms):
        if atom.chirality != CHI_NONE and degree[i] != 4:
            raise SchemaError("chirality tag on an atom without four distinct neighbors",
                              f"$.atoms[{i}]")
        if aromatic[i]:
            limit = _AROMATIC_MAX_DEGREE.get(atom.element)
            if limit is None or degree[i] > limit:
                raise SchemaError("aromatic valence violation", f"$.atoms[{i}]")
            continue
        slots = (bond_x2[i] + 1) // 2
        if slots not in allowed_valences(atom.element, atom.formal_charge):
            raise SchemaError(
                f"valence {slots} not allowed for {atom.element} "
                f"(charge {atom.formal_charge})", f"$.atoms[{i}]")
    return graph


# ---------------------------------------------------------------------------
# The fingerprint CSV read row by row: csv.reader splits every line and int
# reads every entry.

def read_fingerprints_csv_rows(path):
    """(record ids, layout, int64 block) of the fingerprint CSV at ``path``, or the
    DataError ``vectorize.read_fingerprints_csv`` must raise."""
    fh = io.StringIO(read_text(path, "fingerprint CSV"), newline="")
    abbrev_to_kind = {v: k for k, v in KIND_ABBREV.items()}
    magic = fh.readline().strip()
    if not magic.startswith(_CSV_MAGIC):
        raise DataError(f"{path}: not a fingerprint CSV")
    try:
        meta = dict(part.split("=", 1) for part in magic.split()[1:])
        kinds = tuple(abbrev_to_kind[a] for a in meta["kinds"].split(","))
        k_grid = int(meta["k_grid"])
        version = meta["version"]
    except (KeyError, ValueError):
        raise DataError(f"{path}: malformed header line {magic!r}") from None
    try:
        layout = FingerprintLayout(version, kinds, k_grid)
    except ValueError as exc:
        raise DataError(f"{path}: invalid fingerprint layout: {exc}") from None
    reader = csv.reader(fh)  # file line reader.line_num + 1: it starts after the magic
    ids, vectors, first_line = [], [], {}
    try:
        header = next(reader, [])
        if len(header) != layout.length + 1 or tuple(header[1:]) != layout.column_names():
            raise DataError(f"{path}: column names do not match the declared layout")
        for row in reader:
            entries = row[1:]
            if not _plain_digits(entries):
                bad = next(x for x in entries if not _plain_digits([x]))
                raise DataError(f"{path} line {reader.line_num + 1}: entry {bad!r} is not "
                                "an unsigned integer in ASCII digits")
            try:
                vector = np.fromiter(map(int, entries), dtype=np.int64, count=len(entries))
            except OverflowError:
                raise DataError(f"{path} line {reader.line_num + 1}: entry outside int64") from None
            if vector.shape[0] != layout.length:
                raise DataError(f"{path} line {reader.line_num + 1}: wrong number of entries")
            note_line(first_line, row[0], reader.line_num + 1, path)
            ids.append(row[0])
            vectors.append(vector)
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num + 1}: cannot read fingerprint CSV "
                        f"({exc})") from None
    if not vectors:
        raise DataError(f"{path}: no fingerprint rows")
    return ids, layout, np.vstack(vectors)
