"""Independent brute-force oracles the engine is checked against.

Everything here favors directness over speed: dense GF(2) Gaussian
elimination for Betti numbers, the textbook single-matrix column reduction
for persistence pairs, exhaustive matching enumeration for Wasserstein
distances, and naive threshold loops for the classification metrics.  None
of it shares code with the production paths, except the classical boosting
reference, which reuses the trainer's binning and tree growing so that the
trees it is compared with can be equal.
"""

import math
from dataclasses import replace
from itertools import combinations, permutations

import numpy as np

from moltop.sglb import (
    TASK_REGRESSION,
    SglbModel,
    _base_prediction,
    _Binned,
    _classification_negative_gradients,
    _regression_negative_gradients,
    _TreeGrower,
    _validate_training_data,
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


# ---------------------------------------------------------------------------
# Classical gradient boosting

def fit_classical_reference(X, y, config, layout=None):
    """Plain gradient boosting (no gradient noise, no shrinking term).

    The noisy trainer must reproduce it tree for tree when its noise is
    disabled and gamma is zero.
    """
    X, y = _validate_training_data(X, y, config.task)
    grower = _TreeGrower(_Binned(X, config.max_bins), config.max_depth,
                         config.min_samples_split)
    grad_fn = (_regression_negative_gradients if config.task == TASK_REGRESSION
               else _classification_negative_gradients)
    base = _base_prediction(config.task, y)
    eta = config.learning_rate
    F = np.tile(base, (len(y), 1))
    trees = []
    for _ in range(config.iterations):
        tree = grower.grow(grad_fn(F, y))
        trees.append(tree)
        F = F + eta * tree.predict(X)
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
