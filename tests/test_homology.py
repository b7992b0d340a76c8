import importlib.resources
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moltop.errors import DataError, InternalInvariantError
from moltop.homology import (
    UNREACHABLE,
    DistanceMatrix,
    PersistenceDiagram,
    betti_at,
    build_vr_row,
    geodesic_distances,
    reduce_complex,
)
from moltop import homology
from moltop.datagen import generate_dataset
from moltop.filtration import FILTRATION_KINDS, build_sequence, make_spec
from moltop.molgraph import DatasetRecord, load_graph_json, parse_smiles, relabel
from moltop.vectorize import graph_from_record, prepare_graph

from oracles import (
    betti_numbers_at,
    complex_at,
    hop_distances,
    load_graph6_file,
    naive_persistence,
    triangle_persistence,
)


def cycle_distances(n):
    hops = np.array([[min((i - j) % n, (j - i) % n) for j in range(n)]
                     for i in range(n)], dtype=np.int32)
    return DistanceMatrix(hops, n // 2)


def cytosine_graph():
    path = importlib.resources.files("moltop.data").joinpath("cytosine.json")
    return load_graph_json(str(path))


class TestGeodesicDistances:
    def test_path(self):
        g = prepare_graph(parse_smiles("OO"))  # H-O-O-H after expansion
        d = geodesic_distances(g)
        assert d.distance(2, 3) == 3  # hydrogen to hydrogen across the path
        assert d.diameter == 3

    def test_six_cycle(self):
        g = prepare_graph(parse_smiles("c1ccccc1"))
        d = geodesic_distances(g)
        ring = [a.id for a in g.atoms if a.element == "C"]
        assert max(d.distance(u, v) for u in ring for v in ring) == 3

    def test_disconnected_unreachable(self):
        g = parse_smiles("[Cl-].[Cl-]")
        d = geodesic_distances(g)
        assert d.distance(0, 1) == UNREACHABLE

    def test_empty_graph_rejected(self):
        from moltop.molgraph import MolecularGraph
        with pytest.raises(DataError):
            geodesic_distances(MolecularGraph("empty", (), ()))

    def test_matches_oracle_bfs(self, random_graphs):
        for g in random_graphs[:6]:
            adj = np.zeros((g.n_atoms, g.n_atoms), dtype=int)
            for b in g.bonds:
                adj[b.a, b.b] = adj[b.b, b.a] = 1
            assert np.array_equal(geodesic_distances(g).hops, hop_distances(adj))

    def test_induced_subgraph_mode(self):
        g = prepare_graph(parse_smiles("CCC"))  # propane: C0-C1-C2
        full = geodesic_distances(g)
        assert full.distance(0, 2) == 2
        sub = geodesic_distances(g, within={0, 2})
        assert sub.distance(0, 2) == UNREACHABLE  # the middle carbon is gone

    def test_induced_mode_matches_oracle_on_random_subsets(self, random_graphs):
        rng = np.random.default_rng(8)
        for g in random_graphs[:5]:
            size = max(2, g.n_atoms // 2)
            subset = set(rng.choice(g.n_atoms, size=size, replace=False).tolist())
            adj = np.zeros((g.n_atoms, g.n_atoms), dtype=int)
            for b in g.bonds:
                if b.a in subset and b.b in subset:
                    adj[b.a, b.b] = adj[b.b, b.a] = 1
            expected = hop_distances(adj)
            got = geodesic_distances(g, within=subset)
            for u in subset:
                for v in subset:
                    assert got.distance(u, v) == expected[u, v]


def edge_pairs(cx):
    """(E, 2) global vertex ids of a row's edges."""
    return np.asarray(cx.vertices)[cx.edge_local]


def oracle_counts(cx, hops, eps):
    """(vertices, edges, triangles) at eps by the oracle; the row's edges
    must be the oracle's."""
    verts, edges, triangles = complex_at(cx.vertices, hops, eps)
    built = sorted(tuple(p) for p, e in zip(edge_pairs(cx).tolist(), cx.edge_eps.tolist())
                   if e <= eps)
    assert built == edges
    return len(verts), len(edges), len(triangles)


class TestBuildVrRow:
    def test_singleton(self):
        hops = np.zeros((1, 1), dtype=np.int32)
        cx = build_vr_row({0}, DistanceMatrix(hops, 0), 0)
        assert cx.vertices == (0,)
        assert len(cx.edge_eps) == 0
        assert oracle_counts(cx, hops, 0) == (1, 0, 0)

    def test_four_cycle_counts(self):
        dist = cycle_distances(4)
        cx = build_vr_row({0, 1, 2, 3}, dist, 2)
        assert oracle_counts(cx, dist.hops, 1) == (4, 4, 0)
        assert oracle_counts(cx, dist.hops, 2) == (4, 6, 4)

    def test_complete_skeleton_at_diameter(self):
        dist = cycle_distances(6)
        cx = build_vr_row(set(range(6)), dist, 3)
        assert oracle_counts(cx, dist.hops, 3) == (6, 15, 20)

    def test_cap_clips_edges(self):
        dist = cycle_distances(6)
        cx = build_vr_row(set(range(6)), dist, 1)
        assert oracle_counts(cx, dist.hops, 1) == (6, 6, 0)
        assert len(cx.edge_eps) == 6

    def test_unreachable_pairs_never_join(self):
        hops = np.array([[0, UNREACHABLE], [UNREACHABLE, 0]], dtype=np.int32)
        cx = build_vr_row({0, 1}, DistanceMatrix(hops, 0), 5)
        assert len(cx.edge_eps) == 0

    def test_filtration_order(self, random_graphs):
        g = random_graphs[0]
        dist = geodesic_distances(g)
        cx = build_vr_row({a.id for a in g.atoms}, dist, dist.diameter)
        edges = [(e, u, v) for e, (u, v) in zip(cx.edge_eps.tolist(),
                                                 edge_pairs(cx).tolist())]
        assert edges == sorted(edges)
        assert oracle_counts(cx, dist.hops, dist.diameter)[1] == len(edges)


class TestReduce:
    def test_path_p3(self):
        hops = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int32)
        pd0, pd1 = reduce_complex(build_vr_row({0, 1, 2}, DistanceMatrix(hops, 2), 2))
        assert pd0.pairs == ((0, 1), (0, 1))
        assert pd0.essentials == (0,)
        assert pd1.pairs == ()

    def test_six_cycle_against_oracle(self):
        # One might guess the hexagon class survives until the antipodal
        # chords arrive at scale 3, but the oracle gives {(1, 2)}: at scale 2
        # the complex is an octahedron boundary, so the class is already dead.
        hops = cycle_distances(6).hops
        oracle = naive_persistence(range(6), hops, 3)
        pd0, pd1 = reduce_complex(build_vr_row(set(range(6)), cycle_distances(6), 3))
        assert list(pd1.pairs) == oracle[1][0] == [(1, 2)]
        assert list(pd0.pairs) == oracle[0][0]
        assert pd1.essentials == ()

    def test_cytosine_full_row(self):
        g = cytosine_graph()
        assert g.n_atoms == 13
        dist = geodesic_distances(g)
        cx = build_vr_row({a.id for a in g.atoms}, dist, dist.diameter)
        pd0, pd1 = reduce_complex(cx)
        assert len(pd0.pairs) == 12
        assert len(pd0.essentials) == 1
        assert len(pd1.pairs) == 1

    def test_face_closure_violation_raises(self):
        # each corruption of a valid row breaks one structural check
        cx = build_vr_row(set(range(6)), cycle_distances(6), 3)
        reduce_complex(cx, validate=True)
        asymmetric = cx.hops.copy()
        asymmetric[0, 1] = 2
        nonzero_diagonal = cx.hops.copy()
        nonzero_diagonal[2, 2] = 1
        outside = cx.edge_local.copy()
        outside[0, 1] = 6
        unsorted = cx.edge_local[::-1].copy()
        for bad in (replace(cx, hops=asymmetric), replace(cx, hops=nonzero_diagonal),
                    replace(cx, edge_local=outside), replace(cx, edge_local=unsorted),
                    replace(cx, edge_eps=cx.edge_eps[::-1].copy())):
            with pytest.raises(InternalInvariantError):
                reduce_complex(bad, validate=True)

    def test_clipped_cap_creates_essential_cycle(self):
        # cap below the kill scale: the hexagon class never dies
        pd0, pd1 = reduce_complex(build_vr_row(set(range(6)), cycle_distances(6), 1))
        assert pd1.essentials == (1,)
        assert pd1.pairs == ()


class TestBettiAt:
    def test_empty_diagram(self):
        from moltop.homology import PersistenceDiagram
        pd = PersistenceDiagram(0, (), (), 3)
        assert [betti_at(pd, t) for t in range(4)] == [0, 0, 0, 0]

    def test_p3_dim0(self):
        hops = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int32)
        pd0, _ = reduce_complex(build_vr_row({0, 1, 2}, DistanceMatrix(hops, 2), 2))
        assert [betti_at(pd0, t) for t in (0, 1, 2)] == [3, 1, 1]

    def test_six_cycle_dim1_matches_rank_oracle(self):
        dist = cycle_distances(6)
        _, pd1 = reduce_complex(build_vr_row(set(range(6)), dist, 3))
        expected = [betti_numbers_at(range(6), dist.hops, t)[1] for t in range(4)]
        assert [betti_at(pd1, t) for t in range(4)] == expected == [0, 1, 0, 0]

    def test_out_of_grid_rejected(self):
        from moltop.homology import PersistenceDiagram
        pd = PersistenceDiagram(0, ((0, 1),), (0,), 3)
        with pytest.raises(ValueError):
            betti_at(pd, 4)
        with pytest.raises(ValueError):
            betti_at(pd, -1)


class TestOracleEquivalence:
    """Engine vs independent GF(2) rank and naive-reduction oracles."""

    def test_connected_graphs_up_to_six_vertices(self):
        from pathlib import Path
        path = Path(__file__).parent / "data" / "connected_graphs_le7.g6"
        graphs = [a for a in load_graph6_file(str(path)) if len(a) <= 6]
        assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112
        for adj in graphs:
            n = len(adj)
            hops = hop_distances(adj)
            k = int(hops.max())
            dist = DistanceMatrix(hops.astype(np.int32), k)
            pd0, pd1 = reduce_complex(build_vr_row(set(range(n)), dist, max(k, 0)))
            for eps in range(k + 1):
                b0, b1, _ = betti_numbers_at(range(n), hops, eps)
                assert betti_at(pd0, eps) == b0
                assert betti_at(pd1, eps) == b1
            oracle = naive_persistence(range(n), hops, max(k, 0))
            assert sorted(pd0.pairs) == oracle[0][0]
            assert sorted(pd0.essentials) == oracle[0][1]
            assert sorted(pd1.pairs) == oracle[1][0]
            assert sorted(pd1.essentials) == oracle[1][1]

    def test_euler_consistency_on_molecules(self, random_graphs):
        for g in random_graphs[:8]:
            dist = geodesic_distances(g)
            verts = {a.id for a in g.atoms}
            cx = build_vr_row(verts, dist, dist.diameter)
            pd0, pd1 = reduce_complex(cx)
            for eps in range(dist.diameter + 1):
                nv, ne, nt = oracle_counts(cx, dist.hops, eps)
                b0, b1, b2 = betti_numbers_at(verts, dist.hops, eps)
                assert nv - ne + nt == b0 - b1 + b2
                assert betti_at(pd0, eps) == b0
                assert betti_at(pd1, eps) == b1

    def test_monotone_beta0(self, random_graphs):
        for g in random_graphs[:10]:
            dist = geodesic_distances(g)
            pd0, _ = reduce_complex(
                build_vr_row({a.id for a in g.atoms}, dist, dist.diameter))
            values = [betti_at(pd0, t) for t in range(dist.diameter + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_permutation_invariance_of_diagrams(self, random_graphs):
        rng = np.random.default_rng(17)
        for g in random_graphs[:8]:
            perm = list(rng.permutation(g.n_atoms).astype(int))
            h = relabel(g, perm)
            dg = geodesic_distances(g)
            dh = geodesic_distances(h)
            assert dg.diameter == dh.diameter
            pg = reduce_complex(build_vr_row({a.id for a in g.atoms}, dg, dg.diameter))
            ph = reduce_complex(build_vr_row({a.id for a in h.atoms}, dh, dh.diameter))
            assert pg == ph  # diagrams are sorted multisets

    def test_subset_rows_match_naive_reduction(self, random_graphs):
        # production rows are vertex subsets with full-graph distances and
        # possibly several components; check those shapes against the
        # textbook reduction, not just full vertex sets
        rng = np.random.default_rng(41)
        for g in random_graphs[:6]:
            dist = geodesic_distances(g)
            for _ in range(4):
                size = int(rng.integers(1, g.n_atoms + 1))
                subset = set(rng.choice(g.n_atoms, size=size, replace=False).tolist())
                cap = int(rng.integers(1, dist.diameter + 1))
                pd0, pd1 = reduce_complex(build_vr_row(subset, dist, cap))
                oracle = naive_persistence(subset, dist.hops, cap)
                assert sorted(pd0.pairs) == oracle[0][0]
                assert sorted(pd0.essentials) == oracle[0][1]
                assert sorted(pd1.pairs) == oracle[1][0]
                assert sorted(pd1.essentials) == oracle[1][1]

    def test_essential_count_is_component_count(self):
        g = parse_smiles("CC.O.[Cl-]")
        g = prepare_graph(g)
        dist = geodesic_distances(g)
        pd0, _ = reduce_complex(
            build_vr_row({a.id for a in g.atoms}, dist, max(dist.diameter, 1)))
        from moltop.molgraph import components
        assert len(pd0.essentials) == len(components(g))

    def test_pipeline_consumes_no_coordinates(self):
        # The rigid-motion invariance obligation, stated where it is
        # literally true: nothing in the pipeline's inputs can carry atom
        # positions, and graphs with identical connectivity and tags give
        # identical diagrams regardless of labeling (checked above).
        import dataclasses
        import inspect
        from moltop.molgraph import Atom, Bond
        from moltop.vectorize import assemble
        field_names = {f.name for f in dataclasses.fields(Atom)}
        field_names |= {f.name for f in dataclasses.fields(Bond)}
        assert not field_names & {"x", "y", "z", "position", "coords",
                                  "coordinates", "conformer"}
        params = set(inspect.signature(assemble).parameters)
        assert params == {"graph", "specs", "k_grid", "distance_mode", "record_id"}


GRAPH6_PATH = Path(__file__).parent / "data" / "connected_graphs_le7.g6"


@pytest.fixture()
def step3_columns(monkeypatch):
    """Edge positions whose coboundary the reducer computed lazily, one list
    per reduce_complex call; a column is only computed there in step 3."""
    calls = []
    original = homology._coboundary

    def counted(n, tri_eps, eps_max, u, v):
        calls[-1].append((u, v))
        return original(n, tri_eps, eps_max, u, v)

    monkeypatch.setattr(homology, "_coboundary", counted)
    return calls


class TestCohomologyMatchesTriangleReducer:
    """The cohomology reducer against the triangle-list reducer it replaced."""

    @staticmethod
    def check(vertices, hops, cap, calls=None):
        dist = DistanceMatrix(np.asarray(hops, dtype=np.int32), cap)
        cx = build_vr_row(vertices, dist, cap)
        if calls is not None:
            calls.append([])
        got = reduce_complex(cx)
        ref = triangle_persistence(vertices, hops, cap)
        want = tuple(PersistenceDiagram(dim, tuple(ref[dim][0]), tuple(ref[dim][1]), cap)
                     for dim in (0, 1))
        assert got == want, (sorted(vertices), cap)
        if calls:
            position = {tuple(p): i for i, p in enumerate(cx.edge_local.tolist())}
            calls[-1] = [position[e] for e in calls[-1]]
        return got

    @staticmethod
    def assert_step3_reduced(calls):
        # Step 3 reduces columns youngest first, so a call for a younger edge
        # than the previous one is an apparent column added to a reduction.
        assert any(calls), "no row reached the cohomology reduction"
        assert any(b > a for seq in calls for a, b in zip(seq, seq[1:])), \
            "no reduction added an apparent column"

    def test_bundled_graphs_every_cap(self, step3_columns):
        graphs = load_graph6_file(str(GRAPH6_PATH))
        assert len(graphs) == 996
        rng = np.random.default_rng(23)
        for adj in graphs:
            n = len(adj)
            hops = hop_distances(adj)
            for cap in range(int(hops.max()) + 1):
                self.check(range(n), hops, cap, step3_columns)
                for _ in range(2):
                    size = int(rng.integers(1, n + 1))
                    subset = rng.choice(n, size=size, replace=False).tolist()
                    self.check(subset, hops, cap, step3_columns)
        self.assert_step3_reduced(step3_columns)

    def test_datagen_sublevel_rows(self, step3_columns):
        rows = 0
        for doc in generate_dataset(20, seed=7):
            graph = graph_from_record(DatasetRecord(doc["record_id"], 0.0,
                                                    graph=doc["graph"]))
            full = geodesic_distances(graph)
            distinct = {frozenset(s) for kind in FILTRATION_KINDS
                        for s in build_sequence(graph, make_spec(kind)).subsets if s}
            for row in sorted(distinct, key=sorted):
                rows += 1
                self.check(row, full.hops, 14, step3_columns)
                self.check(row, geodesic_distances(graph, within=row).hops, 14,
                           step3_columns)
                self.check(row, full.hops, 2, step3_columns)
        assert rows > 200
        self.assert_step3_reduced(step3_columns)

    def test_small_and_disconnected_rows(self):
        hops = cycle_distances(6).hops
        for row in ({0}, {0, 1}, {0, 3}, {0, 2, 4}, {0, 1, 3, 4}):
            for cap in (0, 1, 2, 3):
                self.check(row, hops, cap)
        apart = np.array([[0, UNREACHABLE], [UNREACHABLE, 0]])
        pd0, pd1 = self.check({0, 1}, apart, 3)
        assert pd0.essentials == (0, 0) and pd1 == PersistenceDiagram(1, (), (), 3)
        g = prepare_graph(parse_smiles("C1CCC1.C1CCCC1.O"))
        dist = geodesic_distances(g)
        for cap in range(dist.diameter + 1):
            pd0, _ = self.check(range(g.n_atoms), dist.hops, cap)
        assert len(pd0.essentials) == 3
