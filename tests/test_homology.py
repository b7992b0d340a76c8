from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moltop.errors import DataError, InternalInvariantError
from moltop.homology import (
    UNREACHABLE,
    PersistenceDiagram,
    build_rows,
    geodesic_distances,
    reduce_rows,
    strong_collapse,
)
from moltop import homology
from moltop.datagen import generate_dataset
from moltop.filtration import FILTRATION_KINDS, build_sequence, make_spec
from moltop.molgraph import (
    Atom,
    Bond,
    DatasetRecord,
    MolecularGraph,
    load_graph_json,
    parse_smiles,
)
from moltop.vectorize import (
    DISTANCE_MODES,
    K_GRID_CAP,
    diagram_records,
    graph_from_record,
)

from oracles import (
    betti_at,
    betti_numbers_at,
    check_stack,
    complex_at,
    components,
    enclosing_radius,
    graph_diameter,
    hop_distances,
    load_graph6_file,
    naive_persistence,
    relabel,
    triangle_complex,
    triangle_persistence,
    truncate,
)
from rows import build_row, build_stack, reduce_row, row_diagrams


def skeleton(adj):
    """A carbon skeleton with the bonds of a 0/1 adjacency matrix."""
    atoms = (Atom("C"),) * len(adj)
    bonds = tuple(Bond(int(u), int(v), "SINGLE") for u, v in zip(*np.nonzero(np.triu(adj))))
    return MolecularGraph("skeleton", atoms, bonds)


def row_hops(graph, row):
    """The (n, n) block of ``geodesic_distances`` walking ``graph`` within ``row``."""
    mask = np.zeros((1, graph.n_atoms), dtype=bool)
    mask[0, list(row)] = True
    return geodesic_distances(graph, mask)[0]


def cycle_distances(n):
    return np.array([[min((i - j) % n, (j - i) % n) for j in range(n)]
                     for i in range(n)], dtype=np.int32)


def cytosine_graph():
    return load_graph_json(Path(__file__).parent / "data" / "cytosine.json")


class TestGeodesicDistances:
    def test_path(self):
        g = parse_smiles("OO")  # H-O-O-H: the parse adds both hydrogens
        hops = geodesic_distances(g)
        assert hops[2, 3] == 3  # hydrogen to hydrogen across the path
        assert hops.max() == 3

    def test_six_cycle(self):
        g = parse_smiles("c1ccccc1")
        hops = geodesic_distances(g)
        ring = [i for i, a in enumerate(g.atoms) if a.element == "C"]
        assert max(hops[u, v] for u in ring for v in ring) == 3

    def test_disconnected_unreachable(self):
        g = parse_smiles("[Cl-].[Cl-]")
        assert geodesic_distances(g)[0, 1] == UNREACHABLE

    def test_empty_graph_rejected(self):
        empty = MolecularGraph("empty", (), ())
        with pytest.raises(DataError):
            geodesic_distances(empty)
        with pytest.raises(DataError):
            geodesic_distances(empty, np.zeros((1, 0), dtype=bool))
        specs = [make_spec(k) for k in FILTRATION_KINDS]
        for mode in DISTANCE_MODES:
            with pytest.raises(DataError):
                row_diagrams(empty, specs, 3, mode)

    def test_row_masks_match_oracle_on_bundled_graphs(self):
        # The whole vertex set plus random rows; rows that split into pieces
        # leave UNREACHABLE pairs inside the row.
        rng = np.random.default_rng(5)
        split = 0
        for adj in load_graph6_file(str(GRAPH6_PATH)):
            n = len(adj)
            graph = skeleton(adj)
            assert np.array_equal(geodesic_distances(graph), hop_distances(adj))
            masks = np.vstack([np.ones(n, dtype=bool), rng.random((4, n)) < 0.6])
            got = geodesic_distances(graph, masks)
            assert got.shape == (len(masks), n, n) and got.dtype == np.int32
            for mask, hops in zip(masks, got):
                inside = np.outer(mask, mask)
                want = np.where(inside, hop_distances(adj * inside), UNREACHABLE)
                assert np.array_equal(hops, want), (adj.tolist(), mask.tolist())
                split += int(np.any(inside & (hops == UNREACHABLE)))
        assert split > 1000

    def test_matches_oracle_bfs(self, random_graphs):
        for g in random_graphs[:6]:
            adj = np.zeros((g.n_atoms, g.n_atoms), dtype=int)
            for b in g.bonds:
                adj[b.a, b.b] = adj[b.b, b.a] = 1
            assert np.array_equal(geodesic_distances(g), hop_distances(adj))

    def test_induced_subgraph_mode(self):
        g = parse_smiles("CCC")  # propane: C0-C1-C2
        assert geodesic_distances(g)[0, 2] == 2
        sub = row_hops(g, {0, 2})
        assert sub[0, 2] == UNREACHABLE  # the middle carbon is gone

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
            got = row_hops(g, subset)
            for u in subset:
                for v in subset:
                    assert got[u, v] == expected[u, v]


def edge_pairs(cx, vertices):
    """(E, 2) global vertex ids of the edges of a one-row stack on ``vertices``."""
    return np.array(sorted(vertices))[cx.edge_local]


def oracle_counts(cx, vertices, hops, eps):
    """(vertices, edges, triangles) at eps by the oracle; the edges of the row
    on ``vertices`` up to eps must be the oracle's below the row's enclosing
    radius, the only ones built."""
    verts, edges, triangles = complex_at(sorted(vertices), hops, eps)
    radius = enclosing_radius(vertices, hops)
    built = sorted(tuple(p) for p, e in zip(edge_pairs(cx, vertices).tolist(),
                                            cx.edge_eps.tolist())
                   if e <= eps)
    assert built == [(u, v) for u, v in edges if hops[u, v] < radius]
    return len(verts), len(edges), len(triangles)


class TestBuildVrRow:
    def test_singleton(self):
        hops = np.zeros((1, 1), dtype=np.int32)
        cx = build_row({0}, hops, 0)
        assert cx.inside.tolist() == [[True]]
        assert len(cx.edge_eps) == 0
        assert oracle_counts(cx, {0}, hops, 0) == (1, 0, 0)

    def test_four_cycle_counts(self):
        # radius 2: the two diagonals and the four triangles are never built
        hops = cycle_distances(4)
        cx = build_row({0, 1, 2, 3}, hops, 2)
        assert oracle_counts(cx, {0, 1, 2, 3}, hops, 1) == (4, 4, 0)
        assert oracle_counts(cx, {0, 1, 2, 3}, hops, 2) == (4, 6, 4)
        assert cx.radius.tolist() == [2] and len(cx.edge_eps) == 4

    def test_complete_skeleton_at_diameter(self):
        # radius 3: the three antipodal chords are never built
        hops = cycle_distances(6)
        cx = build_row(set(range(6)), hops, 3)
        assert oracle_counts(cx, range(6), hops, 3) == (6, 15, 20)
        assert cx.radius.tolist() == [3] and len(cx.edge_eps) == 12

    def test_cap_clips_edges(self):
        hops = cycle_distances(6)
        cx = build_row(set(range(6)), hops, 1)
        assert oracle_counts(cx, range(6), hops, 1) == (6, 6, 0)
        assert len(cx.edge_eps) == 6

    def test_unreachable_pairs_never_join(self):
        hops = np.array([[0, UNREACHABLE], [UNREACHABLE, 0]], dtype=np.int32)
        cx = build_row({0, 1}, hops, 5)
        assert len(cx.edge_eps) == 0

    def test_filtration_order(self, random_graphs):
        g = random_graphs[0]
        hops = geodesic_distances(g)
        vertices = range(g.n_atoms)
        cx = build_row(vertices, hops, hops.max())
        edges = [(e, u, v) for e, (u, v) in zip(cx.edge_eps.tolist(),
                                                 edge_pairs(cx, vertices).tolist())]
        assert edges == sorted(edges)
        radius = enclosing_radius(vertices, hops)
        assert oracle_counts(cx, vertices, hops, hops.max())[1] > len(edges) \
            == oracle_counts(cx, vertices, hops, radius - 1)[1]


class TestReduce:
    def test_path_p3(self):
        hops = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int32)
        pd0, pd1 = reduce_row({0, 1, 2}, hops, 2)
        assert pd0.pairs == ((0, 1), (0, 1))
        assert pd0.essentials == (0,)
        assert pd1.pairs == ()

    def test_six_cycle_against_oracle(self):
        # One might guess the hexagon class survives until the antipodal
        # chords arrive at scale 3, but the oracle gives {(1, 2)}: at scale 2
        # the complex is an octahedron boundary, so the class is already dead.
        hops = cycle_distances(6)
        oracle = naive_persistence(range(6), hops, 3)
        pd0, pd1 = reduce_row(set(range(6)), hops, 3)
        assert list(pd1.pairs) == oracle[1][0] == [(1, 2)]
        assert list(pd0.pairs) == oracle[0][0]
        assert pd1.essentials == ()

    def test_cytosine_full_row(self):
        g = cytosine_graph()
        assert g.n_atoms == 13
        hops = geodesic_distances(g)
        cx = build_row(set(range(g.n_atoms)), hops, hops.max())
        pd0, pd1 = reduce_rows(cx).diagrams()[0]
        assert len(pd0.pairs) == 12
        assert len(pd0.essentials) == 1
        assert len(pd1.pairs) == 1

    def test_face_closure_violation_raises(self):
        # each corruption of a valid stack breaks one structural check; the
        # stack puts a 3-vertex row before a 6-cycle, so local ids 3 to 5 of
        # the first row are padding.  The first row's radius is 2, so its one
        # edge is (0, 1) at 1; the 6-cycle's is 3, so its chords are not built.
        cx = build_stack([{0, 1, 3}, set(range(6))], cycle_distances(6), 3)
        assert cx.radius.tolist() == [2, 3] and len(cx.edge_eps) == 1 + 12
        asymmetric = cx.hops.copy()
        asymmetric[1, 0, 1] = 2
        nonzero_diagonal = cx.hops.copy()
        nonzero_diagonal[1, 2, 2] = 1
        zero_padding = cx.hops.copy()
        zero_padding[0, 3:] = zero_padding[0, :, 3:] = 0
        outside = cx.edge_local.copy()
        outside[0, 1] = 3
        unsorted = cx.edge_local.copy()
        unsorted[1:] = unsorted[:0:-1]  # the 6-cycle's edges, reversed
        # the 6-cycle's chords, which enter at its radius
        chords = replace(cx, edge_row=np.append(cx.edge_row, [1, 1, 1]),
                         edge_eps=np.append(cx.edge_eps, [3, 3, 3]),
                         edge_local=np.vstack([cx.edge_local, [[0, 3], [1, 4], [2, 5]]]))
        for bad, check in ((replace(cx, hops=asymmetric), "symmetric"),
                           (replace(cx, hops=nonzero_diagonal), "zero diagonal"),
                           (replace(cx, hops=zero_padding), "padding"),
                           (replace(cx, radius=cx.radius - 1), "radius is not"),
                           (replace(cx, radius=np.array([2, 4])), "radius is not"),
                           (replace(cx, edge_local=outside), "outside its row"),
                           (replace(cx, edge_row=cx.edge_row + 1), "outside its row"),
                           (replace(cx, edge_local=unsorted), "sorted"),
                           (replace(cx, edge_eps=cx.edge_eps[::-1].copy()), "sorted"),
                           (chords, "at or past its row's enclosing radius")):
            with pytest.raises(InternalInvariantError, match=check):
                check_stack(bad)
        # a row cut by the cap keeps one past it as its radius: the 6-cycle at 2
        assert build_stack([set(range(6))], cycle_distances(6), 2).radius.tolist() == [3]

    def test_clipped_cap_creates_essential_cycle(self):
        # cap below the kill scale: the hexagon class never dies
        pd0, pd1 = reduce_row(set(range(6)), cycle_distances(6), 1)
        assert pd1.essentials == (1,)
        assert pd1.pairs == ()


class TestBettiAt:
    def test_empty_diagram(self):
        from moltop.homology import PersistenceDiagram
        pd = PersistenceDiagram(0, (), (), 3)
        assert [betti_at(pd, t) for t in range(4)] == [0, 0, 0, 0]

    def test_p3_dim0(self):
        hops = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int32)
        pd0, _ = reduce_row({0, 1, 2}, hops, 2)
        assert [betti_at(pd0, t) for t in (0, 1, 2)] == [3, 1, 1]

    def test_six_cycle_dim1_matches_rank_oracle(self):
        hops = cycle_distances(6)
        _, pd1 = reduce_row(set(range(6)), hops, 3)
        expected = [betti_numbers_at(range(6), hops, t)[1] for t in range(4)]
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
            pd0, pd1 = reduce_row(set(range(n)), hops, max(k, 0))
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
            hops = geodesic_distances(g)
            verts = set(range(g.n_atoms))
            cx = build_row(verts, hops, hops.max())
            pd0, pd1 = reduce_rows(cx).diagrams()[0]
            for eps in range(hops.max() + 1):
                nv, ne, nt = oracle_counts(cx, verts, hops, eps)
                b0, b1, b2 = betti_numbers_at(verts, hops, eps)
                assert nv - ne + nt == b0 - b1 + b2
                assert betti_at(pd0, eps) == b0
                assert betti_at(pd1, eps) == b1

    def test_monotone_beta0(self, random_graphs):
        for g in random_graphs[:10]:
            hops = geodesic_distances(g)
            pd0, _ = reduce_row(set(range(g.n_atoms)), hops, hops.max())
            values = [betti_at(pd0, t) for t in range(hops.max() + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_permutation_invariance_of_diagrams(self, random_graphs):
        rng = np.random.default_rng(17)
        for g in random_graphs[:8]:
            perm = list(rng.permutation(g.n_atoms).astype(int))
            h = relabel(g, perm)
            dg = geodesic_distances(g)
            dh = geodesic_distances(h)
            assert dg.max() == dh.max()
            pg = reduce_row(set(range(g.n_atoms)), dg, dg.max())
            ph = reduce_row(set(range(h.n_atoms)), dh, dh.max())
            assert pg == ph  # diagrams are sorted multisets

    def test_subset_rows_match_naive_reduction(self, random_graphs):
        # production rows are vertex subsets with full-graph distances and
        # possibly several components; check those shapes against the
        # textbook reduction, not just full vertex sets
        rng = np.random.default_rng(41)
        for g in random_graphs[:6]:
            hops = geodesic_distances(g)
            for _ in range(4):
                size = int(rng.integers(1, g.n_atoms + 1))
                subset = set(rng.choice(g.n_atoms, size=size, replace=False).tolist())
                cap = int(rng.integers(1, hops.max() + 1))
                pd0, pd1 = reduce_row(subset, hops, cap)
                oracle = naive_persistence(subset, hops, cap)
                assert sorted(pd0.pairs) == oracle[0][0]
                assert sorted(pd0.essentials) == oracle[0][1]
                assert sorted(pd1.pairs) == oracle[1][0]
                assert sorted(pd1.essentials) == oracle[1][1]

    def test_essential_count_is_component_count(self):
        g = parse_smiles("CC.O.[Cl-]")
        g = g
        hops = geodesic_distances(g)
        pd0, _ = reduce_row(set(range(g.n_atoms)), hops, max(hops.max(), 1))
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
    """Edge positions whose coboundary column the reducer read, one list per
    reduce_rows call; a column is only read in step 3."""
    calls = []
    original = homology._column

    def counted(cofacets, i):
        calls[-1].append(i)
        return original(cofacets, i)

    monkeypatch.setattr(homology, "_column", counted)
    return calls


def datagen_sublevel_rows():
    """(graph, full-graph hops, row) for the distinct non-empty sublevel rows
    of 20 datagen molecules (seed 7)."""
    for doc in generate_dataset(20, seed=7):
        graph = graph_from_record(DatasetRecord(doc["record_id"], 0.0, graph=doc["graph"]))
        full = geodesic_distances(graph)
        distinct = {frozenset(s) for kind in FILTRATION_KINDS
                    for s in build_sequence(graph, make_spec(kind)).subsets if s}
        for row in sorted(distinct, key=sorted):
            yield graph, full, row


class TestCohomologyMatchesTriangleReducer:
    """The cohomology reducer against the triangle-list reducer it replaced."""

    @staticmethod
    def check(vertices, hops, cap, calls=None):
        cx = build_row(vertices, np.asarray(hops, dtype=np.int32), cap)
        if calls is not None:
            calls.append([])
        got = reduce_rows(cx).diagrams()[0]
        ref = triangle_persistence(vertices, hops, cap)
        want = tuple(PersistenceDiagram(dim, tuple(ref[dim][0]), tuple(ref[dim][1]), cap)
                     for dim in (0, 1))
        assert got == want, (sorted(vertices), cap)
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
        for graph, full, row in datagen_sublevel_rows():
            rows += 1
            self.check(row, full, 14, step3_columns)
            self.check(row, row_hops(graph, row), 14, step3_columns)
            self.check(row, full, 2, step3_columns)
        assert rows > 200
        self.assert_step3_reduced(step3_columns)

    def test_small_and_disconnected_rows(self):
        hops = cycle_distances(6)
        for row in ({0}, {0, 1}, {0, 3}, {0, 2, 4}, {0, 1, 3, 4}):
            for cap in (0, 1, 2, 3):
                self.check(row, hops, cap)
        apart = np.array([[0, UNREACHABLE], [UNREACHABLE, 0]])
        pd0, pd1 = self.check({0, 1}, apart, 3)
        assert pd0.essentials == (0, 0) and pd1 == PersistenceDiagram(1, (), (), 3)
        g = parse_smiles("C1CCC1.C1CCCC1.O")
        hops = geodesic_distances(g)
        for cap in range(hops.max() + 1):
            pd0, _ = self.check(range(g.n_atoms), hops, cap)
        assert len(pd0.essentials) == 3


class TestEnclosingRadius:
    """A row whose enclosing radius R is at most the cap is reduced below R
    only; its diagrams still equal those of the whole capped complex."""

    @staticmethod
    def check(vertices, hops, cap):
        hops = np.asarray(hops, dtype=np.int32)
        got = reduce_row(vertices, hops, cap)
        for ref in (triangle_persistence(vertices, hops, cap),
                    naive_persistence(vertices, hops, cap)):
            want = tuple(PersistenceDiagram(dim, tuple(ref[dim][0]), tuple(ref[dim][1]), cap)
                         for dim in (0, 1))
            assert got == want, (sorted(vertices), cap)
        return got

    def test_four_cycle_dies_at_the_radius(self):
        hops = cycle_distances(4)
        assert enclosing_radius(range(4), hops) == 2
        pd0, pd1 = self.check(range(4), hops, 2)
        assert pd1.pairs == ((1, 2),) and pd1.essentials == ()
        assert pd0.pairs == ((0, 1),) * 3 and pd0.essentials == (0,)

    def test_six_cycle_with_and_without_a_cut(self):
        hops = cycle_distances(6)
        assert enclosing_radius(range(6), hops) == 3
        for cap in (3, 2):  # R = 3: cut at cap 3, not at cap 2
            _, pd1 = self.check(range(6), hops, cap)
            assert pd1.pairs == ((1, 2),) and pd1.essentials == ()

    def test_two_components_are_never_cut(self):
        adj = np.zeros((6, 6), dtype=int)
        for a, b in ((0, 1), (1, 2), (3, 4), (4, 5)):
            adj[a, b] = adj[b, a] = 1
        hops = hop_distances(adj)  # two paths, each of radius 1 alone
        assert enclosing_radius(range(6), hops) == np.inf
        for cap in range(1, 4):
            pd0, _ = self.check(range(6), hops, cap)
            assert pd0.essentials == (0, 0)

    def test_rows_of_one_and_two_vertices(self):
        hops = cycle_distances(6)
        for row, radius in (({2}, 0), ({0, 1}, 1), ({0, 3}, 3)):
            assert enclosing_radius(row, hops) == radius
            for cap in range(4):
                pd0, pd1 = self.check(row, hops, cap)
                assert pd0.essentials == (0,) * (len(row) if cap < radius else 1)
                assert pd1 == PersistenceDiagram(1, (), (), cap)

    def test_datagen_rows_of_the_triangle_reducer_check_include_cut_rows(self):
        # rows of TestCohomologyMatchesTriangleReducer.test_datagen_sublevel_rows
        # with more than one vertex whose radius is within each cap it uses
        cut = {14: 0, 2: 0}
        for graph, full, row in datagen_sublevel_rows():
            if len(row) > 1:
                for hops, cap in ((full, 14), (row_hops(graph, row), 14), (full, 2)):
                    cut[cap] += enclosing_radius(row, hops) <= cap
        assert cut[14] > 100 and cut[2] > 10, cut


class TestBuiltEdges:
    """``build_rows`` builds exactly the oracle complex's edges below each
    row's enclosing radius, in filtration order."""

    @staticmethod
    def check(vertices, hops, cap):
        """Whether the radius cut an edge of the capped complex."""
        cx = build_row(vertices, hops, cap)
        eps, pairs, *_ = triangle_complex(vertices, hops, cap)
        radius = enclosing_radius(vertices, hops)
        want = [(e, u, v) for e, (u, v) in zip(eps.tolist(), pairs.tolist()) if e < radius]
        got = list(zip(cx.edge_eps.tolist(), *edge_pairs(cx, vertices).T.tolist()))
        assert got == want, (sorted(vertices), np.asarray(hops).tolist(), cap)
        return len(want) < len(eps)

    def test_bundled_graphs_both_modes(self):
        graphs = load_graph6_file(str(GRAPH6_PATH))
        rng = np.random.default_rng(59)
        cut = kept = 0
        for adj in graphs:
            n = len(adj)
            full = hop_distances(adj)
            row = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
            for vertices, hops in ((range(n), full), (row, full), (row, induced_hops(adj, row))):
                for cap in sorted({1, 2, int(hops.max())}):
                    if self.check(vertices, hops, cap):
                        cut += 1
                    else:
                        kept += 1
        assert cut > 1000 and kept > 1000

    def test_datagen_rows_both_modes(self):
        for graph, full, row in datagen_sublevel_rows():
            for hops in (full, row_hops(graph, row)):
                for cap in (2, 14):
                    self.check(row, hops, cap)


def collapsed_diagrams(rows, hops, cap):
    """Diagrams of each row after ``strong_collapse`` of all rows at once,
    each removed vertex giving PD_0 its (0, 1) pair back."""
    hops = np.asarray(hops, dtype=np.int32)
    masks = np.zeros((len(rows), len(hops)), dtype=bool)
    for r, row in enumerate(rows):
        masks[r, list(row)] = True
    kept = strong_collapse(hops, masks, cap)
    assert not np.any(kept & ~masks), "a collapse added a vertex"
    out = []
    for row, core in zip(rows, kept):
        vertices = np.flatnonzero(core).tolist()
        assert vertices, "a collapse emptied a row"
        pd0, pd1 = reduce_row(vertices, hops, cap)
        removed = len(row) - len(vertices)
        out.append((replace(pd0, pairs=((0, 1),) * removed + pd0.pairs), pd1))
    return out, kept


def whole_diagrams(row, hops, cap):
    return reduce_row(row, np.asarray(hops, np.int32), cap)


def induced_hops(adj, row):
    """Hop counts within the subgraph ``row`` induces (UNREACHABLE elsewhere)."""
    inside = np.zeros(len(adj), dtype=bool)
    inside[list(row)] = True
    return hop_distances(adj * np.outer(inside, inside))


class TestStrongCollapse:
    """A strongly collapsed row has the diagrams of the whole row."""

    def test_bundled_graphs_both_distance_modes(self):
        graphs = load_graph6_file(str(GRAPH6_PATH))
        assert len(graphs) == 996
        rng = np.random.default_rng(29)
        removed = rows_seen = 0
        for adj in graphs:
            n = len(adj)
            hops = hop_distances(adj)
            rows = [tuple(range(n))]
            rows += [tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                             replace=False).tolist())) for _ in range(2)]
            for cap in sorted({0, 1, int(hops.max())}):
                got, kept = collapsed_diagrams(rows, hops, cap)
                for row, diagrams in zip(rows, got):
                    assert diagrams == whole_diagrams(row, hops, cap), (adj.tolist(), row, cap)
                removed += int(kept.size - kept.sum()) - sum(n - len(r) for r in rows)
                rows_seen += len(rows)
            for row in rows:
                sub = induced_hops(adj, row)
                got, kept = collapsed_diagrams([row], sub, n)
                assert got[0] == whole_diagrams(row, sub, n), (adj.tolist(), row)
                # A collapse keeps induced distances, so rows that keep the same
                # vertices can share one reduction in induced_subgraph mode too.
                core = np.ix_(kept[0], kept[0])
                assert np.array_equal(induced_hops(adj, np.flatnonzero(kept[0]))[core],
                                      sub[core])
        assert removed > rows_seen  # the collapse does remove vertices

    def test_datagen_rows_through_row_diagrams(self):
        # row_diagrams collapses every distinct row of a molecule in one call
        # and shares a reduction between full-graph rows that keep the same
        # vertices; each row must still get the diagrams of its whole row.
        for doc in generate_dataset(12, seed=7):
            graph = graph_from_record(DatasetRecord(doc["record_id"], 0.0,
                                                    graph=doc["graph"]))
            self.check_molecule(graph)

    def test_disconnected_molecules(self):
        for smiles in ("CC.O.[Cl-]", "C1CCC1.C1CCCC1.O", "[Cl-].[Cl-]"):
            self.check_molecule(parse_smiles(smiles))

    @staticmethod
    def check_molecule(graph):
        specs = [make_spec(k) for k in ("ATOMIC_MASS", "BOND_TYPE", "CHIRALITY")]
        full = geodesic_distances(graph)
        for mode in ("full_graph", "induced_subgraph"):
            for cap in (1, 2, 14):
                for kind, i, pd0, pd1 in row_diagrams(graph, specs, cap, mode)[0]:
                    row = build_sequence(graph, make_spec(kind)).subsets[i]
                    if not row:
                        continue
                    hops = full if mode == "full_graph" else row_hops(graph, row)
                    want = reduce_row(row, hops, cap)
                    assert (pd0, pd1) == want, (graph.name, mode, cap, kind, i)

    def test_mutual_twins_keep_one_of_them(self):
        # In a clique every vertex dominates every other; removing one twin
        # must keep the other, so exactly one vertex is left.
        for n in (2, 3, 5):
            hops = 1 - np.eye(n, dtype=np.int32)
            got, kept = collapsed_diagrams([tuple(range(n))], hops, 3)
            assert kept.sum() == 1
            assert got[0] == whole_diagrams(range(n), hops, 3)
            assert got[0][0].pairs == ((0, 1),) * (n - 1)
        # Two twins on a 4-cycle's chord: 0 and 2 both see 1 and 3 at 1.
        adj = np.array([[0, 1, 0, 1], [1, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]])
        hops = hop_distances(adj)
        got, kept = collapsed_diagrams([(0, 1, 2, 3)], hops, 2)
        assert got[0] == whole_diagrams(range(4), hops, 2)

    def test_unreachable_counts_as_infinity(self):
        # 0 - 1 at scale 1; vertex 2 is 2 away from one of them and never
        # joins the other.  The vertex that cannot reach 2 is dominated.
        for far_from, stays in ((0, 1), (1, 0)):
            hops = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]], dtype=np.int32)
            hops[far_from, 2] = hops[2, far_from] = UNREACHABLE
            got, kept = collapsed_diagrams([(0, 1, 2)], hops, 3)
            assert np.flatnonzero(kept[0]).tolist() == sorted((stays, 2))
            assert got[0] == whole_diagrams(range(3), hops, 3)
            assert got[0][0].pairs == ((0, 1), (0, 2))

    def test_per_row_blocks_match_one_call_per_row(self):
        # induced_subgraph mode hands strong_collapse one hop block per row;
        # a block shared by every row gives what its broadcast stack gives.
        rng = np.random.default_rng(37)
        for adj in load_graph6_file(str(GRAPH6_PATH)):
            n = len(adj)
            graph = skeleton(adj)
            masks = rng.random((4, n)) < 0.7
            per_row = geodesic_distances(graph, masks)
            shared = geodesic_distances(graph)
            for cap in (1, 2, n):
                kept = strong_collapse(per_row, masks, cap)
                for r in range(len(masks)):
                    one = strong_collapse(per_row[r], masks[r:r + 1], cap)
                    assert np.array_equal(kept[r:r + 1], one), (adj.tolist(), r, cap)
                assert np.array_equal(
                    strong_collapse(shared, masks, cap),
                    strong_collapse(np.broadcast_to(shared, (4, n, n)), masks, cap))
        # 0 and 1 are bonded in the path's block only; in the 4-cycle's block
        # no vertex is dominated.
        path = hop_distances(np.eye(4, k=1, dtype=int) + np.eye(4, k=-1, dtype=int))
        cycle = cycle_distances(4)[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
        kept = strong_collapse(np.stack([path, cycle]), np.ones((2, 4), dtype=bool), 3)
        assert kept[1].all() and kept[0].sum() == 1

    def test_no_collapse_below_scale_one(self):
        hops = cycle_distances(6)
        rows = np.ones((1, 6), dtype=bool)
        assert np.array_equal(strong_collapse(hops, rows, 0), rows)

    def test_cycles_survive(self):
        # No vertex of a cycle of length 4 or more is dominated: its dim-1
        # class needs every vertex.
        for n in (4, 5, 6, 7):
            hops = cycle_distances(n)
            got, kept = collapsed_diagrams([tuple(range(n))], hops, n // 2)
            assert kept.all()
            assert got[0] == whole_diagrams(range(n), hops, n // 2)

    def test_diagram_dump_prints_whole_rows(self):
        graph = parse_smiles("CC(O)c1ccccc1.[Cl-]")
        specs = [make_spec(k) for k in ("ATOMIC_MASS", "BOND_TYPE", "CHIRALITY")]
        full = geodesic_distances(graph)
        docs = diagram_records(row_diagrams(graph, specs, 6)[0], "m")
        assert len(docs) == 2 * (10 + 4 + 3)
        collapsing = 0
        for doc in docs:
            row = build_sequence(graph, make_spec(doc["param"])).subsets[doc["row"]]
            if not row:
                assert doc["pairs"] == [] and doc["essentials"] == []
                continue
            want = reduce_row(row, full, 6)[doc["dim"]]
            assert doc["pairs"] == [list(p) for p in want.pairs]
            assert doc["essentials"] == list(want.essentials)
            masks = np.zeros((1, graph.n_atoms), dtype=bool)
            masks[0, list(row)] = True
            collapsing += int(strong_collapse(full, masks, 6).sum() < len(row))
        assert collapsing > 0


@st.composite
def larger_graphs(draw):
    """A 0/1 adjacency matrix on 8 to 18 vertices: a random graph, a cycle with
    chords, a grid, or two disjoint cycles."""
    family = draw(st.sampled_from(["random", "chorded-cycle", "grid", "two-cycles"]))
    if family == "grid":
        rows, cols = draw(st.sampled_from([(r, c) for r in range(2, 10) for c in range(r, 10)
                                           if 8 <= r * c <= 18]))
        n = rows * cols
        pairs = [(i, i + 1) for i in range(n) if (i + 1) % cols]
        pairs += [(i, i + cols) for i in range(n - cols)]
    elif family == "two-cycles":
        a = draw(st.integers(3, 15))
        b = draw(st.integers(max(3, 8 - a), 18 - a))
        n = a + b
        pairs = [(i, (i + 1) % a) for i in range(a)]
        pairs += [(a + i, a + (i + 1) % b) for i in range(b)]
    else:
        n = draw(st.integers(8, 18))
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if family == "random":
            density = draw(st.sampled_from([0.15, 0.3, 0.5]))
            pairs = [p for p in candidates if draw(st.floats(0, 1)) < density]
        else:
            chords = draw(st.lists(st.sampled_from(candidates), max_size=4))
            pairs = [(i, (i + 1) % n) for i in range(n)] + chords
    adj = np.zeros((n, n), dtype=int)
    for u, v in pairs:
        adj[u, v] = adj[v, u] = 1
    return adj


class TestLargerGraphsAgainstTheTriangleReducer:
    """The path ``row_cores`` takes, past the 7 vertices of the bundled
    graphs: one collapse of every row, one stack of the kept vertex sets, one
    reduction, and each removed vertex's (0, 1) pair put back in PD_0."""

    @settings(max_examples=25, deadline=None)
    @given(adj=larger_graphs(), seed=st.integers(0, 10_000))
    def test_collapsed_stack_matches_whole_rows(self, adj, seed):
        n = len(adj)
        graph = skeleton(adj)
        rng = np.random.default_rng(seed)
        masks = np.vstack([np.ones(n, dtype=bool), rng.random((3, n)) < 0.7])
        masks[np.arange(1, 4), rng.integers(0, n, 3)] = True  # no empty row
        for mode in DISTANCE_MODES:
            hops = geodesic_distances(graph, masks if mode == "induced_subgraph" else None)
            for cap in (0, 1, 2, 3, 4, 6, 14, 40):
                kept = strong_collapse(hops, masks, cap)
                stack = build_rows(kept, hops, cap)
                check_stack(stack)
                for r, (pd0, pd1) in enumerate(reduce_rows(stack).diagrams()):
                    row = np.flatnonzero(masks[r]).tolist()
                    removed = len(row) - int(kept[r].sum())
                    got = (replace(pd0, pairs=((0, 1),) * removed + pd0.pairs), pd1)
                    ref = triangle_persistence(row, hops if hops.ndim == 2 else hops[r], cap)
                    want = tuple(PersistenceDiagram(dim, tuple(ref[dim][0]),
                                                    tuple(ref[dim][1]), cap)
                                 for dim in (0, 1))
                    assert got == want, (adj.tolist(), row, mode, cap)


def padded_blocks(blocks):
    """(R, n, n) stack of square hop blocks of up to n vertices, padded with
    UNREACHABLE, so rows of different graphs can share one stack."""
    n = max(len(b) for b in blocks)
    out = np.full((len(blocks), n, n), UNREACHABLE, dtype=np.int32)
    for r, block in enumerate(blocks):
        out[r, :len(block), :len(block)] = block
    return out


class TestStackedRows:
    """A row reduced in a stack with other rows gets the diagrams it gets alone."""

    @staticmethod
    def check(rows, blocks, cap):
        got = reduce_rows(build_stack(rows, padded_blocks(blocks), cap)).diagrams()
        assert len(got) == len(rows)
        for row, block, diagrams in zip(rows, blocks, got):
            want = reduce_row(row, np.asarray(block, dtype=np.int32), cap)
            assert diagrams == want, (sorted(row), np.asarray(block).tolist(), cap)
        return got

    def test_layout(self):
        hops = cycle_distances(6)
        sets = [{0, 1, 3}, {5}, set(range(6)), {2, 0, 1, 3}]
        cx = build_stack(sets, hops, 2)
        rows = [sorted(s) for s in sets]  # local ids follow the vertex ids
        assert cx.inside.sum(axis=1).tolist() == [3, 1, 6, 4]
        assert cx.hops.shape == (4, 6, 6)
        for r, row in enumerate(rows):
            k = len(row)
            assert np.array_equal(cx.hops[r, :k, :k], hops[np.ix_(row, row)])
            assert np.all(cx.hops[r, k:] == UNREACHABLE)
            assert np.all(cx.hops[r, :, k:] == UNREACHABLE)
        key = list(zip(cx.edge_row.tolist(), cx.edge_eps.tolist(),
                       *cx.edge_local.T.tolist()))
        assert key == sorted(key) and len(set(key)) == len(key)
        # radii 2 and 0; the 6-cycle's 3 is past the cap, so it keeps 3 = 2 + 1
        assert cx.radius.tolist() == [2, 0, 3, 2]
        assert np.bincount(cx.edge_row, minlength=4).tolist() == [1, 0, 12, 3]
        assert reduce_rows(build_stack([], hops, 2)).diagrams() == []
        with pytest.raises(DataError):
            build_stack([{0}, set()], hops, 2)

    def test_small_edgeless_and_disconnected_rows(self):
        apart = np.array([[0, UNREACHABLE], [UNREACHABLE, 0]])
        two_pieces = hop_distances(np.kron(np.eye(2, dtype=int), 1 - np.eye(3, dtype=int)))
        hexagon = cycle_distances(6)
        rows = [{0}, {0, 1}, {0, 1}, {0, 3}, set(range(6)), {0, 1, 2, 3, 4, 5}, {2, 4}]
        blocks = [hexagon, apart, hexagon, hexagon, two_pieces, hexagon, hexagon]
        for cap in (0, 1, 2, 3):
            got = self.check(rows, blocks, cap)
            assert got[0][0].essentials == (0,)  # one vertex
            assert got[1][0].essentials == (0, 0)  # two vertices never joined
            assert got[4][0].essentials == (0, 0) or cap == 0
        for cap in (1, 2):  # {0, 3} is edgeless below 3
            assert self.check([{0, 3}, set(range(6))], [hexagon, hexagon], cap)[0][0] \
                == PersistenceDiagram(0, (), (0, 0), cap)
        # each row of a lone 1- or 2-vertex stack, and a stack of only those
        for rows in ([{0}], [{0, 1}], [{0}, {0, 1}, {1}]):
            self.check(rows, [hexagon] * len(rows), 1)

    def test_random_groups_of_bundled_graph_rows(self):
        graphs = load_graph6_file(str(GRAPH6_PATH))
        rng = np.random.default_rng(43)
        cycles = 0
        for _ in range(600):
            rows, blocks = [], []
            for g in rng.choice(len(graphs), size=int(rng.integers(2, 7))):
                adj = graphs[g]
                n = len(adj)
                row = set(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                     replace=False).tolist())
                rows.append(row)
                # full-graph distances or the row's own walk
                blocks.append(hop_distances(adj) if rng.random() < 0.5
                              else induced_hops(adj, row))
            got = self.check(rows, blocks, int(rng.integers(1, 7)))
            cycles += sum(bool(pd1.pairs or pd1.essentials) for _, pd1 in got) > 1
        assert cycles > 50  # groups where several rows have dim-1 classes

    def test_random_groups_of_datagen_rows(self):
        rng = np.random.default_rng(47)
        rows = []
        for doc in generate_dataset(20, seed=7):
            graph = graph_from_record(DatasetRecord(doc["record_id"], 0.0,
                                                    graph=doc["graph"]))
            full = geodesic_distances(graph)
            distinct = {frozenset(s) for kind in FILTRATION_KINDS
                        for s in build_sequence(graph, make_spec(kind)).subsets if s}
            for row in sorted(distinct, key=sorted):
                rows.append((row, full, row_hops(graph, row)))
        for cap in (14, 2):
            for mode in (1, 2):  # full-graph hops, then each row's own walk
                order = rng.permutation(len(rows))
                for group in np.array_split(order, len(rows) // 8):
                    self.check([rows[i][0] for i in group],
                               [rows[i][mode] for i in group], cap)

    def test_caps_past_the_hop_dtype_reduce_as_at_the_largest_hop(self):
        # an eps_max + 1 sentinel above int32 once wrapped around in the
        # int32 hop blocks and let absent triangles in
        for n in (4, 6, 8):
            for cap in (2 ** 31 - 1, 2 ** 32 + 1, 2 ** 40):
                TestEnclosingRadius.check(range(n), cycle_distances(n), cap)

    def test_triangle_keys_stay_within_int64(self):
        # keys run up to R * (eps_max + 1) * m**3, with m the largest row
        hops = cycle_distances(6)
        reduce_rows(build_stack([set(range(6))] * 2, hops, 2 ** 20))
        with pytest.raises(DataError, match="too large"):
            reduce_rows(build_stack([set(range(6))] * 2, hops, 2 ** 62 // 6 ** 3))


class TestTruncate:
    """Diagrams reduced at a larger cap and truncated to K equal a reduction at K."""

    def test_bundled_graphs_random_rows_both_modes(self):
        graphs = load_graph6_file(str(GRAPH6_PATH))
        assert len(graphs) == 996
        rng = np.random.default_rng(53)
        clipped = beyond = 0
        for adj in graphs:
            n = len(adj)
            row = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
            for induced, hops in ((False, hop_distances(adj)), (True, induced_hops(adj, row))):
                top = reduce_row(row, hops, 6)
                for cap in range(1, 7):
                    got = tuple(truncate(pd, cap) for pd in top)
                    assert got == reduce_row(row, hops, cap), (adj.tolist(), row, cap)
                    clipped += sum(b <= cap < d for pd in top for b, d in pd.pairs)
                    beyond += induced and hops[np.ix_(row, row)].max() > cap
        assert clipped > 100  # pairs alive at the cut become essential classes
        assert beyond > 100   # induced rows with distances past the cut

    def test_datagen_rows_both_modes(self):
        specs = [make_spec(k) for k in FILTRATION_KINDS]
        clipped = beyond = 0
        for doc in generate_dataset(15, seed=3):
            graph = graph_from_record(DatasetRecord(doc["record_id"], 0.0, graph=doc["graph"]))
            for mode in DISTANCE_MODES:
                top, diameter = row_diagrams(graph, specs, K_GRID_CAP, mode)
                for k in (14, 6, 3):
                    want, _ = row_diagrams(graph, specs, k, mode)
                    got = [(kind, i, truncate(pd0, k), truncate(pd1, k))
                           for kind, i, pd0, pd1 in top]
                    assert got == want, (graph.name, mode, k)
                    clipped += sum(b <= k < d for *_, pd0, pd1 in top
                                   for pd in (pd0, pd1) for b, d in pd.pairs)
                    if mode == "induced_subgraph":
                        rows = {s for kind in FILTRATION_KINDS
                                for s in build_sequence(graph, make_spec(kind)).subsets if s}
                        beyond += any(row_hops(graph, row).max() > k for row in rows)
        assert clipped > 0 and beyond > 0

    def test_identity_at_its_own_cap(self):
        pd = PersistenceDiagram(1, ((1, 3), (2, 5)), (4,), 6)
        assert truncate(pd, 6) is pd
        assert truncate(pd, 4) == PersistenceDiagram(1, ((1, 3),), (2, 4), 4)
        assert truncate(pd, 2) == PersistenceDiagram(1, (), (1, 2), 2)


class TestRowDiagramsDiameter:
    def test_full_graph_diameter_in_both_modes(self):
        # Every kind's last level holds every atom, so the diameter is the full
        # graph's in induced mode too, though other rows' walks run longer.
        longer = 0
        for doc in generate_dataset(20, seed=3):
            graph = graph_from_record(DatasetRecord(doc["record_id"], 0.0, graph=doc["graph"]))
            want = graph_diameter(graph)
            for kind in FILTRATION_KINDS:
                for mode in DISTANCE_MODES:
                    assert row_diagrams(graph, [make_spec(kind)], 2, mode)[1] == want
                rows = [s for s in build_sequence(graph, make_spec(kind)).subsets if s]
                longer += max(row_hops(graph, row).max() for row in rows) > want
        assert longer > 0
