import concurrent.futures
import gc
import io
import json
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathlib import Path

from moltop import vectorize
from moltop.datagen import generate_dataset
from moltop.errors import (
    DataError,
    InternalInvariantError,
    LayoutMismatchError,
    MoltopError,
)
from moltop.filtration import FILTRATION_KINDS, LEVEL_COUNTS, decile_boundaries, make_spec
from moltop.homology import Pairing, PersistenceDiagram, reduce_rows
from moltop.harness import load_dataset
from moltop.molgraph import Atom, Bond, DatasetRecord, MolecularGraph, parse_smiles
from moltop.vectorize import (
    DISTANCE_MODES,
    K_GRID_CAP,
    Fingerprint,
    FingerprintLayout,
    FingerprintTable,
    assemble,
    RowCores,
    diagram_records,
    expand_cores,
    fingerprint_dataset,
    fingerprint_from_cores,
    graph_from_record,
    kind_specs,
    read_fingerprints_csv,
    row_cores,
    slice_table,
    write_fingerprints_csv,
)

from oracles import (
    assign_reference_charges_by_replace,
    betti_curve,
    betti_curves,
    check_stack,
    fingerprint_from_rows,
    graph_diameter,
    load_graph6_file,
    mirror,
    read_fingerprints_csv_rows,
    relabel,
)
from rows import row_diagrams

ALL_SPECS = [make_spec(k) for k in FILTRATION_KINDS]


def charged(smiles):
    return assign_reference_charges_by_replace(parse_smiles(smiles))


class TestBettiCurve:
    @staticmethod
    def curve(pd, k_grid):
        """The batched curve of one diagram, checked against the oracle."""
        got = betti_curves([pd], k_grid)
        assert got.shape == (1, k_grid + 1)
        assert np.array_equal(got[0], betti_curve(pd, k_grid))
        return got[0].tolist()

    def test_empty(self):
        pd = PersistenceDiagram(0, (), (), 3)
        assert self.curve(pd, 3) == [0, 0, 0, 0]

    def test_p3_dim0(self):
        pd = PersistenceDiagram(0, ((0, 1), (0, 1)), (0,), 2)
        assert self.curve(pd, 2) == [3, 1, 1]

    def test_six_cycle_dim1(self):
        # oracle-derived diagram for the 6-cycle: the class lives on [1, 2)
        pd = PersistenceDiagram(1, ((1, 2),), (), 3)
        assert self.curve(pd, 3) == [0, 1, 0, 0]

    def test_essential_contributes_from_birth_onwards(self):
        pd = PersistenceDiagram(1, (), (2,), 4)
        assert self.curve(pd, 4) == [0, 0, 1, 1, 1]

    def test_many_diagrams_in_one_call_match_one_at_a_time(self):
        # Deaths past the grid, empty diagrams and repeats side by side: no
        # diagram's counts may leak into its neighbour's row.
        rng = np.random.default_rng(5)
        k_grid = 6
        diagrams = [PersistenceDiagram(0, (), (), k_grid)]
        for _ in range(60):
            births = rng.integers(0, k_grid + 1, size=int(rng.integers(0, 6)))
            pairs = tuple(sorted((int(b), int(b + rng.integers(1, 10))) for b in births))
            essentials = tuple(sorted(rng.integers(0, k_grid + 1,
                                                   size=int(rng.integers(0, 3))).tolist()))
            diagrams.append(PersistenceDiagram(1, pairs, essentials, k_grid))
        diagrams += diagrams[:3] + [PersistenceDiagram(0, (), (), k_grid)]
        got = betti_curves(diagrams, k_grid)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.stack([betti_curve(pd, k_grid) for pd in diagrams]))


class TestAssemble:
    def test_full_length_594_at_k10(self):
        g = charged("N[C@@H](C)C(=O)O")
        fp = assemble(g, ALL_SPECS, 10)
        assert fp.vector.shape == (594,)
        assert fp.layout.length == (10 + 10 + 4 + 3) * 2 * 11 == 594

    def test_length_formula_for_subsets(self):
        g = charged("CCO")
        for kinds in (("ATOMIC_MASS",), ("BOND_TYPE", "CHIRALITY"),
                      ("ATOMIC_MASS", "PARTIAL_CHARGE", "BOND_TYPE", "CHIRALITY")):
            fp = assemble(g, [make_spec(k) for k in kinds], 7)
            expected = sum(LEVEL_COUNTS[k] * 2 * 8 for k in kinds)
            assert fp.vector.shape == (expected,)

    def test_relabeled_molecule_bit_identical(self, random_graphs):
        rng = np.random.default_rng(23)
        for g in random_graphs[:8]:
            fp = assemble(g, ALL_SPECS, 12)
            perm = list(rng.permutation(g.n_atoms).astype(int))
            fp_rel = assemble(relabel(g, perm), ALL_SPECS, 12)
            assert np.array_equal(fp.vector, fp_rel.vector)

    def test_mirror_differs_only_in_chirality_block(self):
        g = charged("N[C@@H](C)C(=O)O")
        fp = assemble(g, ALL_SPECS, 10)
        fp_m = assemble(mirror(g), ALL_SPECS, 10)
        blocks = fp.layout.block_slices()
        for kind in FILTRATION_KINDS:
            for dim in (0, 1):
                sl = blocks[(kind, dim)]
                same = np.array_equal(fp.vector[sl], fp_m.vector[sl])
                if kind == "CHIRALITY":
                    continue
                assert same, (kind, dim)
        ch = np.concatenate([fp.vector[blocks[("CHIRALITY", 0)]],
                             fp.vector[blocks[("CHIRALITY", 1)]]])
        ch_m = np.concatenate([fp_m.vector[blocks[("CHIRALITY", 0)]],
                               fp_m.vector[blocks[("CHIRALITY", 1)]]])
        assert not np.array_equal(ch, ch_m)

    def test_column_zero_equals_subset_size(self, random_graphs):
        g = random_graphs[0]
        fp = assemble(g, ALL_SPECS, 12)
        blocks = fp.layout.block_slices()
        from moltop.filtration import build_sequence
        width = fp.layout.row_width
        for kind in FILTRATION_KINDS:
            seq = build_sequence(g, make_spec(kind))
            block = fp.vector[blocks[(kind, 0)]].reshape(LEVEL_COUNTS[kind], width)
            for i, level in enumerate(seq.subsets):
                assert block[i, 0] == len(level)

    def test_small_diameter_gives_constant_tail(self):
        g = charged("C")  # methane: diameter 2
        fp = assemble(g, ALL_SPECS, 10)
        blocks = fp.layout.block_slices()
        block = fp.vector[blocks[("ATOMIC_MASS", 0)]].reshape(10, 11)
        # beyond the diameter nothing changes
        for row in block:
            assert len(set(row[2:].tolist())) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            assemble(MolecularGraph("none", (), ()), [make_spec("ATOMIC_MASS")], 5)

    def test_missing_charges_propagate(self):
        g = parse_smiles("CC")
        with pytest.raises(DataError):
            assemble(g, ALL_SPECS, 5)

    def test_induced_subgraph_mode_differs_when_detour_exists(self):
        # In the full-graph metric, removing a cut vertex from the row keeps
        # its neighbors at distance 2; walking the induced subgraph cannot.
        g = charged("CC(C)C")
        fp_full = assemble(g, ALL_SPECS, 10, distance_mode="full_graph")
        fp_sub = assemble(g, ALL_SPECS, 10, distance_mode="induced_subgraph")
        assert not np.array_equal(fp_full.vector, fp_sub.vector)


def row_by_row(graph, specs, cap, k_grid, mode, record_id=None):
    """The oracle: the fingerprint of ``row_diagrams`` reduced at ``cap``, one
    row's curve at a time, cut to ``k_grid``."""
    return fingerprint_from_rows(row_diagrams(graph, specs, cap, mode)[0], specs, k_grid,
                                 graph.name if record_id is None else record_id)


def pairing_of(diagrams, eps_max):
    """The ``Pairing`` of rows with the (PD_0, PD_1) ``diagrams``."""
    classes = [(r, pd.dim, b, d) for r, pds in enumerate(diagrams) for pd in pds
               for b, d in pd.pairs + tuple((b, eps_max + 1) for b in pd.essentials)]
    return Pairing(*np.array(classes, dtype=np.int64).reshape(-1, 4).T, eps_max,
                   len(diagrams))


def bundled_molecules():
    """The 996 bundled graphs as carbon skeletons with partial charges."""
    graphs = load_graph6_file(str(Path(__file__).parent / "data" / "connected_graphs_le7.g6"))
    assert len(graphs) == 996
    rng = np.random.default_rng(43)
    for i, adj in enumerate(graphs):
        # few charge values: ties, repeated deciles and rows that coincide
        atoms = tuple(Atom("C", partial_charge=float(c))
                      for c in rng.choice([-0.2, 0.0, 0.1, 0.3], size=len(adj)))
        bonds = tuple(Bond(int(u), int(v), "SINGLE")
                      for u, v in zip(*np.nonzero(np.triu(adj))))
        yield MolecularGraph(f"g{i}", atoms, bonds)


class TestCoresMatchRowByRow:
    """The vector built from the collapsed cores, one Betti-curve call per
    molecule, is the vector of the row diagrams."""

    def test_bundled_graphs_both_modes(self):
        for i, graph in enumerate(bundled_molecules()):
            k_grid = (1, 3, 14)[i % 3]
            for mode in DISTANCE_MODES:
                assert assemble(graph, ALL_SPECS, k_grid, mode) == \
                    row_by_row(graph, ALL_SPECS, k_grid, k_grid, mode), (graph.bonds, mode)

    @pytest.mark.parametrize("decile_mode", ["per_molecule", "global"])
    def test_datagen_molecules(self, decile_mode):
        graphs = [graph_from_record(DatasetRecord(d["record_id"], 0.0, graph=d["graph"]))
                  for d in generate_dataset(30, seed=5)]
        pooled = (decile_boundaries([a.partial_charge for g in graphs for a in g.atoms])
                  if decile_mode == "global" else None)
        specs = kind_specs(FILTRATION_KINDS, pooled)
        for graph in graphs:
            for mode in DISTANCE_MODES:
                for k_grid in (1, 3, 14):
                    assert assemble(graph, specs, k_grid, mode) == \
                        row_by_row(graph, specs, k_grid, k_grid, mode), (graph.name, mode)

    def test_empty_rows_and_single_vertex_cores(self):
        # CCO has no ring atoms, so its first bond-type levels are empty, and
        # a tree's whole row collapses to one vertex.
        graph = charged("CCO")
        cores = row_cores(graph, ALL_SPECS, 6)
        bond_type = slice(20, 24)  # the bond-type levels of the layout rows
        assert cores.core[bond_type] == (-1, -1, -1, cores.core[-1])
        assert cores.removed[bond_type] == (0, 0, 0, graph.n_atoms - 1)
        pd0, pd1 = cores.pairing.diagrams()[cores.core[-1]]
        assert (pd0.pairs, pd0.essentials, pd1.pairs, pd1.essentials) == ((), (0,), (), ())
        for mode in DISTANCE_MODES:
            for k_grid in (1, 3, 14):
                assert assemble(graph, ALL_SPECS, k_grid, mode) == \
                    row_by_row(graph, ALL_SPECS, k_grid, k_grid, mode)

    def test_diagrams_reduced_past_k_grid_give_their_truncations_curves(self):
        # Classes born past k_grid + 1 must not leak into the next core's curve.
        specs = [make_spec("CHIRALITY")]
        late = (PersistenceDiagram(0, ((0, 2),), (0,), K_GRID_CAP),
                PersistenceDiagram(1, ((5, 9), (6, 7)), (8,), K_GRID_CAP))
        plain = (PersistenceDiagram(0, ((0, 1),), (0,), K_GRID_CAP),
                 PersistenceDiagram(1, ((1, 3),), (), K_GRID_CAP))
        cores = RowCores(pairing_of([late, plain], K_GRID_CAP), (0, 1, -1), (2, 0, 0), 9)
        assert cores.pairing.diagrams() == [late, plain]
        for k_grid in (1, 2, 5, 8):
            want = fingerprint_from_rows(expand_cores(cores, specs, K_GRID_CAP), specs, k_grid,
                                         "m")
            assert fingerprint_from_cores(cores, specs, k_grid, "m") == want, k_grid

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("decile_mode", ["per_molecule", "global"])
    def test_fingerprint_dataset(self, threads, decile_mode):
        docs = generate_dataset(12, seed=19)
        records = [DatasetRecord(d["record_id"], 0.0, graph=d["graph"]) for d in docs]
        graphs = [graph_from_record(r) for r in records]
        pooled = (decile_boundaries([a.partial_charge for g in graphs for a in g.atoms])
                  if decile_mode == "global" else None)
        specs = kind_specs(FILTRATION_KINDS, pooled)
        for mode in DISTANCE_MODES:
            for k_grid in (1, 3, 14, None):
                table = fingerprint_dataset(records, FILTRATION_KINDS, k_grid, threads, mode,
                                            pooled, diagrams=True)
                k = table.layout.k_grid
                if k_grid is None:
                    assert k == min(K_GRID_CAP, max(map(graph_diameter, graphs)))
                cap = K_GRID_CAP if k_grid is None else k_grid
                for graph, record, record_id, vector, rows in zip(
                        graphs, records, table.record_ids, table.block, table.diagrams):
                    assert (Fingerprint(record_id, table.layout, vector)
                            == row_by_row(graph, specs, cap, k, mode, record.record_id))
                    assert rows == row_diagrams(graph, specs, k, mode)[0]


class TestPairingCurves:
    """The curves ``fingerprint_from_cores`` counts from the pairing's arrays
    are the oracle ``betti_curves`` of the ``expand_cores`` rows, for a fixed
    k_grid and for an open one: reduced at K_GRID_CAP, then cut."""

    @staticmethod
    def check(cores, specs, k_grid):
        rows = expand_cores(cores, specs, k_grid)
        diagrams = [pds[dim] for spec in specs for dim in (0, 1)
                    for kind, _, *pds in rows if kind == spec.kind]
        got = fingerprint_from_cores(cores, specs, k_grid, "m").vector
        assert np.array_equal(got, betti_curves(diagrams, k_grid).ravel()), k_grid

    @pytest.mark.parametrize("mode", DISTANCE_MODES)
    def test_datagen_molecules(self, mode):
        graphs = [graph_from_record(DatasetRecord(d["record_id"], 0.0, graph=d["graph"]))
                  for d in generate_dataset(30, seed=5)]
        cut = 0
        for graph in graphs:
            for k_grid in (1, 3, 14):
                self.check(row_cores(graph, ALL_SPECS, k_grid, mode), ALL_SPECS, k_grid)
            cores = row_cores(graph, ALL_SPECS, K_GRID_CAP, mode)
            for k_grid in (1, 2, 3, 6, 14, K_GRID_CAP):
                self.check(cores, ALL_SPECS, k_grid)
            p = cores.pairing
            cut += int(np.count_nonzero((p.birth <= 3) & (p.death > 3)
                                        & (p.death <= K_GRID_CAP)))
        assert cut > 0  # classes alive at a cut that die before the cap

    def test_bundled_graphs(self):
        for i, graph in enumerate(bundled_molecules()):
            mode = DISTANCE_MODES[i % 2]
            self.check(row_cores(graph, ALL_SPECS, (1, 3)[i % 2], mode), ALL_SPECS,
                       (1, 3)[i % 2])
            cores = row_cores(graph, ALL_SPECS, K_GRID_CAP, mode)
            for k_grid in (1, 2, 6):
                self.check(cores, ALL_SPECS, k_grid)


class TestRowCoresStacks:
    """Every stack ``row_cores`` reduces has the structure ``check_stack``
    asks for: the library itself never checks it."""

    def test_bundled_graphs_and_datagen_molecules(self, monkeypatch):
        rows = []

        def checked(stack):
            check_stack(stack)
            rows.append(len(stack.inside))
            return reduce_rows(stack)

        monkeypatch.setattr(vectorize, "reduce_rows", checked)
        datagen = [graph_from_record(DatasetRecord(d["record_id"], 0.0, graph=d["graph"]))
                   for d in generate_dataset(30, seed=5)]
        graphs = [*bundled_molecules(), *datagen]
        for graph in graphs:
            for mode in DISTANCE_MODES:
                for k_grid in (1, 3, 14):
                    row_cores(graph, ALL_SPECS, k_grid, mode)
        assert len(rows) == len(graphs) * 2 * 3 and max(rows) > 1


class TestDatasetFingerprinting:
    def make_records(self, n=12):
        smiles = ["C", "CC", "CCO", "c1ccccc1", "N[C@@H](C)C(=O)O", "CC(C)=O",
                  "C1CC1", "OCC(O)CO", "CC#N", "ClCCl", "C1CCCCC1", "NCCN"]
        records = []
        for i in range(n):
            g = charged(smiles[i % len(smiles)])
            from moltop.molgraph import graph_to_json_dict
            records.append(DatasetRecord(f"r{i:03d}", 1.0, graph=graph_to_json_dict(g)))
        return records

    def test_one_fingerprint_per_record(self):
        records = self.make_records()
        table = fingerprint_dataset(records, FILTRATION_KINDS, 8)
        assert len(table.record_ids) == len(records)
        assert table.errors == ()
        assert table.ids() == [r.record_id for r in records]

    def test_failures_isolated_and_reported(self):
        records = self.make_records(6)
        records[2] = DatasetRecord("bad", 1.0, parse_smiles("C"))  # no charges
        table = fingerprint_dataset(records, FILTRATION_KINDS, 8)
        assert len(table.record_ids) == 5
        assert len(table.errors) == 1
        assert table.errors[0]["record_id"] == "bad"

    def test_internal_invariant_error_is_not_isolated(self, monkeypatch):
        # a reducer bug must fail the run, not pass as a per-record error
        from moltop import vectorize

        def broken(stack):
            raise InternalInvariantError("reducer bookkeeping broken")

        monkeypatch.setattr(vectorize, "reduce_rows", broken)
        with pytest.raises(InternalInvariantError):
            fingerprint_dataset(self.make_records(3), FILTRATION_KINDS, 8)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit the patched function")
    def test_dead_worker_names_the_records_not_returned(self, monkeypatch):
        from moltop import vectorize
        real = vectorize.graph_from_record

        def dies_on_r003(record):
            if record.record_id == "r003":
                os._exit(1)
            return real(record)

        monkeypatch.setattr(vectorize, "graph_from_record", dies_on_r003)
        with pytest.raises(MoltopError, match="had not returned: .*r003") as info:
            fingerprint_dataset(self.make_records(6), FILTRATION_KINDS, 8, threads=2)
        assert type(info.value) is MoltopError  # the CLI's exit 4, not a data error
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("threads,n,cpus,workers", [
        (64, 6, 2, 2), (64, 3, 8, 3), (2, 6, 8, 2), (1, 6, 8, None), (4, 1, 8, None),
        (4, 6, 1, None)])
    def test_worker_count_is_capped(self, monkeypatch, threads, n, cpus, workers):
        # A stand-in pool records the size it is asked for and starts no process.
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        records = self.make_records(n)
        table = fingerprint_dataset(records, FILTRATION_KINDS, 8, threads=threads)
        assert asked == ([] if workers is None else [workers])
        assert table == fingerprint_dataset(records, FILTRATION_KINDS, 8)

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        # Two CPUs on the machine, but this process may run on one of them.
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        records = self.make_records(4)
        table = fingerprint_dataset(records, FILTRATION_KINDS, 8, threads=2)
        assert table == fingerprint_dataset(records, FILTRATION_KINDS, 8)

    def test_graph_path_record_matches_inline_graph(self, tmp_path):
        # A dataset record naming a molecule JSON file fingerprints like the
        # same molecule given inline, or as a graph document not yet loaded.
        inline = self.make_records(5)
        lines = []
        for record in inline:
            (tmp_path / f"{record.record_id}.json").write_text(json.dumps(record.graph))
            lines += [{"record_id": record.record_id, "target": 1.0, "graph": record.graph},
                      {"record_id": f"file-{record.record_id}", "target": 1.0,
                       "graph_path": f"{record.record_id}.json"}]
        (tmp_path / "data.jsonl").write_text("".join(json.dumps(d) + "\n" for d in lines))
        loaded, errors = load_dataset(tmp_path / "data.jsonl")
        assert errors == [] and all(isinstance(r.graph, MolecularGraph) for r in loaded)
        table = fingerprint_dataset(loaded, FILTRATION_KINDS, 8)
        assert table.errors == ()
        assert np.array_equal(table.matrix()[0::2], table.matrix()[1::2])
        assert np.array_equal(fingerprint_dataset(inline, FILTRATION_KINDS, 8).matrix(),
                              table.matrix()[0::2])

    def test_all_failed_raises(self):
        records = [DatasetRecord("a", 1.0, parse_smiles("C"))]
        with pytest.raises(DataError):
            fingerprint_dataset(records, FILTRATION_KINDS, 8)

    def test_empty_input_raises(self):
        with pytest.raises(DataError):
            fingerprint_dataset([], FILTRATION_KINDS, 8)

    def test_thread_count_does_not_change_output(self):
        records = self.make_records()
        serial = fingerprint_dataset(records, FILTRATION_KINDS, 8, threads=1)
        parallel = fingerprint_dataset(records, FILTRATION_KINDS, 8, threads=3)
        assert serial.ids() == parallel.ids()
        assert np.array_equal(serial.matrix(), parallel.matrix())
        assert gc.get_freeze_count() == 0  # the fan-out unfreezes what it froze

    def test_slice_table_matches_direct_assembly(self):
        records = self.make_records(6)
        table = fingerprint_dataset(records, FILTRATION_KINDS, 8)
        sub = slice_table(table, ("BOND_TYPE",))
        direct = fingerprint_dataset(records, ("BOND_TYPE",), 8)
        assert np.array_equal(sub.matrix(), direct.matrix())
        with pytest.raises(LayoutMismatchError):
            slice_table(sub, ("ATOMIC_MASS",))


class TestOnDiskFormats:
    def test_csv_roundtrip_bit_exact(self, tmp_path):
        table = fingerprint_dataset(TestDatasetFingerprinting().make_records(5),
                                    FILTRATION_KINDS, 8)
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(table, path)
        back = read_fingerprints_csv(path)
        assert back.layout == table.layout
        assert back.ids() == table.ids()
        assert np.array_equal(back.matrix(), table.matrix())

    def test_two_reads_build_the_column_names_once(self, tmp_path):
        table = fingerprint_dataset(TestDatasetFingerprinting().make_records(3),
                                    FILTRATION_KINDS, 8)
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(table, path)
        names = path.read_text(encoding="utf-8").splitlines()[1].split(",")[1:]
        FingerprintLayout.column_names.cache_clear()
        assert read_fingerprints_csv(path) == read_fingerprints_csv(path) == table
        assert FingerprintLayout.column_names.cache_info().misses == 1
        assert table.layout.column_names() == tuple(names)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("record_id,a,b\nfoo,1,2\n")
        with pytest.raises(DataError):
            read_fingerprints_csv(path)

    def test_csv_repeated_id_names_id_and_file_line(self, tmp_path):
        table = fingerprint_dataset(TestDatasetFingerprinting().make_records(3),
                                    FILTRATION_KINDS, 8)
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(table, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[3:4]) + "\n")  # r001 again, on line 6
        with pytest.raises(DataError) as err:
            read_fingerprints_csv(path)
        assert f"{path} line 6: repeated record id 'r001' (first on line 4)" in str(err.value)

    @pytest.mark.parametrize("entry", ["-5", "+5", "1_0", " 7 ", "7 ", "", "1.0", "x",
                                       "٣", "５", "²", "0x1"],
                             ids=["negative", "plus", "underscore", "spaces", "trailing-space",
                                  "empty", "decimal", "letter", "arabic-indic-digit",
                                  "fullwidth-digit", "superscript", "hex"])
    def test_entry_must_be_plain_ascii_digits(self, tmp_path, entry):
        # The writer writes counts in plain digits; int() would read all of these.
        table = fingerprint_dataset(TestDatasetFingerprinting().make_records(3),
                                    FILTRATION_KINDS, 8)
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record_id, first, rest = lines[3].split(",", 2)
        lines[3] = ",".join((record_id, first, entry, rest.split(",", 1)[1]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_fingerprints_csv(path)
        assert str(err.value) == (f"{path} line 4: entry {entry!r} is not an unsigned "
                                  "integer in ASCII digits")
        lines[3] = ",".join((record_id, first, "0" * 30 + "7", rest.split(",", 1)[1]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_fingerprints_csv(path).block[1, 1] == 7  # zeros lead

    @pytest.mark.parametrize("line", [2, 5])
    def test_field_past_the_csv_limit_names_file_and_line(self, tmp_path, line):
        table = fingerprint_dataset(TestDatasetFingerprinting().make_records(3),
                                    FILTRATION_KINDS, 8)
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(table, path)
        lines = path.read_text().splitlines()
        lines[line - 1] = "x" * 140_000 + lines[line - 1]  # the header or a row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            read_fingerprints_csv(path)
        assert f"{path} line {line}: cannot read fingerprint CSV" in str(err.value)

    def test_header_k_grid_is_checked_against_the_row_width_first(self, tmp_path):
        # building the column names of k_grid=10**12 would exhaust memory
        table = fingerprint_dataset(TestDatasetFingerprinting().make_records(2),
                                    FILTRATION_KINDS, 8)
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(table, path)
        text = path.read_text()
        assert " k_grid=8" in text.splitlines()[0]
        path.write_text(text.replace(" k_grid=8", f" k_grid={10 ** 12}", 1))
        with pytest.raises(DataError, match="column names do not match the declared layout"):
            read_fingerprints_csv(path)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            FingerprintLayout("1", ("CHIRALITY", "ATOMIC_MASS"), 5)  # wrong order
        with pytest.raises(ValueError):
            FingerprintLayout("1", (), 5)


def read_as_row_by_row(path):
    """The one-pass reader's table has the row-by-row reader's ids, layout and
    block, or its DataError has the row-by-row one's message; returns that
    message, or None."""
    try:
        ids, layout, block = read_fingerprints_csv_rows(path)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            read_fingerprints_csv(path)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return str(exc)
    table = read_fingerprints_csv(path)
    assert (table.ids(), table.layout) == (ids, layout)
    assert table.block.dtype == np.int64 and np.array_equal(table.block, block)
    return None


def _entry(value):
    """The edit putting ``value`` as the second entry of the first row."""
    def edit(lines):
        record_id, first, rest = lines[2].split(",", 2)
        lines[2] = ",".join((record_id, first, value, rest.split(",", 1)[1]))
    return edit


def _row(index, edit):
    def apply(lines):
        lines[index] = edit(lines[index])
    return apply


_INT64_MAX = str(np.iinfo(np.int64).max)
_PAST_LIMIT = "x" * 140_000
# name -> (edit of the file's lines, whether the reader accepts the result)
_CSV_EDITS = {
    **{f"entry-{i}": (_entry(v), False) for i, v in enumerate(
        ["-5", "+5", "1_0", " 7 ", "7 ", "", "1.0", "x", "٣", "５", "²", "0x1"])},
    "int64-max": (_entry(_INT64_MAX), True),
    "int64-max-plus-one": (_entry(str(int(_INT64_MAX) + 1)), False),
    "int64-max-plus-one-zeros-lead": (_entry("0" * 30 + str(int(_INT64_MAX) + 1)), False),
    "zeros-lead": (_entry("0" * 30 + "7"), True),
    "quoted-entry": (_entry('"5"'), True),
    "short-row": (_row(3, lambda row: row.rsplit(",", 1)[0]), False),
    "long-row": (_row(3, lambda row: row + ",0"), False),
    "blank-line": (lambda lines: lines.insert(3, ""), False),
    "repeated-id": (lambda lines: lines.append(lines[2]), False),
    "quote-in-unquoted-id": (_row(4, lambda row: 'a"b' + row), True),
    "header-past-csv-limit": (_row(1, lambda row: _PAST_LIMIT + row), False),
    "row-past-csv-limit": (_row(4, lambda row: _PAST_LIMIT + row), False),
    "no-rows": (lambda lines: lines.__delitem__(slice(2, None)), False),
    "no-header": (lambda lines: lines.__delitem__(slice(1, None)), False),
}


class TestCsvReaderMatchesRowByRow:
    """``read_fingerprints_csv`` converts a row's text in one numpy call and
    falls back to the csv module for quotes and long lines; it reads every
    file as the row-by-row reader does, message for message."""

    @pytest.fixture(scope="class")
    def table(self, small_records):
        records = [DatasetRecord(r["record_id"], r["target"], r["graph"])
                   for r in small_records[:8]]
        return fingerprint_dataset(records, FILTRATION_KINDS, 4)

    @pytest.fixture
    def written(self, table, tmp_path):
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(table, path)
        return path

    def test_datagen_round_trip(self, table, written):
        assert read_as_row_by_row(written) is None
        assert read_fingerprints_csv(written) == replace(table, errors=())

    @pytest.mark.parametrize("name", list(_CSV_EDITS))
    def test_edited_file(self, written, name):
        edit, accepted = _CSV_EDITS[name]
        lines = written.read_text(encoding="utf-8").splitlines()
        edit(lines)
        written.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert (read_as_row_by_row(written) is None) == accepted

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_line_ends_and_byte_order_mark(self, written, end, bom):
        lines = written.read_text(encoding="utf-8").splitlines()
        for last in (end, ""):
            written.write_text(bom + end.join(lines) + last, encoding="utf-8", newline="")
            assert read_as_row_by_row(written) is None

    @pytest.mark.parametrize("record_id", ["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "\r"])
    def test_quoted_ids(self, table, written, record_id):
        ids = (record_id,) + table.record_ids[1:]
        write_fingerprints_csv(replace(table, record_ids=ids), written)
        assert read_as_row_by_row(written) is None
        assert read_fingerprints_csv(written).ids() == list(ids)
        # the lines after a quoted id keep their numbers
        with open(written, "a", encoding="utf-8", newline="") as fh:
            fh.write(written.read_text(encoding="utf-8").splitlines(keepends=True)[-1])
        assert "repeated record id" in read_as_row_by_row(written)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab,\"\r\n\x85\u2028", max_size=30))
    def test_lines_as_stringio_reads_them(self, text):
        assert list(vectorize._lines(text)) == list(io.StringIO(text, newline=""))

    def test_empty_file(self, written):
        written.write_bytes(b"")
        assert read_as_row_by_row(written) == f"{written}: not a fingerprint CSV"

    def test_entry_past_int64_of_any_length(self, written):
        # int() refuses strings of more than 4300 digits; such an entry is
        # outside int64 like any other
        lines = written.read_text(encoding="utf-8").splitlines()
        _entry("9" * 5000)(lines)
        written.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_fingerprints_csv(written)
        assert str(err.value) == f"{written} line 3: entry outside int64"

    def test_transient_memory_no_larger_than_row_by_row(self, tmp_path):
        # Freed blocks of more than about 1.5 MB move glibc's mmap threshold,
        # and with it the cost of later numpy allocations.  perfbench's train
        # workload reads a 128-row CSV at k_grid 14.
        layout = FingerprintLayout(vectorize.LAYOUT_VERSION, FILTRATION_KINDS, 14)
        rng = np.random.default_rng(3)
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(FingerprintTable(
            layout, tuple(f"m{i:04d}" for i in range(128)),
            rng.integers(0, 30, (128, layout.length)), ()), path)

        def transient(read):
            read(path)  # first-call allocations, such as lazy imports
            tracemalloc.start()
            try:
                kept = read(path)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del kept
            return peak - current

        assert transient(read_fingerprints_csv) <= transient(read_fingerprints_csv_rows)


class TestDiagramDump:
    def test_row_and_dim_coverage(self):
        g = charged("C1CC1O")
        docs = diagram_records(row_diagrams(g, ALL_SPECS, 8)[0], "tri")
        rows = sum(LEVEL_COUNTS[k] for k in FILTRATION_KINDS)
        assert len(docs) == rows * 2
        assert {d["molecule"] for d in docs} == {"tri"}
        assert {d["param"] for d in docs} == set(FILTRATION_KINDS)
        assert {d["dim"] for d in docs} == {0, 1}
        for doc in docs:
            assert all(b < d for b, d in doc["pairs"])
