import numpy as np
import pytest

from moltop.datagen import assign_reference_charges
from moltop.errors import DataError, InternalInvariantError, LayoutMismatchError
from moltop.filtration import FILTRATION_KINDS, LEVEL_COUNTS, make_spec
from moltop.homology import PersistenceDiagram
from moltop.molgraph import DatasetRecord, mirror, parse_smiles, relabel
from moltop.vectorize import (
    FingerprintLayout,
    assemble,
    betti_curve,
    diagram_records,
    fingerprint_dataset,
    prepare_graph,
    read_fingerprints_csv,
    read_fingerprints_jsonl,
    slice_table,
    write_fingerprints_csv,
    write_fingerprints_jsonl,
)

ALL_SPECS = [make_spec(k) for k in FILTRATION_KINDS]


def charged(smiles):
    return assign_reference_charges(prepare_graph(parse_smiles(smiles)))


class TestBettiCurve:
    def test_empty(self):
        pd = PersistenceDiagram(0, (), (), 3)
        assert betti_curve(pd, 3).tolist() == [0, 0, 0, 0]

    def test_p3_dim0(self):
        pd = PersistenceDiagram(0, ((0, 1), (0, 1)), (0,), 2)
        assert betti_curve(pd, 2).tolist() == [3, 1, 1]

    def test_six_cycle_dim1(self):
        # oracle-derived diagram for the 6-cycle: the class lives on [1, 2)
        pd = PersistenceDiagram(1, ((1, 2),), (), 3)
        assert betti_curve(pd, 3).tolist() == [0, 1, 0, 0]

    def test_essential_contributes_from_birth_onwards(self):
        pd = PersistenceDiagram(1, (), (2,), 4)
        assert betti_curve(pd, 4).tolist() == [0, 0, 1, 1, 1]


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

    def test_unexpanded_graph_rejected(self):
        g = parse_smiles("CC")
        with pytest.raises(DataError):
            assemble(g, [make_spec("ATOMIC_MASS")], 5)

    def test_missing_charges_propagate(self):
        g = prepare_graph(parse_smiles("CC"))
        with pytest.raises(DataError):
            assemble(g, ALL_SPECS, 5)

    def test_induced_subgraph_mode_differs_when_detour_exists(self):
        # In the full-graph metric, removing a cut vertex from the row keeps
        # its neighbors at distance 2; walking the induced subgraph cannot.
        g = charged("CC(C)C")
        fp_full = assemble(g, ALL_SPECS, 10, distance_mode="full_graph")
        fp_sub = assemble(g, ALL_SPECS, 10, distance_mode="induced_subgraph")
        assert not np.array_equal(fp_full.vector, fp_sub.vector)


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
        assert len(table.fingerprints) == len(records)
        assert table.errors == ()
        assert table.ids() == [r.record_id for r in records]

    def test_failures_isolated_and_reported(self):
        records = self.make_records(6)
        records[2] = DatasetRecord("bad", 1.0, smiles="C")  # no charges -> PC fails
        table = fingerprint_dataset(records, FILTRATION_KINDS, 8)
        assert len(table.fingerprints) == 5
        assert len(table.errors) == 1
        assert table.errors[0]["record_id"] == "bad"

    def test_internal_invariant_error_is_not_isolated(self, monkeypatch):
        # a reducer bug must fail the run, not pass as a per-record error
        from moltop import vectorize

        def broken(cx, validate=True):
            raise InternalInvariantError("reducer bookkeeping broken")

        monkeypatch.setattr(vectorize, "reduce_complex", broken)
        with pytest.raises(InternalInvariantError):
            fingerprint_dataset(self.make_records(3), FILTRATION_KINDS, 8)

    def test_all_failed_raises(self):
        records = [DatasetRecord("a", 1.0, smiles="C")]
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

    def test_jsonl_roundtrip_bit_exact(self, tmp_path):
        table = fingerprint_dataset(TestDatasetFingerprinting().make_records(4),
                                    FILTRATION_KINDS, 6)
        path = tmp_path / "fp.jsonl"
        write_fingerprints_jsonl(table, path)
        back = read_fingerprints_jsonl(path)
        assert back.layout == table.layout
        assert np.array_equal(back.matrix(), table.matrix())

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("record_id,a,b\nfoo,1,2\n")
        with pytest.raises(DataError):
            read_fingerprints_csv(path)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            FingerprintLayout("1", ("CHIRALITY", "ATOMIC_MASS"), 5)  # wrong order
        with pytest.raises(ValueError):
            FingerprintLayout("1", (), 5)


class TestDiagramDump:
    def test_row_and_dim_coverage(self):
        g = charged("C1CC1O")
        docs = diagram_records(g, ALL_SPECS, 8, molecule_id="tri")
        rows = sum(LEVEL_COUNTS[k] for k in FILTRATION_KINDS)
        assert len(docs) == rows * 2
        assert {d["molecule"] for d in docs} == {"tri"}
        assert {d["param"] for d in docs} == set(FILTRATION_KINDS)
        assert {d["dim"] for d in docs} == {0, 1}
        for doc in docs:
            assert all(b < d for b, d in doc["pairs"])
