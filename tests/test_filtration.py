import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moltop import molgraph
from moltop.datagen import random_molecule
from moltop.errors import ChargesRequiredError, DataError, UnsupportedElementError
from moltop.filtration import (
    FILTRATION_KINDS,
    LEVEL_COUNTS,
    MASS_LADDER,
    FiltrationSpec,
    build_sequence,
    chirality_value,
    decile_boundaries,
    layout_rows,
    make_spec,
)
from moltop.molgraph import (
    BOND_ORDERS,
    CHI_CCW,
    CHI_CW,
    CHI_NONE,
    Atom,
    Bond,
    DatasetRecord,
    MolecularGraph,
    parse_smiles,
)
from moltop.vectorize import graph_from_record, row_cores
from dataclasses import replace

from oracles import (assign_reference_charges_by_replace, load_graph6_file, mirror,
                     nearest_rank_deciles, relabel, sorted_levels, sublevel_sets)


def sequence(graph, kind, charge_thresholds=None):
    return build_sequence(graph, make_spec(kind, charge_thresholds))


LAMIVUDINE = "NC1=NC(=O)N(C=C1)[C@@H]1CS[C@H](CO)O1"


class TestChiralityValue:
    def test_untagged_low_degree_nitrogen(self):
        atom = Atom("N")
        assert chirality_value(atom, degree=3) == 0

    def test_cw_is_one(self):
        atom = Atom("C", chirality="CW")
        assert chirality_value(atom, degree=4) == 1

    def test_ccw_is_two(self):
        atom = Atom("C", chirality="CCW")
        assert chirality_value(atom, degree=4) == 2

    def test_tag_with_wrong_degree_is_zero(self):
        atom = Atom("C", chirality="CW")
        assert chirality_value(atom, degree=3) == 0


class TestAtomicMass:
    def test_lamivudine_ten_nested_levels(self):
        g = parse_smiles(LAMIVUDINE)
        seq = sequence(g, "ATOMIC_MASS")
        assert len(seq.subsets) == 10
        hydrogens = {i for i, a in enumerate(g.atoms) if a.element == "H"}
        assert seq.subsets[0] == hydrogens
        for lo, hi in zip(seq.subsets, seq.subsets[1:]):
            assert lo <= hi
        assert seq.subsets[-1] == set(range(g.n_atoms))

    def test_hydrocarbon_saturates_at_level_two(self):
        g = parse_smiles("CCCC")
        seq = sequence(g, "ATOMIC_MASS")
        hydrogens = {i for i, a in enumerate(g.atoms) if a.element == "H"}
        everything = set(range(g.n_atoms))
        assert seq.subsets[0] == hydrogens
        for level in seq.subsets[1:]:
            assert level == everything

    def test_single_hydrogen_atom(self):
        g = MolecularGraph("h", (Atom("H"),), ())
        seq = sequence(g, "ATOMIC_MASS")
        assert all(level == {0} for level in seq.subsets)

    def test_boron_rejected(self):
        g = MolecularGraph("b", (Atom("B"),), ())
        with pytest.raises(UnsupportedElementError):
            sequence(g, "ATOMIC_MASS")


class TestPartialCharge:
    def test_equal_charges_degenerate(self):
        g = parse_smiles("CCCC")
        g = replace(g, atoms=tuple(replace(a, partial_charge=0.25) for a in g.atoms))
        seq = sequence(g, "PARTIAL_CHARGE")
        everything = set(range(g.n_atoms))
        assert all(level == everything for level in seq.subsets)

    def test_twenty_distinct_charges_nearest_rank(self):
        atoms = tuple(Atom("C", partial_charge=float(i)) for i in range(20))
        g = MolecularGraph("toy", atoms, ())
        seq = sequence(g, "PARTIAL_CHARGE")
        assert [len(level) for level in seq.subsets] == [2 * i for i in range(1, 11)]

    def test_missing_charge_names_atom(self):
        g = parse_smiles("CC")
        atoms = list(replace(a, partial_charge=0.1) for a in g.atoms)
        atoms[3] = replace(atoms[3], partial_charge=None)
        g = replace(g, atoms=tuple(atoms))
        with pytest.raises(ChargesRequiredError) as err:
            sequence(g, "PARTIAL_CHARGE")
        assert "atom 3" in str(err.value)

    def test_global_boundaries_override(self):
        g = assign_reference_charges_by_replace(parse_smiles("CCO"))
        bounds = decile_boundaries([-1.0, -0.5, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.9, 1.0])
        seq = sequence(g, "PARTIAL_CHARGE", bounds)
        assert seq.spec.thresholds == bounds
        for lo, hi in zip(seq.subsets, seq.subsets[1:]):
            assert lo <= hi

    def test_nearest_rank_boundaries(self):
        assert decile_boundaries([5.0]) == (5.0,) * 10
        assert decile_boundaries([1.0, 2.0]) == (1.0,) * 5 + (2.0,) * 5

    def test_empty_graph_is_a_data_error(self):
        with pytest.raises(DataError):
            decile_boundaries([])
        with pytest.raises(DataError):
            sequence(MolecularGraph("e", (), ()), "PARTIAL_CHARGE")


def bond_category(atom_id, g):
    """Index of the first bond-type sublevel holding the atom (its value)."""
    levels = sequence(g, "BOND_TYPE").subsets
    return next(i for i, level in enumerate(levels) if atom_id in level)


class TestBondType:
    def test_benzene_carbon_is_ring(self):
        g = parse_smiles("c1ccccc1")
        assert bond_category(0, g) == 0

    def test_terminal_alkyne_carbon(self):
        g = parse_smiles("CC#C")
        seq = sequence(g, "BOND_TYPE")
        assert bond_category(2, g) == 1
        assert 2 in seq.subsets[1]
        assert 2 not in seq.subsets[0]

    def test_methane_carbon_single_only(self):
        g = parse_smiles("C")
        assert bond_category(0, g) == 3

    def test_isolated_atom_lowest_category(self):
        g = MolecularGraph("ion", (Atom("Cl", formal_charge=-1),), ())
        assert bond_category(0, g) == 3

    def test_double_bond_category(self):
        g = parse_smiles("CC=O")
        assert bond_category(1, g) == bond_category(2, g) == 2
        assert bond_category(0, g) == 3

    def test_minimum_category_wins(self):
        # ring atom that also touches a double bond stays in category 0
        g = parse_smiles("O=C1CCC1")
        carbonyl = 1
        assert bond_category(carbonyl, g) == 0
        assert bond_category(0, g) == 2  # the carbonyl oxygen


class TestBuildSequence:
    def test_chirality_achiral_all_levels_full(self):
        g = parse_smiles("CCO")
        seq = build_sequence(g, make_spec("CHIRALITY"))
        everything = set(range(g.n_atoms))
        assert [level for level in seq.subsets] == [everything] * 3

    def test_chirality_single_cw_center(self):
        g = parse_smiles("N[C@@H](C)C(=O)O")
        assert g.atoms[1].chirality == CHI_CW
        seq = sequence(g, "CHIRALITY")
        everything = set(range(g.n_atoms))
        assert seq.subsets[0] == everything - {1}
        assert seq.subsets[1] == everything
        assert seq.subsets[2] == everything

    def test_chirality_tallies_valences_only_for_tagged_molecules(self, monkeypatch):
        # no molecule takes a full valence tally: an untagged one is all zeros,
        # and a tagged atom has only its own bonds counted, since a graph built
        # in code may carry a tag on an atom without four neighbours
        untagged = parse_smiles("CC(N)C(=O)O", "untagged")
        monkeypatch.setattr(molgraph, "_valence_tally",
                            lambda n_atoms, bonds: pytest.fail(f"valence tally of {n_atoms} atoms"))
        assert layout_rows(untagged, [make_spec("CHIRALITY")])[0].all()
        atoms = list(untagged.atoms)
        atoms[1] = replace(atoms[1], chirality=CHI_CW)   # four neighbours
        atoms[4] = replace(atoms[4], chirality=CHI_CCW)  # the carbonyl O: one
        rows, _ = layout_rows(replace(untagged, name="tagged", atoms=tuple(atoms)),
                              [make_spec("CHIRALITY")])
        assert rows[0].tolist() == [i != 1 for i in range(untagged.n_atoms)]
        assert rows[1].all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_nesting_property(self, seed):
        g = random_molecule(np.random.default_rng(seed), "m")
        for kind in FILTRATION_KINDS:
            seq = build_sequence(g, make_spec(kind))
            assert len(seq.subsets) == seq.spec.levels
            for lo, hi in zip(seq.subsets, seq.subsets[1:]):
                assert lo <= hi
            assert seq.subsets[-1] == set(range(g.n_atoms))

    def test_relabel_equivariance(self, random_graphs):
        rng = np.random.default_rng(3)
        for g in random_graphs[:8]:
            perm = list(rng.permutation(g.n_atoms).astype(int))
            h = relabel(g, perm)
            for kind in FILTRATION_KINDS:
                seq_g = build_sequence(g, make_spec(kind))
                seq_h = build_sequence(h, make_spec(kind))
                for level_g, level_h in zip(seq_g.subsets, seq_h.subsets):
                    assert {perm[v] for v in level_g} == level_h

    def test_mirror_sensitivity(self, random_graphs):
        for g in random_graphs[:12]:
            m = mirror(g)
            has_center = any(a.chirality != "NONE" for a in g.atoms)
            for kind in FILTRATION_KINDS:
                seq_g = build_sequence(g, make_spec(kind))
                seq_m = build_sequence(m, make_spec(kind))
                if kind == "CHIRALITY" and has_center:
                    assert seq_g.subsets != seq_m.subsets
                else:
                    assert seq_g.subsets == seq_m.subsets

    def test_determinism(self, random_graphs):
        g = random_graphs[0]
        for kind in FILTRATION_KINDS:
            assert build_sequence(g, make_spec(kind)) == build_sequence(g, make_spec(kind))


class TestAgainstScanOracle:
    """The sorted-prefix levels equal one scan of every atom per level."""

    @pytest.fixture(scope="class")
    def graphs(self, small_records):
        return [graph_from_record(DatasetRecord(d["record_id"], 0.0, graph=d["graph"]))
                for d in small_records]

    def test_canonical_specs(self, graphs):
        for g in graphs:
            for kind in FILTRATION_KINDS:
                seq = sequence(g, kind)
                want = make_spec(kind).thresholds
                if want is None:
                    want = nearest_rank_deciles(a.partial_charge for a in g.atoms)
                assert seq.spec.thresholds == want
                assert seq.subsets == sublevel_sets(g, kind, want), (g.name, kind)

    def test_global_charge_thresholds(self, graphs):
        pooled = nearest_rank_deciles(a.partial_charge for g in graphs for a in g.atoms)
        for g in graphs:
            assert sequence(g, "PARTIAL_CHARGE", pooled).subsets == \
                sublevel_sets(g, "PARTIAL_CHARGE", pooled), g.name

    def test_custom_thresholds_are_honoured(self, graphs):
        rng = np.random.default_rng(17)
        grids = {"ATOMIC_MASS": np.arange(0.0, 130.0, 0.5),
                 "PARTIAL_CHARGE": np.arange(-0.4, 0.4, 0.01),
                 "BOND_TYPE": np.arange(-1.0, 4.0, 0.5),
                 "CHIRALITY": np.arange(-1.0, 3.0, 0.5)}
        for g in graphs:
            for kind, grid in grids.items():
                picks = np.sort(rng.choice(grid, LEVEL_COUNTS[kind], replace=False))
                thresholds = tuple(float(x) for x in picks)
                seq = build_sequence(g, FiltrationSpec(kind, thresholds))
                assert seq.subsets == sublevel_sets(g, kind, thresholds), (g.name, kind)

    def test_custom_mass_thresholds(self):
        g = parse_smiles("CCO")
        hydrogens = frozenset(i for i, a in enumerate(g.atoms) if a.element == "H")
        seq = build_sequence(g, FiltrationSpec("ATOMIC_MASS", tuple(10.0 * i for i in range(10))))
        assert seq.subsets == (frozenset(), hydrogens) + (frozenset(range(g.n_atoms)),) * 8


def as_sets(rows):
    """The levels of a boolean row matrix as frozensets of atom ids."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in rows)


# A small pool of charges makes ties, and few atoms make deciles repeat.
CHARGES = st.lists(st.sampled_from([-0.5, -0.25, 0.0, 0.125, 0.5])
                   | st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=12)


class TestSublevelRows:
    """One spec's boolean rows from ``layout_rows`` are the frozenset levels,
    and one sort and a bisection per level give them too."""

    @settings(max_examples=300, deadline=None)
    @given(values=CHARGES, data=st.data())
    def test_partial_charge_rows(self, values, data):
        graph = MolecularGraph("m", tuple(Atom("C", partial_charge=v) for v in values), ())
        seen = sorted(set(values))
        # global thresholds below, at, between and above the values
        candidates = ([seen[0] - 1.0, seen[-1] + 1.0] + seen
                      + [(a + b) / 2 for a, b in zip(seen, seen[1:])])
        pooled = data.draw(st.none() | st.lists(st.sampled_from(candidates),
                                                min_size=10, max_size=10).map(sorted))
        spec = make_spec("PARTIAL_CHARGE", pooled)
        thresholds = nearest_rank_deciles(values) if pooled is None else tuple(pooled)
        rows, _ = layout_rows(graph, [spec])
        assert rows.shape == (10, len(values)) and rows.dtype == bool
        assert as_sets(rows) == build_sequence(graph, spec).subsets
        assert as_sets(rows) == sorted_levels(values, thresholds)

    def test_every_kind_on_datagen_molecules(self, small_records):
        for doc in small_records[:40]:
            graph = graph_from_record(DatasetRecord(doc["record_id"], 0.0, graph=doc["graph"]))
            for kind in FILTRATION_KINDS:
                seq = build_sequence(graph, make_spec(kind))
                rows, _ = layout_rows(graph, [make_spec(kind)])
                assert rows.shape == (LEVEL_COUNTS[kind], graph.n_atoms)
                assert as_sets(rows) == seq.subsets, (graph.name, kind)


class TestLayoutRows:
    """Every spec's levels from one comparison equal, spec by spec and end to
    end, the scan oracle's levels and each spec's own ``build_sequence``."""

    @staticmethod
    def check(graph, specs):
        rows, thresholds = layout_rows(graph, specs)
        want = [nearest_rank_deciles(a.partial_charge for a in graph.atoms)
                if s.thresholds is None else s.thresholds for s in specs]
        assert thresholds == want
        assert rows.shape == (sum(s.levels for s in specs), graph.n_atoms)
        assert rows.dtype == bool
        assert as_sets(rows) == tuple(level for s, t in zip(specs, want)
                                      for level in sublevel_sets(graph, s.kind, t))
        assert as_sets(rows) == tuple(level for s in specs
                                      for level in build_sequence(graph, s).subsets)
        return rows

    def test_bundled_graphs(self):
        # random elements, charges from a small pool (ties), bond orders and tags
        graphs = load_graph6_file(str(Path(__file__).parent / "data" / "connected_graphs_le7.g6"))
        assert len(graphs) == 996
        rng = np.random.default_rng(61)
        pooled = (-0.6, -0.5, -0.25, -0.25, 0.0, 0.0, 0.1, 0.125, 0.5, 0.7)
        no_rings = 0
        for i, adj in enumerate(graphs):
            atoms = tuple(Atom(str(rng.choice(MASS_LADDER)),
                               partial_charge=float(rng.choice([-0.5, -0.25, 0.0, 0.125, 0.5])),
                               chirality=str(rng.choice([CHI_NONE, CHI_CW, CHI_CCW])))
                          for _ in adj)
            bonds = tuple(Bond(int(u), int(v), str(rng.choice(BOND_ORDERS)))
                          for u, v in zip(*np.nonzero(np.triu(adj))))
            graph = MolecularGraph(f"g{i}", atoms, bonds)
            for charges in (None, pooled):
                rows = self.check(graph, [make_spec(k, charges) for k in FILTRATION_KINDS])
            no_rings += not rows[20].any()  # bond type's level 0: the ring atoms
            kinds = [k for k in FILTRATION_KINDS if rng.random() < 0.5] or ["CHIRALITY"]
            self.check(graph, [make_spec(k) for k in kinds])
        assert no_rings > 0

    def test_datagen_molecules(self, small_records):
        graphs = [graph_from_record(DatasetRecord(doc["record_id"], 0.0, graph=doc["graph"]))
                  for doc in small_records]
        pooled = nearest_rank_deciles(a.partial_charge for g in graphs for a in g.atoms)
        for graph in graphs:
            for charges in (None, pooled):
                self.check(graph, [make_spec(k, charges) for k in FILTRATION_KINDS])
            self.check(graph, [make_spec("PARTIAL_CHARGE"), make_spec("BOND_TYPE")])

    def test_the_first_spec_that_cannot_read_raises(self):
        # atom 0 has no partial charge and atom 1 is off the mass ladder
        graph = MolecularGraph("m", (Atom("C"), Atom("B", partial_charge=0.0)),
                               (Bond(0, 1, "SINGLE"),))
        for kinds, error in (
                (FILTRATION_KINDS, UnsupportedElementError),
                (("PARTIAL_CHARGE", "ATOMIC_MASS"), ChargesRequiredError),
                (("BOND_TYPE", "CHIRALITY", "PARTIAL_CHARGE"), ChargesRequiredError)):
            for charges in (None, (0.0,) * 10):
                with pytest.raises(DataError) as err:
                    layout_rows(graph, [make_spec(k, charges) for k in kinds])
                assert type(err.value) is error, kinds
        with pytest.raises(UnsupportedElementError):
            row_cores(graph, [make_spec(k) for k in FILTRATION_KINDS], 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        FiltrationSpec("ATOMIC_MASS", tuple(range(9)))
    with pytest.raises(ValueError):
        FiltrationSpec("BOND_TYPE", (3, 2, 1, 0))
    # a NaN threshold would make levels that are not nested
    for kind, thresholds in (("ATOMIC_MASS", (math.nan,) + tuple(range(10, 100, 10))),
                             ("PARTIAL_CHARGE", (0.0,) * 9 + (math.nan,))):
        with pytest.raises(ValueError):
            FiltrationSpec(kind, thresholds)
    with pytest.raises(ValueError):
        make_spec("NODE_DEGREE")


def test_only_partial_charge_takes_no_thresholds():
    for kind in ("ATOMIC_MASS", "BOND_TYPE", "CHIRALITY"):
        with pytest.raises(ValueError):
            FiltrationSpec(kind, None)
    assert FiltrationSpec("PARTIAL_CHARGE", None).levels == 10
