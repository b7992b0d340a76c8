import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moltop.datagen import assign_reference_charges, random_molecule
from moltop.errors import ChargesRequiredError, DataError, UnsupportedElementError
from moltop.filtration import (
    FILTRATION_KINDS,
    LEVEL_COUNTS,
    FiltrationSpec,
    build_sequence,
    chirality_value,
    decile_boundaries,
    make_spec,
)
from moltop.molgraph import (
    CHI_CW,
    Atom,
    DatasetRecord,
    MolecularGraph,
    parse_smiles,
)
from moltop.vectorize import graph_from_record
from dataclasses import replace

from oracles import mirror, nearest_rank_deciles, relabel, sublevel_sets


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
        g = assign_reference_charges(parse_smiles("CCO"))
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
