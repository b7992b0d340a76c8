import copy
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moltop.datagen import random_molecule
from moltop.errors import DataError, SchemaError, SmilesParseError
from moltop.molgraph import (
    CHI_CCW,
    CHI_CW,
    CHI_NONE,
    Atom,
    Bond,
    DatasetRecord,
    MolecularGraph,
    add_hydrogens,
    graph_from_json_dict,
    graph_to_json_dict,
    load_graph_json,
    parse_smiles,
    permutation_parity,
    ring_atoms,
    ring_bonds,
)
from moltop.elements import VALENCES

from oracles import (
    assign_reference_charges_by_replace,
    components,
    cycle_edges,
    cycle_parity,
    graph_from_json_dict_reference,
    load_graph6_file,
    mirror,
    relabel,
    valence_slots,
)


def hydrogen_neighbors(graph) -> list[int]:
    """Per atom, how many of its neighbors are hydrogens."""
    counts = [0] * graph.n_atoms
    for bond in graph.bonds:
        for u, v in (bond.endpoints, bond.endpoints[::-1]):
            counts[u] += graph.atoms[v].element == "H"
    return counts


def heavy_bonds(graph) -> list[tuple[int, int]]:
    """Endpoints of the bonds between written atoms, which precede every
    hydrogen the parser adds."""
    first_h = next((i for i, a in enumerate(graph.atoms) if a.element == "H"), graph.n_atoms)
    return [b.endpoints for b in graph.bonds if b.b < first_h]


class TestParseSmiles:
    def test_single_atom(self):
        g = parse_smiles("O")
        assert [a.element for a in g.atoms] == ["O", "H", "H"]
        assert [b.endpoints for b in g.bonds] == [(0, 1), (0, 2)]

    def test_ring_closure_triangle(self):
        g = parse_smiles("C1CC1")
        assert [a.element for a in g.atoms] == ["C"] * 3 + ["H"] * 6
        assert heavy_bonds(g) == [(0, 1), (0, 2), (1, 2)]
        assert hydrogen_neighbors(g)[:3] == [2, 2, 2]
        assert all(b.order == "SINGLE" for b in g.bonds)

    def test_hydrogens_follow_the_written_atoms_in_parent_order(self):
        # a bracket count and the valence model both add hydrogens, after
        # every written atom, their parents' ids ascending
        g = parse_smiles("[NH2]C(=O)[CH3]")
        assert [a.element for a in g.atoms] == ["N", "C", "O", "C"] + ["H"] * 5
        assert [b.endpoints for b in g.bonds] == [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3),
                                                  (3, 6), (3, 7), (3, 8)]

    def test_alanine_parity_normalization(self):
        # Independent derivation: the neighbor order written in the SMILES is
        # (N=0, bracket H, C=2, C=3); normalized order sorts ids ascending,
        # and the hydrogen's id follows the written atoms', i.e. (0, 2, 3, H).
        # The permutation between them is [0, 2, 3, 1], whose inversion count
        # decides the flip.
        written_to_sorted = [0, 2, 3, 1]
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if written_to_sorted[i] > written_to_sorted[j])
        expect = CHI_CW if inversions % 2 == 0 else CHI_CCW  # "@@" means CW

        g = parse_smiles("N[C@@H](C)C(=O)O")
        assert [a.element for a in g.atoms] == ["N", "C", "C", "C", "O", "O"] + ["H"] * 7
        assert g.atoms[1].chirality == expect == CHI_CW
        assert all(a.chirality == CHI_NONE for i, a in enumerate(g.atoms) if i != 1)
        # N's two hydrogens come first, then the center's
        assert [b.endpoints for b in g.bonds if 1 in b.endpoints] == [(0, 1), (1, 2), (1, 3),
                                                                      (1, 8)]

    def test_leading_stereo_atom_equivalence(self):
        # Writing the stereocenter first moves the bracket hydrogen to the
        # front of the written neighbor list, flipping the written sense, so
        # these two strings denote the same molecule.  The isomorphism
        # between the parses maps sorted neighbor ids order-preservingly
        # (fluorine has the lowest id on both sides), so the normalized tags
        # must come out equal.
        a = parse_smiles("F[C@H](Cl)Br")
        b = parse_smiles("[C@@H](F)(Cl)Br")
        assert a.atoms[1].chirality == b.atoms[0].chirality == CHI_CCW

    def test_bracket_charges(self):
        g = parse_smiles("[NH4+].[Cl-]")
        assert [(a.element, a.formal_charge) for a in g.atoms] == \
            [("N", 1), ("Cl", -1)] + [("H", 0)] * 4
        assert hydrogen_neighbors(g)[:2] == [4, 0]

    def test_aromatic_ring(self):
        g = parse_smiles("c1ccccc1")
        assert g.n_atoms == 12
        assert all(b.order == "AROMATIC" for b in g.bonds if b.b < 6)
        assert hydrogen_neighbors(g)[:6] == [1] * 6

    def test_percent_ring_closure(self):
        g = parse_smiles("C%12CC%12")
        assert heavy_bonds(g) == [(0, 1), (0, 2), (1, 2)]
        with pytest.raises(SmilesParseError):
            parse_smiles("C%1CC1")  # % needs two digits

    def test_ring_closure_bond_orders(self):
        # the order may be written at either end (or both, if they agree)
        for text in ("C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"):
            g = parse_smiles(text)
            ring_bond = next(b for b in g.bonds if b.endpoints == (0, 5))
            assert ring_bond.order == "DOUBLE", text
        with pytest.raises(SmilesParseError):
            parse_smiles("C=1CCCCC#1")

    def test_stereocenter_with_ring_closure_neighbor(self):
        # the ring partner occupies the position where the digit is written:
        # written order (N, H, ring partner 5, O) -> sorted (0, 2, 5, H) is
        # an odd permutation away, so the stored tag is the flipped sense
        g = parse_smiles("N[C@@H]1OC(C)CC1")
        assert g.atoms[1].chirality == CHI_CCW
        ring_bond = next(b for b in g.bonds if b.endpoints == (1, 6))
        assert ring_bond.order == "SINGLE"

    def test_lamivudine_parses(self):
        g = parse_smiles("NC1=NC(=O)N(C=C1)[C@@H]1CS[C@H](CO)O1")
        counts = {}
        for a in g.atoms:
            counts[a.element] = counts.get(a.element, 0) + 1
        assert counts == {"C": 8, "H": 11, "N": 3, "O": 3, "S": 1}
        assert sum(a.chirality != CHI_NONE for a in g.atoms) == 2

    def test_parsed_molecules_respect_valence_table(self):
        # non-aromatic writings: the bond-order sum, bonds to the added
        # hydrogens included, must hit an allowed valence exactly
        for smiles in ("C", "CC(N)C(=O)O", "O=S(=O)(O)O", "C#N", "ClC(Cl)(Cl)Cl",
                       "CP(C)C", "NC1=NC(=O)N(C=C1)C", "C1CC1CC1CC1"):
            g = parse_smiles(smiles)
            for atom, slots in zip(g.atoms, valence_slots(g)):
                assert slots in VALENCES[atom.element], (smiles, atom)

    @pytest.mark.parametrize("text,catchword", [
        ("C(C", "parentheses"),
        ("C)C", "parentheses"),
        ("C1CC", "ring"),
        ("C=", "dangling"),
        ("[Si]C", "element"),  # silicon is outside the supported set
        ("C(F)(F)(F)(F)F", "valence"),
        ("[S@](=O)(C)C", "four distinct neighbors"),
        ("[13C]", "isotope"),
        ("", "empty"),
    ])
    def test_parse_errors_carry_offsets(self, text, catchword):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(text)
        assert catchword in str(err.value)
        assert "offset" in str(err.value)

    @pytest.mark.parametrize("text", ["[C@H2](F)Cl", "[C@@H2](F)Cl", "[C@H3]F", "F[C@@H3]"])
    def test_stereo_mark_with_two_hydrogens_rejected(self, text):
        # Two hydrogens are not distinct neighbors.  The two writings of
        # CH2FCl once parsed with opposite tags, and CH3F was tagged.
        with pytest.raises(SmilesParseError, match="four distinct neighbors") as err:
            parse_smiles(text)
        assert err.value.offset == text.index("[")

    def test_error_offset_points_at_problem(self):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles("CCCC(O")
        assert err.value.offset == 4

    @pytest.mark.parametrize("value", [["C"], 123, b"C"])
    def test_non_string_input_rejected(self, value):
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(value)
        assert err.value.offset == 0
        assert "must be a string" in str(err.value)

    @pytest.mark.parametrize("text", ["C\u00b2", "C1CC\u0661", "C%1\u00b2CC", "[CH\u00b2]",
                                      "[N+\u00b2]", "[\u00b2C]"])
    def test_only_ascii_digits_are_digits(self, text):
        # str.isdigit takes these; int() fails on the superscript and reads
        # the Arabic-Indic one as 1.  None of them is SMILES.
        with pytest.raises(SmilesParseError):
            parse_smiles(text)

    @pytest.mark.parametrize("text,message,offset", [
        # bracket atoms
        ("CC[C", "unterminated bracket atom", 2),
        ("C[13CH4]", "isotope notation not supported", 2),
        ("C[Xe]", "unsupported element 'Xe'", 2),
        ("C[X]", "unsupported element 'X'", 2),
        ("C[]", "missing element in bracket atom", 2),
        ("C[CH3*]", "unexpected '*' in bracket atom", 5),
        # the text as a whole
        (123, "SMILES must be a string, not int", 0),
        ("", "empty SMILES", 0),
        # bonds and ring closures
        ("CC11", "ring closure forms a self-bond", 3),
        ("C12CC12", "duplicate bond", 6),
        ("C.=C", "bond symbol without a preceding atom", 2),
        ("1C", "ring closure before any atom", 0),
        ("C=1CC-1", "conflicting ring-closure bond orders", 6),
        # tokens
        ("(C)", "branch without a preceding atom", 0),
        ("CC)C", "unbalanced parentheses", 2),
        ("CC=#C", "consecutive bond symbols", 3),
        ("CC=.C", "bond symbol before component separator", 2),
        ("C=(C)C", "bond symbol before branch", 1),
        ("CC%1C", "% must be followed by two digits", 2),
        ("CX", "unsupported element 'X'", 1),
        ("CC*", "unexpected character '*'", 2),
        # at the end of the text
        ("CC=", "dangling bond symbol", 2),
        ("CC(C", "unbalanced parentheses", 2),
        ("CC1CC", "unmatched ring closure 1", 2),
        # the finished molecule
        ("C[S@](=O)C", "chirality mark on an atom without four distinct neighbors", 1),
        ("c1cc[cH](c)(c)c1", "valence overflow", 4),
        ("C[CH5]", "valence overflow", 1),
        ("CC(F)(F)(F)F", "valence overflow", 1),
        # a bond symbol must have an atom after it in its branch
        ("C(C=)C", "dangling bond symbol", 3),
        ("C(=)C", "dangling bond symbol", 2),
        # the JSON loader's rules (and OpenSMILES'): an aromatic atom needs an
        # aromatic bond, an aromatic bond two aromatic atoms, a molecule an atom
        ("c", "aromatic atom without an aromatic bond", 0),
        ("n", "aromatic atom without an aromatic bond", 0),
        ("[nH]", "aromatic atom without an aromatic bond", 0),
        ("CcC", "aromatic atom without an aromatic bond", 1),
        ("C:C", "aromatic bond to an aliphatic atom", 1),
        ("cc:S", "aromatic bond to an aliphatic atom", 2),
        ("C1CCCCC:1", "aromatic bond to an aliphatic atom", 8),
        (".", "no atoms", 0),
        ("..", "no atoms", 0),
    ])
    def test_parse_error_messages_and_offsets(self, text, message, offset):
        # one input for each place the parser raises
        with pytest.raises(SmilesParseError) as err:
            parse_smiles(text)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset


class TestExpandHydrogens:
    """The hydrogens a parse adds, and ``add_hydrogens``."""

    @pytest.mark.parametrize("smiles,n_atoms,n_bonds", [
        ("C", 5, 4),          # methane
        ("C=O", 4, 3),        # formaldehyde: C gains 2 H, O gains none
        ("c1ccccc1", 12, 12),  # benzene: one H per aromatic carbon
    ])
    def test_counts(self, smiles, n_atoms, n_bonds):
        g = parse_smiles(smiles)
        assert g.n_atoms == n_atoms
        assert len(g.bonds) == n_bonds

    def test_add_hydrogens_appends_in_parent_order_and_sorts_bonds(self):
        g = MolecularGraph("g", (Atom("O"), Atom("C"), Atom("N")),
                           (Bond(0, 1, "DOUBLE"), Bond(1, 2, "SINGLE")))
        h = add_hydrogens(g, [0, 2, 2])
        assert h.atoms == g.atoms + (Atom("H"),) * 4
        assert [b.endpoints for b in h.bonds] == [(0, 1), (1, 2), (1, 3), (1, 4),
                                                  (2, 5), (2, 6)]
        assert add_hydrogens(g, [0, 0, 0]) == g

    def test_valence_consistency(self, random_graphs):
        # every atom's bond-order sum, hydrogens included, is a table valence
        for g in random_graphs:
            for atom, slots in zip(g.atoms, valence_slots(g)):
                assert slots in VALENCES[atom.element], atom


class TestDetectRings:
    def test_cyclopropane_all_ring(self):
        g = parse_smiles("C1CC1")
        carbons = {i for i, a in enumerate(g.atoms) if a.element == "C"}
        assert ring_atoms(g) == carbons

    def test_propane_no_ring(self):
        g = parse_smiles("CCC")
        assert ring_atoms(g) == set()

    def test_two_rings_with_linker_matches_cycle_oracle(self):
        g = parse_smiles("C1CC1CC1CC1")
        edges = [b.endpoints for b in g.bonds]
        expected = cycle_edges(g.n_atoms, edges)
        assert ring_bonds(g) == expected
        ring_carbons = {i for i, a in enumerate(g.atoms)
                        if a.element == "C" and i in ring_atoms(g)}
        assert len(ring_carbons) == 6

    def test_random_graphs_match_cycle_oracle(self, random_graphs):
        for g in random_graphs[:12]:
            edges = [b.endpoints for b in g.bonds]
            assert ring_bonds(g) == cycle_edges(g.n_atoms, edges)

    def test_bundled_graphs_match_cycle_oracle(self):
        graphs = load_graph6_file(Path(__file__).parent / "data" / "connected_graphs_le7.g6")
        assert len(graphs) == 996
        for adj in graphs:
            edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj)))]
            g = MolecularGraph("g", (Atom("C"),) * len(adj),
                               tuple(Bond(u, v, "SINGLE") for u, v in edges))
            assert ring_bonds(g) == cycle_edges(len(adj), edges), adj.tolist()


class TestJsonFormat:
    def test_minimal_h2(self):
        g = load_graph_json({"name": "h2",
                             "atoms": [{"element": "H"}, {"element": "H"}],
                             "bonds": [{"a": 0, "b": 1, "order": "SINGLE"}]})
        assert g.n_atoms == 2
        assert len(g.bonds) == 1

    def test_partial_charges_roundtrip_bit_exact(self, random_graphs):
        for g in random_graphs[:8]:
            doc = graph_to_json_dict(g)
            back = load_graph_json(doc)
            assert [a.partial_charge for a in back.atoms] == \
                [a.partial_charge for a in g.atoms]
            assert back.atoms == g.atoms
            assert back.bonds == g.bonds

    def test_chirality_on_degree_three_rejected(self):
        doc = {"name": "bad",
               "atoms": [{"element": "N", "chirality": "CW"},
                         {"element": "H"}, {"element": "H"}, {"element": "H"}],
               "bonds": [{"a": 0, "b": i, "order": "SINGLE"} for i in (1, 2, 3)]}
        with pytest.raises(SchemaError) as err:
            load_graph_json(doc)
        assert "atoms[0]" in str(err.value)

    def test_duplicate_bond_rejected(self):
        doc = {"name": "dup",
               "atoms": [{"element": "H"}, {"element": "H"}],
               "bonds": [{"a": 0, "b": 1, "order": "SINGLE"},
                         {"a": 1, "b": 0, "order": "SINGLE"}]}
        with pytest.raises(SchemaError) as err:
            load_graph_json(doc)
        assert "duplicate" in str(err.value)

    def test_unknown_keys_rejected(self):
        base = {"name": "x",
                "atoms": [{"element": "H"}, {"element": "H"}],
                "bonds": [{"a": 0, "b": 1, "order": "SINGLE"}]}
        load_graph_json(base)
        for where, path in (("$", "$"), ("atoms", "$.atoms[1]"), ("bonds", "$.bonds[0]")):
            doc = copy.deepcopy(base)
            (doc if where == "$" else doc[where][-1])["color"] = "red"
            with pytest.raises(SchemaError) as err:
                load_graph_json(doc)
            assert "unknown" in str(err.value) and err.value.path == path

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "true", "1e999"])
    def test_non_finite_partial_charge_rejected(self, value):
        # json.loads accepts NaN and Infinity; such a charge would poison the
        # decile thresholds and drop its atom from the last sublevel.
        doc = json.loads('{"atoms": [{"element": "H", "partial_charge": %s}, '
                         '{"element": "H", "partial_charge": 0.4}], '
                         '"bonds": [{"a": 0, "b": 1, "order": "SINGLE"}]}' % value)
        with pytest.raises(SchemaError) as err:
            graph_from_json_dict(doc)
        assert err.value.path == "$.atoms[0].partial_charge"

    def test_file_descriptor_numbers_are_not_sources(self):
        # open() takes an int as a file descriptor: it would read and close it
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            for source in (read_end, [1]):
                with pytest.raises(SchemaError):
                    load_graph_json(source)
            os.fstat(read_end)  # still open
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("case", ["missing", "nul", "not_utf8", "pathlike"])
    def test_unreadable_file_names_the_file(self, tmp_path, case):
        path = tmp_path / "mol.json"
        if case == "not_utf8":
            path.write_bytes(b'{"name": "\xff", "atoms": []}')
        source = {"nul": str(path) + "\0", "pathlike": path}.get(case, str(path))
        with pytest.raises(SchemaError) as err:
            load_graph_json(source)
        assert "cannot read molecule file" in str(err.value)
        assert "mol.json" in str(err.value)

    def test_valence_invariant_enforced(self):
        doc = {"name": "bad-o", "atoms": [{"element": "O"}], "bonds": []}
        with pytest.raises(SchemaError):
            load_graph_json(doc)

    def test_parse_serialize_parse_roundtrip(self):
        for smiles in ("N[C@@H](C)C(=O)O", "c1ccc(cc1)C(=O)O", "CC(Cl)(Br)F",
                       "O=S(=O)(O)O", "C#N", "CC1CCC(N)CC1"):
            g = parse_smiles(smiles)
            back = load_graph_json(json.loads(json.dumps(graph_to_json_dict(g))))
            assert back.atoms == g.atoms
            assert back.bonds == g.bonds


class TestMirrorAndRelabel:
    def test_achiral_mirror_identity(self):
        g = parse_smiles("CCO")
        assert mirror(g) == g

    def test_alanine_mirror_swaps_tag(self):
        g = parse_smiles("N[C@@H](C)C(=O)O")
        m = mirror(g)
        assert g.atoms[1].chirality == CHI_CW
        assert m.atoms[1].chirality == CHI_CCW

    def test_involution(self, random_graphs):
        for g in random_graphs[:10]:
            assert mirror(mirror(g)) == g

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mirror_commutes_with_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        g = random_molecule(rng, "m")
        perm = list(rng.permutation(g.n_atoms).astype(int))
        assert relabel(mirror(g), perm) == mirror(relabel(g, perm))

    def test_relabel_preserves_components_and_rings(self, random_graphs):
        rng = np.random.default_rng(5)
        for g in random_graphs[:6]:
            perm = list(rng.permutation(g.n_atoms).astype(int))
            h = relabel(g, perm)
            assert len(components(h)) == len(components(g))
            assert {perm[v] for v in ring_atoms(g)} == ring_atoms(h)


def test_permutation_parity_matches_inversion_count():
    rng = np.random.default_rng(0)
    for _ in range(200):
        seq = list(rng.permutation(rng.integers(1, 8)).astype(int))
        inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                         if seq[i] > seq[j])
        assert permutation_parity(seq) == cycle_parity(seq) == inversions % 2


def test_dataset_record_validation():
    graph = parse_smiles("C", name="r")
    with pytest.raises(DataError):
        DatasetRecord("r", 1.0, graph, split="train")
    assert DatasetRecord("r", 1.0, graph, split="TRAIN").graph is graph


def _json_containers(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3))


# Arbitrary JSON values, for corrupting molecule documents.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    _json_containers, max_leaves=6)
_BASE_DOCS = [graph_to_json_dict(assign_reference_charges_by_replace(parse_smiles(smiles)))
              for smiles in ("CCO", "c1ccccc1", "N[C@@H](C)C(=O)O", "C#N", "[NH4+]")]
_FIELDS = {"$": ("name", "atoms", "bonds", "extra"),
           "atoms": ("element", "formal_charge", "partial_charge", "chirality", "x"),
           "bonds": ("a", "b", "order", "x")}


@st.composite
def molecule_documents(draw):
    """A valid molecule document with up to four fields replaced or deleted,
    or now and then an arbitrary JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_json_values)
    doc = copy.deepcopy(draw(st.sampled_from(_BASE_DOCS)))
    for _ in range(draw(st.integers(0, 4))):
        where = draw(st.sampled_from(sorted(_FIELDS)))
        target = doc
        if where != "$":
            entries = doc.get(where)
            if not isinstance(entries, list) or not entries:
                continue
            target = draw(st.sampled_from(entries))
            if not isinstance(target, dict):
                continue
        key = draw(st.sampled_from(_FIELDS[where]))
        if key in target and draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(st.integers(-2, 12) | _json_values)
    return doc


_SMILES_ALPHABET = "BCNOSPFIHclbrnosp[]()=#:-+/\\@%.*0123456789 "


class TestRejectionTaxonomy:
    """Malformed input is rejected with a DataError carrying its location."""

    @settings(max_examples=400, deadline=None)
    @given(doc=molecule_documents())
    def test_molecule_documents(self, doc):
        try:
            graph_from_json_dict(doc)
        except SchemaError as exc:
            assert exc.path.startswith("$")

    @settings(max_examples=400, deadline=None)
    @given(doc=molecule_documents())
    def test_molecule_documents_load_as_the_reference_loads_them(self, doc):
        def outcome(load):
            try:
                return repr(load(copy.deepcopy(doc)))
            except SchemaError as exc:
                return type(exc), str(exc)

        assert outcome(graph_from_json_dict) == outcome(graph_from_json_dict_reference)

    @settings(max_examples=400, deadline=None)
    @given(text=st.text(alphabet=_SMILES_ALPHABET, max_size=24))
    def test_smiles_strings(self, text):
        try:
            graph = parse_smiles(text)
        except SmilesParseError as exc:
            assert 0 <= exc.offset <= len(text)
        else:  # a parsed molecule is one the JSON loader takes back unchanged
            assert graph_from_json_dict(graph_to_json_dict(graph)) == graph
