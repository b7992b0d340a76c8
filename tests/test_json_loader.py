"""The JSON molecule loader against the one-Atom-per-entry reference loader:
equal graphs on valid documents, the same exception class and message on
malformed ones (the first fault in check order winning), and atoms shared
only within one molecule."""

import copy
import json
import math
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from moltop.datagen import generate_dataset, random_molecule
from moltop.elements import SUPPORTED_ELEMENTS, VALENCES
from moltop.errors import SchemaError
from moltop.molgraph import (
    BOND_ORDERS,
    CHIRALITY_TAGS,
    Bond,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_smiles,
)

from oracles import (assign_reference_charges_by_replace, graph_from_json_dict_reference,
                     load_graph6_file)


def outcome(load, doc):
    """The loaded graph's repr (which tells -0.0 from 0.0 and an int from a
    numpy integer), or the exception's class and message."""
    try:
        return repr(load(copy.deepcopy(doc)))
    except SchemaError as exc:
        return type(exc), str(exc), exc.path


def assert_loaders_agree(doc):
    expected = outcome(graph_from_json_dict_reference, doc)
    assert outcome(graph_from_json_dict, doc) == expected, doc
    return expected


def shuffled(doc, rng):
    """``doc`` with its bond entries in a random order and some endpoints swapped."""
    bonds = [dict(bond) for bond in doc["bonds"]]
    for bond in bonds:
        if rng.random() < 0.5:
            bond["a"], bond["b"] = bond["b"], bond["a"]
    return {**doc, "bonds": [bonds[i] for i in rng.permutation(len(bonds))]}


_PARTIALS = [None, 0.0, -0.0, 0, 1, -0.25, 0.1, 3e-5, -1e300]


def random_chemistry(adj: np.ndarray, rng) -> dict:
    """A document on the bundled graph ``adj``: half the time each atom gets an
    element whose valence is its degree (so the document is often valid), else
    any element, charge and bond order."""
    n = len(adj)
    degree = adj.sum(axis=1)
    plausible = rng.random() < 0.5
    atoms = []
    for v in range(n):
        if plausible:
            fits = [e for e in SUPPORTED_ELEMENTS if degree[v] in VALENCES[e]]
            element = fits[rng.integers(len(fits))] if fits else "C"
            charge = 0
        else:
            element = SUPPORTED_ELEMENTS[rng.integers(len(SUPPORTED_ELEMENTS))]
            charge = int(rng.integers(-1, 2))
        entry = {"element": element}
        if charge or rng.random() < 0.3:
            entry["formal_charge"] = charge
        partial = _PARTIALS[rng.integers(len(_PARTIALS))]
        if partial is not None:
            entry["partial_charge"] = partial
        if rng.random() < (0.5 if degree[v] == 4 else 0.05):
            entry["chirality"] = CHIRALITY_TAGS[rng.integers(3)]
        atoms.append(entry)
    bonds = [{"a": int(u), "b": int(v),
              "order": "SINGLE" if plausible else BOND_ORDERS[rng.integers(4)]}
             for u, v in zip(*np.nonzero(np.triu(adj)))]
    return shuffled({"name": "g", "atoms": atoms, "bonds": bonds}, rng)


class TestLoaderMatchesReference:
    def test_bundled_graphs_with_random_chemistry(self):
        graphs = load_graph6_file(Path(__file__).parent / "data" / "connected_graphs_le7.g6")
        assert len(graphs) == 996
        rng = np.random.default_rng(5)
        loaded = rejected = 0
        for adj in graphs:
            for _ in range(2):
                result = assert_loaders_agree(random_chemistry(adj, rng))
                loaded += isinstance(result, str)
                rejected += not isinstance(result, str)
        assert loaded > 300 and rejected > 300

    def test_datagen_molecules(self):
        rng = np.random.default_rng(0)
        records = generate_dataset(2000, seed=3)
        assert any("chirality" in a for r in records for a in r["graph"]["atoms"])
        for record in records:
            doc = json.loads(json.dumps(record["graph"]))
            assert outcome(graph_from_json_dict, doc) == \
                outcome(graph_from_json_dict_reference, doc)
        for record in records[:200]:
            assert_loaders_agree(shuffled(record["graph"], rng))

    @pytest.mark.parametrize("smiles", [
        "N[C@@H](C)C(=O)O", "C[C@H](Cl)Br", "c1ccccc1O", "c1ccncc1", "c1ccsc1",
        "[NH4+]", "CC(=O)[O-]", "C[N+](C)(C)C", "O=S(=O)(O)O", "C#N", "ClC(Br)I",
        "CC1CCC(N)CC1", "[BH4-]", "OP(=O)(O)O", "C=CC=C", "[CH3+]"])
    def test_smiles_documents(self, smiles):
        graph = parse_smiles(smiles, name=smiles)
        for doc in (graph_to_json_dict(graph),
                    graph_to_json_dict(assign_reference_charges_by_replace(graph))):
            assert isinstance(assert_loaders_agree(doc), str)  # loaded, not rejected


# ---------------------------------------------------------------------------
# Malformed documents: each fault breaks one check at one place.

# Alanine: N0 C1 C2 C3 O4 O5 then hydrogens 6-12; atom 1 carries a tag.
_BASE = graph_to_json_dict(assign_reference_charges_by_replace(parse_smiles("N[C@@H](C)C(=O)O")))
_N = len(_BASE["atoms"])
# Within an entry, the checks run in this order.
_ATOM_CHECKS = {"element": 0, "formal_charge": 1, "partial_charge": 2, "chirality": 3}
_BOND_CHECKS = {"a": 0, "b": 1, "self": 2, "order": 3, "duplicate": 4}
_DELETE = object()


def _set(where, index, field, value):
    def apply(doc):
        entry = doc[where][index]
        if value is _DELETE:
            entry.pop(field, None)
        else:
            entry[field] = value
    return apply


def _replace_entry(where, index, value):
    def apply(doc):
        doc[where][index] = value
    return apply


def _faults():
    """(name, rank, touched places, apply): ``rank`` orders the checks as the
    loader runs them (atom entries, bond entries, then valences; None where
    the failing atom decides), and ``touched`` names the fields the fault
    writes (None: the whole entry) and the atoms whose valence check it
    changes.  A fault that another one touches may not fire, so such pairs
    are not combined."""
    faults = []
    for i in (0, 4, 11):
        for field, values in (("element", ["Xx", _DELETE, 6, ["C"]]),
                              ("formal_charge", [1.5, True, "1", None]),
                              ("partial_charge", [True, "0.1", math.nan, math.inf,
                                                  10 ** 400, [0.1]]),
                              ("chirality", ["R", None, 1])):
            for value in values:
                faults.append((f"atom {i} {field}={value!r}", (1, i, _ATOM_CHECKS[field]),
                               {("atom", i, field)}, _set("atoms", i, field, value)))
        faults.append((f"atom {i} not an object", (1, i, -2), {("atom", i, None)},
                       _replace_entry("atoms", i, "C")))
        faults.append((f"atom {i} unknown key", (1, i, -1), {("atom", i, "x")},
                       _set("atoms", i, "x", 1)))
    for i in (0, 5, 10):
        for field, values in (("a", [-1, _N, True, 1.0, "1", _DELETE]),
                              ("b", [_N + 3, False, None]),
                              ("order", ["QUAD", "single", _DELETE, 2])):
            for value in values:
                faults.append((f"bond {i} {field}={value!r}", (2, i, _BOND_CHECKS[field]),
                               {("bond", i, field)}, _set("bonds", i, field, value)))
        faults.append((f"bond {i} not an object", (2, i, -2), {("bond", i, None)},
                       _replace_entry("bonds", i, [0, 1])))
        faults.append((f"bond {i} unknown key", (2, i, -1), {("bond", i, "x")},
                       _set("bonds", i, "x", 1)))
        a = _BASE["bonds"][i]["a"]
        faults.append((f"bond {i} self-bond", (2, i, _BOND_CHECKS["self"]),
                       {("bond", i, "b")}, _set("bonds", i, "b", a)))
        if i:
            first = _BASE["bonds"][0]
            faults.append((f"bond {i} repeats bond 0", (2, i, _BOND_CHECKS["duplicate"]),
                           {("bond", i, "a"), ("bond", i, "b")},
                           lambda doc, i=i, f=first: doc["bonds"][i].update(a=f["b"], b=f["a"])))
    for i in (0, 2, 7):
        faults.append((f"atom {i} chirality without four neighbors", (3, i, 0),
                       {("atom", i, "chirality"), ("valence", i, None)},
                       _set("atoms", i, "chirality", "CCW")))
    for i in (0, 3, 9):
        faults.append((f"atom {i} valence", (3, i, 1),
                       {("atom", i, "formal_charge"), ("valence", i, None)},
                       _set("atoms", i, "formal_charge", 3)))
    for i, bond in enumerate(_BASE["bonds"]):
        faults.append((f"bond {i} aromatic", None,
                       {("bond", i, "order"), ("valence", bond["a"], None),
                        ("valence", bond["b"], None)}, _set("bonds", i, "order", "AROMATIC")))
    return faults


def _overlap(first, second) -> bool:
    return any(p[:2] == q[:2] and (p[2] is None or q[2] is None or p[2] == q[2])
               for p in first for q in second)


# Faults caught before any entry is read.
_DOCUMENT_FAULTS = [
    [], "CC", None, {**_BASE, "x": 1}, {**_BASE, "name": 5}, {**_BASE, "atoms": []},
    {**_BASE, "atoms": {}}, {k: v for k, v in _BASE.items() if k != "atoms"},
    {**_BASE, "bonds": {}}, {**_BASE, "bonds": None},
    {"x": 1, "name": 5, "atoms": []}, {"name": 5, "atoms": {}, "bonds": {}},
    {**_BASE, "atoms": [], "bonds": None}]


def _single_fault_cases():
    """Each fault that makes the base document fail, with its document, its
    rank in check order and the error it raises."""
    cases = []
    for name, rank, touched, apply in _faults():
        doc = copy.deepcopy(_BASE)
        apply(doc)
        error = outcome(graph_from_json_dict_reference, doc)
        if isinstance(error, str):
            continue  # the fault is valid chemistry after all
        if rank is None:  # a valence fault ranks at the atom whose check fails
            rank = (3, int(error[2][len("$.atoms["):-1]), 2)
        cases.append((name, rank, touched, apply, error))
    return cases


# The start of the message of every check the loader makes.
_CHECKS = [
    "molecule document must be an object", "unknown keys", "name must be a string",
    "atoms must be a non-empty array", "bonds must be an array",
    "atom must be an object", "unknown atom keys", "unsupported element",
    "formal_charge must be an integer", "partial_charge must be a finite number",
    "invalid chirality", "bond must be an object", "unknown bond keys",
    "endpoint a out of range", "endpoint b out of range", "bond endpoints must differ",
    "invalid bond order", "duplicate bond",
    "chirality tag on an atom without four distinct neighbors",
    "aromatic valence violation", "valence "]


class TestMalformedDocuments:
    def test_base_document_loads(self):
        assert assert_loaders_agree(_BASE) == repr(graph_from_json_dict_reference(_BASE))

    def test_one_fault_per_check(self):
        messages = [assert_loaders_agree(doc)[1] for doc in _DOCUMENT_FAULTS]
        for name, _, _, apply, error in _single_fault_cases():
            doc = copy.deepcopy(_BASE)
            apply(doc)
            assert outcome(graph_from_json_dict, doc) == error, name
            messages.append(error[1])
        for check in _CHECKS:
            assert any(m.startswith(check) for m in messages), check

    def test_the_first_of_two_faults_wins(self):
        cases = _single_fault_cases()
        pairs = 0
        for first, second in combinations(sorted(cases, key=lambda c: c[1]), 2):
            if first[1] == second[1] or _overlap(first[2], second[2]):
                continue
            for one, other in permutations((first, second)):
                doc = copy.deepcopy(_BASE)
                one[3](doc)
                other[3](doc)
                assert outcome(graph_from_json_dict, doc) == first[4], (first[0], second[0])
                assert outcome(graph_from_json_dict_reference, doc) == first[4]
            pairs += 1
        assert pairs > 2000


# ---------------------------------------------------------------------------
# Shared atoms

class TestSharedAtoms:
    def test_equal_atoms_are_one_object_within_a_molecule(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            graph = graph_from_json_dict(graph_to_json_dict(random_molecule(rng, "m")))
            by_repr = {}
            for atom in graph.atoms:
                assert by_repr.setdefault(repr(atom), atom) is atom
            assert len({id(a) for a in graph.atoms}) == len(by_repr) < graph.n_atoms

    def test_no_atom_is_shared_across_molecules(self):
        doc = graph_to_json_dict(parse_smiles("CCO"))
        first, second = graph_from_json_dict(doc), graph_from_json_dict(doc)
        assert first == second
        assert not {id(a) for a in first.atoms} & {id(a) for a in second.atoms}

    def test_negative_zero_partial_charge_keeps_its_sign(self):
        doc = json.loads('{"atoms": [{"element": "H", "partial_charge": -0.0}, '
                         '{"element": "H", "partial_charge": 0.0}, '
                         '{"element": "H", "partial_charge": 0}, '
                         '{"element": "H", "partial_charge": -0.0}], '
                         '"bonds": [{"a": 0, "b": 1, "order": "SINGLE"}, '
                         '{"a": 2, "b": 3, "order": "SINGLE"}]}')
        graph = graph_from_json_dict(doc)
        signs = [math.copysign(1.0, a.partial_charge) for a in graph.atoms]
        assert signs == [-1.0, 1.0, 1.0, -1.0]
        assert graph.atoms[0] is graph.atoms[3] and graph.atoms[1] is graph.atoms[2]
        assert graph.atoms[0] is not graph.atoms[1]
        assert type(graph.atoms[2].partial_charge) is float
        assert json.dumps(graph_to_json_dict(graph)["atoms"][0]) == \
            '{"element": "H", "formal_charge": 0, "partial_charge": -0.0}'


class TestBondNormalization:
    @pytest.mark.parametrize("a,b", [(3, 1), (np.int64(1), 3), (1, np.int64(3)),
                                     (np.int32(4), np.int64(2)), (True, 3)])
    def test_other_callers_are_still_normalized(self, a, b):
        bond = Bond(a, b, "SINGLE")
        assert bond.endpoints == (min(int(a), int(b)), max(int(a), int(b)))
        assert type(bond.a) is int and type(bond.b) is int

    def test_self_bond_rejected(self):
        for a, b in ((2, 2), (np.int64(2), 2)):
            with pytest.raises(ValueError, match="self-bond"):
                Bond(a, b, "SINGLE")
