"""Molecular graphs and their ingestion.

Covers a bounded SMILES subset (organic-subset atoms, bracket atoms with
hydrogen count, charge and @/@@ tetrahedral marks, ring closures incl. %nn,
branches, bond symbols - = # :, aromatic lowercase c/n/o/s, dot-separated
components), a strict JSON graph format, the bundled valence model, and ring
(non-bridge) detection.  A parsed molecule obeys the JSON format's rules:
aromatic bonds join aromatic atoms, and every aromatic atom has one.  A
graph stores only its input facts, and an atom only its chemistry: its id
is its index in ``graph.atoms``, atom masses come from the element table
and ring membership from the bonds, each computed when asked for.  Every
graph is hydrogen-complete: the parser adds the hydrogens the valence model
implies (``add_hydrogens``), and JSON graphs are taken verbatim.

Ring bonds come from a breadth-first spanning forest: each bond outside it
closes a cycle with the forest path between its endpoints, and the ring
bonds are the bonds on those cycles.

Tetrahedral parity convention: the parser normalizes a written @/@@ mark to
ascending neighbor-id order (looking from the lowest-id neighbor, do the
remaining three, ids ascending, turn counterclockwise or clockwise), so any
writing of the same molecule parses to the same tags.  Hydrogens from a
bracket count or the valence model get ids after every written atom, so
they sort last.  Once stored, tags are opaque per-atom data: a vertex
relabeling carries them verbatim, a reflection swaps CW and CCW, and
downstream code never reinterprets them geometrically.
"""

from dataclasses import dataclass, field, replace

import math
import os
import re
import sys

from .elements import (
    ATOMIC_MASS,
    AROMATIC_SYMBOLS,
    ORGANIC_SUBSET,
    SUPPORTED_ELEMENTS,
    allowed_valences,
)
from .errors import DataError, SchemaError, SmilesParseError, read_json

CHI_NONE = "NONE"
CHI_CW = "CW"
CHI_CCW = "CCW"
CHIRALITY_TAGS = (CHI_NONE, CHI_CW, CHI_CCW)

BOND_ORDERS = ("SINGLE", "DOUBLE", "TRIPLE", "AROMATIC")
# Twice the bond order, so aromatic (1.5) stays integral.
_ORDER_X2 = {"SINGLE": 2, "DOUBLE": 4, "TRIPLE": 6, "AROMATIC": 3}
_BOND_SYMBOLS = {"-": "SINGLE", "=": "DOUBLE", "#": "TRIPLE", ":": "AROMATIC"}
# Most neighbors an aromatic atom may have.
_AROMATIC_MAX_DEGREE = {"C": 3, "N": 3, "O": 2, "S": 2}


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    partial_charge: float | None = None
    chirality: str = CHI_NONE

    @property
    def atomic_mass(self) -> float:
        return ATOMIC_MASS[self.element]


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: str

    def __post_init__(self):
        if type(self.a) is int and type(self.b) is int and self.a < self.b:
            return  # already normalized
        if self.a == self.b:
            raise ValueError(f"self-bond on atom {self.a}")
        low, high = (self.b, self.a) if self.a > self.b else (self.a, self.b)
        object.__setattr__(self, "a", int(low))
        object.__setattr__(self, "b", int(high))

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class MolecularGraph:
    name: str
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


SPLIT_TAGS = ("TRAIN", "VALID", "TEST")


@dataclass(frozen=True)
class DatasetRecord:
    """One labeled molecule, its target and optional split tag.  The dataset
    loader stores the parsed graph; a JSON graph document given here instead
    is loaded when the record is fingerprinted."""
    record_id: str
    target: float
    graph: MolecularGraph | dict
    split: str | None = None

    def __post_init__(self):
        if self.split is not None and self.split not in SPLIT_TAGS:
            raise DataError(f"invalid split tag {self.split!r}")


def permutation_parity(values) -> int:
    """0 if sorting ``values`` is an even permutation, 1 if odd: the parity
    of its inversion count."""
    return sum(a > b for i, a in enumerate(values) for b in values[i + 1:]) & 1


# ---------------------------------------------------------------------------
# SMILES parsing

# A bracket hydrogen's place in a neighbor order: its id comes after every
# written atom's.
_PENDING_H = float("inf")
# str.isdigit also takes other numerals, such as superscripts
_DIGITS = frozenset("0123456789")
# A bracket atom (unterminated if it has no "]"), a two-letter organic
# atom, a %nn ring closure, or one character.
_TOKEN = re.compile(r"\[[^\]]*\]?|Cl|Br|%[0-9]{2}|.", re.S)
# A bracket atom's element, mark, hydrogen count and charge.
_BRACKET = re.compile(r"([cnos]|[A-Z][a-z]?)?(@@?)?(H[0-9]*)?([+-][0-9]+|\++|-+)?")


@dataclass(slots=True)
class _ParsedAtom:
    element: str
    aromatic: bool
    offset: int
    bracket: bool = False
    charge: int = 0
    h_count: int = 0
    stereo: str | None = None  # None, "@", or "@@"
    # atom ids, _PENDING_H, or None until a ring closes
    neighbor_order: list = field(default_factory=list)


def _parse_bracket(token: str, start: int) -> _ParsedAtom:
    """The atom of a bracket token written at offset ``start``."""
    if not token.endswith("]"):
        raise SmilesParseError("unterminated bracket atom", start)
    body = token[1:-1]
    match = _BRACKET.match(body)
    symbol, stereo, hydrogens, charge = match.groups()
    if symbol is None:
        raise SmilesParseError("isotope notation not supported" if body[:1] in _DIGITS
                               else "missing element in bracket atom", start + 1)
    if symbol.capitalize() not in SUPPORTED_ELEMENTS:
        raise SmilesParseError(f"unsupported element {symbol!r}", start + 1)
    if match.end() < len(body):
        raise SmilesParseError(f"unexpected {body[match.end()]!r} in bracket atom",
                               start + 1 + match.end())
    if charge and charge[-1] in "+-":  # the sign repeated
        charge = charge[0] + str(len(charge))
    return _ParsedAtom(symbol.capitalize(), symbol in AROMATIC_SYMBOLS, start, bracket=True,
                       charge=int(charge or 0), stereo=stereo,
                       h_count=int(hydrogens[1:] or 1) if hydrogens else 0)


def parse_smiles(text: str, name: str = "") -> MolecularGraph:
    """Parse SMILES text into a complete molecular graph: the written atoms,
    then their bracket and implicit hydrogens (see ``add_hydrogens``).
    Chirality tags are normalized to ascending neighbor-id order so
    isomorphic inputs produce identical tags.
    """
    if not isinstance(text, str):
        raise SmilesParseError(f"SMILES must be a string, not {type(text).__name__}", 0)
    if not text:
        raise SmilesParseError("empty SMILES", 0)

    atoms: list[_ParsedAtom] = []
    bonds: dict[tuple[int, int], tuple[str, int]] = {}  # pair -> (order, offset)
    prev: int | None = None
    branch_stack: list[tuple[int | None, int]] = []
    pending: tuple[str, int] | None = None  # (order, offset)
    # ring number -> (atom, order, the atom's neighbor_order slot, offset)
    rings: dict[int, tuple[int, str | None, int, int]] = {}

    def add_bond(a: int, b: int, order: str, offset: int):
        key = (a, b) if a < b else (b, a)
        if a == b:
            raise SmilesParseError("ring closure forms a self-bond", offset)
        if key in bonds:
            raise SmilesParseError("duplicate bond", offset)
        bonds[key] = (order, offset)

    def new_atom(parsed: _ParsedAtom):
        nonlocal prev, pending
        idx = len(atoms)
        atoms.append(parsed)
        if prev is not None:
            order = pending[0] if pending else None
            if order is None:
                order = "AROMATIC" if (parsed.aromatic and atoms[prev].aromatic) else "SINGLE"
            add_bond(prev, idx, order, pending[1] if pending else parsed.offset)
            parsed.neighbor_order.append(prev)
            atoms[prev].neighbor_order.append(idx)
        elif pending is not None:
            raise SmilesParseError("bond symbol without a preceding atom", pending[1])
        if parsed.h_count == 1:
            parsed.neighbor_order.append(_PENDING_H)
        prev = idx
        pending = None

    def ring_digit(number: int, offset: int):
        nonlocal pending
        if prev is None:
            raise SmilesParseError("ring closure before any atom", offset)
        explicit = pending[0] if pending else None
        if number in rings:
            open_atom, open_order, slot, open_offset = rings.pop(number)
            order = explicit or open_order
            if explicit and open_order and explicit != open_order:
                raise SmilesParseError("conflicting ring-closure bond orders", offset)
            if order is None:
                both_aromatic = atoms[open_atom].aromatic and atoms[prev].aromatic
                order = "AROMATIC" if both_aromatic else "SINGLE"
            add_bond(open_atom, prev, order, offset)
            atoms[open_atom].neighbor_order[slot] = prev
            atoms[prev].neighbor_order.append(open_atom)
        else:
            rings[number] = (prev, explicit, len(atoms[prev].neighbor_order), offset)
            atoms[prev].neighbor_order.append(None)
        pending = None

    end = 0
    for token in _TOKEN.findall(text):
        i, end = end, end + len(token)  # the token's offset
        if token == "(":
            if prev is None:
                raise SmilesParseError("branch without a preceding atom", i)
            if pending is not None:
                raise SmilesParseError("bond symbol before branch", pending[1])
            branch_stack.append((prev, i))
        elif token == ")":
            if not branch_stack:
                raise SmilesParseError("unbalanced parentheses", i)
            if pending is not None:
                raise SmilesParseError("dangling bond symbol", pending[1])
            prev = branch_stack.pop()[0]
        elif token in _BOND_SYMBOLS:
            if pending is not None:
                raise SmilesParseError("consecutive bond symbols", i)
            pending = (_BOND_SYMBOLS[token], i)
        elif token == ".":
            if pending is not None:
                raise SmilesParseError("bond symbol before component separator", pending[1])
            prev = None
        elif token in _DIGITS:
            ring_digit(int(token), i)
        elif token[0] == "%":
            if token == "%":
                raise SmilesParseError("% must be followed by two digits", i)
            ring_digit(int(token[1:]), i)
        elif token[0] == "[":
            new_atom(_parse_bracket(token, i))
        elif token in AROMATIC_SYMBOLS or token in ORGANIC_SUBSET:
            new_atom(_ParsedAtom(token.capitalize(), token in AROMATIC_SYMBOLS, i))
        elif token.isupper():
            raise SmilesParseError(f"unsupported element {token!r}", i)
        else:
            raise SmilesParseError(f"unexpected character {token!r}", i)

    if pending is not None:
        raise SmilesParseError("dangling bond symbol", pending[1])
    if branch_stack:
        raise SmilesParseError("unbalanced parentheses", branch_stack[-1][1])
    if rings:
        number = next(iter(rings))
        raise SmilesParseError(f"unmatched ring closure {number}", rings[number][3])
    if not atoms:
        raise SmilesParseError("no atoms", 0)
    return _finish_parse(atoms, bonds, name)


def _valence_tally(n_atoms, bonds):
    """Per atom: twice its bond-order sum, its degree, and whether it has an aromatic bond."""
    bond_x2, degree, aromatic = [0] * n_atoms, [0] * n_atoms, [False] * n_atoms
    for bond in bonds:
        for v in bond.endpoints:
            bond_x2[v] += _ORDER_X2[bond.order]
            degree[v] += 1
            aromatic[v] = aromatic[v] or bond.order == "AROMATIC"
    return bond_x2, degree, aromatic


def _finish_parse(atoms, bonds, name) -> MolecularGraph:
    out_bonds = tuple(Bond(a, b, order) for (a, b), (order, _) in sorted(bonds.items()))
    bond_x2, degree, aromatic = _valence_tally(len(atoms), out_bonds)
    out_atoms, hydrogens = [], []
    for idx, parsed in enumerate(atoms):
        hydrogens.append(_hydrogen_count(parsed, bond_x2[idx], degree[idx]))
        tag = CHI_NONE
        if parsed.stereo is not None:
            # two hydrogens are not distinct neighbors
            if degree[idx] + parsed.h_count != 4 or parsed.h_count > 1:
                raise SmilesParseError(
                    "chirality mark on an atom without four distinct neighbors",
                    parsed.offset)
            # an odd reordering of the written neighbors reverses the turn
            clockwise = (parsed.stereo == "@@") != bool(permutation_parity(parsed.neighbor_order))
            tag = CHI_CW if clockwise else CHI_CCW
        out_atoms.append(Atom(parsed.element, parsed.charge, chirality=tag))
    # what graph_from_json_dict also demands: aromatic bonds join aromatic
    # atoms, and every aromatic atom has one
    for (a, b), (order, offset) in bonds.items():
        if order == "AROMATIC" and not (atoms[a].aromatic and atoms[b].aromatic):
            raise SmilesParseError("aromatic bond to an aliphatic atom", offset)
    for parsed, has_aromatic_bond in zip(atoms, aromatic):
        if parsed.aromatic and not has_aromatic_bond:
            raise SmilesParseError("aromatic atom without an aromatic bond", parsed.offset)
    return add_hydrogens(MolecularGraph(name, tuple(out_atoms), out_bonds), hydrogens)


def _hydrogen_count(parsed: _ParsedAtom, bond_x2: int, degree: int) -> int:
    """Hydrogens on a written atom: its bracket count, or the count the
    valence model implies; raises on overflow."""
    if parsed.aromatic:
        limit = _AROMATIC_MAX_DEGREE[parsed.element]
        if degree + parsed.h_count > limit:  # h_count is 0 outside brackets
            raise SmilesParseError("valence overflow", parsed.offset)
        if parsed.bracket or parsed.element != "C":
            return parsed.h_count
        return limit - degree  # only bare aromatic carbon earns implicit hydrogens

    slots = (bond_x2 + 1) // 2
    allowed = allowed_valences(parsed.element, parsed.charge)
    if parsed.bracket:
        if slots + parsed.h_count not in allowed:
            raise SmilesParseError("valence overflow", parsed.offset)
        return parsed.h_count
    for valence in allowed:
        if valence >= slots:
            return valence - slots
    raise SmilesParseError("valence overflow", parsed.offset)


# ---------------------------------------------------------------------------
# Derived-structure operations

def add_hydrogens(graph: MolecularGraph, counts) -> MolecularGraph:
    """``graph`` with ``counts[i]`` hydrogens bonded to atom i by SINGLE bonds.

    The hydrogens are appended after all existing atoms in parent-id order,
    which keeps normalized chirality tags valid (hydrogen ids sort last);
    bonds are kept in endpoint order.
    """
    parents = [i for i, count in enumerate(counts) for _ in range(count)]
    first = graph.n_atoms
    bonds = [*graph.bonds, *(Bond(p, first + k, "SINGLE") for k, p in enumerate(parents))]
    bonds.sort(key=lambda b: (b.a, b.b))
    return replace(graph, atoms=graph.atoms + (Atom("H"),) * len(parents), bonds=tuple(bonds))


def ring_bonds(graph: MolecularGraph) -> set[tuple[int, int]]:
    """Endpoint pairs of the bonds that lie on some cycle (the non-bridges).

    Each bond outside a breadth-first spanning forest closes a cycle with
    the forest path between its endpoints; the bonds on those cycles are
    exactly the bonds on some cycle.
    """
    adj: list[list[int]] = [[] for _ in graph.atoms]
    for bond in graph.bonds:
        adj[bond.a].append(bond.b)
        adj[bond.b].append(bond.a)
    parent, depth = [-1] * graph.n_atoms, [-1] * graph.n_atoms
    for root in range(graph.n_atoms):
        if depth[root] < 0:
            depth[root] = 0
            queue = [root]
            for v in queue:
                for w in adj[v]:
                    if depth[w] < 0:
                        parent[w], depth[w] = v, depth[v] + 1
                        queue.append(w)
    rings = set()
    for u, v in (bond.endpoints for bond in graph.bonds):
        if parent[u] == v or parent[v] == u:
            continue  # a forest bond
        rings.add((u, v))
        while u != v:  # up the forest path, the deeper end first
            if depth[u] < depth[v]:
                u, v = v, u
            rings.add((min(u, parent[u]), max(u, parent[u])))
            u = parent[u]
    return rings


def ring_atoms(graph: MolecularGraph) -> set[int]:
    """Atom ids that are endpoints of some ring bond."""
    return {v for pair in ring_bonds(graph) for v in pair}


# ---------------------------------------------------------------------------
# JSON molecule format

_ATOM_KEYS = {"element", "formal_charge", "partial_charge", "chirality"}
_BOND_KEYS = {"a", "b", "order"}
_FLOAT_MAX = sys.float_info.max  # NaN and the infinities fall outside


def graph_to_json_dict(graph: MolecularGraph) -> dict:
    """Serialize to the documented JSON schema."""
    atoms = []
    for a in graph.atoms:
        entry: dict = {"element": a.element, "formal_charge": a.formal_charge}
        if a.partial_charge is not None:
            entry["partial_charge"] = a.partial_charge
        if a.chirality != CHI_NONE:
            entry["chirality"] = a.chirality
        atoms.append(entry)
    bonds = [{"a": b.a, "b": b.b, "order": b.order} for b in graph.bonds]
    return {"name": graph.name, "atoms": atoms, "bonds": bonds}


def load_graph_json(source) -> MolecularGraph:
    """Load a molecule from a parsed dict or a JSON file path.

    Fields are taken verbatim (hydrogens must be explicit).  Schema or invariant
    violations raise with the JSON path.
    """
    if isinstance(source, dict):
        return graph_from_json_dict(source)
    if not isinstance(source, (str, os.PathLike)):
        raise SchemaError(f"cannot read molecule source {source!r}")
    return graph_from_json_dict(read_json(source, "molecule file", SchemaError))


def graph_from_json_dict(doc: dict) -> MolecularGraph:
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

    # Equal atoms are one object, built once per distinct chemistry of this
    # molecule; the key tells a -0.0 partial charge from 0.0.
    atoms, distinct = [], {}
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
        if partial is not None:
            if (isinstance(partial, bool) or not isinstance(partial, (int, float))
                    or not -_FLOAT_MAX <= partial <= _FLOAT_MAX):
                raise SchemaError("partial_charge must be a finite number",
                                  f"$.atoms[{i}].partial_charge")
            partial = float(partial)
        tag = entry.get("chirality", CHI_NONE)
        if tag not in CHIRALITY_TAGS:
            raise SchemaError(f"invalid chirality {tag!r}", f"$.atoms[{i}].chirality")
        key = (element, charge, partial, tag, partial == 0.0 and math.copysign(1.0, partial))
        atom = distinct.get(key)
        if atom is None:
            atom = distinct[key] = Atom(element, charge, partial, tag)
        atoms.append(atom)

    # Each bond's sorted endpoint pair, and per atom what the valence checks
    # read: twice its bond-order sum, its degree, and whether it has an
    # aromatic bond.
    n = len(atoms)
    pairs, bond_x2, degree, aromatic = {}, [0] * n, [0] * n, [False] * n
    for i, entry in enumerate(raw_bonds):
        if not isinstance(entry, dict):
            raise SchemaError("bond must be an object", f"$.bonds[{i}]")
        if not entry.keys() <= _BOND_KEYS:
            raise SchemaError(f"unknown bond keys {sorted(set(entry) - _BOND_KEYS)}",
                              f"$.bonds[{i}]")
        a, b, order = entry.get("a"), entry.get("b"), entry.get("order")
        if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):
            for key, val in (("a", a), ("b", b)):
                if not isinstance(val, int) or isinstance(val, bool) or not 0 <= val < n:
                    raise SchemaError(f"endpoint {key} out of range", f"$.bonds[{i}].{key}")
        if a == b:
            raise SchemaError("bond endpoints must differ", f"$.bonds[{i}]")
        if order not in BOND_ORDERS:
            raise SchemaError(f"invalid bond order {order!r}", f"$.bonds[{i}].order")
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            raise SchemaError("duplicate bond", f"$.bonds[{i}]")
        pairs[pair] = order
        x2 = _ORDER_X2[order]
        bond_x2[a] += x2
        bond_x2[b] += x2
        degree[a] += 1
        degree[b] += 1
        if order == "AROMATIC":
            aromatic[a] = aromatic[b] = True

    _validate_loaded(atoms, bond_x2, degree, aromatic)
    return MolecularGraph(name, tuple(atoms),
                          tuple(Bond(a, b, order) for (a, b), order in sorted(pairs.items())))


def _validate_loaded(atoms, bond_x2, degree, aromatic):
    for i, atom in enumerate(atoms):
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

