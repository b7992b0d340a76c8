"""Sublevel vertex sequences for the four filtration parameters.

Each parameter assigns every atom a value f(v); level i of the sequence is
the set of atoms with f(v) <= alpha_i, so the sequence is nested and the
last level contains every vertex.
"""

from dataclasses import dataclass
import math

from .elements import ATOMIC_MASS
from .errors import ChargesRequiredError, ConfigError, UnsupportedElementError
from .molgraph import CHI_CCW, CHI_CW, MolecularGraph, ring_atoms

ATOMIC_MASS_KIND = "ATOMIC_MASS"
PARTIAL_CHARGE_KIND = "PARTIAL_CHARGE"
BOND_TYPE_KIND = "BOND_TYPE"
CHIRALITY_KIND = "CHIRALITY"
FILTRATION_KINDS = (ATOMIC_MASS_KIND, PARTIAL_CHARGE_KIND, BOND_TYPE_KIND, CHIRALITY_KIND)


def canonical_kinds(kinds, error=ConfigError) -> tuple[str, ...]:
    """``kinds`` in the fixed AM, PC, BT, CH order with repeats dropped;
    ``error`` for an unknown kind or none at all."""
    bad = [k for k in kinds if k not in FILTRATION_KINDS]
    if bad:
        raise error(f"unknown filtration kinds {bad}")
    if not kinds:
        raise error("at least one filtration kind is required")
    return tuple(k for k in FILTRATION_KINDS if k in kinds)


LEVEL_COUNTS = {
    ATOMIC_MASS_KIND: 10,
    PARTIAL_CHARGE_KIND: 10,
    BOND_TYPE_KIND: 4,
    CHIRALITY_KIND: 3,
}

# The ten elements of the mass ladder in ascending mass order (boron is
# parseable but not part of this filtration).
MASS_LADDER = ("H", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")
_MASS_THRESHOLDS = tuple(ATOMIC_MASS[e] for e in MASS_LADDER)
_BOND_TYPE_THRESHOLDS = (0, 1, 2, 3)
_CHIRALITY_THRESHOLDS = (0, 1, 2)


@dataclass(frozen=True)
class FiltrationSpec:
    kind: str
    levels: int
    # None for per-molecule partial-charge deciles (computed per graph).
    thresholds: tuple[float, ...] | None

    def __post_init__(self):
        if self.kind not in FILTRATION_KINDS:
            raise ValueError(f"unknown filtration kind {self.kind!r}")
        if self.levels != LEVEL_COUNTS[self.kind]:
            raise ValueError(f"{self.kind} uses {LEVEL_COUNTS[self.kind]} levels")
        if self.thresholds is not None:
            if len(self.thresholds) != self.levels:
                raise ValueError("threshold count must equal the level count")
            if self.kind != PARTIAL_CHARGE_KIND and any(
                    a >= b for a, b in zip(self.thresholds, self.thresholds[1:])):
                raise ValueError("thresholds must be strictly increasing")


@dataclass(frozen=True)
class SublevelSequence:
    spec: FiltrationSpec
    subsets: tuple[frozenset[int], ...]


def make_spec(kind: str, charge_thresholds=None) -> FiltrationSpec:
    """Canonical spec for a kind; charge_thresholds enables global-decile mode."""
    if kind == ATOMIC_MASS_KIND:
        return FiltrationSpec(kind, 10, _MASS_THRESHOLDS)
    if kind == PARTIAL_CHARGE_KIND:
        thresholds = None if charge_thresholds is None else tuple(charge_thresholds)
        return FiltrationSpec(kind, 10, thresholds)
    if kind == BOND_TYPE_KIND:
        return FiltrationSpec(kind, 4, _BOND_TYPE_THRESHOLDS)
    if kind == CHIRALITY_KIND:
        return FiltrationSpec(kind, 3, _CHIRALITY_THRESHOLDS)
    raise ValueError(f"unknown filtration kind {kind!r}")


def chirality_value(atom, degree: int) -> int:
    """0 for untagged atoms or degree != 4, 1 for CW centers, 2 for CCW."""
    if degree != 4 or atom.chirality not in (CHI_CW, CHI_CCW):
        return 0
    return 1 if atom.chirality == CHI_CW else 2


def decile_boundaries(values) -> tuple[float, ...]:
    """Nearest-rank decile boundaries of a value multiset."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("empty value multiset")
    return tuple(ordered[math.ceil(i * n / 10) - 1] for i in range(1, 11))


def atomic_mass_sequence(graph: MolecularGraph) -> SublevelSequence:
    spec = make_spec(ATOMIC_MASS_KIND)
    for atom in graph.atoms:
        if atom.element not in MASS_LADDER:
            raise UnsupportedElementError(
                f"element {atom.element!r} (atom {atom.id}) is outside the "
                f"atomic-mass filtration ladder")
    return _sublevels(spec, graph, lambda a: a.atomic_mass)


def partial_charge_sequence(graph: MolecularGraph,
                            boundaries: tuple[float, ...] | None = None) -> SublevelSequence:
    """Charge sublevels; per-molecule deciles unless boundaries are supplied."""
    for atom in graph.atoms:
        if atom.partial_charge is None:
            raise ChargesRequiredError(
                f"atom {atom.id} has no partial charge; the partial-charge "
                f"filtration needs charges on every atom")
    if boundaries is None:
        boundaries = decile_boundaries(a.partial_charge for a in graph.atoms)
    spec = FiltrationSpec(PARTIAL_CHARGE_KIND, 10, tuple(boundaries))
    return _sublevels(spec, graph, lambda a: a.partial_charge)


def chirality_sequence(graph: MolecularGraph) -> SublevelSequence:
    spec = make_spec(CHIRALITY_KIND)
    degree = graph.degrees()
    values = {a.id: chirality_value(a, degree[a.id]) for a in graph.atoms}
    return _sublevels(spec, graph, lambda a: values[a.id])


def bond_type_sequence(graph: MolecularGraph) -> SublevelSequence:
    spec = make_spec(BOND_TYPE_KIND)
    rings = ring_atoms(graph)
    triple = set()
    double = set()
    for bond in graph.bonds:
        if bond.order == "TRIPLE":
            triple.update(bond.endpoints)
        elif bond.order == "DOUBLE":
            double.update(bond.endpoints)

    def value(atom):
        if atom.id in rings:
            return 0
        if atom.id in triple:
            return 1
        if atom.id in double:
            return 2
        return 3

    return _sublevels(spec, graph, value)


def build_sequence(graph: MolecularGraph, spec: FiltrationSpec) -> SublevelSequence:
    """Dispatch to the per-kind value function for the spec's kind."""
    if spec.kind == ATOMIC_MASS_KIND:
        return atomic_mass_sequence(graph)
    if spec.kind == PARTIAL_CHARGE_KIND:
        return partial_charge_sequence(graph, spec.thresholds)
    if spec.kind == BOND_TYPE_KIND:
        return bond_type_sequence(graph)
    if spec.kind == CHIRALITY_KIND:
        return chirality_sequence(graph)
    raise ValueError(f"unknown filtration kind {spec.kind!r}")


def _sublevels(spec, graph, value) -> SublevelSequence:
    subsets = []
    for alpha in spec.thresholds:
        subsets.append(frozenset(a.id for a in graph.atoms if value(a) <= alpha))
    return SublevelSequence(spec, tuple(subsets))
