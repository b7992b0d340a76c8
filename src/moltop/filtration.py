"""Sublevel vertex sequences for the four filtration parameters.

Each parameter assigns every atom a value f(v) through one value function
per kind; level i of the sequence is the set of atoms with f(v) <= alpha_i,
the spec's i-th threshold.  The canonical thresholds rise and end at or
above every value, so their sequences are nested and the last level holds
every vertex.  ``layout_rows``, which the fingerprint reads, gives the
levels of several specs as one boolean matrix from one comparison: each
kind's values, once per level, against the specs' thresholds end to end.
``build_sequence`` reads one spec's rows off as frozensets, a view kept for
the benchmark's molecule selection and the tests.  Values compare as
float64: the molecule loader stores every partial charge as a float, and the
other kinds' values are table masses or small integers, which float64 holds
exactly.
"""

from dataclasses import dataclass
from itertools import compress
import math

import numpy as np

from .elements import ATOMIC_MASS
from .errors import ChargesRequiredError, ConfigError, DataError, UnsupportedElementError
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
# Canonical thresholds per kind; partial charge defaults to per-molecule deciles.
_CANONICAL_THRESHOLDS = {
    ATOMIC_MASS_KIND: tuple(ATOMIC_MASS[e] for e in MASS_LADDER),
    PARTIAL_CHARGE_KIND: None,
    BOND_TYPE_KIND: (0, 1, 2, 3),
    CHIRALITY_KIND: (0, 1, 2),
}
# Bond-type value of a triple or double bond's endpoints; chirality value of a tag.
_ORDER_VALUE = {"TRIPLE": 1, "DOUBLE": 2}
_TAG_VALUE = {CHI_CW: 1, CHI_CCW: 2}


@dataclass(frozen=True)
class FiltrationSpec:
    kind: str
    # None for per-molecule partial-charge deciles (computed per graph).
    thresholds: tuple[float, ...] | None

    def __post_init__(self):
        if self.kind not in FILTRATION_KINDS:
            raise ValueError(f"unknown filtration kind {self.kind!r}")
        if self.thresholds is None:
            if self.kind != PARTIAL_CHARGE_KIND:
                raise ValueError(f"{self.kind} needs explicit thresholds")
            return
        if len(self.thresholds) != self.levels:
            raise ValueError(f"{self.kind} uses {self.levels} thresholds")
        # `not <` also rejects NaN; partial-charge deciles may repeat
        if any(not (a <= b if self.kind == PARTIAL_CHARGE_KIND else a < b)
               for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must increase")

    @property
    def levels(self) -> int:
        return LEVEL_COUNTS[self.kind]


@dataclass(frozen=True)
class SublevelSequence:
    spec: FiltrationSpec
    subsets: tuple[frozenset[int], ...]


def make_spec(kind: str, charge_thresholds=None) -> FiltrationSpec:
    """Canonical spec for a kind; charge_thresholds enables global-decile mode."""
    if kind == PARTIAL_CHARGE_KIND and charge_thresholds is not None:
        return FiltrationSpec(kind, tuple(charge_thresholds))
    return FiltrationSpec(kind, _CANONICAL_THRESHOLDS.get(kind))


def chirality_value(atom, degree: int) -> int:
    """0 for untagged atoms or degree != 4, 1 for CW centers, 2 for CCW."""
    return _TAG_VALUE.get(atom.chirality, 0) if degree == 4 else 0


def decile_boundaries(values) -> tuple[float, ...]:
    """Nearest-rank decile boundaries of a value multiset."""
    ordered = sorted(values)
    if not ordered:
        raise DataError("no values to take deciles of")
    return tuple(ordered[math.ceil(i * len(ordered) / 10) - 1] for i in range(1, 11))


def _mass_values(graph: MolecularGraph) -> list[float]:
    for i, atom in enumerate(graph.atoms):
        if atom.element not in MASS_LADDER:
            raise UnsupportedElementError(
                f"element {atom.element!r} (atom {i}) is outside the "
                f"atomic-mass filtration ladder")
    return [a.atomic_mass for a in graph.atoms]


def _charge_values(graph: MolecularGraph) -> list[float]:
    for i, atom in enumerate(graph.atoms):
        if atom.partial_charge is None:
            raise ChargesRequiredError(
                f"atom {i} has no partial charge; the partial-charge "
                f"filtration needs charges on every atom")
    return [a.partial_charge for a in graph.atoms]


def _bond_type_values(graph: MolecularGraph) -> list[int]:
    """0 for ring atoms, else 1 on a triple bond, 2 on a double bond, 3 otherwise."""
    values = [3] * graph.n_atoms
    for bond in graph.bonds:
        for v in (bond.a, bond.b) if bond.order in _ORDER_VALUE else ():
            values[v] = min(values[v], _ORDER_VALUE[bond.order])
    for v in ring_atoms(graph):
        values[v] = 0
    return values


def _chirality_values(graph: MolecularGraph) -> list[int]:
    values = [0] * graph.n_atoms
    tagged = [i for i, a in enumerate(graph.atoms) if a.chirality in _TAG_VALUE]
    if tagged:  # the degrees of tagged atoms only
        ends = [v for bond in graph.bonds for v in (bond.a, bond.b)]
        for i in tagged:
            values[i] = chirality_value(graph.atoms[i], ends.count(i))
    return values


_VALUES = {
    ATOMIC_MASS_KIND: _mass_values,
    PARTIAL_CHARGE_KIND: _charge_values,
    BOND_TYPE_KIND: _bond_type_values,
    CHIRALITY_KIND: _chirality_values,
}


def layout_rows(graph: MolecularGraph, specs):
    """The levels of every spec in spec order as one boolean (levels, n) matrix,
    and each spec's thresholds: the molecule's own deciles where it has none.
    Values are read in spec order, so the first spec that cannot read raises."""
    values = [_VALUES[spec.kind](graph) for spec in specs]
    thresholds = [decile_boundaries(v) if spec.thresholds is None else spec.thresholds
                  for spec, v in zip(specs, values)]
    levels = np.repeat(np.array(values, dtype=float), [len(t) for t in thresholds], axis=0)
    return levels <= np.array([t for ts in thresholds for t in ts])[:, None], thresholds


def build_sequence(graph: MolecularGraph, spec: FiltrationSpec) -> SublevelSequence:
    """The rows ``layout_rows`` gives ``spec`` as frozensets, with the spec
    they were taken at: a partial-charge spec without thresholds takes the
    molecule's own deciles."""
    rows, (thresholds,) = layout_rows(graph, [spec])
    atoms = range(rows.shape[1])
    return SublevelSequence(FiltrationSpec(spec.kind, thresholds),
                            tuple(frozenset(compress(atoms, row)) for row in rows.tolist()))

