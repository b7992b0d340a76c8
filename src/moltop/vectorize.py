"""Betti-curve fingerprints: per-row persistence diagrams flattened into a
fixed-length integer vector with a frozen, versioned layout.

Layout: for each parameter kind in the fixed order AM, PC, BT, CH and each
homology dimension 0 then 1, an m x (K_grid + 1) Betti matrix in row-major
order.  m is the kind's level count, column j holds the Betti number at
scale j, and essential classes count towards every column at or after their
birth.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import csv
import json

import numpy as np

from .errors import DataError, LayoutMismatchError
from .filtration import (
    FILTRATION_KINDS,
    LEVEL_COUNTS,
    PARTIAL_CHARGE_KIND,
    build_sequence,
    make_spec,
)
from .homology import (
    PersistenceDiagram,
    build_vr_row,
    geodesic_distances,
    reduce_complex,
)
from .molgraph import (
    DatasetRecord,
    MolecularGraph,
    detect_rings,
    expand_hydrogens,
    load_graph_json,
    parse_smiles,
)

LAYOUT_VERSION = "1"
KIND_ABBREV = {"ATOMIC_MASS": "AM", "PARTIAL_CHARGE": "PC",
               "BOND_TYPE": "BT", "CHIRALITY": "CH"}
DISTANCE_MODES = ("full_graph", "induced_subgraph")


@dataclass(frozen=True)
class FingerprintLayout:
    version: str
    kinds: tuple[str, ...]
    k_grid: int

    def __post_init__(self):
        if not self.kinds:
            raise ValueError("layout needs at least one filtration kind")
        ordered = tuple(k for k in FILTRATION_KINDS if k in self.kinds)
        if ordered != self.kinds:
            raise ValueError("kinds must follow the fixed AM, PC, BT, CH order")
        if self.k_grid < 1:
            raise ValueError("k_grid must be positive")

    @property
    def row_width(self) -> int:
        return self.k_grid + 1

    @property
    def length(self) -> int:
        return sum(LEVEL_COUNTS[k] * 2 * self.row_width for k in self.kinds)

    def block_slices(self) -> dict[tuple[str, int], slice]:
        """Flat-vector slice of each (kind, homology dim) Betti matrix."""
        out = {}
        offset = 0
        for kind in self.kinds:
            size = LEVEL_COUNTS[kind] * self.row_width
            for dim in (0, 1):
                out[(kind, dim)] = slice(offset, offset + size)
                offset += size
        return out

    def column_names(self) -> list[str]:
        names = []
        for kind in self.kinds:
            abbrev = KIND_ABBREV[kind]
            for dim in (0, 1):
                for row in range(LEVEL_COUNTS[kind]):
                    for t in range(self.row_width):
                        names.append(f"{abbrev}_h{dim}_r{row:02d}_t{t:02d}")
        return names

    def to_dict(self) -> dict:
        return {"version": self.version, "kinds": list(self.kinds), "k_grid": self.k_grid}

    @classmethod
    def from_dict(cls, doc: dict) -> "FingerprintLayout":
        return cls(doc["version"], tuple(doc["kinds"]), int(doc["k_grid"]))


@dataclass(frozen=True)
class Fingerprint:
    record_id: str
    layout: FingerprintLayout
    vector: np.ndarray  # int64, length layout.length

    def __eq__(self, other):
        return (isinstance(other, Fingerprint)
                and self.record_id == other.record_id
                and self.layout == other.layout
                and np.array_equal(self.vector, other.vector))


def betti_curve(pd: PersistenceDiagram, k_grid: int) -> np.ndarray:
    """Betti numbers at scales 0..k_grid as a step-function vector."""
    diff = np.zeros(k_grid + 2, dtype=np.int64)
    for b, d in pd.pairs:
        diff[b] += 1
        diff[min(d, k_grid + 1)] -= 1
    for b in pd.essentials:
        diff[b] += 1
    return np.cumsum(diff[:-1])


def prepare_graph(graph: MolecularGraph) -> MolecularGraph:
    """Expand hydrogens and compute ring flags (the pipeline's canonical form)."""
    return detect_rings(expand_hydrogens(graph))


def graph_from_record(record: DatasetRecord) -> MolecularGraph:
    """The record's molecule in canonical form; JSON graphs load in that form."""
    if record.smiles is not None:
        return prepare_graph(parse_smiles(record.smiles, name=record.record_id))
    if record.graph is not None:
        return load_graph_json(record.graph)
    return load_graph_json(record.graph_path)


def row_diagrams(graph: MolecularGraph, specs, k_grid: int,
                 distance_mode: str = "full_graph"):
    """(kind, row index, PD_0, PD_1) for every sublevel row, in layout order.

    Distances default to hop counts in the full molecular graph restricted
    to each row; induced_subgraph mode re-walks within each row instead.
    Rows with identical vertex sets share one computation.
    """
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {distance_mode!r}")
    if any(a.implicit_hydrogens for a in graph.atoms):
        raise DataError("graph must be hydrogen-expanded before fingerprinting")
    full = geodesic_distances(graph)
    empty = (PersistenceDiagram(0, (), (), k_grid),
             PersistenceDiagram(1, (), (), k_grid))
    cache: dict[frozenset, tuple[PersistenceDiagram, PersistenceDiagram]] = {}
    out = []
    for spec in specs:
        seq = build_sequence(graph, spec)
        for i, vertex_set in enumerate(seq.subsets):
            key = frozenset(vertex_set)
            hit = cache.get(key)
            if hit is None:
                if not key:
                    hit = empty  # a sublevel set can be empty (e.g. no ring atoms)
                else:
                    if distance_mode == "induced_subgraph":
                        dist = geodesic_distances(graph, within=vertex_set)
                    else:
                        dist = full
                    cx = build_vr_row(vertex_set, dist, k_grid)
                    hit = reduce_complex(cx, validate=False)
                cache[key] = hit
            out.append((spec.kind, i, hit[0], hit[1]))
    return out


def fingerprint_from_rows(rows, specs, k_grid: int, record_id: str) -> Fingerprint:
    """Betti curves of ``row_diagrams`` output, flattened in layout order."""
    layout = FingerprintLayout(LAYOUT_VERSION, tuple(s.kind for s in specs), k_grid)
    by_kind: dict[str, list] = {s.kind: [] for s in specs}
    for kind, _, pd0, pd1 in rows:
        by_kind[kind].append((pd0, pd1))
    chunks = []
    for spec in specs:
        for dim in (0, 1):
            for pd0, pd1 in by_kind[spec.kind]:
                chunks.append(betti_curve(pd0 if dim == 0 else pd1, k_grid))
    vector = np.concatenate(chunks)
    if vector.shape[0] != layout.length:
        raise DataError("assembled vector does not match the layout length")
    return Fingerprint(record_id, layout, vector)


def assemble(graph: MolecularGraph, specs, k_grid: int,
             distance_mode: str = "full_graph",
             record_id: str | None = None) -> Fingerprint:
    """Full per-molecule pipeline: sequences -> VR rows -> diagrams -> curves."""
    specs = list(specs)
    rows = row_diagrams(graph, specs, k_grid, distance_mode)
    return fingerprint_from_rows(rows, specs, k_grid,
                                 record_id if record_id is not None else graph.name)


def diagram_records(graph: MolecularGraph, specs, k_grid: int,
                    distance_mode: str = "full_graph",
                    molecule_id: str | None = None) -> list[dict]:
    """Diagram dump entries: one JSON-ready dict per (row, dimension)."""
    name = molecule_id if molecule_id is not None else graph.name
    out = []
    for kind, row, pd0, pd1 in row_diagrams(graph, specs, k_grid, distance_mode):
        for pd in (pd0, pd1):
            out.append({
                "molecule": name,
                "param": kind,
                "row": row,
                "dim": pd.dim,
                "pairs": [[b, d] for b, d in pd.pairs],
                "essentials": list(pd.essentials),
            })
    return out


# ---------------------------------------------------------------------------
# Dataset-level fingerprinting

@dataclass(frozen=True)
class FingerprintTable:
    layout: FingerprintLayout
    fingerprints: tuple[Fingerprint, ...]
    errors: tuple[dict, ...]  # {"record_id", "error"} per failed record

    def matrix(self) -> np.ndarray:
        return np.vstack([fp.vector for fp in self.fingerprints])

    def ids(self) -> list[str]:
        return [fp.record_id for fp in self.fingerprints]


def kind_specs(kinds, charge_thresholds=None):
    """Specs for ``kinds``; charge thresholds put the partial-charge spec in
    global-decile mode."""
    return [make_spec(k, charge_thresholds if k == PARTIAL_CHARGE_KIND else None)
            for k in kinds]


def _fingerprint_one(args):
    record, kinds, charge_thresholds, k_grid, distance_mode = args
    try:
        graph = graph_from_record(record)
        fp = assemble(graph, kind_specs(kinds, charge_thresholds), k_grid,
                      distance_mode, record_id=record.record_id)
        return ("ok", fp)
    except DataError as exc:  # a bad record never aborts a run; a bug does
        return ("err", {"record_id": record.record_id, "error": str(exc)})


def fingerprint_dataset(records, kinds, k_grid: int, threads: int = 1,
                        distance_mode: str = "full_graph",
                        charge_thresholds=None) -> FingerprintTable:
    """One fingerprint per record, in input order, independent of thread count.

    Per-record data errors are collected; the run fails if nothing succeeds.
    Any other exception, such as an InternalInvariantError, propagates.
    """
    records = list(records)
    if not records:
        raise DataError("no records to fingerprint")
    kinds = tuple(kinds)
    layout = FingerprintLayout(LAYOUT_VERSION, kinds, k_grid)
    tasks = [(r, kinds, charge_thresholds, k_grid, distance_mode) for r in records]
    if threads <= 1:
        results = [_fingerprint_one(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_fingerprint_one, tasks, chunksize=chunk))
    fingerprints = []
    errors = []
    for status, payload in results:
        if status == "ok":
            fingerprints.append(payload)
        else:
            errors.append(payload)
    if not fingerprints:
        raise DataError(f"all {len(records)} records failed; first error: "
                        f"{errors[0]['error']}")
    return FingerprintTable(layout, tuple(fingerprints), tuple(errors))


def slice_table(table: FingerprintTable, kinds) -> FingerprintTable:
    """Restrict a table to a kind subset by slicing the frozen layout blocks."""
    kinds = tuple(k for k in FILTRATION_KINDS if k in set(kinds))
    if not all(k in table.layout.kinds for k in kinds):
        raise LayoutMismatchError("requested kinds missing from the table layout")
    sub_layout = FingerprintLayout(table.layout.version, kinds, table.layout.k_grid)
    blocks = table.layout.block_slices()
    keep = [blocks[(k, dim)] for k in kinds for dim in (0, 1)]
    fps = tuple(
        Fingerprint(fp.record_id, sub_layout,
                    np.concatenate([fp.vector[s] for s in keep]))
        for fp in table.fingerprints)
    return FingerprintTable(sub_layout, fps, table.errors)


# ---------------------------------------------------------------------------
# On-disk formats (bit-exact: integer vectors, documented layouts)

_CSV_MAGIC = "#moltop-fingerprints"


def write_fingerprints_csv(table: FingerprintTable, path):
    layout = table.layout
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{_CSV_MAGIC} version={layout.version} "
                 f"kinds={','.join(KIND_ABBREV[k] for k in layout.kinds)} "
                 f"k_grid={layout.k_grid}\n")
        writer = csv.writer(fh)
        writer.writerow(["record_id"] + layout.column_names())
        for fp in table.fingerprints:
            writer.writerow([fp.record_id] + fp.vector.tolist())


def read_fingerprints_csv(path) -> FingerprintTable:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _parse_fingerprints_csv(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read fingerprint CSV ({exc})") from None


def _parse_fingerprints_csv(fh, path) -> FingerprintTable:
    abbrev_to_kind = {v: k for k, v in KIND_ABBREV.items()}
    magic = fh.readline().strip()
    if not magic.startswith(_CSV_MAGIC):
        raise DataError(f"{path}: not a fingerprint CSV")
    try:
        meta = dict(part.split("=", 1) for part in magic.split()[1:])
        kinds = tuple(abbrev_to_kind[a] for a in meta["kinds"].split(","))
        layout = FingerprintLayout(meta["version"], kinds, int(meta["k_grid"]))
    except (KeyError, ValueError):
        raise DataError(f"{path}: malformed header line {magic!r}") from None
    reader = csv.reader(fh)
    header = next(reader, [])
    if header[1:] != layout.column_names():
        raise DataError(f"{path}: column names do not match the declared layout")
    fps = []
    for row in reader:
        try:
            vector = np.array([int(x) for x in row[1:]], dtype=np.int64)
        except ValueError:
            raise DataError(f"{path} line {reader.line_num}: non-integer entry") from None
        if vector.shape[0] != layout.length:
            raise DataError(f"{path} line {reader.line_num}: wrong number of entries")
        fps.append(Fingerprint(row[0], layout, vector))
    return FingerprintTable(layout, tuple(fps), ())


def write_fingerprints_jsonl(table: FingerprintTable, path):
    with open(path, "w", encoding="utf-8") as fh:
        for fp in table.fingerprints:
            doc = {"record_id": fp.record_id, "layout": fp.layout.to_dict(),
                   "vector": fp.vector.tolist()}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def read_fingerprints_jsonl(path) -> FingerprintTable:
    fps = []
    layout = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            this_layout = FingerprintLayout.from_dict(doc["layout"])
            if layout is None:
                layout = this_layout
            elif layout != this_layout:
                raise LayoutMismatchError(f"{path}: mixed layouts in one file")
            fps.append(Fingerprint(doc["record_id"], layout,
                                   np.array(doc["vector"], dtype=np.int64)))
    if layout is None:
        raise DataError(f"{path}: no fingerprints")
    return FingerprintTable(layout, tuple(fps), ())
