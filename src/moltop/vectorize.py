"""Betti-curve fingerprints: per-row persistence diagrams flattened into a
fixed-length integer vector with a frozen, versioned layout.

Layout: for each parameter kind in the fixed order AM, PC, BT, CH and each
homology dimension 0 then 1, an m x (K_grid + 1) Betti matrix in row-major
order.  m is the kind's level count, column j holds the Betti number at
scale j, and essential classes count towards every column at or after their
birth.
"""

from dataclasses import dataclass, field, replace

import csv
import functools
import io
import itertools

import numpy as np

from .errors import DataError, LayoutMismatchError, note_line, process_map, read_text, typed
from .filtration import (
    LEVEL_COUNTS,
    PARTIAL_CHARGE_KIND,
    build_sequence,
    canonical_kinds,
    make_spec,
)
from .homology import (
    PersistenceDiagram,
    build_rows,
    geodesic_distances,
    reduce_rows,
    strong_collapse,
    truncate,
)
from .molgraph import (
    DatasetRecord,
    MolecularGraph,
    expand_hydrogens,
    load_graph_json,
    parse_smiles,
)

LAYOUT_VERSION = "1"
KIND_ABBREV = {"ATOMIC_MASS": "AM", "PARTIAL_CHARGE": "PC",
               "BOND_TYPE": "BT", "CHIRALITY": "CH"}
DISTANCE_MODES = ("full_graph", "induced_subgraph")
K_GRID_CAP = 20  # the largest k_grid an open one becomes


@dataclass(frozen=True)
class FingerprintLayout:
    version: str
    kinds: tuple[str, ...]
    k_grid: int

    def __post_init__(self):
        if canonical_kinds(self.kinds, ValueError) != self.kinds:
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
        """Layout from its JSON form; DataError unless it is a valid layout."""
        if not isinstance(doc, dict):
            raise DataError("fingerprint layout is not an object")
        try:
            return cls(typed(doc.get("version"), str, "layout version", DataError),
                       tuple(typed(doc.get("kinds"), list, "layout kinds", DataError)),
                       typed(doc.get("k_grid"), int, "layout k_grid", DataError))
        except ValueError as exc:  # the layout's own checks
            raise DataError(f"invalid fingerprint layout: {exc}") from None


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


def betti_curves(diagrams, k_grid: int) -> np.ndarray:
    """(len(diagrams), k_grid + 1) Betti numbers at scales 0..k_grid, from
    one bincount of births minus one of deaths, all diagrams side by side."""
    width = k_grid + 2  # the last slot takes deaths past the grid
    size = len(diagrams) * width
    base = np.arange(0, size, width)
    flat = itertools.chain.from_iterable
    pairs = np.fromiter(flat(flat(pd.pairs for pd in diagrams)), dtype=np.intp).reshape(-1, 2)
    at = np.repeat(base, [len(pd.pairs) for pd in diagrams])
    births = np.concatenate([
        at + pairs[:, 0],
        np.repeat(base, [len(pd.essentials) for pd in diagrams])
        + np.fromiter(flat(pd.essentials for pd in diagrams), dtype=np.intp)])
    diff = (np.bincount(births, minlength=size)
            - np.bincount(at + np.minimum(pairs[:, 1], k_grid + 1), minlength=size))
    return np.cumsum(diff.reshape(-1, width)[:, :-1], axis=1)


def graph_from_record(record: DatasetRecord) -> MolecularGraph:
    """The record's molecule with explicit hydrogens; JSON graphs load that way."""
    if record.smiles is not None:
        return expand_hydrogens(parse_smiles(record.smiles, name=record.record_id))
    return load_graph_json(record.graph if record.graph is not None else record.graph_path)


def row_diagrams(graph: MolecularGraph, specs, k_grid: int,
                 distance_mode: str = "full_graph"):
    """(kind, row index, PD_0, PD_1) for every sublevel row, in layout order,
    and the graph's hop diameter.

    Distances default to hop counts in the full molecular graph restricted
    to each row; induced_subgraph mode walks each row within itself.  One
    walk and one strong collapse serve all distinct rows; the vertex sets
    they keep are built and reduced in one stack, each set once, and every
    removed vertex gives PD_0 back its (0, 1) pair.
    """
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {distance_mode!r}")
    if not graph.atoms or any(a.implicit_hydrogens for a in graph.atoms):
        raise DataError("graph must be non-empty and hydrogen-expanded before fingerprinting")
    rows = [(spec.kind, i, s) for spec in specs
            for i, s in enumerate(build_sequence(graph, spec).subsets)]
    distinct = list(dict.fromkeys(s for _, _, s in rows if s))
    masks = np.zeros((len(distinct), graph.n_atoms), dtype=bool)
    for r, s in enumerate(distinct):
        masks[r, list(s)] = True
    hops = geodesic_distances(
        graph, masks if distance_mode == "induced_subgraph" else None).hops
    kept = strong_collapse(hops, masks, k_grid)
    # Rows that keep the same vertices have the same hop block, in both modes:
    # a shortest path through a removed vertex can pass through its dominator
    # instead, so a collapse keeps induced distances.  One stack holds each
    # distinct kept vertex set once.
    first = {}
    for r, core in enumerate(kept):
        first.setdefault(core.tobytes(), r)
    cores = list(first.values())
    stack = build_rows([np.flatnonzero(kept[r]).tolist() for r in cores],
                       hops if hops.ndim == 2 else hops[cores], k_grid)
    reduced = dict(zip(first, reduce_rows(stack, validate=False)))
    # a sublevel set can be empty (e.g. no ring atoms)
    diagrams = {frozenset(): (PersistenceDiagram(0, (), (), k_grid),
                              PersistenceDiagram(1, (), (), k_grid))}
    for s, core in zip(distinct, kept):
        pd0, pd1 = reduced[core.tobytes()]
        removed = len(s) - int(np.count_nonzero(core))  # (0, 1) sorts first
        diagrams[s] = (replace(pd0, pairs=((0, 1),) * removed + pd0.pairs), pd1)
    # every kind's last level holds every atom, and its walk is the full graph's
    diameter = int((hops if hops.ndim == 2 else hops[masks.all(axis=1)]).max())
    return [(kind, i, *diagrams[s]) for kind, i, s in rows], diameter


def fingerprint_from_rows(rows, specs, k_grid: int, record_id: str) -> Fingerprint:
    """Betti curves of ``row_diagrams`` output at scales 0..k_grid, flattened in
    layout order; a diagram reduced past k_grid gives its truncation's curve.
    Rows of one sublevel set share diagram objects, each computed once."""
    layout = FingerprintLayout(LAYOUT_VERSION, tuple(s.kind for s in specs), k_grid)
    by_kind: dict[str, list] = {s.kind: [] for s in specs}
    for kind, _, pd0, pd1 in rows:
        by_kind[kind].append((pd0, pd1))
    diagrams = [pds[dim] for spec in specs for dim in (0, 1) for pds in by_kind[spec.kind]]
    slot: dict[int, int] = {}
    at = [slot.setdefault(id(pd), len(slot)) for pd in diagrams]
    distinct = list({id(pd): pd for pd in diagrams}.values())
    cap = max([k_grid] + [pd.eps_max for pd in distinct])
    vector = betti_curves(distinct, cap)[at, :k_grid + 1].ravel()
    if vector.shape[0] != layout.length:
        raise DataError("assembled vector does not match the layout length")
    return Fingerprint(record_id, layout, vector)


def assemble(graph: MolecularGraph, specs, k_grid: int,
             distance_mode: str = "full_graph",
             record_id: str | None = None) -> Fingerprint:
    """Full per-molecule pipeline: sequences -> VR rows -> diagrams -> curves."""
    specs = list(specs)
    rows, _ = row_diagrams(graph, specs, k_grid, distance_mode)
    return fingerprint_from_rows(rows, specs, k_grid,
                                 record_id if record_id is not None else graph.name)


def diagram_records(rows, molecule_id: str) -> list[dict]:
    """Diagram dump entries of one molecule's ``row_diagrams`` rows: one
    JSON-ready dict per (row, dimension)."""
    return [{"molecule": molecule_id, "param": kind, "row": row, "dim": pd.dim,
             "pairs": [[b, d] for b, d in pd.pairs], "essentials": list(pd.essentials)}
            for kind, row, pd0, pd1 in rows for pd in (pd0, pd1)]


# ---------------------------------------------------------------------------
# Dataset-level fingerprinting

@dataclass(frozen=True)
class FingerprintTable:
    layout: FingerprintLayout
    fingerprints: tuple[Fingerprint, ...]
    errors: tuple[dict, ...]  # MoltopError.entry of each failed record
    # each fingerprint's row_diagrams rows, if computed for a diagram dump
    diagrams: tuple = field(default=(), compare=False, repr=False)

    def matrix(self) -> np.ndarray:
        return np.vstack([fp.vector for fp in self.fingerprints])

    def ids(self) -> list[str]:
        return [fp.record_id for fp in self.fingerprints]


def kind_specs(kinds, charge_thresholds=None):
    """Specs for ``kinds``; charge thresholds put the partial-charge spec in
    global-decile mode."""
    return [make_spec(k, charge_thresholds if k == PARTIAL_CHARGE_KIND else None)
            for k in kinds]


def _on_record(fn, record):
    try:
        return fn(graph_from_record(record)), None
    except DataError as exc:  # a bad record never aborts a run; a bug does
        return None, exc.entry(record.record_id)


def map_records(fn, records, threads: int = 1):
    """``(record_id, fn(graph))`` of each record's graph in input order, on up
    to ``threads`` processes, and the ``MoltopError.entry`` of each record
    whose graph or result raised a DataError.  A dead worker raises a
    MoltopError naming the records whose results had not returned."""

    def lost(done):
        ids = [r.record_id for r in records[done:]]
        return (f"a worker died; {len(ids)} records had not returned: "
                + ", ".join(ids[:10]) + (", ..." if len(ids) > 10 else ""))
    pairs = process_map(functools.partial(_on_record, fn), records, threads, lost)
    return ([(record.record_id, r) for record, (r, e) in zip(records, pairs) if e is None],
            [e for _, e in pairs if e is not None])


def fingerprint_dataset(records, kinds, k_grid: int | None, threads: int = 1,
                        distance_mode: str = "full_graph",
                        charge_thresholds=None, diagrams: bool = False) -> FingerprintTable:
    """One fingerprint per record (see ``map_records``), independent of thread
    count, with its row diagrams if ``diagrams`` (for a diagram dump), and the
    per-record data errors; the run fails if nothing succeeds.  An open (None)
    ``k_grid`` becomes the largest diameter of the graphs that succeed, capped
    at K_GRID_CAP: each graph is reduced at the cap, its fingerprint is cut to
    that k_grid, and ``truncate`` cuts its diagrams to it."""
    records, kinds = list(records), tuple(kinds)
    if not records:
        raise DataError("no records to fingerprint")
    specs = kind_specs(kinds, charge_thresholds)
    done, errors = map_records(functools.partial(
        row_diagrams, specs=specs, k_grid=K_GRID_CAP if k_grid is None else k_grid,
        distance_mode=distance_mode), records, threads)
    if not done:
        raise DataError(f"all {len(records)} records failed; first error: "
                        f"{errors[0]['error']}")
    if k_grid is None:
        k_grid = min(K_GRID_CAP, max(max(diameter for _, (_, diameter) in done), 1))
    return FingerprintTable(
        FingerprintLayout(LAYOUT_VERSION, kinds, k_grid),
        tuple(fingerprint_from_rows(rows, specs, k_grid, record_id)
              for record_id, (rows, _) in done),
        tuple(errors),
        tuple([(kind, i, truncate(pd0, k_grid), truncate(pd1, k_grid))
               for kind, i, pd0, pd1 in rows] for _, (rows, _) in done) if diagrams else ())


def slice_table(table: FingerprintTable, kinds) -> FingerprintTable:
    """Restrict a table to a kind subset by slicing the frozen layout blocks."""
    kinds = canonical_kinds(kinds)
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
    fh = io.StringIO(read_text(path, "fingerprint CSV"), newline="")
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
    reader = csv.reader(fh)  # file line reader.line_num + 1: it starts after the magic
    fps, first_line = [], {}
    try:
        header = next(reader, [])
        # the width first: the names take work in the declared k_grid
        if len(header) != layout.length + 1 or header[1:] != layout.column_names():
            raise DataError(f"{path}: column names do not match the declared layout")
        for row in reader:
            try:
                vector = np.array([int(x) for x in row[1:]], dtype=np.int64)
            except ValueError:
                raise DataError(f"{path} line {reader.line_num + 1}: non-integer entry") from None
            except OverflowError:
                raise DataError(f"{path} line {reader.line_num + 1}: entry outside int64") from None
            if vector.shape[0] != layout.length:
                raise DataError(f"{path} line {reader.line_num + 1}: wrong number of entries")
            note_line(first_line, row[0], reader.line_num + 1, path)
            fps.append(Fingerprint(row[0], layout, vector))
    except csv.Error as exc:  # such as a field past csv.field_size_limit()
        raise DataError(f"{path} line {reader.line_num + 1}: cannot read fingerprint CSV "
                        f"({exc})") from None
    if not fps:
        raise DataError(f"{path}: no fingerprint rows")
    return FingerprintTable(layout, tuple(fps), ())

