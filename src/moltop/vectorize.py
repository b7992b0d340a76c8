"""Betti-curve fingerprints: the persistence of every sublevel row flattened
into a fixed-length integer vector with a frozen, versioned layout.

Layout: for each parameter kind in the fixed order AM, PC, BT, CH and each
homology dimension 0 then 1, an m x (K_grid + 1) Betti matrix in row-major
order.  m is the kind's level count, column j holds the Betti number at
scale j, and essential classes count towards every column at or after their
birth.

A molecule's rows go from the filtration values to the vector as arrays.
``row_cores`` takes the rows of every kind from one comparison, as one
boolean matrix, and a strong collapse keeps a vertex mask of each; the
distinct kept masks go to the stack builder as they are, and each is
reduced once, into one ``Pairing`` of flat class arrays.  The Betti curves
of every core come from two bincounts over those arrays; each row's removed
vertices are added at scale 0, and one gather puts the curves in layout order.
No diagram is built for a fingerprint: ``expand_cores`` builds them from
the pairing, row by row, only for the diagram dump and the matching
distances.
"""

from dataclasses import dataclass, field

import csv
import functools
import itertools

import numpy as np

from .errors import (DataError, InternalInvariantError, LayoutMismatchError, note_line,
                     process_map, read_text, typed)
from .filtration import (
    LEVEL_COUNTS,
    canonical_kinds,
    layout_rows,
    make_spec,
)
from .homology import (
    Pairing,
    PersistenceDiagram,
    build_rows,
    geodesic_distances,
    reduce_rows,
    strong_collapse,
)
from .molgraph import DatasetRecord, MolecularGraph, load_graph_json

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
        if self.version != LAYOUT_VERSION:
            raise ValueError(f"layout version {self.version!r} is not {LAYOUT_VERSION!r}")
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

    @functools.lru_cache(maxsize=32)  # once per layout, for the CSV writer and reader
    def column_names(self) -> tuple[str, ...]:
        return tuple(f"{KIND_ABBREV[kind]}_h{dim}_r{row:02d}_t{t:02d}" for kind in self.kinds
                     for dim in (0, 1) for row in range(LEVEL_COUNTS[kind])
                     for t in range(self.row_width))

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


def graph_from_record(record: DatasetRecord) -> MolecularGraph:
    """The record's molecule; a JSON graph document is loaded here."""
    graph = record.graph
    return load_graph_json(graph) if isinstance(graph, dict) else graph


@dataclass(frozen=True)
class RowCores:
    """A molecule's sublevel rows as the distinct vertex sets a strong
    collapse keeps of them.

    Layout row j (the levels of every spec, in spec order) is core
    ``core[j]`` plus ``removed[j]`` collapsed vertices; ``core[j]`` is -1 for
    an empty row.  A row's PD_1 is its core's, and its PD_0 is its core's
    with one (0, 1) pair more per removed vertex.
    """
    pairing: Pairing          # of the cores' stack: core c is its row c
    core: tuple[int, ...]     # one per layout row
    removed: tuple[int, ...]  # one per layout row
    diameter: int             # the graph's hop diameter


def _distinct(rows: np.ndarray):
    """The index of each distinct row's first occurrence, in order, and each
    row's index into them; rows are keyed by their bytes."""
    n = rows.shape[1] * rows.itemsize
    data = rows.tobytes()
    first = {}
    at = [first.setdefault(data[i:i + n], i // n) for i in range(0, len(data), n)]
    firsts = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    return firsts, np.searchsorted(firsts, at)


def row_cores(graph: MolecularGraph, specs, k_grid: int,
              distance_mode: str = "full_graph") -> RowCores:
    """The sublevel rows of ``specs`` as the pairing of their distinct
    collapsed vertex sets.

    Distances default to hop counts in the full molecular graph restricted
    to each row; induced_subgraph mode walks each row within itself.  The
    rows are one (L, n) boolean matrix; one walk and one strong collapse
    serve its distinct non-empty rows, and the vertex sets they keep are
    built and reduced in one stack, each set once.
    """
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {distance_mode!r}")
    if not graph.atoms:
        raise DataError("graph must be non-empty before fingerprinting")
    rows = layout_rows(graph, specs)[0]
    filled = np.flatnonzero(rows.any(axis=1))  # a sublevel set can be empty (e.g. no ring atoms)
    firsts, row_mask = _distinct(rows[filled])
    masks = rows[filled[firsts]]
    hops = geodesic_distances(graph, masks if distance_mode == "induced_subgraph" else None)
    kept = strong_collapse(hops, masks, k_grid)
    # Rows that keep the same vertices have the same hop block, in both modes:
    # a shortest path through a removed vertex can pass through its dominator
    # instead, so a collapse keeps induced distances.  One stack holds each
    # distinct kept vertex set once.
    cores, mask_core = _distinct(kept)
    stack = build_rows(kept[cores], hops if hops.ndim == 2 else hops[cores], k_grid)
    core = np.full(len(rows), -1, dtype=np.intp)
    core[filled] = mask_core[row_mask]
    removed = np.zeros(len(rows), dtype=np.intp)
    removed[filled] = (masks.sum(axis=1) - kept.sum(axis=1))[row_mask]
    # every kind's last level holds every atom, and its walk is the full graph's
    diameter = int((hops if hops.ndim == 2 else hops[masks.all(axis=1)]).max())
    return RowCores(reduce_rows(stack), tuple(core.tolist()),
                    tuple(removed.tolist()), diameter)


def expand_cores(cores: RowCores, specs, k_grid: int) -> list:
    """(kind, row index, PD_0, PD_1) of every layout row, cut at ``k_grid``
    (see ``Pairing.diagrams``): its core's diagrams, with PD_0 given back one
    (0, 1) pair per removed vertex; (0, 1) sorts first."""
    empty = (PersistenceDiagram(0, (), (), k_grid), PersistenceDiagram(1, (), (), k_grid))
    cut = cores.pairing.diagrams(k_grid) + [empty]  # core -1: an empty row
    return [(kind, i, PersistenceDiagram(0, ((0, 1),) * removed + cut[c][0].pairs,
                                         cut[c][0].essentials, k_grid), cut[c][1])
            for (kind, i), c, removed in zip([(s.kind, i) for s in specs for i in range(s.levels)],
                                             cores.core, cores.removed)]


def layout_curves(curves: np.ndarray, cores: RowCores, specs) -> np.ndarray:
    """The layout's Betti-curve rows in layout order, from ``curves``: row 2c
    + dim the curve of core c's PD_dim, and the last row an empty diagram's.
    A layout row's PD_0 curve is its core's plus ``removed`` at scale 0,
    where a (0, 1) pair is alive and nowhere else."""
    core = np.array(cores.core)
    pd0 = np.where(core < 0, len(curves) - 1, 2 * core)
    slot = np.concatenate([pd0, pd0 + (core >= 0)])
    order = _layout_order(tuple(s.levels for s in specs))
    rows = curves[slot[order]]
    rows[:, 0] += np.array(cores.removed + (0,) * len(core))[order]
    return rows


@functools.cache
def _layout_order(levels: tuple[int, ...]) -> np.ndarray:
    """Layout order of the (dim, row) slots dim * rows + row of specs with
    ``levels`` levels: each kind's PD_0 rows, then its PD_1 rows."""
    return np.argsort(np.tile(np.repeat(np.arange(len(levels)), levels), 2), kind="stable")


def fingerprint_from_cores(cores: RowCores, specs, k_grid: int, record_id: str) -> Fingerprint:
    """Betti curves of a molecule's layout rows at scales 0..k_grid, flattened
    in layout order.  Core c's PD_dim curve is slot 2c + dim of one bincount
    of the pairing's births less one of its deaths, and the last slot is an
    empty row's; a class born past k_grid counts nowhere, and one dying past
    it counts to the end."""
    layout = FingerprintLayout(LAYOUT_VERSION, tuple(s.kind for s in specs), k_grid)
    p = cores.pairing
    width = k_grid + 2  # the last column takes births and deaths past the grid
    slot = (2 * p.row + p.dim) * width
    size = (2 * p.rows + 1) * width
    diff = (np.bincount(slot + np.minimum(p.birth, k_grid + 1), minlength=size)
            - np.bincount(slot + np.minimum(p.death, k_grid + 1), minlength=size))
    curves = np.cumsum(diff.reshape(-1, width)[:, :-1], axis=1)
    vector = layout_curves(curves, cores, specs).ravel()
    if vector.shape[0] != layout.length:
        raise InternalInvariantError("assembled vector does not match the layout length")
    return Fingerprint(record_id, layout, vector)


def assemble(graph: MolecularGraph, specs, k_grid: int,
             distance_mode: str = "full_graph",
             record_id: str | None = None) -> Fingerprint:
    """Full per-molecule pipeline: sublevel rows -> collapsed cores -> diagrams
    -> curves."""
    specs = list(specs)
    return fingerprint_from_cores(row_cores(graph, specs, k_grid, distance_mode), specs, k_grid,
                                  record_id if record_id is not None else graph.name)


def diagram_records(rows, molecule_id: str) -> list[dict]:
    """Diagram dump entries of one molecule's ``expand_cores`` rows: one
    JSON-ready dict per (row, dimension)."""
    return [{"molecule": molecule_id, "param": kind, "row": row, "dim": pd.dim,
             "pairs": [[b, d] for b, d in pd.pairs], "essentials": list(pd.essentials)}
            for kind, row, pd0, pd1 in rows for pd in (pd0, pd1)]


# ---------------------------------------------------------------------------
# Dataset-level fingerprinting

@dataclass(frozen=True, eq=False)
class FingerprintTable:
    """Fingerprints as one int64 block: row i is record ``record_ids[i]``'s vector."""
    layout: FingerprintLayout
    record_ids: tuple[str, ...]
    block: np.ndarray  # int64, (len(record_ids), layout.length)
    errors: tuple[dict, ...]  # MoltopError.entry of each failed record
    # each fingerprint's expand_cores rows, if computed for a diagram dump
    diagrams: tuple = field(default=(), repr=False)

    def __eq__(self, other):
        return (isinstance(other, FingerprintTable)
                and (self.layout, self.record_ids, self.errors)
                == (other.layout, other.record_ids, other.errors)
                and np.array_equal(self.block, other.block))

    def matrix(self) -> np.ndarray:
        return self.block

    def ids(self) -> list[str]:
        return list(self.record_ids)


def kind_specs(kinds, charge_thresholds=None):
    """Specs for ``kinds``; charge thresholds put the partial-charge spec in
    global-decile mode."""
    return [make_spec(k, charge_thresholds) for k in kinds]


def _on_record(fn, record):
    try:
        return fn(graph_from_record(record)), None
    except DataError as exc:  # a bad record never aborts a run; a bug does
        return None, exc.entry(record.record_id)


def fingerprint_dataset(records, kinds, k_grid: int | None, threads: int = 1,
                        distance_mode: str = "full_graph",
                        charge_thresholds=None, diagrams: bool = False) -> FingerprintTable:
    """One fingerprint per record in input order, on up to ``threads``
    processes and independent of their count, with its row diagrams if
    ``diagrams`` (for a diagram dump), and the ``MoltopError.entry`` of each
    record whose graph or fingerprint raised a DataError; the run fails if
    nothing succeeds, and a dead worker raises a MoltopError naming the
    records whose results had not returned.  An open (None) ``k_grid``
    becomes the largest diameter of the graphs that succeed, capped at
    K_GRID_CAP: each graph is reduced at the cap, its fingerprint is cut to
    that k_grid, and ``Pairing.diagrams`` cuts its diagrams to it."""
    records, kinds = list(records), tuple(kinds)
    if not records:
        raise DataError("no records to fingerprint")
    specs = kind_specs(kinds, charge_thresholds)

    def lost(done):
        ids = [r.record_id for r in records[done:]]
        return (f"a worker died; {len(ids)} records had not returned: "
                + ", ".join(ids[:10]) + (", ..." if len(ids) > 10 else ""))
    task = functools.partial(_on_record, functools.partial(
        row_cores, specs=specs, k_grid=K_GRID_CAP if k_grid is None else k_grid,
        distance_mode=distance_mode))
    pairs = process_map(task, records, threads, lost)
    done = [(record.record_id, c) for record, (c, e) in zip(records, pairs) if e is None]
    errors = [e for _, e in pairs if e is not None]
    if not done:
        raise DataError(f"all {len(records)} records failed; first error: "
                        f"{errors[0]['error']}")
    if k_grid is None:
        k_grid = min(K_GRID_CAP, max(max(cores.diameter for _, cores in done), 1))
    layout = FingerprintLayout(LAYOUT_VERSION, kinds, k_grid)
    block = np.empty((len(done), layout.length), dtype=np.int64)
    for row, (record_id, cores) in zip(block, done):
        row[:] = fingerprint_from_cores(cores, specs, k_grid, record_id).vector
    return FingerprintTable(
        layout, tuple(record_id for record_id, _ in done), block, tuple(errors),
        tuple(expand_cores(cores, specs, k_grid) for _, cores in done) if diagrams else ())


def slice_table(table: FingerprintTable, kinds) -> FingerprintTable:
    """Restrict a table to a kind subset by slicing the frozen layout blocks."""
    kinds = canonical_kinds(kinds)
    if not all(k in table.layout.kinds for k in kinds):
        raise LayoutMismatchError("requested kinds missing from the table layout")
    sub_layout = FingerprintLayout(table.layout.version, kinds, table.layout.k_grid)
    blocks = table.layout.block_slices()
    columns = np.concatenate([np.arange(blocks[(k, dim)].start, blocks[(k, dim)].stop)
                              for k in kinds for dim in (0, 1)])
    return FingerprintTable(sub_layout, table.record_ids, table.block.take(columns, axis=1),
                            table.errors)


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
        writer.writerow(("record_id",) + layout.column_names())
        for record_id, vector in zip(table.record_ids, table.block):
            writer.writerow([record_id] + vector.tolist())


def _plain_digits(entries) -> bool:
    """Every entry is ASCII 0-9 only: no sign, space, underscore or other numeral,
    so ``int`` reads it as the count the writer wrote."""
    digits = "".join(entries)
    return all(entries) and digits.isascii() and (digits.isdigit() or not digits)


def _plain_entries(text: str) -> bool:
    """``text`` is one or more comma-separated entries that ``_plain_digits`` accepts."""
    return (text.isascii() and not text.encode().translate(None, b"0123456789,")
            and text != "" and text[0] != "," and text[-1] != "," and ",," not in text)


def _lines(text: str):
    r"""The lines of ``text`` with their ends, as ``io.StringIO(text, newline="")``
    reads them: a line ends at a \n, a \r\n or a lone \r."""
    start, lf = 0, -1
    while start < len(text):
        if lf < start:
            lf = text.find("\n", start)
            lf = len(text) if lf < 0 else lf
        cr = text.find("\r", start, lf)
        end = lf + 1 if cr < 0 or cr == lf - 1 else cr + 1
        yield text[start:end]
        start = end


_INT64_MAX = np.iinfo(np.int64).max


def _above_int64(digits: str) -> bool:
    """The plain-digit entry ``digits`` is above the int64 maximum; compared as
    text, so any length reads in the same time."""
    digits = digits.lstrip("0")
    return (len(digits), digits) > (len(str(_INT64_MAX)), str(_INT64_MAX))


def read_fingerprints_csv(path) -> FingerprintTable:
    """The table in the fingerprint CSV at ``path``; DataError naming the file and
    line of the first fault.

    A row's entries go from the line's text to the block in one
    ``np.fromstring``, after a check that they are plain digits.  A line holding
    a quote, or longer than ``csv.field_size_limit()``, is read by the csv module
    instead, which takes a quoted field across line ends and enforces the limit.
    """
    text = read_text(path, "fingerprint CSV")
    lines = _lines(text)
    abbrev_to_kind = {v: k for k, v in KIND_ABBREV.items()}
    magic = next(lines, "").strip()
    if not magic.startswith(_CSV_MAGIC):
        raise DataError(f"{path}: not a fingerprint CSV")
    try:
        meta = dict(part.split("=", 1) for part in magic.split()[1:])
        kinds = tuple(abbrev_to_kind[a] for a in meta["kinds"].split(","))
        k_grid = int(meta["k_grid"])
        version = meta["version"]
    except (KeyError, ValueError):
        raise DataError(f"{path}: malformed header line {magic!r}") from None
    try:
        layout = FingerprintLayout(version, kinds, k_grid)
    except ValueError as exc:  # the layout's own checks
        raise DataError(f"{path}: invalid fingerprint layout: {exc}") from None
    line = 1  # the file line last read
    limit = csv.field_size_limit()

    def csv_record(first: str) -> list[str]:
        """The fields of the record that starts with line ``first``."""
        nonlocal line
        reader = csv.reader(itertools.chain((first,), lines))
        try:
            return next(reader)
        except csv.Error as exc:  # such as a field past csv.field_size_limit()
            raise DataError(f"{path} line {line + reader.line_num}: cannot read fingerprint "
                            f"CSV ({exc})") from None
        finally:
            line += reader.line_num

    def bad_entry(entries) -> DataError:
        bad = next(x for x in entries if not _plain_digits([x]))
        return DataError(f"{path} line {line}: entry {bad!r} is not an unsigned integer in "
                         "ASCII digits")

    first = next(lines, None)
    header = [] if first is None else csv_record(first)
    # the width first: the names take work in the declared k_grid
    length = layout.length
    if len(header) != length + 1 or tuple(header[1:]) != layout.column_names():
        raise DataError(f"{path}: column names do not match the declared layout")
    # a row takes a line or more and two characters or more per entry
    ends = text.count("\n") + text.count("\r") - text.count("\r\n")
    block = np.empty((max(0, min(ends + 1 - line, len(text) // (2 * length))), length),
                     dtype=np.int64)
    record_ids, first_line = [], {}
    for row in lines:
        if '"' in row or len(row) > limit:
            fields = csv_record(row)
            record_id, entries = (fields or [""])[0], fields[1:]
            if not _plain_digits(entries):
                raise bad_entry(entries)
            entries = ",".join(entries)
        else:
            line += 1
            record_id, comma, entries = row.rstrip("\r\n").partition(",")
            if comma and not _plain_entries(entries):
                raise bad_entry(entries.split(","))
        vector = np.fromstring(entries, dtype=np.int64, sep=",")
        # fromstring saturates: an entry read as the largest int64 may be past it
        if (vector == _INT64_MAX).any() and any(map(_above_int64, entries.split(","))):
            raise DataError(f"{path} line {line}: entry outside int64")
        if vector.shape[0] != length:
            raise DataError(f"{path} line {line}: wrong number of entries")
        note_line(first_line, record_id, line, path)
        block[len(record_ids)] = vector
        record_ids.append(record_id)
    if not record_ids:
        raise DataError(f"{path}: no fingerprint rows")
    return FingerprintTable(layout, tuple(record_ids), block[:len(record_ids)], ())
