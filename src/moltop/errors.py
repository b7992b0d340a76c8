"""Exception hierarchy shared across the toolkit, the one reader of input files
(and of CSV ones), the one type and finite-number checks of the values read from
them, the one repeated-id check, and the one process fan-out.

The CLI maps these onto its exit-code table: configuration problems -> 2,
data/input problems -> 3, violated internal invariants -> 4.
"""

import csv
import gc
import io
import json
import math
import os


class MoltopError(Exception):
    """Base class for all toolkit errors."""

    def entry(self, record_id) -> dict:
        """The ``errors.json`` entry of a record skipped for this error."""
        return {"record_id": record_id, "error": str(self), "error_class": type(self).__name__}


class ConfigError(MoltopError):
    """Invalid run configuration or incompatible artifact versions."""


class DataError(MoltopError):
    """Invalid input data (datasets, molecule files, SMILES strings)."""


class SmilesParseError(DataError):
    """SMILES text rejected; carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SchemaError(DataError):
    """Molecule/dataset JSON violating the documented schema; carries the JSON path."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{message} (at {path})")
        self.path = path


class UnsupportedElementError(DataError):
    """Element outside the set a filtration or lookup table supports."""


class ChargesRequiredError(DataError):
    """Partial-charge filtration requested on a molecule missing charges."""


class LayoutMismatchError(ConfigError):
    """Fingerprints with different layout versions cannot be combined."""


class InternalInvariantError(MoltopError):
    """A structural invariant the engine relies on was violated; indicates a bug."""


def typed(value, kind, key: str, error=ConfigError):
    """``value`` if it is a ``kind`` (a bool is no number), else ``error`` naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{key} has the wrong type: {value!r}")
    return value


def finite_number(value, non_numeric: str, non_finite: str) -> float:
    """``float(value)`` if that is a finite number.  Else a DataError that says
    ``non_numeric`` (text float() rejects, or None from a missing field) or
    ``non_finite`` (the 'nan' and 'inf' float() reads, json's NaN and Infinity),
    then the value."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise DataError(f"{non_numeric} {value!r}") from None
    if not math.isfinite(number):
        raise DataError(f"{non_finite} {value!r}")
    return number


def read_text(path, what: str, error=DataError) -> str:
    """The UTF-8 text of the file at ``path``, less a leading byte-order mark.  Any
    failure to open or decode it raises ``error`` naming the file (and the line of
    a non-UTF-8 byte)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path
        raise error(f"{path}: cannot read {what} ({exc})") from None
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.start counts in exc.object: data less the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line}: cannot read {what} (not UTF-8 text)") from None


def read_csv(path, what: str, columns, optional=()) -> list:
    """(file line, {column: text}) for each row of the CSV file at ``path``, with
    every one of ``columns`` and those of ``optional`` the header has.  Header
    names match case-insensitively after strip(); a field a short row lacks is
    None.  A missing header or column, or a row csv rejects (such as a field past
    csv.field_size_limit()), raises a DataError naming the file."""
    reader = csv.DictReader(io.StringIO(read_text(path, what), newline=""))
    try:
        if reader.fieldnames is None:
            raise DataError(f"{path}: missing CSV header")
        fields = {name.strip().lower(): name for name in reader.fieldnames}
        for column in columns:
            if column not in fields:
                raise DataError(f"{path}: no {column!r} column")
        wanted = [(column, fields[column]) for column in (*columns, *optional)
                  if column in fields]
        return [(reader.line_num, {column: row[name] for column, name in wanted})
                for row in reader]
    except csv.Error as exc:  # the inner reader's line_num is the line it failed on
        raise DataError(f"{path} line {reader.reader.line_num}: cannot read {what} "
                        f"({exc})") from None


def read_json(path, what: str, error=DataError):
    """The parsed JSON document in the file at ``path``; raises like ``read_text``."""
    try:
        return json.loads(read_text(path, what, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: cannot read {what} (not JSON: {exc})") from None


def note_line(first_line: dict, record_id, line: int, where) -> None:
    """Note that ``record_id`` is on ``line`` of ``where``; a DataError names
    both lines if ``first_line`` (id -> line) already has it on another."""
    first = first_line.setdefault(record_id, line)
    if first != line:
        raise DataError(f"{where} line {line}: repeated record id {record_id!r} "
                        f"(first on line {first})")


def process_map(fn, tasks, threads: int, lost) -> list:
    """``[fn(t) for t in tasks]`` on min(threads, len(tasks), usable CPUs) worker
    processes, or in-process when that is one.  The usable CPUs are those this
    process may run on (its affinity mask), where the platform says.  A worker
    that dies raises MoltopError(lost(done)), done counting the results that
    returned."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, len(tasks), cpus)
    if workers <= 1:
        return [fn(t) for t in tasks]
    # Imported here: concurrent.futures is slow to import and only a pool needs it.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    results = []
    # Forked workers inherit the parent's objects, such as the records'
    # graphs; frozen, no collection walks them until the pool is done.
    gc.freeze()
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(fn, tasks, chunksize=max(1, len(tasks) // (workers * 8))):
                results.append(result)
    except BrokenProcessPool:
        raise MoltopError(lost(len(results))) from None
    finally:
        gc.unfreeze()
    return results
