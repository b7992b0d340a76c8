"""Exception hierarchy shared across the toolkit, the one reader of input files,
and the one type check of the values read from them.

The CLI maps these onto its exit-code table: configuration problems -> 2,
data/input problems -> 3, violated internal invariants -> 4.
"""

import json


class MoltopError(Exception):
    """Base class for all toolkit errors."""


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


def read_text(path, what: str, error=DataError) -> str:
    """The UTF-8 text of the file at ``path``.  Any failure to open or decode
    it raises ``error`` naming the file (and the line of a non-UTF-8 byte)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: NUL in the path
        raise error(f"{path}: cannot read {what} ({exc})") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line}: cannot read {what} (not UTF-8 text)") from None


def read_json(path, what: str, error=DataError):
    """The parsed JSON document in the file at ``path``; raises like ``read_text``."""
    try:
        return json.loads(read_text(path, what, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: cannot read {what} (not JSON: {exc})") from None
