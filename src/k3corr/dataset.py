"""The correspondence table: row records and their JSON serialization.

One record per printed row-set: the weight systems side by side, one
monomial per weight in each vertex column, the shared lattice label and
Picard rank, and (when the common polytope is symmetric) the indices of the
columns whose monomials may be exchanged.  A record is a NamedTuple.  The
shipped table is read from data/table.json beside this module, with the
same open() as a --data file, so loading it imports no importlib.resources.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple, Optional

from .intlinalg import InputError, K3CorrError
from .weights import Monomial, WeightSystem, parse_monomial


class DatasetError(InputError):
    """Raised for a malformed row dataset file."""


class RowRecord(NamedTuple):
    ids: tuple[int, ...]
    weights: tuple[WeightSystem, ...]
    degrees: tuple[int, ...]
    #: columns[j][k] is the column-j monomial of weight k
    columns: tuple[tuple[Monomial, ...], ...]
    lattice_label: str
    rank: int
    bold: tuple[int, ...] = ()

    @property
    def key(self) -> str:
        return "-".join(str(i) for i in self.ids)

    @property
    def n_weights(self) -> int:
        return len(self.weights)

    def column_monomials(self, weight_idx: int) -> tuple[Monomial, ...]:
        return tuple(col[weight_idx] for col in self.columns)

    def with_columns(self, columns) -> "RowRecord":
        return self._replace(columns=tuple(tuple(col) for col in columns))


def _ints(values) -> tuple[int, ...]:
    if any(type(x) is not int for x in values):
        raise TypeError(f"{values!r} holds a value that is not a JSON integer")
    return tuple(values)


def _record_from_dict(raw: dict) -> RowRecord:
    if not isinstance(raw, dict):
        raise DatasetError(f"row record {json.dumps(raw)[:60]} is not a JSON object")
    try:
        ids = _ints(raw["ids"])
        weights = tuple(WeightSystem.from_weights(_ints(w)) for w in raw["weights"])
        degrees = _ints(raw["degrees"])
        columns = raw["columns"]
        if type(columns) is not list or any(type(c) is not list for c in columns):
            raise TypeError("columns must be a JSON list of JSON lists")
        if any(not isinstance(m, str) for col in columns for m in col):
            raise TypeError("column entries must be monomial strings")
        columns = tuple(tuple(parse_monomial(m) for m in col) for col in columns)
        lattice = raw["lattice"]
        if not isinstance(lattice, str):
            raise TypeError(f"lattice {lattice!r} is not a JSON string")
        rank = _ints([raw["rank"]])[0]
        bold = _ints(raw.get("bold", ()))
    except (KeyError, TypeError, K3CorrError) as exc:
        raise DatasetError(f"bad row record {raw.get('ids', '?')}: {exc}") from exc
    n = len(weights)
    if n < 2:
        raise DatasetError(f"row {ids}: a row needs at least two weights")
    if len(ids) != n or len(degrees) != n:
        raise DatasetError(f"row {ids}: ids/weights/degrees lengths differ")
    if any(len(col) != n for col in columns):
        raise DatasetError(f"row {ids}: every column needs {n} monomials")
    if any(not 0 <= b < len(columns) for b in bold):
        raise DatasetError(f"row {ids}: bold index out of range")
    if len(set(bold)) != len(bold):
        raise DatasetError(f"row {ids}: bold index repeated")
    if len(bold) == 1:
        raise DatasetError(f"row {ids}: a single bold index has nothing to swap")
    return RowRecord(
        ids=ids,
        weights=weights,
        degrees=degrees,
        columns=columns,
        lattice_label=lattice,
        rank=rank,
        bold=bold,
    )


def load_rows(path: Optional[str] = None) -> tuple[RowRecord, ...]:
    """Load row records from `path`, or the table shipped beside this module.

    A file that cannot be read, is not UTF-8 or is not JSON (nested past the
    recursion limit, or an integer past the int-string digit limit, too) is
    a DatasetError.
    """
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "table.json")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DatasetError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:
        raise DatasetError(f"dataset is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DatasetError("dataset must be a JSON list of row records")
    rows = tuple(_record_from_dict(r) for r in raw)
    keys = [row.key for row in rows]
    if len(set(keys)) != len(keys):
        raise DatasetError("duplicate row keys in dataset")
    return rows


def select_rows(rows: tuple[RowRecord, ...], selector: str) -> tuple[RowRecord, ...]:
    """Rows matching a selector: a row key like ``26-34-76`` or a single id."""
    if any(row.key == selector for row in rows):
        return tuple(row for row in rows if row.key == selector)
    try:
        wanted = int(selector)
    except ValueError:
        return ()
    return tuple(row for row in rows if wanted in row.ids)
