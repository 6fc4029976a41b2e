"""Strict JSON loading and the named-table codec shared by the file formats.

Every format rejects unknown and duplicate keys so that typos fail
loudly; a file that is not JSON text (bad bytes or syntax, nesting too
deep to parse), or a path that cannot be read or written, is a
SchemaError.  Magma, group, post-group, skew brace
and braiding files share one shape, {"elements": [names], "<table>":
[[names]], ...}, with row i of each table belonging to elements[i]:
load_tables and tables_to_json read and write it, and check_rows is
the one shape check for index tables.  The group of an action file has
the same shape and is read from the parsed file by _read_tables, the
reader behind load_tables; require_keys checks every key set.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from .errors import SchemaError, ShapeError


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_json_object(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} is nested too deeply to parse") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return obj


def require_keys(obj: object, required: tuple[str, ...], context: str) -> None:
    """Check that obj is an object with exactly the required keys, no more, no fewer."""
    if not isinstance(obj, dict):
        raise ShapeError(f"{context} must be an object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise SchemaError(f"{context}: missing key(s) {', '.join(missing)}")
    unknown = [key for key in obj if key not in required]
    if unknown:
        raise SchemaError(f"{context}: unknown key(s) {', '.join(unknown)}")


def name_list(value: object, context: str) -> tuple[str, ...]:
    """The one name check: a nonempty list or tuple of distinct nonempty strings."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(x, str) and x for x in value
    ):
        raise ShapeError(f"{context}: expected an array of nonempty strings")
    if len(set(value)) != len(value):
        raise ShapeError(f"{context}: names must be distinct")
    if not value:
        raise ShapeError(f"{context}: need at least one name")
    return tuple(value)


def rows_from_names(
    elements: Sequence[str], value: object, context: str
) -> list[list[int]]:
    """Turn a JSON array of arrays of element names into index rows."""
    index = {name: i for i, name in enumerate(elements)}
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ShapeError(f"{context}: expected an array of arrays")
    for row in value:
        for entry in row:
            if not isinstance(entry, str) or entry not in index:
                raise ShapeError(f"{context}: unknown element {entry!r}")
    return [[index[entry] for entry in row] for row in value]


def load_tables(
    path: str | Path, keys: tuple[str, ...]
) -> tuple[tuple[str, ...], list[list[list[int]]]]:
    """The element names and one index table per key, shapes unchecked."""
    return _read_tables(load_json_object(path), keys, str(path))


def _read_tables(obj: object, keys: tuple[str, ...], context: str):
    """load_tables on a parsed named-table object."""
    require_keys(obj, ("elements", *keys), context)
    elements = name_list(obj["elements"], context=f"{context}: elements")
    return elements, [
        rows_from_names(elements, obj[key], f"{context}: {key}") for key in keys
    ]


def tables_to_json(elements: Sequence[str], **tables: Sequence[Sequence[int]]) -> dict:
    """The named-table object: "elements" first, then the tables in order."""
    return {"elements": list(elements)} | {
        key: [[elements[v] for v in row] for row in table]
        for key, table in tables.items()
    }


def check_rows(
    table: Sequence[Sequence[int]],
    row_names: Sequence[str],
    width: int,
    bound: int,
    what: str,
) -> tuple[tuple[int, ...], ...]:
    """One row per name, each of this width, entries in range(bound)."""
    if len(table) != len(row_names):
        raise ShapeError(f"{what} has {len(table)} rows for {len(row_names)} elements")
    rows = []
    for name, row in zip(row_names, table):
        if len(row) != width:
            raise ShapeError(
                f"{what} row {name!r} has length {len(row)}, expected {width}"
            )
        for value in row:
            if not isinstance(value, int) or not 0 <= value < bound:
                raise ShapeError(
                    f"{what} row {name!r} has out-of-range entry {value!r}"
                )
        rows.append(tuple(row))
    return tuple(rows)


def dump_json(obj: dict, path: str | Path | None) -> str:
    text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"cannot write {path}: {exc}") from exc
    return text
