"""CSV import/export for databases.

Round-trips a :class:`~repro.relational.database.Database` through a
directory of one CSV file per relation plus a ``_schema.json`` manifest.
Useful for inspecting précis answers, for shipping the extracted test
databases of the §1 enterprise use case, and for the examples.

NULL handling: SQL NULL is written as the ``\\N`` marker (the MySQL
convention), so a NULL TEXT value and an empty string survive the round
trip as distinct values. A literal ``\\N`` string is escaped to
``\\\\N``. For files written before the marker existed, an empty field
in a non-TEXT column still loads as NULL (nothing else it could be);
an empty field in a TEXT column loads as the empty string.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from ..storage.base import StorageBackend
from .database import Database, as_database
from .datatypes import DataType, coerce, render
from .errors import SchemaError
from .schema import Column, DatabaseSchema, ForeignKey, RelationSchema

__all__ = ["save_database", "load_database", "schema_to_dict", "schema_from_dict"]

_MANIFEST = "_schema.json"
_NULL = "\\N"
_ESCAPED_NULL = "\\\\N"


def _to_field(value) -> str:
    if value is None:
        return _NULL
    text = render(value)
    return _ESCAPED_NULL if text == _NULL else text


def _from_field(text: str, dtype: DataType):
    if text == _NULL:
        return None
    if text == _ESCAPED_NULL:
        return _NULL
    if text == "" and dtype is not DataType.TEXT:
        return None  # legacy files: NULL was the empty field
    return coerce(text, dtype)


def schema_to_dict(schema: DatabaseSchema) -> dict:
    """Serialize a schema to plain JSON-compatible data."""
    return {
        "relations": [
            {
                "name": rs.name,
                "primary_key": list(rs.primary_key),
                "columns": [
                    {
                        "name": c.name,
                        "dtype": c.dtype.value,
                        "nullable": c.nullable,
                    }
                    for c in rs.columns
                ],
            }
            for rs in schema
        ],
        "foreign_keys": [
            {
                "source": fk.source,
                "column": fk.column,
                "target": fk.target,
                "target_column": fk.target_column,
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_from_dict(data: dict) -> DatabaseSchema:
    """Inverse of :func:`schema_to_dict`."""
    try:
        relations = [
            RelationSchema(
                rs["name"],
                [
                    Column(
                        c["name"],
                        DataType(c["dtype"]),
                        c.get("nullable", True),
                    )
                    for c in rs["columns"]
                ],
                rs.get("primary_key") or None,
            )
            for rs in data["relations"]
        ]
        fks = [
            ForeignKey(
                fk["source"], fk["column"], fk["target"], fk["target_column"]
            )
            for fk in data.get("foreign_keys", [])
        ]
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"malformed schema manifest: {exc}") from exc
    return DatabaseSchema(relations, fks)


def save_database(db: Database, directory: Union[str, Path]) -> Path:
    """Write *db* to *directory* (created if missing); returns the path.

    *db* may also be a read-only view with ``to_database()`` (a précis
    answer), which is materialized first."""
    db = as_database(db)
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest = path / _MANIFEST
    manifest.write_text(json.dumps(schema_to_dict(db.schema), indent=2))
    for rel in db:
        names = rel.schema.attribute_names
        with open(path / f"{rel.name}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for _tid, stored in rel.store.scan():  # unmetered: export
                writer.writerow([_to_field(v) for v in stored])
    return path


def load_database(
    directory: Union[str, Path],
    enforce_foreign_keys: bool = True,
    create_indexes: bool = True,
    backend: Union[str, StorageBackend, None] = None,
) -> Database:
    """Load a database previously written by :func:`save_database`."""
    path = Path(directory)
    manifest = path / _MANIFEST
    if not manifest.exists():
        raise SchemaError(f"no {_MANIFEST} manifest in {path}")
    schema = schema_from_dict(json.loads(manifest.read_text()))
    data: dict[str, list[list]] = {}
    for rs in schema:
        csv_path = path / f"{rs.name}.csv"
        rows: list[list] = []
        if csv_path.exists():
            with open(csv_path, newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is None:
                    header = list(rs.attribute_names)
                order = [rs.position(name) for name in header]
                for record in reader:
                    values: list = [None] * len(rs)
                    for pos, text in zip(order, record):
                        col = rs.columns[pos]
                        values[pos] = _from_field(text, col.dtype)
                    rows.append(values)
        data[rs.name] = rows
    return Database.from_rows(
        schema,
        data,
        enforce_foreign_keys=enforce_foreign_keys,
        create_indexes=create_indexes,
        backend=backend,
    )
