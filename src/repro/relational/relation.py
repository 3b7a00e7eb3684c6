"""The relation façade: validation + cost accounting over a TupleStore.

A :class:`Relation` exposes tuples addressed by an engine-assigned
integer tuple id (*tid*) — the analogue of Oracle's ROWID that the
paper's generators use to re-fetch tuples found through the inverted
index. The actual storage lives behind the
:class:`~repro.storage.base.TupleStore` protocol (dict-based
``MemoryStore`` by default, SQLite optional); the façade owns what must
be backend-independent:

* input normalization — type coercion, NOT NULL and primary-key
  validation (referential integrity spans relations and lives in
  :class:`~repro.relational.database.Database`);
* :class:`~repro.relational.row.Row` construction and projection;
* **all** :class:`~repro.relational.cost.CostMeter` charging, so the
  modeled cost of a run is identical on every backend.

Cost charging policy (see :mod:`repro.relational.cost`):

* ``fetch`` / ``fetch_many`` charge one *tuple read* per tuple returned;
* ``lookup`` / ``lookup_in`` charge one *index lookup* per probe value
  when an index exists, or one *scan step* per stored tuple otherwise
  (an unindexed probe is a full scan on any backend);
* ``scan`` charges one scan step per tuple visited.

This makes the modeled cost of one indexed retrieval exactly
``IndexTime + TupleTime``, the unit of the paper's Formula (2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..storage.base import TupleStore
from .cost import CostMeter
from .datatypes import coerce
from .errors import (
    NotNullViolation,
    PrimaryKeyViolation,
    SchemaError,
    TypeMismatchError,
    UnknownTupleError,
)
from .row import Row
from .schema import RelationSchema

__all__ = ["Relation"]

#: tids per get_many batch when a fetch limit may stop the read early
_FETCH_CHUNK = 512


class Relation:
    """A populated relation following a :class:`RelationSchema`."""

    def __init__(
        self,
        schema: RelationSchema,
        meter: Optional[CostMeter] = None,
        store: Optional[TupleStore] = None,
        on_mutate: Optional[Callable[[], None]] = None,
    ):
        self.schema = schema
        self.meter = meter or CostMeter()
        #: called after every successful write (insert/delete/update/
        #: clear) — the Database hooks its data-epoch bump here so cache
        #: validity tokens see mutations no matter which façade method
        #: performed them
        self.on_mutate = on_mutate
        #: the storage engine behind this relation. Direct access is
        #: *unmetered* — reserved for maintenance work that the paper's
        #: cost model excludes (index building, exports); queries must
        #: go through the façade methods.
        if store is None:
            # deferred import: repro.storage and repro.relational are
            # mutually referential and must load in either order
            from ..storage.memory import MemoryStore

            store = MemoryStore(schema)
        self.store: TupleStore = store

    # ------------------------------------------------------------------ basics

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self.store)

    def tids(self) -> Iterator[int]:
        return self.store.tids()

    def __contains__(self, tid: int) -> bool:
        return tid in self.store

    def __repr__(self):
        return f"Relation({self.name}, {len(self)} tuples)"

    # ------------------------------------------------------------------ writes

    def _normalize(self, values: Mapping[str, Any] | Sequence[Any]) -> tuple:
        """Coerce input into a full-width storage tuple in schema order."""
        if isinstance(values, Mapping):
            unknown = set(values) - set(self.schema.attribute_names)
            if unknown:
                raise SchemaError(
                    f"unknown attributes for {self.name}: {sorted(unknown)}"
                )
            raw = [values.get(col.name) for col in self.schema.columns]
        else:
            raw = list(values)
            if len(raw) != len(self.schema):
                raise SchemaError(
                    f"{self.name} expects {len(self.schema)} values, "
                    f"got {len(raw)}"
                )
        out = []
        for col, value in zip(self.schema.columns, raw):
            try:
                value = coerce(value, col.dtype)
            except (ValueError, TypeError):
                raise TypeMismatchError(
                    self.name, col.name, col.dtype, value
                ) from None
            if value is None and (
                not col.nullable or col.name in self.schema.primary_key
            ):
                raise NotNullViolation(self.name, col.name)
            out.append(value)
        return tuple(out)

    def insert(self, values: Mapping[str, Any] | Sequence[Any]) -> int:
        """Insert one tuple; returns its tid.

        Raises on type mismatch, NULL in a required column, or duplicate
        primary key.
        """
        stored = self._normalize(values)
        if self.schema.primary_key:
            pk_pos = self.schema.positions(self.schema.primary_key)
            pk_value = tuple(stored[p] for p in pk_pos)
            # unmetered pre-check: loading is not part of Formula (2)
            if self.store.lookup_pk(pk_value) is not None:
                raise PrimaryKeyViolation(self.name, pk_value)
        tid = self.store.insert(stored)
        if self.on_mutate is not None:
            self.on_mutate()
        return tid

    def insert_many(
        self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> list[int]:
        return [self.insert(row) for row in rows]

    def update(self, tid: int, changes: Mapping[str, Any]) -> None:
        """Replace attribute values of one tuple *in place* (same tid).

        *changes* maps attribute names to new values; unmentioned
        attributes keep their current values. The merged tuple passes
        the same validation as an insert (type coercion, NOT NULL,
        primary-key uniqueness against every *other* tuple). Raises
        :class:`UnknownTupleError` when *tid* is absent. Referential
        integrity spans relations and lives in
        :meth:`~repro.relational.database.Database.update`.
        """
        current = self.store.get(tid)
        if current is None:
            raise UnknownTupleError(self.name, tid)
        unknown = set(changes) - set(self.schema.attribute_names)
        if unknown:
            raise SchemaError(
                f"unknown attributes for {self.name}: {sorted(unknown)}"
            )
        merged = {
            col.name: changes.get(col.name, current[pos])
            for pos, col in enumerate(self.schema.columns)
        }
        stored = self._normalize(merged)
        if self.schema.primary_key:
            pk_pos = self.schema.positions(self.schema.primary_key)
            pk_value = tuple(stored[p] for p in pk_pos)
            owner = self.store.lookup_pk(pk_value)
            if owner is not None and owner != tid:
                raise PrimaryKeyViolation(self.name, pk_value)
        self.store.update(tid, stored)
        if self.on_mutate is not None:
            self.on_mutate()

    def delete(self, tid: int) -> None:
        self.store.delete(tid)
        if self.on_mutate is not None:
            self.on_mutate()

    def clear(self) -> None:
        self.store.clear()
        if self.on_mutate is not None:
            self.on_mutate()

    # ------------------------------------------------------------------ indexes

    def create_index(self, attribute: str, kind: str = "hash") -> None:
        """Build (or rebuild) a secondary index on *attribute*."""
        self.schema.column(attribute)  # validates existence
        if kind not in ("hash", "sorted"):
            raise SchemaError(f"unknown index kind {kind!r}")
        self.store.create_index(attribute, kind)

    def has_index(self, attribute: str) -> bool:
        return self.store.has_index(attribute)

    def index_on(self, attribute: str):
        """The backend's index handle (an object with a ``kind``)."""
        return self.store.index_on(attribute)

    @property
    def indexed_attributes(self) -> tuple[str, ...]:
        return self.store.indexed_attributes

    # ------------------------------------------------------------------ reads

    def _row(
        self, tid: int, stored: tuple, attributes: Optional[Sequence[str]]
    ) -> Row:
        if attributes is None:
            return Row(self.name, tid, self.schema.attribute_names, stored)
        pos = self.schema.positions(attributes)
        return Row(self.name, tid, attributes, tuple(stored[p] for p in pos))

    def fetch(self, tid: int, attributes: Optional[Sequence[str]] = None) -> Row:
        """Read one tuple by id, optionally projected."""
        stored = self.store.get(tid)
        if stored is None:
            raise UnknownTupleError(self.name, tid)
        self.meter.charge_tuple_read()
        return self._row(tid, stored, attributes)

    def fetch_many(
        self,
        tids: Iterable[int],
        attributes: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
    ) -> list[Row]:
        """Read tuples by id; unknown tids are skipped (they may have been

        deleted between index probe and fetch). ``limit`` truncates the
        result to an arbitrary prefix — the engine's equivalent of the
        ``RowNum`` trick the paper uses for NaïveQ. Reads are batched
        through the store (one ``IN``-query per chunk on SQLite) rather
        than issued per tid.
        """
        tid_list = list(tids)
        name = self.name
        if attributes is None:
            names, pos = self.schema.attribute_names, None
        else:
            names = tuple(attributes)
            pos = self.schema.positions(names)
        out: list[Row] = []
        for start in range(0, len(tid_list), _FETCH_CHUNK):
            if limit is not None and len(out) >= limit:
                break
            chunk = tid_list[start : start + _FETCH_CHUNK]
            found = self.store.get_many(chunk)
            for tid in chunk:
                if limit is not None and len(out) >= limit:
                    break
                stored = found.get(tid)
                if stored is None:
                    continue
                self.meter.charge_tuple_read()
                if pos is not None:
                    stored = tuple(stored[p] for p in pos)
                out.append(Row(name, tid, names, stored))
        return out

    def scan(
        self, attributes: Optional[Sequence[str]] = None
    ) -> Iterator[Row]:
        """Full scan in tid order."""
        names = (
            self.schema.attribute_names if attributes is None else tuple(attributes)
        )
        pos = self.schema.positions(names)
        for tid, stored in self.store.scan():
            self.meter.charge_scan_step()
            yield Row(self.name, tid, names, tuple(stored[p] for p in pos))

    # ------------------------------------------------------------------ probes

    def lookup(self, attribute: str, value: Any) -> set[int]:
        """Tids whose *attribute* equals *value* (index probe or scan)."""
        self.schema.position(attribute)  # validates existence
        if self.store.has_index(attribute):
            self.meter.charge_index_lookup()
        else:
            self.meter.charge_scan_step(len(self.store))
        return self.store.lookup(attribute, value)

    def lookup_in(self, attribute: str, values: Iterable[Any]) -> set[int]:
        """Tids whose *attribute* is in *values* (the IN-list probe)."""
        values = list(values)
        self.schema.position(attribute)  # validates existence
        if self.store.has_index(attribute):
            self.meter.charge_index_lookup(len(values))
        else:
            self.meter.charge_scan_step(len(self.store))
        return self.store.lookup_in(attribute, values)

    def lookup_pk(self, key: Any | tuple) -> Optional[int]:
        """Tid of the tuple with the given primary-key value, if any."""
        if not self.schema.primary_key:
            raise SchemaError(f"{self.name} has no primary key")
        if not isinstance(key, tuple):
            key = (key,)
        self.meter.charge_index_lookup()
        if len(key) != len(self.schema.primary_key):
            return None  # arity mismatch can never match a stored key
        return self.store.lookup_pk(key)

    def distinct_values(self, attribute: str) -> set[Any]:
        """All distinct values of *attribute* (NULL excluded)."""
        self.schema.position(attribute)  # validates existence
        return self.store.distinct_values(attribute)
