"""The database object: named relations + cross-relation integrity.

A :class:`Database` ties together a :class:`DatabaseSchema`, one
:class:`Relation` façade per relation schema (each backed by a
:class:`~repro.storage.base.TupleStore` from the database's storage
backend), a shared :class:`CostMeter`, and foreign-key enforcement. It
is the object both the précis engine and the baselines operate on, and
also the *type of a précis answer* — the paper's central point is that a
query produces "a whole new database, with its own schema, constraints,
and contents".

Storage backends are pluggable (see :mod:`repro.storage`): ``backend=``
accepts a name (``"memory"``, ``"sqlite"``, ``"sqlite:/path/to.db"``)
or a :class:`~repro.storage.base.StorageBackend` instance. The default
is the in-memory reference store.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from ..storage.base import StorageBackend
from ..storage.registry import resolve_backend
from .cost import CostMeter, CostParameters
from .errors import ForeignKeyViolation, SchemaError
from .relation import Relation
from .schema import DatabaseSchema, ForeignKey, RelationSchema

__all__ = ["Database", "as_database"]


class Database:
    """A populated database following a :class:`DatabaseSchema`."""

    def __init__(
        self,
        schema: DatabaseSchema,
        cost_params: Optional[CostParameters] = None,
        enforce_foreign_keys: bool = True,
        backend: Union[str, StorageBackend, None] = None,
    ):
        self.schema = schema
        self.meter = CostMeter(cost_params)
        self.enforce_foreign_keys = enforce_foreign_keys
        self.backend = resolve_backend(backend)
        self._data_epoch = 0
        self._relations: dict[str, Relation] = {
            rs.name: Relation(
                rs,
                self.meter,
                self.backend.create_store(rs),
                on_mutate=self._bump_data_epoch,
            )
            for rs in schema
        }

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def data_epoch(self) -> int:
        """Monotonic mutation counter — the database's cache-validity
        token (see :mod:`repro.cache.versions`). Every insert, delete,
        in-place update or clear reaching any relation of this database
        bumps it, whether issued through the database or directly
        through a :class:`Relation` façade."""
        return self._data_epoch

    def _bump_data_epoch(self) -> None:
        self._data_epoch += 1

    def close(self) -> None:
        """Release backend resources (e.g. the SQLite connection)."""
        self.backend.close()

    # ------------------------------------------------------------------ access

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation {name} in database") from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def total_tuples(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def cardinalities(self) -> dict[str, int]:
        return {name: len(rel) for name, rel in self._relations.items()}

    def __repr__(self):
        return (
            f"Database({len(self._relations)} relations, "
            f"{self.total_tuples()} tuples)"
        )

    # ------------------------------------------------------------------ writes

    def insert(
        self, relation: str, values: Mapping[str, Any] | Sequence[Any]
    ) -> int:
        """Insert a tuple, checking outbound foreign keys if enforcement

        is on. FK checks use the *target's* primary-key or secondary
        index, so bulk loads should insert parents before children.
        NULL foreign-key values are permitted (SQL semantics).
        """
        rel = self.relation(relation)
        tid = rel.insert(values)
        if self.enforce_foreign_keys:
            try:
                self._check_outbound_fks(relation, tid)
            except ForeignKeyViolation:
                rel.delete(tid)
                raise
        return tid

    def insert_many(
        self, relation: str, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> list[int]:
        return [self.insert(relation, row) for row in rows]

    def delete(self, relation: str, tid: int, cascade: bool = False) -> int:
        """Delete a tuple, protecting referential integrity.

        With enforcement on, deleting a tuple still referenced by child
        rows raises :class:`ForeignKeyViolation` — unless ``cascade``
        is set, in which case the referencing tuples are deleted too
        (recursively). Returns the number of tuples removed.
        """
        rel = self.relation(relation)
        removed = 0
        if self.enforce_foreign_keys:
            row = rel.fetch(tid)
            for fk in self.schema.foreign_keys_into(relation):
                value = row[fk.target_column]
                if value is None:
                    continue
                children = self.relation(fk.source).lookup(fk.column, value)
                if not children:
                    continue
                if not cascade:
                    raise ForeignKeyViolation(
                        f"{relation}#{tid} is referenced by "
                        f"{len(children)} tuple(s) of {fk.source}"
                    )
                # children are matched by join value; with a PK target
                # (the normal case) that is exactly this tuple's children
                for child_tid in sorted(children):
                    if child_tid in self.relation(fk.source):
                        removed += self.delete(
                            fk.source, child_tid, cascade=True
                        )
        rel.delete(tid)
        return removed + 1

    def update(
        self, relation: str, tid: int, changes: Mapping[str, Any]
    ) -> int:
        """Replace attribute values of one tuple in place; returns the
        (unchanged) tid.

        Unlike delete + re-insert, the tuple keeps its tid, so inbound
        foreign-key references stay valid. With enforcement on, two
        checks protect integrity: the new values must satisfy the
        relation's *outbound* foreign keys, and an attribute targeted by
        an *inbound* foreign key may not change value while child tuples
        still reference the old value (there is no cascade for updates).
        On violation the tuple is restored and
        :class:`ForeignKeyViolation` raised.
        """
        rel = self.relation(relation)
        old = rel.fetch(tid).as_dict()
        rel.update(tid, changes)
        if not self.enforce_foreign_keys:
            return tid
        try:
            new = rel.fetch(tid).as_dict()
            for fk in self.schema.foreign_keys_into(relation):
                old_value = old[fk.target_column]
                if old_value is None or old_value == new[fk.target_column]:
                    continue
                children = self.relation(fk.source).lookup(fk.column, old_value)
                if children:
                    raise ForeignKeyViolation(
                        f"{relation}#{tid}.{fk.target_column}={old_value!r} "
                        f"is referenced by {len(children)} tuple(s) of "
                        f"{fk.source} and cannot change value"
                    )
            self._check_outbound_fks(relation, tid)
        except ForeignKeyViolation:
            rel.update(tid, old)
            raise
        return tid

    def _check_outbound_fks(self, relation: str, tid: int) -> None:
        row = self.relation(relation).fetch(tid)
        for fk in self.schema.foreign_keys_of(relation):
            value = row[fk.column]
            if value is None:
                continue
            target = self.relation(fk.target)
            pk = target.schema.primary_key
            if len(pk) == 1 and pk[0] == fk.target_column:
                found = target.lookup_pk(value) is not None
            else:
                found = bool(target.lookup(fk.target_column, value))
            if not found:
                raise ForeignKeyViolation(
                    f"{relation}.{fk.column}={value!r} has no match in "
                    f"{fk.target}.{fk.target_column}"
                )

    # ------------------------------------------------------------------ indexes

    def create_join_indexes(self, kind: str = "hash") -> None:
        """Index every attribute that participates in a foreign key —

        the "indexes on all join attributes" setup of the paper's §6."""
        for fk in self.schema.foreign_keys:
            source = self.relation(fk.source)
            if not source.has_index(fk.column):
                source.create_index(fk.column, kind)
            target = self.relation(fk.target)
            if not target.has_index(fk.target_column):
                target.create_index(fk.target_column, kind)

    # ------------------------------------------------------------------ checks

    def integrity_violations(self) -> list[str]:
        """Exhaustively verify all declared foreign keys; returns a list

        of human-readable violations (empty = consistent). Used by the
        property tests to assert that précis result databases are
        internally consistent sub-databases.
        """
        problems: list[str] = []
        for fk in self.schema.foreign_keys:
            source = self.relation(fk.source)
            target = self.relation(fk.target)
            valid = target.distinct_values(fk.target_column)
            pos = source.schema.position(fk.column)
            for tid in source.tids():
                value = source.fetch(tid)[pos]
                if value is not None and value not in valid:
                    problems.append(
                        f"{fk.source}#{tid}.{fk.column}={value!r} "
                        f"dangling -> {fk.target}.{fk.target_column}"
                    )
        return problems

    def check_integrity(self) -> None:
        problems = self.integrity_violations()
        if problems:
            raise ForeignKeyViolation(
                f"{len(problems)} violations; first: {problems[0]}"
            )

    # ------------------------------------------------------------------ utility

    def snapshot_costs(self):
        return self.meter.snapshot()

    @classmethod
    def from_rows(
        cls,
        schema: DatabaseSchema,
        data: Mapping[str, Iterable[Mapping[str, Any] | Sequence[Any]]],
        enforce_foreign_keys: bool = True,
        create_indexes: bool = True,
        backend: Union[str, StorageBackend, None] = None,
    ) -> "Database":
        """Build and populate a database in one call.

        *data* maps relation name → iterable of rows. Relations are loaded
        in an order that respects foreign-key dependencies when possible
        (parents first); cycles fall back to declaration order with
        enforcement deferred until the end. *backend* selects the storage
        backend exactly as in the constructor.
        """
        db = cls(schema, enforce_foreign_keys=False, backend=backend)
        order = _topological_load_order(schema)
        for name in order:
            if name in data:
                db.insert_many(name, data[name])
        if create_indexes:
            db.create_join_indexes()
        db.enforce_foreign_keys = enforce_foreign_keys
        if enforce_foreign_keys:
            db.check_integrity()
        return db

    # ------------------------------------------------------------------ csv io

    def to_csv_dir(self, directory: Union[str, Path]) -> None:
        """Export schema + contents as a CSV directory (see ``csvio``)."""
        from .csvio import save_database

        save_database(self, directory)

    @classmethod
    def from_csv_dir(
        cls,
        directory: Union[str, Path],
        enforce_foreign_keys: bool = True,
        create_indexes: bool = True,
        backend: Union[str, StorageBackend, None] = None,
    ) -> "Database":
        """Load a database saved with :meth:`to_csv_dir`."""
        from .csvio import load_database

        return load_database(
            directory,
            enforce_foreign_keys=enforce_foreign_keys,
            create_indexes=create_indexes,
            backend=backend,
        )


def as_database(db) -> Database:
    """*db* itself when it is a :class:`Database`; otherwise the new
    database a read-only view (such as a précis answer's
    :class:`~repro.core.answer_view.AnswerView`) builds with
    ``to_database()``. Lets whole-database tooling — SQL, CSV export —
    take either."""
    return db if isinstance(db, Database) else db.to_database()


def _topological_load_order(schema: DatabaseSchema) -> list[str]:
    """Relation names ordered parents-before-children where acyclic."""
    depends: dict[str, set[str]] = {name: set() for name in schema.relation_names}
    for fk in schema.foreign_keys:
        if fk.source != fk.target:
            depends[fk.source].add(fk.target)
    order: list[str] = []
    visited: dict[str, int] = {}  # 0 = in progress, 1 = done

    def visit(name: str) -> None:
        state = visited.get(name)
        if state is not None:
            return  # done, or cycle — either way stop descending
        visited[name] = 0
        for dep in depends[name]:
            if visited.get(dep) != 0:
                visit(dep)
        visited[name] = 1
        order.append(name)

    for name in schema.relation_names:
        visit(name)
    return order
