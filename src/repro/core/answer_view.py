"""The précis answer as a frozen view over rows already read.

The Result Database Generator fetches every answer tuple from the source
exactly once, through the metered :class:`~repro.relational.relation.
Relation` façade. An :class:`AnswerView` keeps what those rows hold:
per relation, the ordered source tids and the values projected on the
relation's retrieval attributes, column by column. Nothing is copied
into a second store and nothing is validated again — the source already
validated it.

The view offers the read-only part of the
:class:`~repro.relational.database.Database` surface (``relation(name)``
with ``schema``/``scan``/``fetch``/``tids``, iteration, ``in``,
``relation_names``, ``schema``, ``total_tuples``, ``cardinalities``,
``integrity_violations``) and no write at all: answers are shared
between callers by the caches and the front door, so they must not
change. Answer tids number each relation's rows ``1..n`` in arrival
order, exactly as the answer's own database numbers them;
:meth:`AnswerRelation.source_tids` maps them back to the source.

:meth:`AnswerView.to_database` builds the paper's "whole new database,
with its own schema, constraints, and contents" on demand — for CSV
export, SQL, DDL and the CLI's ``--save``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Mapping, Optional, Sequence

from ..relational.database import Database
from ..relational.errors import SchemaError, UnknownTupleError
from ..relational.row import Row
from ..relational.schema import DatabaseSchema, RelationSchema

__all__ = ["AnswerRelation", "AnswerView"]


class _Frozen:
    """Attributes are set once, in ``__init__``, and never again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


class AnswerRelation(_Frozen):
    """One relation of an answer: source tids + projected value columns.

    Values are held column-wise, one tuple per attribute, so a whole
    answer is a handful of flat tuples: cheap to build from the fetched
    rows and cheap to release once the last caller drops the answer."""

    __slots__ = ("schema", "_source_tids", "_columns")

    def __init__(self, schema: RelationSchema, rows: Mapping[int, tuple]):
        """*rows* maps source tid → value tuple in *schema*'s column
        order, in arrival order."""
        values = list(rows.values())
        columns = tuple(
            tuple(map(itemgetter(at), values))
            for at in range(len(schema.attribute_names))
        )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_source_tids", tuple(rows))
        object.__setattr__(self, "_columns", columns)

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._source_tids)

    def __contains__(self, tid) -> bool:
        return isinstance(tid, int) and 1 <= tid <= len(self._source_tids)

    def tids(self) -> Iterator[int]:
        """Answer tids, ``1..n`` in arrival order."""
        return iter(range(1, len(self._source_tids) + 1))

    def __repr__(self):
        return f"AnswerRelation({self.name}, {len(self)} tuples)"

    # ------------------------------------------------------------- bulk

    def source_tids(self) -> tuple[int, ...]:
        """The source tid of every row, in answer-tid order."""
        return self._source_tids

    def columns(self) -> tuple[tuple, ...]:
        """One tuple of values per attribute (schema order), each in
        answer-tid order."""
        return self._columns

    def column(self, attribute: str) -> tuple:
        """The values of *attribute*, in answer-tid order."""
        return self._columns[self.schema.position(attribute)]

    def value_tuples(self, attributes: Optional[Sequence[str]] = None):
        """Every row's values (schema order, or *attributes*' order), in
        answer-tid order, built on the fly."""
        if attributes is None:
            return zip(*self._columns)
        return zip(*(self._columns[p] for p in self.schema.positions(attributes)))

    # ------------------------------------------------------------- reads

    def fetch(self, tid: int, attributes: Optional[Sequence[str]] = None) -> Row:
        """One row by answer tid, optionally projected."""
        if tid not in self:
            raise UnknownTupleError(self.name, tid)
        names = (
            self.schema.attribute_names if attributes is None else tuple(attributes)
        )
        at = tid - 1
        values = tuple(
            self._columns[p][at] for p in self.schema.positions(names)
        )
        return Row(self.name, tid, names, values)

    def scan(self, attributes: Optional[Sequence[str]] = None) -> Iterator[Row]:
        """Every row in answer-tid order, optionally projected."""
        names = (
            self.schema.attribute_names if attributes is None else tuple(attributes)
        )
        for tid, values in enumerate(self.value_tuples(names), 1):
            yield Row(self.name, tid, names, values)


class AnswerView(_Frozen):
    """A frozen précis answer ``D'``: one :class:`AnswerRelation` per
    relation of the result schema, plus the answer's foreign keys."""

    __slots__ = ("schema", "_relations")

    def __init__(
        self, schema: DatabaseSchema, rows: Mapping[str, Mapping[int, tuple]]
    ):
        """*rows* maps relation → (source tid → value tuple); relations
        of *schema* absent from it are empty."""
        object.__setattr__(self, "schema", schema)
        object.__setattr__(
            self,
            "_relations",
            {
                rs.name: AnswerRelation(rs, rows.get(rs.name, {}))
                for rs in schema
            },
        )

    # ------------------------------------------------------------- access

    def relation(self, name: str) -> AnswerRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation {name} in database") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[AnswerRelation]:
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
            f"AnswerView({len(self._relations)} relations, "
            f"{self.total_tuples()} tuples)"
        )

    # ------------------------------------------------------------- checks

    def integrity_violations(self) -> list[str]:
        """Every declared foreign key checked over the rows in hand —
        the same report :meth:`Database.integrity_violations` gives for
        :meth:`to_database` (NaïveQ answers may dangle, §5.2)."""
        problems: list[str] = []
        for fk in self.schema.foreign_keys:
            valid = set(self.relation(fk.target).column(fk.target_column))
            column = self.relation(fk.source).column(fk.column)
            for tid, value in enumerate(column, 1):
                if value is not None and value not in valid:
                    problems.append(
                        f"{fk.source}#{tid}.{fk.column}={value!r} "
                        f"dangling -> {fk.target}.{fk.target_column}"
                    )
        return problems

    # ------------------------------------------------------------- export

    def to_database(self) -> Database:
        """The answer as a new, independent in-memory :class:`Database`
        (foreign keys declared, not enforced), built afresh on every
        call."""
        db = Database(self.schema, enforce_foreign_keys=False)
        for rel in self:
            target = db.relation(rel.name)
            for values in rel.value_tuples():
                target.insert(values)
        return db
