"""A miniature SQL layer: conjunctive SELECT queries over the engine.

The précis generators themselves never need SQL — they call the operator
API directly — but the paper describes every retrieval step as an SQL
query submitted to Oracle, the DISCOVER-style baseline materializes its
candidate networks as join queries, and the examples are far more
readable with a query language. This module provides:

* a tokenizer and recursive-descent parser for::

      SELECT <attrs | * | COUNT(*) | COUNT(attr)> FROM rel [alias], …
      [WHERE cond (AND cond)*]
      [GROUP BY attr, …] [ORDER BY attr [DESC], …] [LIMIT n]

  where each ``cond`` is ``a.x = b.y`` (equi-join), ``a.x <op> literal``
  (``= != < <= > >=``), or ``a.x LIKE 'pat%'``;

* a straightforward planner: pick the most selective starting table
  (one with a literal equality predicate if possible), then greedily
  attach join-connected tables, probing indexes where they exist;

* an executor returning a list of result dicts keyed ``alias.attr``.

It is intentionally a *subset* of SQL: conjunctive select-project-join
with limit — exactly the query class the paper's system emits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .database import Database, as_database
from .errors import QueryError, SQLSyntaxError

__all__ = ["parse", "execute", "SelectStatement", "Condition", "AttrRef"]


# --------------------------------------------------------------------------- AST


@dataclass(frozen=True)
class AttrRef:
    """A (possibly alias-qualified) attribute reference."""

    table: Optional[str]
    attribute: str

    def __str__(self):
        return f"{self.table}.{self.attribute}" if self.table else self.attribute


@dataclass(frozen=True)
class Condition:
    """One conjunct of the WHERE clause."""

    left: AttrRef
    op: str  # '=', '!=', '<', '<=', '>', '>=', 'LIKE'
    right: Any  # AttrRef for joins, literal otherwise

    @property
    def is_join(self) -> bool:
        return isinstance(self.right, AttrRef)


@dataclass
class TableRef:
    name: str
    alias: str


@dataclass(frozen=True)
class CountExpr:
    """``COUNT(*)`` or ``COUNT(attr)`` in the select list."""

    arg: Optional[AttrRef]  # None = COUNT(*)

    def __str__(self):
        return f"COUNT({self.arg})" if self.arg else "COUNT(*)"


@dataclass
class SelectStatement:
    projections: list[AttrRef | CountExpr]  # empty list means SELECT *
    tables: list[TableRef]
    conditions: list[Condition] = field(default_factory=list)
    limit: Optional[int] = None
    group_by: list[AttrRef] = field(default_factory=list)
    order_by: list[tuple[AttrRef, bool]] = field(default_factory=list)
    # each order item is (attribute, descending)


# ------------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),.*])
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "AND", "LIMIT", "LIKE", "AS",
        "COUNT", "GROUP", "ORDER", "BY", "ASC", "DESC",
    }
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: Any
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise SQLSyntaxError(
                    f"unexpected character {text[pos]!r}", position=pos
                )
            break
        pos = match.end()
        if match.lastgroup == "string":
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("string", raw, match.start()))
        elif match.lastgroup == "number":
            raw = match.group("number")
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("number", value, match.start()))
        elif match.lastgroup == "op":
            op = match.group("op")
            tokens.append(_Token("op", "!=" if op == "<>" else op, match.start()))
        elif match.lastgroup == "punct":
            tokens.append(_Token("punct", match.group("punct"), match.start()))
        else:
            word = match.group("word")
            upper = word.upper()
            if upper in _KEYWORDS:
                tokens.append(_Token("keyword", upper, match.start()))
            else:
                tokens.append(_Token("word", word, match.start()))
    return tokens


# ---------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Optional[_Token]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of query")
        self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.value != word:
            raise SQLSyntaxError(f"expected {word}", position=token.pos)

    def _accept(self, kind: str, value: Any = None) -> Optional[_Token]:
        token = self._peek()
        if token and token.kind == kind and (value is None or token.value == value):
            self._pos += 1
            return token
        return None

    def parse(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        projections = self._parse_projections()
        self._expect_keyword("FROM")
        tables = self._parse_tables()
        conditions: list[Condition] = []
        limit: Optional[int] = None
        group_by: list[AttrRef] = []
        order_by: list[tuple[AttrRef, bool]] = []
        if self._accept("keyword", "WHERE"):
            conditions.append(self._parse_condition())
            while self._accept("keyword", "AND"):
                conditions.append(self._parse_condition())
        if self._accept("keyword", "GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_attr_ref())
            while self._accept("punct", ","):
                group_by.append(self._parse_attr_ref())
        if self._accept("keyword", "ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept("punct", ","):
                order_by.append(self._parse_order_item())
        if self._accept("keyword", "LIMIT"):
            token = self._next()
            if token.kind != "number" or not isinstance(token.value, int):
                raise SQLSyntaxError("LIMIT expects an integer", position=token.pos)
            limit = token.value
        trailing = self._peek()
        if trailing is not None:
            raise SQLSyntaxError(
                f"unexpected trailing input {trailing.value!r}",
                position=trailing.pos,
            )
        return SelectStatement(
            projections, tables, conditions, limit, group_by, order_by
        )

    def _parse_order_item(self) -> tuple[AttrRef | CountExpr, bool]:
        ref = self._parse_projection_item()
        if self._accept("keyword", "DESC"):
            return ref, True
        self._accept("keyword", "ASC")
        return ref, False

    def _parse_projections(self) -> list[AttrRef | CountExpr]:
        if self._accept("punct", "*"):
            return []
        refs = [self._parse_projection_item()]
        while self._accept("punct", ","):
            refs.append(self._parse_projection_item())
        return refs

    def _parse_projection_item(self) -> AttrRef | CountExpr:
        if self._accept("keyword", "COUNT"):
            token = self._next()
            if token.kind != "punct" or token.value != "(":
                raise SQLSyntaxError("COUNT expects '('", position=token.pos)
            if self._accept("punct", "*"):
                arg = None
            else:
                arg = self._parse_attr_ref()
            closing = self._next()
            if closing.kind != "punct" or closing.value != ")":
                raise SQLSyntaxError("COUNT expects ')'", position=closing.pos)
            return CountExpr(arg)
        return self._parse_attr_ref()

    def _parse_tables(self) -> list[TableRef]:
        tables = [self._parse_table()]
        while self._accept("punct", ","):
            tables.append(self._parse_table())
        return tables

    def _parse_table(self) -> TableRef:
        token = self._next()
        if token.kind != "word":
            raise SQLSyntaxError("expected table name", position=token.pos)
        alias = token.value
        self._accept("keyword", "AS")
        alias_token = self._accept("word")
        if alias_token:
            alias = alias_token.value
        return TableRef(token.value, alias)

    def _parse_attr_ref(self) -> AttrRef:
        token = self._next()
        if token.kind != "word":
            raise SQLSyntaxError("expected attribute", position=token.pos)
        if self._accept("punct", "."):
            attr = self._next()
            if attr.kind != "word":
                raise SQLSyntaxError("expected attribute name", position=attr.pos)
            return AttrRef(token.value, attr.value)
        return AttrRef(None, token.value)

    def _parse_condition(self) -> Condition:
        left = self._parse_attr_ref()
        if self._accept("keyword", "LIKE"):
            token = self._next()
            if token.kind != "string":
                raise SQLSyntaxError("LIKE expects a string", position=token.pos)
            return Condition(left, "LIKE", token.value)
        op_token = self._next()
        if op_token.kind != "op":
            raise SQLSyntaxError("expected comparison operator", position=op_token.pos)
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("missing right-hand side of condition")
        if token.kind == "word":
            right: Any = self._parse_attr_ref()
        elif token.kind in ("string", "number"):
            right = self._next().value
        else:
            raise SQLSyntaxError("bad right-hand side", position=token.pos)
        return Condition(left, op_token.value, right)


def parse(text: str) -> SelectStatement:
    """Parse a mini-SQL SELECT string into an AST."""
    return _Parser(_tokenize(text)).parse()


# -------------------------------------------------------------------- executor

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and b is not None and a < b,
    "<=": lambda a, b: a is not None and b is not None and a <= b,
    ">": lambda a, b: a is not None and b is not None and a > b,
    ">=": lambda a, b: a is not None and b is not None and a >= b,
}


def _like_to_regex(pattern: str) -> re.Pattern:
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)


class _Binding(dict):
    """alias -> Row mapping for one partial result."""


def execute(db: Database, statement: SelectStatement | str) -> list[dict[str, Any]]:
    """Run a SELECT; returns a list of dicts keyed ``alias.attribute``.

    *db* may also be a read-only view with ``to_database()`` (a précis
    answer), which is materialized first."""
    db = as_database(db)
    if isinstance(statement, str):
        statement = parse(statement)
    stmt = statement

    aliases: dict[str, str] = {}
    for table in stmt.tables:
        if table.alias in aliases:
            raise QueryError(f"duplicate table alias {table.alias}")
        if table.name not in db:
            raise QueryError(f"unknown relation {table.name}")
        aliases[table.alias] = table.name

    def resolve(ref: AttrRef) -> AttrRef:
        if ref.table is not None:
            if ref.table not in aliases:
                raise QueryError(f"unknown alias {ref.table}")
            _check_attr(db, aliases[ref.table], ref.attribute)
            return ref
        owners = [
            alias
            for alias, name in aliases.items()
            if db.relation(name).schema.has_column(ref.attribute)
        ]
        if len(owners) != 1:
            raise QueryError(
                f"attribute {ref.attribute} is "
                + ("ambiguous" if owners else "unknown")
            )
        return AttrRef(owners[0], ref.attribute)

    conditions = [
        Condition(
            resolve(cond.left),
            cond.op,
            resolve(cond.right) if isinstance(cond.right, AttrRef) else cond.right,
        )
        for cond in stmt.conditions
    ]
    def resolve_item(item: AttrRef | CountExpr) -> AttrRef | CountExpr:
        if isinstance(item, CountExpr):
            return CountExpr(resolve(item.arg) if item.arg else None)
        return resolve(item)

    projections = [resolve_item(item) for item in stmt.projections]
    group_by = [resolve(ref) for ref in stmt.group_by]
    order_by = [
        (resolve_item(item), descending)
        for item, descending in stmt.order_by
    ]
    has_aggregate = any(isinstance(p, CountExpr) for p in projections) or any(
        isinstance(item, CountExpr) for item, __ in order_by
    )

    if group_by or has_aggregate:
        plain = [p for p in projections if isinstance(p, AttrRef)]
        bad = [p for p in plain if p not in group_by]
        if bad:
            raise QueryError(
                f"non-aggregated attribute {bad[0]} must appear in GROUP BY"
            )
        records = _aggregate(
            db, aliases, conditions, projections, group_by, order_by
        )
    else:
        # ORDER BY may reference attributes outside the select list;
        # carry them through as hidden columns and strip afterwards
        hidden = [
            item
            for item, __ in order_by
            if isinstance(item, AttrRef) and projections and item not in projections
        ]
        fetch_list = projections + hidden if projections else projections
        records = []
        streaming = not order_by
        for binding in _join_all(db, aliases, conditions):
            if streaming and stmt.limit is not None and len(records) >= stmt.limit:
                break
            records.append(_record(binding, fetch_list, aliases))

    if order_by:
        records = _order(records, order_by)
    if stmt.limit is not None:
        records = records[: stmt.limit]
    if not (group_by or has_aggregate):
        hidden_names = {
            str(item)
            for item, __ in order_by
            if isinstance(item, AttrRef) and projections and item not in projections
        }
        if hidden_names:
            records = [
                {k: v for k, v in record.items() if k not in hidden_names}
                for record in records
            ]
    else:
        # strip order-by-only aggregate columns from grouped output
        if projections:
            wanted = {str(p) for p in projections}
            records = [
                {k: v for k, v in record.items() if k in wanted}
                for record in records
            ]
    return records


def _record(
    binding: "_Binding",
    projections: list[AttrRef | CountExpr],
    aliases: dict[str, str],
) -> dict[str, Any]:
    if projections:
        return {
            str(ref): binding[ref.table][ref.attribute]
            for ref in projections
            if isinstance(ref, AttrRef)
        }
    record: dict[str, Any] = {}
    for alias in aliases:
        row = binding[alias]
        for attr, value in zip(row.attributes, row.values):
            record[f"{alias}.{attr}"] = value
    return record


def _aggregate(
    db: Database,
    aliases: dict[str, str],
    conditions: list[Condition],
    projections: list[AttrRef | CountExpr],
    group_by: list[AttrRef],
    order_by: list[tuple[AttrRef | CountExpr, bool]],
) -> list[dict[str, Any]]:
    """GROUP BY + COUNT evaluation over the joined bindings."""
    counts: dict[tuple, dict[str, int]] = {}
    keys_seen: dict[tuple, dict[str, Any]] = {}
    count_exprs = [p for p in projections if isinstance(p, CountExpr)]
    for item, __ in order_by:
        if isinstance(item, CountExpr) and item not in count_exprs:
            count_exprs.append(item)
    if not count_exprs:
        count_exprs = [CountExpr(None)]  # implicit, for bare GROUP BY
    for binding in _join_all(db, aliases, conditions):
        key = tuple(
            binding[ref.table][ref.attribute] for ref in group_by
        )
        if key not in counts:
            counts[key] = {str(expr): 0 for expr in count_exprs}
            keys_seen[key] = {
                str(ref): value for ref, value in zip(group_by, key)
            }
        for expr in count_exprs:
            if expr.arg is None:
                counts[key][str(expr)] += 1
            else:
                value = binding[expr.arg.table][expr.arg.attribute]
                if value is not None:
                    counts[key][str(expr)] += 1
    records = []
    wanted = [str(p) for p in projections] if projections else None
    for key, groups in counts.items():
        record = dict(keys_seen[key])
        record.update(groups)
        if wanted:
            extras = {
                name: value
                for name, value in record.items()
                if name not in wanted
            }
            record = {name: record[name] for name in wanted}
            record.update(
                {  # keep order-by-only counts accessible for sorting
                    name: value
                    for name, value in extras.items()
                    if name.startswith("COUNT")
                }
            )
        records.append(record)
    return records


def _order(
    records: list[dict[str, Any]],
    order_by: list[tuple[AttrRef | CountExpr, bool]],
) -> list[dict[str, Any]]:
    """Stable multi-key ordering; NULLs sort first (last when DESC)."""

    def key_for(name: str):
        def key(record: dict[str, Any]):
            value = record[name]
            if value is None:
                return (0, 0)
            return (1, value)

        return key

    out = list(records)
    for item, descending in reversed(order_by):
        name = str(item)
        if out and name not in out[0]:
            raise QueryError(f"cannot ORDER BY {name}: not in the output")
        out.sort(key=key_for(name), reverse=descending)
    return out


def _check_attr(db: Database, relation: str, attribute: str) -> None:
    if not db.relation(relation).schema.has_column(attribute):
        raise QueryError(f"no attribute {attribute} in {relation}")


def _literal_conditions(
    conditions: list[Condition], alias: str
) -> list[Condition]:
    return [
        c for c in conditions if not c.is_join and c.left.table == alias
    ]


def _row_passes(row, conds: list[Condition]) -> bool:
    for cond in conds:
        value = row[cond.left.attribute]
        if cond.op == "LIKE":
            if value is None or not _like_to_regex(cond.right).match(str(value)):
                return False
        elif not _OPS[cond.op](value, cond.right):
            return False
    return True


def _scan_alias(
    db: Database, aliases: dict[str, str], alias: str, conds: list[Condition]
) -> Iterator:
    """All rows of *alias* satisfying its literal conditions, using an

    equality index when one matches."""
    relation = db.relation(aliases[alias])
    eq = next(
        (
            c
            for c in conds
            if c.op == "="
            and not isinstance(c.right, AttrRef)
            and relation.has_index(c.left.attribute)
        ),
        None,
    )
    if eq is not None:
        rest = [c for c in conds if c is not eq]
        for row in relation.fetch_many(
            sorted(relation.lookup(eq.left.attribute, eq.right))
        ):
            if _row_passes(row, rest):
                yield row
    else:
        for row in relation.scan():
            if _row_passes(row, conds):
                yield row


def _join_all(
    db: Database, aliases: dict[str, str], conditions: list[Condition]
) -> Iterator[_Binding]:
    """Greedy left-deep join of all aliases; yields complete bindings."""
    remaining = list(aliases)
    if not remaining:
        return iter(())

    def selectivity(alias: str) -> tuple:
        lits = _literal_conditions(conditions, alias)
        eq = sum(1 for c in lits if c.op == "=")
        return (-eq, -len(lits), len(db.relation(aliases[alias])))

    start = min(remaining, key=selectivity)
    order = [start]
    remaining.remove(start)
    # attach join-connected aliases first to avoid cartesian blowup
    while remaining:
        connected = None
        for alias in remaining:
            for cond in conditions:
                if not cond.is_join:
                    continue
                pair = {cond.left.table, cond.right.table}
                if alias in pair and pair & set(order):
                    connected = alias
                    break
            if connected:
                break
        chosen = connected or remaining[0]
        order.append(chosen)
        remaining.remove(chosen)

    def extend(binding: _Binding, depth: int) -> Iterator[_Binding]:
        if depth == len(order):
            yield binding
            return
        alias = order[depth]
        relation = db.relation(aliases[alias])
        bound = set(binding)
        lits = _literal_conditions(conditions, alias)
        # join conditions decidable now: other side already bound. When
        # the current alias sits on the condition's right, the operator
        # must be mirrored (a.x < b.y probed from b means b.y > a.x).
        mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
        joins = []
        for cond in conditions:
            if not cond.is_join:
                continue
            if cond.left.table == alias and cond.right.table in bound:
                joins.append((cond.left.attribute, cond.right, cond.op))
            elif cond.right.table == alias and cond.left.table in bound:
                joins.append(
                    (cond.right.attribute, cond.left, mirrored[cond.op])
                )

        probe = next(
            (
                (attr, other)
                for attr, other, op in joins
                if op == "=" and relation.has_index(attr)
            ),
            None,
        )
        if probe is not None:
            attr, other = probe
            value = binding[other.table][other.attribute]
            candidates = relation.fetch_many(sorted(relation.lookup(attr, value)))
        else:
            candidates = list(_scan_alias(db, aliases, alias, []))

        for row in candidates:
            if not _row_passes(row, lits):
                continue
            ok = True
            for attr, other, op in joins:
                left = row[attr]
                right = binding[other.table][other.attribute]
                if op == "LIKE":
                    ok = False  # LIKE between attributes is unsupported
                elif not _OPS[op](left, right):
                    ok = False
                if not ok:
                    break
            if not ok:
                continue
            child = _Binding(binding)
            child[alias] = row
            yield from extend(child, depth + 1)

    return extend(_Binding(), 0)
