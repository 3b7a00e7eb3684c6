"""The Result Database Translator (paper §5.3).

Renders the relational précis answer to a natural-language synthesis:

    "The translation is realized separately for every occurrence of a
    token. For each occurrence, the analysis of the query result graph
    starts from the relation that contains the input token. The labels
    of the projection edges that participate in the result graph are
    evaluated first; the label of the heading attribute comprises the
    first part of the sentence. After having constructed the clause for
    the relation that contains the input token, we compose additional
    clauses that combine information from more than one relation by
    using foreign key relationships. Each of these clauses has as
    subject the heading attribute of the relation that has the primary
    key. The procedure ends when the traversal of the database graph is
    complete."

Concretely, for each seed tuple of each token occurrence we emit:

1. an *entity clause*: the concatenated projection-edge labels of the
   token relation (heading attribute first), evaluated on the tuple;
2. one *join clause* per (result-schema join edge, reached tuple) pair,
   evaluated in a scope holding the source tuple's attributes as scalars
   (plus scalars inherited along the traversal — this serves relations
   without a heading attribute, whose join labels speak about "the
   previous relation") and the joined target tuples' attributes as
   lists;

then recurse into the target tuples along the remaining edges.
"""

from __future__ import annotations

from typing import Any

from ..obs import NULL_TRACER, Tracer
from .labels import TranslationSpec

__all__ = ["Translator"]


class Translator:
    """Turns :class:`~repro.core.answer.PrecisAnswer` objects into prose."""

    #: tells the engine it may pass ``tracer=`` (see
    #: :meth:`repro.core.engine.PrecisEngine._run_translator`)
    accepts_tracer = True

    def __init__(self, spec: TranslationSpec):
        self.spec = spec

    # ------------------------------------------------------------- top level

    def translate(self, answer, tracer: Tracer = NULL_TRACER) -> str:
        """One paragraph per token occurrence per seed tuple, in order.

        *tracer* (``repro.obs``, no-op by default) counts
        ``paragraphs_emitted`` in the caller's current span.

        The answer is only read: everything the walk derives from it
        (join adjacency, attribute orders, value → rows maps) lives in
        this call's own :class:`_Walk`, so one shared answer can be
        translated from many threads at once.
        """
        view = answer.database
        walk = _Walk(self.spec, answer.result_schema, view)
        paragraphs: list[str] = []
        for match in answer.matches:
            for occurrence in match.occurrences:
                relation = occurrence.relation
                if relation not in view:
                    continue
                positions = walk.positions_of(relation)
                for source_tid in sorted(occurrence.tids):
                    position = positions.get(source_tid)
                    if position is None:
                        continue  # excluded by the cardinality constraint
                    text = walk.seed(relation, position)
                    if text:
                        paragraphs.append(text)
        tracer.count("paragraphs_emitted", len(paragraphs))
        return "\n\n".join(paragraphs)


class _Walk:
    """The traversal state of one :meth:`Translator.translate` call.

    Rows are addressed by their 0-based position in the answer view and
    read straight from its value columns. Everything here is computed
    at most once per call: the join edges leaving each relation, each
    relation's projection labels in heading-first order, its upper-cased
    attribute names, and — built on first use — a value → row positions
    map per (relation, attribute), which finds join partners without
    probing or scanning the answer, and a source tid → position map per
    seeded relation.
    """

    def __init__(self, spec: TranslationSpec, result_schema, view):
        self.spec = spec
        self.macros = spec.macros
        self.edges_from: dict[str, list] = {}
        for edge in result_schema.join_edges():
            self.edges_from.setdefault(edge.source, []).append(edge)
        self.relations = {rel.name: rel for rel in view}
        self.columns: dict[str, tuple[tuple, ...]] = {}
        self.names: dict[str, tuple[str, ...]] = {}
        self.labels: dict[str, list[tuple[int, Any]]] = {}
        for name, rel in self.relations.items():
            schema = rel.schema
            self.columns[name] = rel.columns()
            self.names[name] = tuple(a.upper() for a in schema.attribute_names)
            attributes = list(result_schema.attributes_of(name))
            heading = spec.heading_of(name)
            if heading in attributes:
                attributes.remove(heading)
                attributes.insert(0, heading)
            labels = []
            for attribute in attributes:
                template = spec.projection_label(name, attribute)
                if template is not None and schema.has_column(attribute):
                    labels.append((schema.position(attribute), template))
            self.labels[name] = labels
        self.partners: dict[tuple[str, str], dict[Any, list[int]]] = {}
        self.seeds: dict[str, dict[int, int]] = {}

    def positions_of(self, relation: str) -> dict[int, int]:
        """source tid → position of *relation*'s rows."""
        positions = self.seeds.get(relation)
        if positions is None:
            source_tids = self.relations[relation].source_tids()
            positions = {tid: at for at, tid in enumerate(source_tids)}
            self.seeds[relation] = positions
        return positions

    def partners_of(self, relation: str, attribute: str) -> dict[Any, list[int]]:
        """value → positions (ascending) of *relation*'s rows."""
        key = (relation, attribute)
        partners = self.partners.get(key)
        if partners is None:
            partners = {}
            for position, value in enumerate(
                self.relations[relation].column(attribute)
            ):
                if value is not None:
                    partners.setdefault(value, []).append(position)
            self.partners[key] = partners
        return partners

    def row_scope(self, relation: str, position: int) -> dict[str, Any]:
        return {
            name: column[position]
            for name, column in zip(self.names[relation], self.columns[relation])
        }

    def seed(self, relation: str, position: int) -> str:
        clauses: list[str] = []
        entity = self.entity_clause(relation, position)
        if entity:
            clauses.append(entity)
        self.join_clauses(
            relation,
            [position],
            inherited={},
            visited=frozenset({relation}),
            clauses=clauses,
        )
        return " ".join(clause.strip() for clause in clauses if clause.strip())

    def entity_clause(self, relation: str, position: int) -> str:
        """Projection labels of *relation*, heading attribute first."""
        columns = self.columns[relation]
        scope = None
        parts = []
        for at, template in self.labels[relation]:
            if columns[at][position] is None:
                continue  # a précis may be incomplete; skip silently
            if scope is None:
                scope = self.row_scope(relation, position)
            parts.append(template.render(scope, self.macros))
        return "".join(parts)

    def join_clauses(
        self,
        relation: str,
        positions: list[int],
        inherited: dict[str, Any],
        visited: frozenset[str],
        clauses: list[str],
    ) -> None:
        for edge in self.edges_from.get(relation, ()):
            if edge.target in visited:
                continue
            template = self.spec.join_label(edge.source, edge.target)
            driving_column = self.relations[relation].column(
                edge.source_attribute
            )
            partners = self.partners_of(edge.target, edge.target_attribute)
            target_names = self.names[edge.target]
            target_columns = self.columns[edge.target]
            next_visited = visited | {edge.target}
            for position in positions:
                driving = driving_column[position]
                if driving is None:
                    continue
                targets = partners.get(driving)
                if not targets:
                    continue
                scope = dict(inherited)
                scope.update(self.row_scope(relation, position))
                if template is not None:
                    scope_with_lists = dict(scope)
                    for name, column in zip(target_names, target_columns):
                        scope_with_lists[name] = [column[t] for t in targets]
                    clause = template.render(
                        scope_with_lists, self.macros
                    ).strip()
                    if clause:
                        clauses.append(clause)
                # recurse: clauses about relations further out are
                # composed per reached tuple, subject = their heading
                self.join_clauses(
                    edge.target,
                    targets,
                    inherited=scope,
                    visited=next_visited,
                    clauses=clauses,
                )
