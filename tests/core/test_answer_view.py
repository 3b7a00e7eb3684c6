"""The answer as a frozen view: read surface, export, and sharing.

Answers are shared between callers (the answer cache hands the same
object to every hit, the front door fans one answer out to every
coalesced waiter), so an answer must never change after it is built —
not through a write method, not through an attribute, and not through
state a reader builds lazily onto it.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PrecisEngine
from repro.core import (
    STRATEGY_NAIVE,
    STRATEGY_ROUND_ROBIN,
    MaxTuplesPerRelation,
    Unlimited,
    WeightThreshold,
)
from repro.core.answer_view import AnswerView
from repro.datasets import movies_graph, movies_translation_spec
from repro.nlg import Translator
from repro.relational import Database
from repro.relational.errors import SchemaError, UnknownTupleError

QUERIES = ("midnight", "drama", "garcia", "thriller", "comedy", "crimson harbor")
WRITES = ("insert", "insert_many", "update", "delete", "clear", "create_index")


@pytest.fixture(scope="module")
def engine(synthetic_movies):
    return PrecisEngine(
        synthetic_movies,
        graph=movies_graph(),
        translator=Translator(movies_translation_spec()),
        cache=True,
    )


def _contents(db) -> dict:
    return {
        rel.name: [(row.tid, tuple(row.values)) for row in rel.scan()]
        for rel in db
    }


def _state(answer) -> dict:
    """Identity of everything an answer holds, down to the view's rows."""
    view = answer.database
    return {
        "answer": {key: id(value) for key, value in vars(answer).items()},
        "view": [
            (
                id(rel),
                id(rel.schema),
                id(rel.columns()),
                id(rel.source_tids()),
                len(rel),
            )
            for rel in view
        ],
    }


class TestReadSurface:
    def test_view_mirrors_the_database_surface(self, paper_engine):
        answer = paper_engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        view = answer.database
        assert isinstance(view, AnswerView)
        assert "MOVIE" in view and "NOPE" not in view
        assert view.relation_names == tuple(rel.name for rel in view)
        assert view.total_tuples() == sum(view.cardinalities().values())
        movie = view.relation("MOVIE")
        assert list(movie.tids()) == list(range(1, len(movie) + 1))
        first = movie.fetch(1, ["TITLE"])
        assert first.attributes == ("TITLE",)
        assert [row["TITLE"] for row in movie.scan(["TITLE"])][0] == first["TITLE"]
        with pytest.raises(UnknownTupleError):
            movie.fetch(len(movie) + 1)
        with pytest.raises(SchemaError):
            view.relation("NOPE")

    def test_source_tids_map_back_to_the_source(self, paper_engine, paper_db):
        answer = paper_engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        for rel in answer.database:
            for row, source_tid in zip(rel.scan(), rel.source_tids()):
                source = paper_db.relation(rel.name).fetch(
                    source_tid, rel.schema.attribute_names
                )
                assert tuple(source.values) == tuple(row.values)

    def test_to_database_is_a_new_independent_database(self, paper_engine):
        answer = paper_engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        first = answer.database.to_database()
        second = answer.database.to_database()
        assert isinstance(first, Database) and first is not second
        assert not first.enforce_foreign_keys
        assert first.schema is answer.database.schema
        first.relation("MOVIE").clear()
        assert _contents(second) == _contents(answer.database)


class TestFrozen:
    def test_view_exposes_no_writes(self, paper_engine):
        view = paper_engine.ask('"Woody Allen"').database
        for name in WRITES:
            assert not hasattr(view, name), name
            for rel in view:
                assert not hasattr(rel, name), (rel.name, name)

    def test_view_attributes_cannot_be_set(self, paper_engine):
        view = paper_engine.ask('"Woody Allen"').database
        rel = view.relation("MOVIE")
        with pytest.raises(AttributeError):
            view.schema = None
        with pytest.raises(AttributeError):
            view.cache = {}
        with pytest.raises(AttributeError):
            rel.partners = {}
        with pytest.raises(AttributeError):
            del rel.schema
        assert isinstance(rel.source_tids(), tuple)
        assert all(isinstance(column, tuple) for column in rel.columns())

    def test_concurrent_translation_of_one_cached_answer(self, engine):
        query = "garcia"
        answer = engine.ask(query, degree=WeightThreshold(0.5))
        assert engine.ask(query, degree=WeightThreshold(0.5)) is answer
        assert answer.narrative
        before_dict = json.dumps(answer.to_dict(), sort_keys=True)
        before_state = _state(answer)

        translator = engine.translator
        threads = 4
        barrier = threading.Barrier(threads)
        narratives: list = [None] * threads

        def work(slot: int) -> None:
            barrier.wait()
            for __ in range(3):
                narratives[slot] = translator.translate(answer)

        workers = [
            threading.Thread(target=work, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert narratives == [answer.narrative] * threads
        assert json.dumps(answer.to_dict(), sort_keys=True) == before_dict
        # nothing was built lazily onto the shared answer or its view
        assert _state(answer) == before_state


class TestViewEqualsDatabase:
    @settings(max_examples=40, deadline=None)
    @given(
        query=st.sampled_from(QUERIES),
        threshold=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        cap=st.sampled_from([None, 1, 2, 4]),
        strategy=st.sampled_from([STRATEGY_NAIVE, STRATEGY_ROUND_ROBIN]),
        path_scoped=st.booleans(),
    )
    def test_view_and_to_database_agree(
        self, engine, query, threshold, cap, strategy, path_scoped
    ):
        answer = engine.ask(
            query,
            degree=WeightThreshold(threshold),
            cardinality=Unlimited() if cap is None else MaxTuplesPerRelation(cap),
            strategy=strategy,
            path_scoped=path_scoped,
            translate=False,
        )
        view = answer.database
        db = view.to_database()
        assert db.relation_names == view.relation_names
        assert db.cardinalities() == view.cardinalities()
        assert _contents(db) == _contents(view)
        assert db.integrity_violations() == view.integrity_violations()
        assert answer.dangling_tuples() == len(db.integrity_violations())
