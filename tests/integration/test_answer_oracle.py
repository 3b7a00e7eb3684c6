"""Recorded oracle: the précis answer pipeline, pinned byte for byte.

For the six-query movies mix on a small fixed movies database, on both
storage backends (one golden serves both), under NaïveQ, RoundRobin, path-scoped driving and a
value-weighted ``TupleWeigher``, the golden file pins

* the cost snapshot charged to the source (tuple reads, index lookups,
  scan steps) — Formula (2) counts source retrievals only, so how the
  answer is represented must not move it;
* the generator report's join executions;
* ``to_dict()``, narrative included;
* ``dangling_tuples()``.

The golden file was recorded from the validated-copy answer (the answer
as a second ``Database``); the frozen answer view must reproduce it.
Regenerate it only for an intended behaviour change::

    PYTHONPATH=src python tests/integration/test_answer_oracle.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import PrecisEngine
from repro.core import MaxTuplesPerRelation, Unlimited, WeightThreshold
from repro.core.value_weights import NumericAttributeWeights
from repro.datasets import (
    generate_movies_database,
    movies_graph,
    movies_translation_spec,
)
from repro.nlg import Translator

GOLDEN = Path(__file__).with_name("answer_oracle.json")
BACKENDS = ("memory", "sqlite")
QUERIES = ("midnight", "drama", "garcia", "thriller", "comedy", "crimson harbor")
#: low enough that every query walks several join edges
DEGREE = WeightThreshold(0.5)
VARIANTS = {
    "naive": dict(strategy="naive", cardinality=MaxTuplesPerRelation(4)),
    "round_robin": dict(
        strategy="round_robin", cardinality=MaxTuplesPerRelation(4)
    ),
    "path_scoped": dict(path_scoped=True, cardinality=Unlimited()),
    "weigher": dict(
        tuple_weigher=NumericAttributeWeights("MOVIE", "YEAR"),
        cardinality=MaxTuplesPerRelation(3),
    ),
}


def _engine(backend: str) -> PrecisEngine:
    db = generate_movies_database(n_movies=60, seed=11, backend=backend)
    return PrecisEngine(
        db,
        graph=movies_graph(),
        translator=Translator(movies_translation_spec()),
    )


def observe(engine: PrecisEngine, variant: str) -> dict:
    """Everything the oracle pins, per query of the mix."""
    out = {}
    for query in QUERIES:
        answer = engine.ask(query, degree=DEGREE, **VARIANTS[variant])
        out[query] = {
            "cost": [
                answer.cost.tuple_reads,
                answer.cost.index_lookups,
                answer.cost.scan_steps,
            ],
            "executions": [
                [
                    list(ex.edge.key),
                    ex.strategy,
                    ex.driving_values,
                    ex.tuples_fetched,
                    ex.tuples_new,
                    ex.budget,
                ]
                for ex in answer.report.executions
            ],
            "to_dict": json.dumps(answer.to_dict(), sort_keys=True, default=str),
            "dangling": answer.dangling_tuples(),
        }
    return out


@pytest.fixture(scope="module", params=BACKENDS)
def engine(request):
    return request.param, _engine(request.param)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_answers_match_recorded_oracle(engine, variant):
    backend, eng = engine
    golden = json.loads(GOLDEN.read_text())[variant]
    observed = observe(eng, variant)
    for query in QUERIES:
        assert observed[query] == golden[query], (backend, variant, query)


def _record() -> None:
    docs = [
        {variant: observe(_engine(backend), variant) for variant in VARIANTS}
        for backend in BACKENDS
    ]
    # one golden serves both backends: the answers must not differ
    assert all(doc == docs[0] for doc in docs), "backends disagree"
    doc = docs[0]
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_answer_oracle.py --record")
    _record()
