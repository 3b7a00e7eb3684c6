"""Answer digests and the plain reference engines they are checked against."""

from __future__ import annotations

import hashlib
import json

from repro import PrecisEngine
from repro.datasets import (
    generate_movies_database,
    movies_graph,
    movies_translation_spec,
)
from repro.nlg import Translator

#: the fixed database every workload runs on
N_MOVIES = 3000
DATA_SEED = 11


def build_database(backend=None):
    return generate_movies_database(
        n_movies=N_MOVIES, seed=DATA_SEED, backend=backend
    )


def plain_engine(db, index=None, cardinality=None) -> PrecisEngine:
    """An engine with every optional layer off: no cache, no metrics."""
    return PrecisEngine(
        db,
        graph=movies_graph(),
        index=index,
        translator=Translator(movies_translation_spec()),
        default_cardinality=cardinality,
    )


def answer_digest(answer, cost: bool = False, explanation: bool = False) -> str:
    """A stable hash of an answer's content.

    The cost block is left out by default: a cached or coalesced answer
    carries the cost of the run that filled the cache, and backends
    count scan steps differently. The explanation is left out by
    default because it names per-call cache outcomes.
    """
    data = answer.to_dict()
    if not cost:
        del data["cost"]
    if explanation:
        data["explanation"] = (
            answer.explanation.to_dict() if answer.explanation else None
        )
    blob = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


class ReferenceChecker:
    """Expected digests from a plain engine, computed once per request."""

    def __init__(self, engine: PrecisEngine):
        self.engine = engine
        self._expected: dict[tuple, str] = {}
        self.checked = 0
        self.mismatches: list[tuple] = []

    def expected(self, request) -> str:
        key = request.key
        digest = self._expected.get(key)
        if digest is None:
            digest = answer_digest(
                self.engine.ask(request.text, weights=request.weights)
            )
            self._expected[key] = digest
        return digest

    def check(self, request, digest: str) -> bool:
        self.checked += 1
        ok = digest == self.expected(request)
        if not ok:
            self.mismatches.append(request.key)
        return ok

    def check_fresh(self, request, digest: str) -> bool:
        """Check against a reference computed now (the data may have
        changed since the last check)."""
        self._expected.pop(request.key, None)
        ok = self.check(request, digest)
        self._expected.pop(request.key, None)
        return ok
