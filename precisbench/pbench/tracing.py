"""The traced run's instruments, all applied from outside the program.

* :class:`SpanRecorder` keeps spans in memory (name, start, end, parent,
  trace id) and writes them out once, at the end of the run.
* :func:`wrap_methods` replaces public methods on *instances* (never on
  classes) with timing wrappers and restores them afterwards.
* :func:`decomposed_ask` rebuilds ``PrecisEngine.ask`` from its public
  steps with one span per step; its answer must digest equal to
  ``ask``'s.
* :func:`call_counts` groups ``cProfile`` call counts by the
  ``repro`` subpackage of the callee.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import os
import time
from typing import Callable, Iterator, Optional

from repro.core.answer import PrecisAnswer
from repro.core.database_generator import generate_result_database
from repro.core.explain import build_explanation
from repro.core.query import PrecisQuery

#: subpackage of a callee → reported layer (storage belongs with
#: relational; the schema graph is part of planning)
LAYER_OF_SUBPACKAGE = {
    "relational": "relational",
    "storage": "relational",
    "core": "core",
    "graph": "core",
    "nlg": "nlg",
    "obs": "obs",
    "cache": "cache",
    "text": "text",
    "service": "service",
}
LAYERS = ("relational", "core", "nlg", "obs", "cache", "text", "service")

PROBE_METHODS = ("lookup", "lookup_in", "lookup_pk")
FETCH_METHODS = ("fetch", "fetch_many")


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end")

    def __init__(self, span_id, parent, trace, name, start):
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.end = start

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class SpanRecorder:
    """In-memory spans of one thread; one trace id per request."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.trace = 0

    def new_trace(self) -> int:
        self.trace += 1
        return self.trace

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.trace, name,
                    time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover
        (children of one thread never overlap)."""
        covered: dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = (
                    covered.get(span.parent, 0) + span.end - span.start
                )
        return {
            span.id: (span.end - span.start - covered.get(span.id, 0)) / 1e9
            for span in self.spans
        }

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "trace": span.trace,
                            "span": span.id,
                            "parent": span.parent,
                            "name": span.name,
                            "start_us": span.start / 1e3,
                            "dur_us": (span.end - span.start) / 1e3,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def wrap_methods(
    targets: list[tuple[object, str]],
    around: Callable[[str, Callable], Callable],
) -> Iterator[None]:
    """Shadow ``obj.name`` with ``around(name, bound_method)`` on each
    instance, and remove the shadows on exit."""
    wrapped = []
    try:
        for obj, name in targets:
            setattr(obj, name, around(name, getattr(obj, name)))
            wrapped.append((obj, name))
        yield
    finally:
        for obj, name in wrapped:
            delattr(obj, name)


def span_around(recorder: SpanRecorder, layer: str):
    """A wrapper factory recording one span named ``layer`` per call."""

    def around(name: str, method: Callable) -> Callable:
        def call(*args, **kwargs):
            with recorder.span(layer):
                return method(*args, **kwargs)

        return call

    return around


def relation_targets(db, methods) -> list[tuple[object, str]]:
    return [
        (db.relation(name), method)
        for name in db.relation_names
        for method in methods
    ]


def decomposed_ask(engine, request, recorder: SpanRecorder) -> PrecisAnswer:
    """``engine.ask(request.text, weights=request.weights)`` rebuilt from
    public calls, for an engine without caches or deadlines.

    ``plan`` matches the tokens again internally, as ``ask`` does, so
    ``core.plan`` covers match + schema generation; ``text.match`` is the
    separate match call whose result seeds the generator.
    """
    db = engine.db
    degree = engine.default_degree
    cardinality = engine.default_cardinality
    query = PrecisQuery.parse(request.text)
    recorder.new_trace()
    with recorder.span("ask"):
        with recorder.span("text.match"):
            matches = engine.match(query)
        with recorder.span("core.plan"):
            schema, __, __ = engine.plan(query, weights=request.weights)
        seed_tids: dict[str, set[int]] = {}
        for match in matches:
            for occurrence in match.occurrences:
                seed_tids.setdefault(occurrence.relation, set()).update(
                    occurrence.tids
                )
        with relation_probes(db, recorder):
            with recorder.span("core.database_generator"):
                with db.meter.measure() as measured:
                    database, report = generate_result_database(
                        db, schema, seed_tids, cardinality
                    )
        answer = PrecisAnswer(
            query=query,
            result_schema=schema,
            database=database,
            report=report,
            matches=matches,
            cost=measured.delta,
        )
        if engine.translator is not None and answer.found:
            with recorder.span("nlg.translate"):
                answer.narrative = engine.translator.translate(answer)
        with recorder.span("core.explain"):
            answer.explanation = build_explanation(answer, degree, cardinality)
    return answer


@contextlib.contextmanager
def relation_probes(db, recorder: SpanRecorder) -> Iterator[None]:
    """Spans around the source relations' probe and fetch calls."""
    with wrap_methods(
        relation_targets(db, PROBE_METHODS),
        span_around(recorder, "relational.probe"),
    ), wrap_methods(
        relation_targets(db, FETCH_METHODS),
        span_around(recorder, "relational.fetch"),
    ):
        yield


def layer_of(filename: str) -> Optional[str]:
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return LAYER_OF_SUBPACKAGE.get(parts[i + 1])
    return None


def call_counts(profile: cProfile.Profile) -> dict[str, int]:
    """Calls per ``repro`` layer recorded so far by *profile*. Readable
    while the profiled thread is idle, so two snapshots bracket a pass."""
    counts = dict.fromkeys(LAYERS, 0)
    for entry in profile.getstats():
        code = entry.code
        layer = layer_of(code.co_filename) if hasattr(code, "co_filename") else None
        if layer is not None:
            counts[layer] += entry.callcount
    return counts


def count_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {layer: after[layer] - before.get(layer, 0) for layer in after}


def median_ask_seconds(engine, request, rounds: int) -> float:
    """Median time of *rounds* repeats of one request, after one
    untimed ask (on a cached engine, every timed repeat is a hit)."""
    engine.ask(request.text, weights=request.weights)
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        engine.ask(request.text, weights=request.weights)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def alternating_ratio(
    measure_on: Callable[[], float],
    measure_off: Callable[[], float],
    rounds: int,
) -> float:
    """Median of on/off over *rounds*, alternating which side goes first."""
    ratios = []
    for index in range(rounds):
        if index % 2 == 0:
            on, off = measure_on(), measure_off()
        else:
            off, on = measure_off(), measure_on()
        ratios.append(on / off)
    ratios.sort()
    return ratios[len(ratios) // 2]
