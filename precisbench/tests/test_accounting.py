"""The benchmark's own accounting: latency, tails, failures, digests.

    python3 -m pytest precisbench/tests -q
"""

import asyncio
import math
import time

import pytest

from repro import MaxTuplesPerRelation
from repro.datasets import paper_instance
from repro.service import QueueFull, StaleRequest

from pbench import tracing
from pbench.catalog import Request
from pbench.checks import ReferenceChecker, answer_digest, plain_engine
from pbench.openloop import Outcome, LoopResult, closed_loop, open_loop
from pbench.refclock import RefClock, between
from pbench.stats import TooFewSamples, tail
from pbench.workloads import (
    OpenPhase,
    RunResult,
    check_outcomes,
    open_loop_latencies,
    settle,
)


class FakeClock:
    """A clock that moves only when told: by sleeps and by fake work."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds
        await asyncio.sleep(0)


def run(coroutine):
    return asyncio.run(coroutine)


# ------------------------------------------------------------ open loop


def test_open_loop_latency_counts_from_the_due_instant():
    clock = FakeClock()

    async def submit(work_s):
        clock.now += work_s  # work that blocks the event loop
        return work_s

    # the first request stalls the loop for 0.5 s, so the second fires
    # 0.5 s late; its latency still counts from when it was due
    arrivals = [(0.0, 0.5), (0.1, 0.01), (1.0, 0.01)]
    result = run(open_loop(arrivals, submit, clock=clock, sleep=clock.sleep))
    latencies = [outcome.latency_s for outcome in result.outcomes]
    assert latencies == pytest.approx([0.5 + 0.1, 0.91, 0.02])
    assert result.lags == pytest.approx([0.0, 0.5, 0.01])
    assert result.failed == 0


def test_closed_loop_sends_next_request_after_the_previous_settles():
    clock = FakeClock()

    async def submit(work_s):
        clock.now += work_s
        return work_s

    result = run(closed_loop([0.1, 0.2, 0.3], submit, clock=clock))
    assert [o.latency_s for o in result.outcomes] == pytest.approx(
        [0.1, 0.2, 0.3]
    )
    assert result.elapsed_s == pytest.approx(0.6)


# ---------------------------------------------------------- tail rule


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    info = tail([float(i) for i in range(n)])
    assert info["percentile"] == percentile
    assert info["beyond"] >= 10
    assert info["samples"] == n


def test_tail_refuses_too_few_samples():
    with pytest.raises(TooFewSamples):
        tail([1.0] * 19)


# ------------------------------------------------- shed and failed


def test_shed_and_failed_requests_count_as_failed_and_miss_every_limit():
    clock = FakeClock()

    async def submit(kind):
        clock.now += 0.01
        if kind == "shed":
            raise QueueFull(1)
        if kind == "stale":
            raise StaleRequest(0.2)
        return kind

    arrivals = [(0.0, "ok"), (0.1, "shed"), (0.2, "stale"), (0.3, "ok")]
    segment = run(open_loop(arrivals, submit, clock=clock, sleep=clock.sleep))
    assert segment.failed == 2
    assert [o.latency_s for o in segment.outcomes if not o.ok] == [
        math.inf, math.inf,
    ]
    result = RunResult()
    latencies = open_loop_latencies(result, [segment])
    assert result.failed == 2
    answered = [o.latency_s for o in segment.outcomes if o.ok]
    # a failed request lasts its whole segment: slower than any answer
    assert sorted(latencies)[-2:] == [segment.elapsed_s] * 2
    assert all(latency < segment.elapsed_s for latency in answered)


def test_open_phase_fractions_count_each_request_once():
    outcomes = [
        Outcome(None, 0.01),
        Outcome(None, 0.01),
        Outcome(None, math.inf, error="QueueFull: full"),
        Outcome(None, math.inf, error="Degraded: generate"),
    ]
    phase = OpenPhase([LoopResult(outcomes)], rate=4.0, started=0.0,
                      coalesced=1)
    assert phase.fractions() == {
        "coalesced_frac": 0.25,
        "shed_frac": 0.25,
        "degraded_frac": 0.25,
    }


# -------------------------------------------------------- answer checks


@pytest.fixture(scope="module")
def engine():
    return plain_engine(paper_instance(), cardinality=MaxTuplesPerRelation(3))


def test_wrong_answer_digest_makes_the_run_incorrect(engine):
    checker = ReferenceChecker(engine)
    right = Request('"Woody Allen"')
    wrong = engine.ask('"Match Point"')
    outcomes = [
        Outcome(right, 0.001, engine.ask(right.text)),
        Outcome(right, 0.001, wrong),
    ]
    result = RunResult()
    check_outcomes(result, checker, settle(LoopResult(outcomes)).outcomes)
    assert not result.correct
    assert checker.mismatches == [right.key]
    assert checker.checked == 2


def test_right_answers_keep_the_run_correct(engine):
    checker = ReferenceChecker(engine)
    request = Request('"Woody Allen"', tenant="critics")
    answer = engine.ask(request.text, weights=request.weights)
    result = RunResult()
    segment = settle(LoopResult([Outcome(request, 0.001, answer)]))
    assert segment.outcomes[0].answer is None
    assert segment.outcomes[0].tuples == answer.total_tuples()
    check_outcomes(result, checker, segment.outcomes)
    assert result.correct


@pytest.mark.parametrize("tenant", [None, "critics", "venues"])
@pytest.mark.parametrize("text", ['"Woody Allen"', "drama", "Match"])
def test_decomposed_ask_digests_equal_to_engine_ask(engine, text, tenant):
    request = Request(text, tenant)
    recorder = tracing.SpanRecorder()
    rebuilt = tracing.decomposed_ask(engine, request, recorder)
    asked = engine.ask(request.text, weights=request.weights)
    full = dict(cost=True, explanation=True)
    assert answer_digest(rebuilt, **full) == answer_digest(asked, **full)
    names = {span.name for span in recorder.spans}
    assert {"ask", "text.match", "core.plan", "core.database_generator",
            "core.explain"} <= names


def test_self_time_excludes_child_spans():
    recorder = tracing.SpanRecorder()
    with recorder.span("parent") as parent:
        with recorder.span("child") as child:
            sum(range(10000))
    own = recorder.self_seconds()
    assert own[parent.id] == pytest.approx(parent.seconds - child.seconds)
    assert own[child.id] == pytest.approx(child.seconds)


def test_wrappers_are_removed_after_the_traced_call(engine):
    relation = engine.db.relation("MOVIE")
    recorder = tracing.SpanRecorder()
    with tracing.relation_probes(engine.db, recorder):
        assert "fetch" in vars(relation)
    assert "fetch" not in vars(relation)


# ------------------------------------------------------ reference clock


class _BusyProcessClock:
    """``time`` as seen by the reference clock while another thread of
    the process burns CPU: process CPU time runs ahead of the thread's."""

    def __init__(self, other_thread_share: float):
        self.share = other_thread_share
        self.process = 0.0

    def __getattr__(self, name):
        return getattr(time, name)

    def process_time(self) -> float:
        # the other thread's CPU, on top of this thread's
        self.process += self.share * 1e-3
        return time.thread_time() + self.process


def test_reference_reading_is_refused_while_another_thread_runs(monkeypatch):
    from pbench import refclock

    monkeypatch.setattr(refclock, "time", _BusyProcessClock(1.0))
    clock = RefClock()
    assert clock.read() is None
    assert clock.violations == 1
    assert clock.discarded == 3
    assert clock.readings == []


def test_reference_reading_tolerates_clock_skew(monkeypatch):
    from pbench import refclock

    # a skew of a few microseconds per attempt, far below the reading
    monkeypatch.setattr(refclock, "time", _BusyProcessClock(0.001))
    clock = RefClock()
    assert clock.read() is not None
    assert clock.violations == 0


def test_reference_between_readings():
    assert between(2.0, 4.0) == 3.0
    assert between(None, 4.0) == 4.0
    assert between(None, None) is None


def test_loop_result_counts_failures():
    result = LoopResult(outcomes=[Outcome(None, 1.0), Outcome(None, math.inf,
                                                              error="x")])
    assert result.failed == 1
