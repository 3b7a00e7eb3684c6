"""The three workloads: set-up, the measured run and the traced run.

Every workload runs one process on the same fixed database (3,000
synthetic movies, data seed 11). ``--seed`` only draws what is sent.

* ``bulk-answer`` — memory backend, no cardinality bound, translator on,
  no cache, no metrics; one closed-loop client over seeded shuffles of
  the six-query movies mix. Per-output-tuple work dominates.
* ``served-mix`` — SQLite backend, ``MaxTuplesPerRelation(10)``, plan +
  answer cache and metrics on, behind ``PrecisService`` (one worker) and
  ``AsyncFrontDoor``. A serial closed-loop capacity phase gives the
  per-request cost, then an open loop at a fixed share of the capacity
  it measured gives latency under queueing and coalescing. Requests
  follow a fixed Zipf ranking over ~1k vocabulary queries and three
  tenants, a working set larger than the 128-entry answer cache.
* ``write-mix`` — memory backend, plan + answer cache on, no metrics;
  one closed-loop client, one write after every four reads. Reads come
  from a hot set that fits the answer cache, so misses come from
  write invalidation, not eviction.
"""

from __future__ import annotations

import asyncio
import cProfile
import gc
import random
import resource
import statistics
import threading
import time
from typing import Optional

from repro import MaxTuplesPerRelation, PrecisEngine
from repro.cache import CacheConfig
from repro.core.deadline import Deadline
from repro.datasets import movies_graph, movies_translation_spec
from repro.nlg import Translator
from repro.service import AsyncFrontDoor, PrecisService, ServiceConfig
from repro.service.bench import movies_workload

from . import tracing
from .catalog import Request, RequestStream, build_catalog
from .checks import (
    ReferenceChecker,
    answer_digest,
    build_database,
    plain_engine,
)
from .openloop import LoopResult, closed_loop, open_loop, poisson_schedule
from .refclock import RefClock, between
from .stats import CostSeries, percentile, tail
from .writes import CYCLE, WriteMix

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: reference-loop time of the nominal machine that ``setup_s`` is
#: scaled to (the kernel's time in a fast phase of a 2-vCPU cloud VM)
NOMINAL_REF_S = 75e-6
#: the served/write-mix answer bound
PER_RELATION = 10
#: served-mix open loop: share of the run, arrival rate as a share of
#: the serial capacity the run measured first, and drained segment
#: length. Requests queue and coalesce, but none may be shed: at 0.7
#: the slowest request took up to 1 s, half the interactive deadline,
#: and at 0.8 the p99 did; at 0.6 the slowest stays under 0.3 s.
OPEN_SHARE = 1 / 3
OPEN_LOAD = 0.6
OPEN_SEGMENT_S = 1.0
#: served-mix request pool one epoch sends. The capacity phase sends one
#: request at a time, a reference reading on each side: the host's speed
#: switches within a tenth of a second, so a reading only describes the
#: request right next to it.
SERVED_POOL = 400
#: write-mix: reads per write, hot catalog prefix (× 3 tenants ≤ 128)
#: and the read pool one epoch sends
READS_PER_WRITE = 4
HOT_QUERIES = 32
WRITE_POOL = 200
#: writes in the read-only workloads, so write cost is measured on
#: every configuration: one insert/update/delete cycle after each
#: bulk-answer ask, ten between served-mix's open-loop segments. Spread
#: over the run, they meet the same host phases as the reads. Each cycle
#: deletes the row it inserted, so answers stay those of the base data.
PROBE_PHRASES = ["Crimson Harbor"]
PROBE_NAMES = ["Ava Garcia"]
SERVED_PROBE_CYCLES = 10
#: seed of the set-up's write-pool prefill (fixed: set-up is seed-free)
PREFILL_SEED = 7
#: warm-up asks, part of set-up
WARMUP_QUERIES = 16
#: traced run: fixed-size prefixes whose counts must repeat exactly
PROFILED_OPS = 100
DECOMPOSED_REQUESTS = 30


class Degraded(Exception):
    """An answer cut short by its deadline: counted as failed."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, clock: RefClock, count: int = SETUPS):
    """Build the workload *count* times and keep the last system.

    Each build is a generator that yields between its steps (database,
    engine, service, warm-up), where the program is idle; a reference
    reading between steps lets each step's time be scaled to the
    nominal machine speed. Returns the system, the raw set-up times and
    the scaled ones.
    """
    raw, scaled = [], []
    system = None
    for _ in range(count):
        if system is not None:
            workload.discard(system)
            system = None
            gc.collect()
        steps = workload.build_steps()
        total = units = 0.0
        before = clock.read()
        while system is None:
            start = time.perf_counter()
            try:
                next(steps)
            except StopIteration as stop:
                system = stop.value
            elapsed = time.perf_counter() - start
            reading = clock.read()
            reference = between(before, reading)
            before = reading
            total += elapsed
            units += elapsed / (reference or NOMINAL_REF_S)
        raw.append(total)
        scaled.append(units * NOMINAL_REF_S)
    # long-lived data moves out of the collector's way, so a full
    # collection during a timed call does not walk the whole database
    gc.collect()
    gc.freeze()
    return system, raw, scaled


def build(workload):
    """One build whose time nobody reads (the traced run)."""
    return timed_setups(workload, RefClock(), count=1)[0]


class RunResult:
    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.details: dict = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def timed_closed_ops(ops, clock: RefClock, reads: CostSeries,
                     writes: CostSeries) -> None:
    """Run ``(kind, thunk, after)`` operations one at a time, timing each
    thunk between two reference readings; ``after(result)`` runs
    untimed (checks)."""
    before = clock.read()
    for kind, thunk, after in ops:
        start = time.perf_counter()
        value = thunk()
        elapsed = time.perf_counter() - start
        reading = clock.read()
        (writes if kind != "read" else reads).add(
            elapsed, between(before, reading)
        )
        before = reading
        after(value)


def write_ops(mix: WriteMix, cycles: int):
    for _ in range(cycles * len(CYCLE)):
        kind, thunk = mix.next_op()
        yield kind, thunk, _ignore


def _ignore(value) -> None:
    return None


def finish_common(result: RunResult, clock: RefClock, reads: CostSeries,
                  writes: CostSeries, tuples: int, raw_setups: list[float],
                  setups: list[float], read_seconds: float,
                  rss_mb: float) -> None:
    result.metrics.update(
        {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
            "ops_per_s": len(reads) / read_seconds,
            "tuples_per_s": tuples / read_seconds,
            "ask_cost.ref": reads.mean_ref(),
            "write_ms.p50": writes.p50_ms(),
            "write_cost.ref": writes.mean_ref(),
        }
    )
    for _ in range(clock.violations):
        result.fail("reference reading taken while a program thread ran")
    result.details.update(
        {
            "setup_s_raw": raw_setups,
            "setup_s_scaled": setups,
            "ref_us": {
                "median": percentile(clock.readings, 50) * 1e6,
                "p10": percentile(clock.readings, 10) * 1e6,
                "p90": percentile(clock.readings, 90) * 1e6,
                "readings": len(clock.readings),
                "idle_retries": clock.discarded,
                "idle_violations": clock.violations,
            },
            "reads": len(reads),
            "writes": len(writes),
            "output_tuples": tuples,
        }
    )


# ====================================================================
# bulk-answer


class BulkAnswer:
    name = "bulk-answer"

    def __init__(self):
        __, self.queries = movies_workload(n_movies=1)

    def build_steps(self):
        db = build_database()
        yield
        engine = plain_engine(db)
        yield
        for text in ("crimson harbor", "midnight"):
            engine.ask(text)
        return engine

    def discard(self, engine) -> None:
        pass

    def shuffles(self, seed: int, until: Optional[float] = None):
        """Seeded shuffles of the mix, whole ones only: the first that
        would start at or after *until* (perf_counter) is not sent."""
        rng = random.Random(seed)
        while until is None or time.perf_counter() < until:
            order = [Request(text) for text in self.queries]
            rng.shuffle(order)
            yield order

    def run(self, seed: int, seconds: float) -> RunResult:
        result = RunResult()
        clock = RefClock()
        engine, raw_setups, setups = timed_setups(self, clock)
        mix = WriteMix(engine.db, engine.index, PROBE_PHRASES, PROBE_NAMES,
                       seed, pool_size=0)
        reads, writes = CostSeries(), CostSeries()
        served: list[tuple[Request, str]] = []
        tuples = 0

        def after(request):
            def check(answer):
                nonlocal tuples
                tuples += answer.total_tuples()
                served.append((request, answer_digest(answer)))

            return check

        def ops(until):
            for order in self.shuffles(seed, until):
                for request in order:
                    yield ("read", lambda r=request: engine.ask(r.text),
                           after(request))
                    yield from write_ops(mix, 1)

        timed_closed_ops(ops(time.perf_counter() + seconds), clock, reads,
                         writes)
        rss = peak_rss_mb()
        result.attempted = len(reads) + len(writes)
        # the reference runs on the other storage backend
        checker = ReferenceChecker(plain_engine(build_database("sqlite")))
        for request, digest in served:
            if not checker.check(request, digest):
                result.correct = False
        result.details["checked_answers"] = checker.checked
        finish_common(result, clock, reads, writes, tuples, raw_setups, setups,
                      sum(reads.seconds), rss)
        result.metrics["ask_ms.p50"] = reads.p50_ms()
        result.metrics["ask_ms.tail"] = _tail_ms(result, reads.seconds)
        return result

    def traced(self, seed: int, seconds: float, trace_path: str) -> dict:
        engine = build(self)
        layer = LayerMetrics()
        shuffles = self.shuffles(seed)
        first = next(shuffles)
        layer.profile_serial(
            [lambda r=r: engine.ask(r.text) for r in first], reads=len(first)
        )
        recorder = tracing.SpanRecorder()
        layer.decompose(engine, first, recorder, exact=True)
        until = time.perf_counter() + seconds
        for order in self.shuffles(seed + 1, until):
            layer.decompose(engine, order, recorder, exact=False)
        recorder.write(trace_path)
        return layer.finish(recorder)


def _tail_ms(result: RunResult, seconds: list[float]) -> float:
    info = tail(seconds)
    result.details["ask_ms_tail"] = {
        "percentile": info["percentile"],
        "samples": info["samples"],
        "beyond": info["beyond"],
    }
    return info["value"] * 1000.0


# ====================================================================
# served-mix


class ServedSystem:
    def __init__(self, db, engine, service, frontdoor, loop):
        self.db = db
        self.engine = engine
        self.service = service
        self.frontdoor = frontdoor
        self.loop = loop
        #: id(deadline) → submit instant, recorded in traced runs only
        self.submitted: Optional[dict[int, float]] = None

    async def submit(self, request: Request):
        deadline = Deadline.after(request.timeout_s)
        if self.submitted is not None:
            self.submitted[id(deadline)] = time.perf_counter()
        answer = await self.frontdoor.submit(
            request.text,
            deadline=deadline,
            tenant=request.tenant,
            priority=request.priority,
            weights=request.weights,
        )
        if answer.degraded:
            raise Degraded(answer.degraded_stage)
        return answer

    def run(self, coroutine):
        """Run *coroutine* on the loop and return once the worker thread
        is idle again (it does bookkeeping after resolving the last
        future), so a reference reading can follow."""
        value = self.loop.run_until_complete(coroutine)
        while self.service.queue_depth() > 0:
            time.sleep(0)
        time.sleep(0.001)
        return value


class ServedMix:
    name = "served-mix"

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        # the catalog comes from the workload's own backend, closed
        # before the set-ups, so peak memory stays what the system uses
        db = build_database("sqlite")
        self.vocab = build_catalog(db)
        db.close()
        self.catalog = self.vocab.queries

    def close(self) -> None:
        self.loop.close()

    def warmup(self) -> list[Request]:
        return [
            Request(text, tenant)
            for tenant in (None, "critics", "venues")
            for text in self.catalog[:WARMUP_QUERIES]
        ]

    def build_steps(self):
        db = build_database("sqlite")
        yield
        engine = PrecisEngine(
            db,
            graph=movies_graph(),
            translator=Translator(movies_translation_spec()),
            cache=CacheConfig(plans=True, answers=True),
            metrics=True,
            default_cardinality=MaxTuplesPerRelation(PER_RELATION),
        )
        yield
        service = PrecisService(engine, ServiceConfig(workers=1))
        system = ServedSystem(db, engine, service, AsyncFrontDoor(service),
                              self.loop)
        yield
        system.run(closed_loop(self.warmup(), system.submit))
        return system

    def discard(self, system: ServedSystem) -> None:
        system.run(system.frontdoor.close(close_service=True))
        system.db.close()

    def phases(self, system: ServedSystem, seed: int, seconds: float,
               clock: RefClock, writes: Optional[CostSeries] = None):
        """The closed-loop capacity phase, then an open loop at
        :data:`OPEN_LOAD` times the capacity it measured; reference
        readings only between drained segments. With *writes*, each
        drained open-loop segment is followed by timed writes."""
        # whole pools only, so every seed sends the same mix of work
        stream = RequestStream(self.catalog, seed, SERVED_POOL)
        capacity: list[tuple[LoopResult, Optional[float]]] = []
        until = time.perf_counter() + seconds * (1 - OPEN_SHARE)
        before = clock.read()
        while time.perf_counter() < until or not stream.epoch_done:
            segment = system.run(closed_loop([stream.next()], system.submit))
            reading = clock.read()
            capacity.append((settle(segment), between(before, reading)))
            before = reading
        answered = sum(
            1 for segment, __ in capacity for o in segment.outcomes if o.ok
        )
        rate = OPEN_LOAD * answered / sum(
            segment.elapsed_s for segment, __ in capacity
        )
        arrivals_rng = random.Random(seed)
        stream = RequestStream(self.catalog, f"{seed}-open", SERVED_POOL)
        if writes is not None:
            mix = WriteMix(system.db, system.engine.index,
                           *self.vocab.vocabulary(self.catalog), seed,
                           pool_size=0)
        open_results: list[LoopResult] = []
        coalesced = coalesced_count(system.frontdoor)
        started = time.perf_counter()
        until = started + seconds * OPEN_SHARE
        while time.perf_counter() < until:
            arrivals = [
                (offset, stream.next())
                for offset in poisson_schedule(
                    rate, OPEN_SEGMENT_S, arrivals_rng
                )
            ]
            open_results.append(
                settle(system.run(open_loop(arrivals, system.submit)))
            )
            if writes is not None:
                timed_closed_ops(write_ops(mix, SERVED_PROBE_CYCLES), clock,
                                 CostSeries(), writes)
            else:
                clock.read()
        coalesced = coalesced_count(system.frontdoor) - coalesced
        return capacity, OpenPhase(open_results, rate, started, coalesced)

    def run(self, seed: int, seconds: float) -> RunResult:
        result = RunResult()
        try:
            clock = RefClock()
            system, raw_setups, setups = timed_setups(self, clock)
            reads, writes = CostSeries(), CostSeries()
            capacity, opened = self.phases(system, seed, seconds, clock,
                                           writes)
            tuples = 0
            for segment, reference in capacity:
                for outcome in segment.outcomes:
                    if outcome.ok:
                        reads.add(segment.elapsed_s, reference)
                        tuples += outcome.tuples
            read_seconds = sum(segment.elapsed_s for segment, __ in capacity)
            rss = peak_rss_mb()
            self.discard(system)
        finally:
            self.close()
        open_results = opened.segments
        segments = open_results + [segment for segment, __ in capacity]
        outcomes = [o for segment in segments for o in segment.outcomes]
        result.attempted = len(outcomes) + len(writes)
        latencies = open_loop_latencies(result, open_results)
        for segment, __ in capacity:
            for outcome in segment.outcomes:
                if not outcome.ok:
                    result.fail(outcome.error)
        # the reference runs on the other storage backend, built only
        # now that peak memory has been read
        check_outcomes(result, ReferenceChecker(
            plain_engine(build_database(),
                         cardinality=MaxTuplesPerRelation(PER_RELATION))
        ), outcomes)
        result.details["open_loop"] = opened.details()
        finish_common(result, clock, reads, writes, tuples, raw_setups, setups,
                      read_seconds, rss)
        # the per-request ask times under queueing come from the open
        # loop
        result.metrics["ask_ms.p50"] = percentile(latencies, 50) * 1000.0
        result.metrics["ask_ms.tail"] = _tail_ms(result, latencies)
        return result

    def traced(self, seed: int, seconds: float, trace_path: str) -> dict:
        layer = LayerMetrics()
        try:
            self.profile_pass(layer, seed)
            system = build(self)
            recorder = tracing.SpanRecorder()
            plain = plain_engine(
                system.db, index=system.engine.index,
                cardinality=MaxTuplesPerRelation(PER_RELATION),
            )
            layer.decompose(plain, distinct_requests(self.catalog, seed),
                            recorder, exact=True)
            self.timed_pass(layer, system, seed, seconds)
            layer.obs_overhead(system.db, system.engine.index, self.catalog)
            self.discard(system)
        finally:
            self.close()
        recorder.write(trace_path)
        return layer.finish(recorder)

    def profile_pass(self, layer: "LayerMetrics", seed: int) -> None:
        """Call counts of a serial request prefix, through the front door
        and the worker thread (profiled from its first instruction)."""
        worker_profiles: list[cProfile.Profile] = []

        def start_profiler(*__):
            threading.setprofile(None)
            profile = cProfile.Profile()
            worker_profiles.append(profile)
            profile.enable()

        threading.setprofile(start_profiler)
        try:
            system = build(self)
        finally:
            threading.setprofile(None)
        stream = RequestStream(self.catalog, seed, SERVED_POOL)
        batch = [stream.next() for _ in range(PROFILED_OPS)]
        worker = worker_profiles[0]
        before = settled_counts(worker)
        main = cProfile.Profile()
        main.enable()
        system.run(closed_loop(batch, system.submit))
        main.disable()
        after = settled_counts(worker)
        counts = tracing.count_delta(after, before)
        for name, value in tracing.call_counts(main).items():
            counts[name] += value
        layer.set_pycalls(counts, PROFILED_OPS)
        self.discard(system)

    def timed_pass(self, layer: "LayerMetrics", system: ServedSystem,
                   seed: int, seconds: float) -> None:
        engine = system.engine
        answers = engine.cache.answers
        ask = engine.ask
        #: (start, seconds) of each engine call and each queue wait
        exec_s, wait_s, hit_s = [], [], []

        def traced_ask(query, *args, deadline=None, **kwargs):
            start = time.perf_counter()
            hits = answers.stats.hits
            answer = ask(query, *args, deadline=deadline, **kwargs)
            elapsed = time.perf_counter() - start
            exec_s.append((start, elapsed))
            submitted = system.submitted.pop(id(deadline), None)
            if submitted is not None:
                wait_s.append((start, start - submitted))
            if answers.stats.hits > hits:
                hit_s.append(elapsed)
            return answer

        stats0 = engine.cache_stats()
        clock = RefClock()
        system.submitted = {}
        engine.ask = traced_ask
        try:
            capacity, opened = self.phases(system, seed, seconds, clock)
        finally:
            del engine.ask
        open_results = opened.segments
        outcomes = [
            o for segment in open_results for o in segment.outcomes
        ] + [o for segment, __ in capacity for o in segment.outcomes]
        layer.failed += sum(1 for o in outcomes if not o.ok)
        layer.cache(stats0, engine.cache_stats(), len(exec_s), hit_s)
        # the service figures are the open loop's: the capacity phase
        # sends one request at a time, so nothing queues or coalesces
        waits = [s for start, s in wait_s if start >= opened.started]
        execs = [s for start, s in exec_s if start >= opened.started]
        fractions = opened.fractions()
        layer.values.update(
            {
                "service.queue_wait_ms.p50": percentile(waits, 50) * 1e3,
                "service.queue_wait_ms.tail": tail(waits)["value"] * 1e3,
                "service.exec_ms.p50": percentile(execs, 50) * 1e3,
                "service.frontdoor.coalesce_ratio":
                    fractions["coalesced_frac"],
                "service.shed_frac": fractions["shed_frac"],
                "service.degraded_frac": fractions["degraded_frac"],
                "bench.gen_lag_ms.max": 1e3 * max(
                    (lag for s in open_results for lag in s.lags), default=0.0
                ),
            }
        )


class OpenPhase:
    """served-mix's open loop: its drained segments, the arrival rate it
    ran at, when it started, and how many requests the front door
    coalesced into an identical request in flight."""

    def __init__(self, segments: list[LoopResult], rate: float,
                 started: float, coalesced: int):
        self.segments = segments
        self.rate = rate
        self.started = started
        self.coalesced = coalesced

    def fractions(self) -> dict[str, float]:
        """Shares of the open loop's requests that were coalesced, shed
        (or failed) and answered degraded."""
        outcomes = [o for s in self.segments for o in s.outcomes]
        count = max(1, len(outcomes))
        degraded = sum(
            1 for o in outcomes if o.error and o.error.startswith("Degraded")
        )
        failed = sum(1 for o in outcomes if not o.ok)
        return {
            "coalesced_frac": self.coalesced / count,
            "shed_frac": (failed - degraded) / count,
            "degraded_frac": degraded / count,
        }

    def details(self) -> dict:
        return dict(
            load_of_capacity=OPEN_LOAD,
            rate_per_s=self.rate,
            requests=sum(len(s.outcomes) for s in self.segments),
            gen_lag_ms_max=1000.0 * max(
                (lag for s in self.segments for lag in s.lags), default=0.0
            ),
            **self.fractions(),
        )


def coalesced_count(frontdoor: AsyncFrontDoor) -> int:
    """Requests the front door has coalesced so far, all classes."""
    counters = frontdoor.metrics.snapshot()["counters"]
    return sum(
        value for name, value in counters.items()
        if name.split("{")[0] == "precis_frontdoor_coalesced_total"
    )


def open_loop_latencies(result: RunResult,
                        segments: list[LoopResult]) -> list[float]:
    """Latencies of open-loop segments. A shed or failed request is
    counted as failed and as lasting its whole segment, so it misses
    every latency limit."""
    latencies = []
    for segment in segments:
        for outcome in segment.outcomes:
            if not outcome.ok:
                result.fail(outcome.error)
            latencies.append(min(outcome.latency_s, segment.elapsed_s))
    return latencies


def settle(segment: LoopResult) -> LoopResult:
    """Replace each answer of a drained segment by its digest and size,
    so a run holds no answers (and peak memory stays the program's). An
    answer object shared by several requests (cache hit, coalesced
    fan-out) is digested once."""
    digests: dict[int, str] = {}
    for outcome in segment.outcomes:
        if outcome.ok:
            answer = outcome.answer
            if id(answer) not in digests:
                digests[id(answer)] = answer_digest(answer)
            outcome.digest = digests[id(answer)]
            outcome.tuples = answer.total_tuples()
            outcome.answer = None
    return segment


def check_outcomes(result: RunResult, checker: ReferenceChecker,
                   outcomes) -> None:
    """Check the digest of every answered request."""
    for outcome in outcomes:
        if outcome.ok and not checker.check(outcome.request, outcome.digest):
            result.correct = False
    result.details["checked_answers"] = checker.checked


def settled_counts(profile: cProfile.Profile) -> dict[str, int]:
    """Counts of a profiled worker thread once it has gone idle (it
    finishes its bookkeeping just after resolving the last future)."""
    previous = tracing.call_counts(profile)
    while True:
        time.sleep(0.05)
        current = tracing.call_counts(profile)
        if current == previous:
            return current
        previous = current


def distinct_requests(catalog: list[str], seed: int,
                      count: int = DECOMPOSED_REQUESTS) -> list[Request]:
    """Up to *count* requests with distinct answers, in a seeded order."""
    stream = RequestStream(catalog, seed, SERVED_POOL, priorities=False)
    seen: dict[tuple, Request] = {}
    for _ in range(SERVED_POOL):
        request = stream.next()
        seen.setdefault(request.key, request)
        if len(seen) == count:
            break
    return list(seen.values())


# ====================================================================
# write-mix


class WriteSystem:
    def __init__(self, engine, mix: WriteMix, plain: PrecisEngine):
        self.engine = engine
        self.mix = mix
        #: uncached engine on the same data: the reference for reads
        self.plain = plain


class WriteMixWorkload:
    name = "write-mix"

    def __init__(self):
        catalog = build_catalog(build_database())
        self.hot = catalog.queries[:HOT_QUERIES]
        # writes carry the hot phrases and names, so they change the
        # answers the reads ask for
        self.phrases, self.names = catalog.vocabulary(self.hot)

    def build_steps(self):
        db = build_database()
        yield
        engine = PrecisEngine(
            db,
            graph=movies_graph(),
            translator=Translator(movies_translation_spec()),
            cache=CacheConfig(plans=True, answers=True),
            default_cardinality=MaxTuplesPerRelation(PER_RELATION),
        )
        yield
        mix = WriteMix(db, engine.index, self.phrases, self.names,
                       seed=PREFILL_SEED)
        mix.prefill()
        yield
        for tenant in (None, "critics", "venues"):
            for text in self.hot[:WARMUP_QUERIES]:
                engine.ask(text, weights=Request(text, tenant).weights)
        plain = plain_engine(db, index=engine.index,
                             cardinality=MaxTuplesPerRelation(PER_RELATION))
        return WriteSystem(engine, mix, plain)

    def discard(self, system) -> None:
        pass

    def ops(self, system: WriteSystem, seed: int, checker, result,
            counter: list, until: Optional[float] = None):
        """Reads and writes, one write after every READS_PER_WRITE reads,
        in whole read pools: none starts at or after *until*."""
        stream = RequestStream(self.hot, seed, WRITE_POOL, priorities=False)
        system.mix.rng.seed(seed)
        engine = system.engine
        while not (
            stream.epoch_done
            and until is not None
            and time.perf_counter() >= until
        ):
            for _ in range(READS_PER_WRITE):
                request = stream.next()

                def after(answer, request=request):
                    counter[0] += answer.total_tuples()
                    if checker is not None and not checker.check_fresh(
                        request, answer_digest(answer)
                    ):
                        result.correct = False

                yield (
                    "read",
                    lambda r=request: engine.ask(r.text, weights=r.weights),
                    after,
                )
            kind, thunk = system.mix.next_op()
            yield kind, thunk, _ignore

    def run(self, seed: int, seconds: float) -> RunResult:
        result = RunResult()
        clock = RefClock()
        system, raw_setups, setups = timed_setups(self, clock)
        reads, writes = CostSeries(), CostSeries()
        checker = ReferenceChecker(system.plain)
        counter = [0]
        timed_closed_ops(
            self.ops(system, seed, checker, result, counter,
                     until=time.perf_counter() + seconds),
            clock, reads, writes,
        )
        rss = peak_rss_mb()
        result.attempted = len(reads) + len(writes)
        result.details["checked_answers"] = checker.checked
        result.details["cache"] = system.engine.cache_stats()
        finish_common(result, clock, reads, writes, counter[0], raw_setups,
                      setups, sum(reads.seconds), rss)
        result.metrics["ask_ms.p50"] = reads.p50_ms()
        result.metrics["ask_ms.tail"] = _tail_ms(result, reads.seconds)
        return result

    def traced(self, seed: int, seconds: float, trace_path: str) -> dict:
        system = build(self)
        layer = LayerMetrics()
        result = RunResult()
        counter = [0]
        ops = self.ops(system, seed, None, result, counter)
        prefix = [next(ops) for _ in range(PROFILED_OPS)]
        reads = sum(1 for kind, __, __ in prefix if kind == "read")
        layer.profile_serial([thunk for __, thunk, __ in prefix], reads)
        recorder = tracing.SpanRecorder()
        layer.decompose(system.plain, distinct_requests(self.hot, seed),
                        recorder, exact=True)
        self.timed_pass(layer, system, ops, seconds)
        recorder.write(trace_path)
        return layer.finish(recorder)

    def timed_pass(self, layer, system: WriteSystem, ops, seconds) -> None:
        engine = system.engine
        db = engine.db
        answers = engine.cache.answers
        write_s, index_s, hit_s = [], [], []
        #: index time of the write under way (one write makes several
        #: index calls)
        index_time = [0.0]

        def timed(record):
            def around(name, method):
                def call(*args, **kwargs):
                    start = time.perf_counter()
                    try:
                        return method(*args, **kwargs)
                    finally:
                        record(time.perf_counter() - start)

                return call

            return around

        def add_index_time(seconds: float) -> None:
            index_time[0] += seconds

        ask = engine.ask

        def traced_ask(*args, **kwargs):
            start = time.perf_counter()
            hits = answers.stats.hits
            answer = ask(*args, **kwargs)
            if answers.stats.hits > hits:
                hit_s.append(time.perf_counter() - start)
            return answer

        targets = [(db, "insert"), (db, "update")] + [
            (db.relation(name), "delete") for name in ("MOVIE", "CAST")
        ]
        stats0 = engine.cache_stats()
        asks = 0
        until = time.perf_counter() + seconds
        engine.ask = traced_ask
        try:
            with tracing.wrap_methods(targets, timed(write_s.append)), \
                    tracing.wrap_methods(
                        [(engine.index, "add_value"),
                         (engine.index, "remove_value")],
                        timed(add_index_time)):
                for kind, thunk, __ in ops:
                    index_time[0] = 0.0
                    thunk()
                    if kind == "read":
                        asks += 1
                    else:
                        index_s.append(index_time[0])
                    if time.perf_counter() >= until:
                        break
        finally:
            del engine.ask
        layer.cache(stats0, engine.cache_stats(), asks, hit_s)
        layer.values["relational.write_us.p50"] = percentile(write_s, 50) * 1e6
        layer.values["text.index_write_us.p50"] = percentile(index_s, 50) * 1e6


# ====================================================================
# per-layer metrics


PER_LAYER = (
    ("core.database_generator.ms.p50", "ms", "lower"),
    ("core.database_generator.self_us_per_tuple", "us", "lower"),
    ("relational.fetch_us_per_tuple", "us", "lower"),
    ("nlg.translate_us_per_tuple", "us", "lower"),
    ("relational.probe_us_per_ask", "us", "lower"),
    ("text.match_us.p50", "us", "lower"),
    ("core.schema_generator.plan_us.p50", "us", "lower"),
    ("core.explain.us.p50", "us", "lower"),
    ("cache.hit_us.p50", "us", "lower"),
    ("cache.answer_hit_ratio", "ratio", "higher"),
    ("cache.plan_hit_ratio", "ratio", "higher"),
    ("cache.answer_evictions_per_1k", "count", "lower"),
    ("cache.answer_invalidations_per_1k", "count", "lower"),
    ("obs.hit_overhead_ratio", "ratio", "lower"),
    ("obs.miss_overhead_ratio", "ratio", "lower"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.tail", "ms", "lower"),
    ("service.exec_ms.p50", "ms", "lower"),
    ("service.frontdoor.coalesce_ratio", "ratio", "higher"),
    ("service.shed_frac", "ratio", "lower"),
    ("service.degraded_frac", "ratio", "lower"),
    ("relational.write_us.p50", "us", "lower"),
    ("text.index_write_us.p50", "us", "lower"),
    ("relational.index_lookups_per_ask", "count", "lower"),
    ("relational.tuple_reads_per_ask", "count", "lower"),
    ("relational.reads_per_output_tuple", "count", "lower"),
) + tuple(
    (f"{layer}.pycalls_per_ask", "count", "lower") for layer in tracing.LAYERS
) + (
    ("bench.gen_lag_ms.max", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)


class LayerMetrics:
    """Accumulates the traced run's per-layer numbers. A metric a
    workload does not exercise stays 0."""

    def __init__(self):
        self.values: dict[str, float] = {name: 0.0 for name, __, __ in PER_LAYER}
        self.correct = True
        #: requests of the traced pass that were shed or failed
        self.failed = 0
        self.decomposed = 0
        self.mismatches: list[str] = []
        self.ask_seconds = 0.0
        self.decomposed_seconds = 0.0
        self.exact_asks = 0
        self.exact_lookups = 0
        self.exact_reads = 0
        self.exact_tuples = 0
        self.tuples = 0

    def set_pycalls(self, counts: dict[str, int], asks: int) -> None:
        for layer, calls in counts.items():
            self.values[f"{layer}.pycalls_per_ask"] = calls / asks

    def profile_serial(self, thunks, reads: int) -> None:
        profile = cProfile.Profile()
        profile.enable()
        for thunk in thunks:
            thunk()
        profile.disable()
        self.set_pycalls(tracing.call_counts(profile), reads)

    def decompose(self, engine, requests, recorder, exact: bool) -> None:
        """Rebuilt asks, each checked against ``engine.ask``."""
        for request in requests:
            start = time.perf_counter()
            expected = engine.ask(request.text, weights=request.weights)
            self.ask_seconds += time.perf_counter() - start
            start = time.perf_counter()
            answer = tracing.decomposed_ask(engine, request, recorder)
            self.decomposed_seconds += time.perf_counter() - start
            self.decomposed += 1
            full = dict(cost=True, explanation=True)
            if answer_digest(answer, **full) != answer_digest(expected, **full):
                self.correct = False
                self.mismatches.append(request.text)
            self.tuples += answer.total_tuples()
            if exact:
                self.exact_asks += 1
                self.exact_lookups += answer.cost.index_lookups
                self.exact_reads += answer.cost.tuple_reads
                self.exact_tuples += answer.total_tuples()

    def cache(self, before: dict, after: dict, asks: int, hit_s) -> None:
        def delta(layer, key):
            return after[layer][key] - before[layer][key]

        def ratio(layer):
            hits = delta(layer, "hits")
            return hits / max(1, hits + delta(layer, "misses"))

        self.values.update(
            {
                "cache.answer_hit_ratio": ratio("answers"),
                "cache.plan_hit_ratio": ratio("plans"),
                "cache.answer_evictions_per_1k": 1000.0
                * delta("answers", "evictions") / max(1, asks),
                "cache.answer_invalidations_per_1k": 1000.0
                * delta("answers", "invalidations") / max(1, asks),
            }
        )
        if hit_s:
            self.values["cache.hit_us.p50"] = percentile(hit_s, 50) * 1e6

    def obs_overhead(self, db, index, catalog: list[str]) -> None:
        """Metrics-on ÷ metrics-off time of answer-cache hits and of
        uncached asks, on engines sharing the served data."""

        def engine(metrics: bool, cache: bool) -> PrecisEngine:
            return PrecisEngine(
                db, graph=movies_graph(), index=index,
                translator=Translator(movies_translation_spec()),
                cache=CacheConfig(plans=True, answers=True) if cache else None,
                metrics=metrics,
                default_cardinality=MaxTuplesPerRelation(PER_RELATION),
            )

        request = Request(catalog[0])
        hit_on, hit_off = engine(True, True), engine(False, True)
        self.values["obs.hit_overhead_ratio"] = tracing.alternating_ratio(
            lambda: tracing.median_ask_seconds(hit_on, request, 200),
            lambda: tracing.median_ask_seconds(hit_off, request, 200),
            rounds=5,
        )
        miss_on, miss_off = engine(True, False), engine(False, False)
        self.values["obs.miss_overhead_ratio"] = tracing.alternating_ratio(
            lambda: tracing.median_ask_seconds(miss_on, request, 20),
            lambda: tracing.median_ask_seconds(miss_off, request, 20),
            rounds=5,
        )

    def finish(self, recorder: tracing.SpanRecorder) -> dict:
        own = recorder.self_seconds()

        def durations(name):
            return [span.seconds for span in recorder.named(name)]

        generator = recorder.named("core.database_generator")
        tuples = max(1, self.tuples)
        asks = max(1, self.decomposed)
        v = self.values
        v["core.database_generator.ms.p50"] = percentile(
            [s.seconds for s in generator], 50) * 1e3
        v["core.database_generator.self_us_per_tuple"] = (
            sum(own[s.id] for s in generator) / tuples * 1e6
        )
        v["relational.fetch_us_per_tuple"] = (
            sum(durations("relational.fetch")) / tuples * 1e6
        )
        v["nlg.translate_us_per_tuple"] = (
            sum(durations("nlg.translate")) / tuples * 1e6
        )
        v["relational.probe_us_per_ask"] = (
            sum(durations("relational.probe")) / asks * 1e6
        )
        v["text.match_us.p50"] = percentile(durations("text.match"), 50) * 1e6
        v["core.schema_generator.plan_us.p50"] = percentile(
            durations("core.plan"), 50) * 1e6
        v["core.explain.us.p50"] = percentile(
            durations("core.explain"), 50) * 1e6
        v["relational.index_lookups_per_ask"] = (
            self.exact_lookups / max(1, self.exact_asks)
        )
        v["relational.tuple_reads_per_ask"] = (
            self.exact_reads / max(1, self.exact_asks)
        )
        v["relational.reads_per_output_tuple"] = (
            self.exact_reads / max(1, self.exact_tuples)
        )
        v["bench.trace_overhead_ratio"] = (
            self.decomposed_seconds / self.ask_seconds
        )
        return {
            "values": v,
            "correct": self.correct,
            "attempted": self.decomposed,
            "failed": self.failed,
            "details": {
                "decomposed_asks": self.decomposed,
                "digest_mismatches": self.mismatches[:10],
                "spans": len(recorder.spans),
            },
        }


WORKLOADS = {
    "bulk-answer": BulkAnswer,
    "served-mix": ServedMix,
    "write-mix": WriteMixWorkload,
}
