"""Regenerate every §6 series as explicit tables (for EXPERIMENTS.md).

Usage::

    python benchmarks/run_experiments.py [--backend memory|sqlite] [fig7 ...]

Prints, for each figure of the paper's evaluation, the x-axis, the
wall-clock time per point (this machine) and the deterministic modeled
cost (abstract I/O units, machine-independent), plus the ablation
tables. The pytest-benchmark suite covers the same ground with rigorous
timing; this script exists to produce compact, diffable tables.

Every experiment also returns its table as a structured payload, and
``main`` collects them into ``BENCH_precis.json`` at the repo root
(``--json-out`` overrides the path, ``--json-out -`` skips the file):
per-experiment wall-clock timings plus, for the ``overhead``
experiment, the key service counters from a metrics-enabled warm loop.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from repro.bench import (
    chain_database,
    chain_graph,
    fit_linear,
    print_series,
    random_schema_graph,
)
from repro.core import (
    MaxTuplesPerRelation,
    STRATEGY_NAIVE,
    STRATEGY_ROUND_ROBIN,
    TopRProjections,
    WeightThreshold,
    generate_result_database,
    generate_result_schema,
)
from repro.core.schema_generator import SchemaGeneratorStats
from repro.graph import random_weight_assignments


def _time(fn, repeat=3):
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _table(title, columns, rows, **extra):
    """Print one series and return it as a JSON-compatible payload."""
    print_series(title, columns, rows)
    payload = {"title": title, "columns": list(columns), "rows": rows}
    payload.update(extra)
    return payload


def figure_7():
    """Result Schema Generator time vs degree d (tokens in one relation,

    20 random weight sets x 10 start relations per point)."""
    graph = random_schema_graph(n_relations=30, attrs_per_relation=8, seed=0)
    weight_sets = random_weight_assignments(graph, 20, seed=1)
    rng = random.Random(2)
    origins = rng.sample(list(graph.relations), 10)
    rows = []
    for d in (5, 10, 20, 40, 80, 120):
        runs = [
            (graph.with_weights(w), o) for w in weight_sets for o in origins
        ]

        def sweep():
            for personalized, origin in runs:
                generate_result_schema(
                    personalized, [origin], TopRProjections(d)
                )

        seconds = _time(sweep, repeat=1)
        stats = SchemaGeneratorStats()
        generate_result_schema(
            graph.with_weights(weight_sets[0]), [origins[0]],
            TopRProjections(d), stats=stats,
        )
        rows.append([d, seconds / len(runs) * 1e3, stats.paths_popped])
    return _table(
        "Figure 7 — Result Schema Generator vs degree d "
        "(avg of 200 runs/point)",
        ["d", "ms/run", "paths popped (1 run)"],
        rows,
    )


class _Chain:
    def __init__(self, n, backend=None):
        self.db = chain_database(
            n, roots=100, fanout=3, seed=0,
            max_tuples_per_relation=3000, backend=backend,
        )
        self.schema = generate_result_schema(
            chain_graph(n), ["R1"], WeightThreshold(0.9)
        )
        rng = random.Random(17)
        tids = list(self.db.relation("R1").tids())
        self.seed_sets = [
            {"R1": set(rng.sample(tids, 40))} for __ in range(5)
        ]

    def run(self, c_r, strategy):
        for seeds in self.seed_sets:
            generate_result_database(
                self.db, self.schema, seeds,
                MaxTuplesPerRelation(c_r), strategy=strategy,
            )


def figure_8(backend=None):
    """Result Database Generator vs c_R (n_R = 4, NaïveQ)."""
    chain = _Chain(4, backend)
    rows = []
    for c_r in (10, 30, 50, 70, 90):
        seconds = _time(lambda: chain.run(c_r, STRATEGY_NAIVE))
        with chain.db.meter.measure() as measured:
            chain.run(c_r, STRATEGY_NAIVE)
        rows.append(
            [c_r, seconds / 5 * 1e3, measured.modeled_cost / 5]
        )
    fit = fit_linear([r[0] for r in rows], [r[2] for r in rows])
    payload = _table(
        "Figure 8 — Result Database Generator vs c_R (naive, n_R=4)",
        ["c_R", "ms/run", "modeled cost/run"],
        rows,
        fit_r_squared=fit.r_squared,
    )
    print(f"   linear fit of modeled cost: r^2 = {fit.r_squared:.4f}")
    return payload


def figure_9(backend=None):
    """NaïveQ vs RoundRobin vs n_R (c_R = 50)."""
    rows = []
    for n_r in range(1, 9):
        chain = _Chain(n_r, backend)
        t_naive = _time(lambda: chain.run(50, STRATEGY_NAIVE))
        t_rr = _time(lambda: chain.run(50, STRATEGY_ROUND_ROBIN))
        with chain.db.meter.measure() as m_naive:
            chain.run(50, STRATEGY_NAIVE)
        with chain.db.meter.measure() as m_rr:
            chain.run(50, STRATEGY_ROUND_ROBIN)
        rows.append(
            [
                n_r,
                t_naive / 5 * 1e3,
                t_rr / 5 * 1e3,
                m_naive.modeled_cost / 5,
                m_rr.modeled_cost / 5,
            ]
        )
    fits = {}
    for label, column in (("naive", 3), ("round-robin", 4)):
        fit = fit_linear([r[0] for r in rows], [r[column] for r in rows])
        fits[label] = fit.r_squared
    payload = _table(
        "Figure 9 — NaïveQ vs RoundRobin vs n_R (c_R=50)",
        ["n_R", "naive ms", "rrobin ms", "naive cost", "rrobin cost"],
        rows,
        fit_r_squared=fits,
    )
    for label, r_squared in fits.items():
        print(f"   {label} modeled cost linear fit: r^2 = {r_squared:.4f}")
    return payload


def formula_2(backend=None):
    """Cost model check: measured vs c_R * n_R * (IndexTime+TupleTime)."""
    rows = []
    for n_r, c_r in ((2, 20), (4, 30), (4, 60), (6, 40), (8, 50)):
        chain = _Chain(n_r, backend)
        with chain.db.meter.measure() as measured:
            generate_result_database(
                chain.db, chain.schema, chain.seed_sets[0],
                MaxTuplesPerRelation(c_r), strategy=STRATEGY_NAIVE,
            )
        predicted = c_r * n_r * chain.db.meter.params.unit_fetch
        rows.append(
            [n_r, c_r, measured.modeled_cost, predicted,
             measured.modeled_cost / predicted]
        )
    return _table(
        "Formula (2) — measured modeled cost vs c_R*n_R*(It+Tt)",
        ["n_R", "c_R", "measured", "formula2", "ratio"],
        rows,
    )


def ablation_strategies(backend=None):
    """Coverage under skew: the §5.2 motivation for RoundRobin."""
    from repro.bench import chain_graph, chain_schema
    from repro.relational import Database

    schema = chain_schema(2)
    db = Database(schema, backend=backend)
    n_parents, heavy = 20, 50
    for pid in range(1, n_parents + 1):
        db.insert("R1", {"ID": pid, "VAL": f"parent {pid}"})
    cid = 1000
    for __ in range(heavy):
        db.insert("R2", {"ID": cid, "REF": 1, "VAL": f"child {cid}"})
        cid += 1
    for pid in range(2, n_parents + 1):
        db.insert("R2", {"ID": cid, "REF": pid, "VAL": f"child {cid}"})
        cid += 1
    db.create_join_indexes()
    result_schema = generate_result_schema(
        chain_graph(2), ["R1"], WeightThreshold(0.9)
    )
    seeds = {"R1": set(db.relation("R1").tids())}
    rows = []
    for strategy in ("naive", "round_robin", "auto"):
        answer, __ = generate_result_database(
            db, result_schema, seeds, MaxTuplesPerRelation(20),
            strategy=strategy,
        )
        parents = {r["ID"] for r in answer.relation("R1").scan(["ID"])}
        covered = {r["REF"] for r in answer.relation("R2").scan(["REF"])}
        rows.append([strategy, len(parents & covered) / len(parents)])
    return _table(
        "Ablation — retrieval strategies under skew "
        "(1 parent owns 50/69 children, budget 20)",
        ["strategy", "driving-tuple coverage"],
        rows,
    )


def ablation_join_order(backend=None):
    """Budget-weighted relevance: heaviest-first vs FIFO (§5.2)."""
    from repro.core import JOIN_ORDER_FIFO, JOIN_ORDER_WEIGHT, MaxTotalTuples
    from repro.datasets import generate_movies_database, movies_graph
    from repro.graph import random_weight_assignment

    db = generate_movies_database(n_movies=150, seed=5, backend=backend)
    seeds = {
        "MOVIE": set(list(db.relation("MOVIE").tids())[:2]),
        "ACTOR": set(list(db.relation("ACTOR").tids())[:2]),
        "THEATRE": set(list(db.relation("THEATRE").tids())[:2]),
    }

    def relevance(report):
        score = float(sum(report.seed_counts.values()))
        for execution in report.executions:
            score += execution.tuples_new * execution.edge.weight
        return score

    totals = {"weight": 0.0, "fifo": 0.0}
    for seed in range(12):
        graph = movies_graph().with_weights(
            random_weight_assignment(movies_graph(), random.Random(seed))
        )
        schema = generate_result_schema(
            graph, ["MOVIE", "ACTOR", "THEATRE"], TopRProjections(12)
        )
        for name, order in (
            ("weight", JOIN_ORDER_WEIGHT),
            ("fifo", JOIN_ORDER_FIFO),
        ):
            __, report = generate_result_database(
                db, schema, seeds, MaxTotalTuples(40), join_order=order
            )
            totals[name] += relevance(report)
    return _table(
        "Ablation — join order under a 40-tuple total budget "
        "(12 random weight sets)",
        ["order", "budget-weighted relevance"],
        [[name, value] for name, value in totals.items()],
    )


def ablation_cache(backend=None):
    """Warm vs cold repeated asks under each cache configuration."""
    from repro.cache import CacheConfig
    from repro.core import PrecisEngine
    from repro.datasets import generate_movies_database, movies_graph

    db = generate_movies_database(n_movies=300, seed=7, backend=backend)
    graph = movies_graph()
    queries = [
        "midnight",
        "drama",
        "crimson harbor",
        "garcia",
        "thriller",
    ]
    configs = [
        ("off", None),
        ("plans", CacheConfig(plans=True, answers=False)),
        ("plans+answers", CacheConfig(plans=True, answers=True)),
    ]
    rows = []
    for label, config in configs:
        engine = PrecisEngine(db, graph=graph, cache=config)
        for query in queries:  # cold pass fills the caches
            engine.ask(query, cardinality=MaxTuplesPerRelation(10))

        def warm():
            for query in queries:
                engine.ask(query, cardinality=MaxTuplesPerRelation(10))

        seconds = _time(warm)
        stats = engine.cache_stats()
        hits = sum(layer["hits"] for layer in stats.values())
        misses = sum(layer["misses"] for layer in stats.values())
        rows.append([label, seconds / len(queries) * 1e3, hits, misses])
    baseline = rows[0][1]
    for row in rows:
        row.append(baseline / row[1])
    return _table(
        "Ablation — repeated asks per cache configuration "
        "(300-movie db, warm passes)",
        ["cache", "ms/ask", "hits", "misses", "speedup"],
        rows,
    )


def metrics_overhead(backend=None):
    """Ask latency with the service layers off vs on (warm passes).

    The acceptance bar: with metrics *disabled* the engine takes the
    exact PR-3 code path (``self.metrics is None`` short-circuits), so
    "off" IS the baseline and any metrics cost shows only in the other
    rows. The metrics row also contributes the key service counters to
    ``BENCH_precis.json``.
    """
    from repro.core import PrecisEngine
    from repro.datasets import generate_movies_database, movies_graph
    from repro.obs import Tracer

    db = generate_movies_database(n_movies=200, seed=9, backend=backend)
    graph = movies_graph()
    queries = ["midnight", "drama", "garcia", "thriller", "comedy"]
    configs = [
        ("off", {}),
        ("metrics", {"metrics": True}),
        ("metrics+slowlog", {"metrics": True, "slow_query_ms": 0.0}),
        ("traced", {"tracer": Tracer()}),
    ]
    rows = []
    counters = {}
    histogram = {}
    for label, kwargs in configs:
        engine = PrecisEngine(db, graph=graph, **kwargs)
        for query in queries:  # warm-up pass
            engine.ask(query, cardinality=MaxTuplesPerRelation(10))

        def warm():
            for query in queries:
                engine.ask(query, cardinality=MaxTuplesPerRelation(10))

        seconds = _time(warm)
        rows.append([label, seconds / len(queries) * 1e3])
        if label == "metrics":
            snapshot = engine.metrics_snapshot()
            counters = {
                name: value
                for name, value in snapshot["counters"].items()
                if "{" not in name  # unlabeled key counters only
            }
            histogram = snapshot["histograms"]["precis_ask_seconds"]
            histogram = {
                k: histogram[k]
                for k in ("count", "p50", "p95", "p99")
            }
    baseline = rows[0][1]
    for row in rows:
        row.append(row[1] / baseline)
    return _table(
        "Overhead — warm ask latency per service-layer configuration "
        "(200-movie db)",
        ["config", "ms/ask", "vs off"],
        rows,
        counters=counters,
        ask_histogram=histogram,
        note="metrics=None short-circuits every service-layer branch: "
        "the 'off' row is the pre-metrics baseline by construction",
    )


def serve_bench(backend=None):
    """Closed-loop serving-layer benchmark (repro.service): throughput
    and client-observed latency with and without a per-request
    deadline. With the deadline on, p99 stays bounded near it — queued
    requests past the deadline are shed stale, executing ones degrade
    cooperatively at the next iteration boundary."""
    from repro.service import movies_workload, run_serve_bench

    engine, queries = movies_workload(n_movies=200, backend=backend)
    rows = []
    payloads = {}
    for label, deadline_ms in (("none", None), ("50ms", 50.0)):
        payload = run_serve_bench(
            engine,
            queries,
            client_threads=8,
            requests_per_client=15,
            workers=2,
            deadline_ms=deadline_ms,
        )
        payloads[label] = payload
        outcomes = payload["outcomes"]
        latency = payload["latency_ms"]
        rows.append(
            [
                label,
                outcomes["answered"],
                outcomes["degraded"],
                outcomes["shed_full"] + outcomes["shed_stale"],
                payload["throughput_rps"],
                latency["p50"] or 0.0,
                latency["p99"] or 0.0,
            ]
        )
    return _table(
        "Serving layer — closed loop, 8 clients x 15 requests, 2 workers",
        ["deadline", "answered", "degraded", "shed", "req/s", "p50 ms",
         "p99 ms"],
        rows,
        runs=payloads,
    )


def frontdoor_bench(backend=None):
    """Open-loop overload A/B for the async front door
    (repro.service.frontdoor): the same seeded Poisson stream at ~2x
    capacity with a 60% duplicate share, coalescing on vs off. The
    headline columns are goodput (non-degraded answers per second of
    makespan), shed rate and the coalescing hit rate — the gate in
    benchmarks/test_frontdoor.py asserts hit rate >= 0.4 and goodput
    ratio >= 1.5 on these same counters."""
    import time as _time

    from repro.service import (
        OpenLoopConfig,
        movies_workload,
        run_frontdoor_bench,
    )

    engine, queries = movies_workload(n_movies=200, backend=backend)
    for query in queries:
        engine.ask(query)  # warm
    start = _time.perf_counter()
    for query in queries:
        engine.ask(query)
    mean_ask = (_time.perf_counter() - start) / len(queries)
    workers = 2
    rate = 2.0 * workers / mean_ask
    config = OpenLoopConfig(
        arrival_rate=rate,
        duration_s=min(2.0, max(0.5, 300.0 / rate)),
        duplicate_fraction=0.6,
        batch_fraction=0.25,
        deadline_ms=mean_ask * 1e3 * 50.0,
    )
    payload = run_frontdoor_bench(engine, queries, config, workers=workers)
    rows = []
    for label in ("coalesced", "uncoalesced"):
        arm = payload[label]
        interactive = arm["classes"].get("interactive", {})
        latency = interactive.get("latency_ms") or {}
        rows.append(
            [
                label,
                arm["offered"],
                arm["outcomes"]["answered"],
                round(arm["goodput_rps"], 1),
                round(arm["shed_rate"], 3),
                round(arm["coalesce_hit_rate"], 3),
                round(latency.get("p50") or 0.0, 1),
                round(latency.get("p99") or 0.0, 1),
            ]
        )
    return _table(
        "Front door — open loop at ~2x capacity, 60% duplicates, "
        f"{workers} workers",
        ["arm", "offered", "answered", "goodput r/s", "shed", "hit rate",
         "int p50 ms", "int p99 ms"],
        rows,
        **payload,
    )


def tracing_overhead(backend=None):
    """Cost and yield of end-to-end request tracing (repro.obs.context):
    throughput with sampling on vs off (budget: <= 5% at 10%), plus the
    statistical profiler's per-stage self-time attribution — the
    correlation layer must be cheap enough to leave on."""
    from repro.service import measure_trace_overhead, movies_workload
    from repro.service import run_serve_bench

    engine, queries = movies_workload(n_movies=200, backend=backend)
    overhead = measure_trace_overhead(engine, queries, sample_rate=0.1)
    profiled = run_serve_bench(
        engine,
        queries,
        client_threads=4,
        requests_per_client=15,
        workers=2,
        profile=True,
    )
    profile = profiled.get("profile", {})
    rows = [
        [
            f"{overhead['sample_rate']:.0%}",
            overhead["baseline_rps"],
            overhead["traced_rps"],
            overhead["overhead_pct"],
            profile.get("attributed_fraction", 0.0) * 100.0,
        ]
    ]
    return _table(
        "Tracing overhead — sampling on vs off, best of "
        f"{overhead['rounds']}",
        ["sample", "base req/s", "traced req/s", "overhead %",
         "profiled %"],
        rows,
        overhead=overhead,
        profile=profile,
    )


def _deep_size(obj, seen=None) -> int:
    """Recursive ``sys.getsizeof``: containers, dataclasses, __dict__ and
    __slots__ objects. Approximate by design — used for *ratios* (overlay
    footprint vs graph-clone footprint), not absolute accounting."""
    import sys as _sys

    seen = seen if seen is not None else set()
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    size = _sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_size(key, seen) + _deep_size(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _deep_size(item, seen)
    else:
        if hasattr(obj, "__dict__"):
            size += _deep_size(vars(obj), seen)
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                size += _deep_size(getattr(obj, slot), seen)
    return size


def tenants_scaling(backend=None, tenant_counts=(1, 10, 100, 1000)):
    """Multi-tenant overlay scaling: asks/sec and plan-cache hit rate at
    1, 10, 100, 1000 distinct per-tenant overlays on one shared engine,
    plus the memory story — the summed footprint of N sparse overlay
    patch maps must stay far below N materialized graph clones (the
    gate that makes 'millions of profiles' plausible)."""
    from repro.cache import CacheConfig
    from repro.core import PrecisEngine
    from repro.datasets import generate_movies_database, movies_graph
    from repro.graph import WeightOverlay

    db = generate_movies_database(n_movies=80, seed=11, backend=backend)
    base = movies_graph()
    queries = ["midnight", "drama", "garcia", "thriller", "comedy"]
    asks_per_point = 200

    def tenant_overlay(i, n):
        # distinct effective weights per tenant: never equal to the base
        # (TITLE base 1.0, GENRE base 0.9), never colliding across i
        return {
            ("proj", "MOVIE", "TITLE"): 0.2 + 0.6 * i / n,
            ("join", "MOVIE", "GENRE"): 0.15,
        }

    rows = []
    memory = {}
    for n in tenant_counts:
        overlays = [tenant_overlay(i, n) for i in range(n)]
        # answer caching off: an answer-cache hit would short-circuit
        # ask() before the plan cache is consulted, hiding exactly the
        # per-tenant plan-sharing behaviour this table measures
        engine = PrecisEngine(
            db,
            graph=base,
            cache=CacheConfig(plans=True, plan_entries=max(256, 2 * n)),
        )

        def sweep():
            for i in range(asks_per_point):
                engine.ask(
                    queries[i % len(queries)],
                    degree=WeightThreshold(0.5),
                    weights=overlays[i % n],
                )

        sweep()  # warm pass
        seconds = _time(sweep, repeat=1)
        stats = engine.cache.plans.stats
        consulted = stats.hits + stats.misses
        hit_rate = stats.hits / consulted if consulted else 0.0
        overlay_bytes = _deep_size(
            [WeightOverlay(base, o).patches for o in overlays]
        )
        clone_bytes = _deep_size(base.with_weights(overlays[0])) * n
        rows.append(
            [
                n,
                asks_per_point / seconds,
                hit_rate,
                overlay_bytes / 1024.0,
                clone_bytes / 1024.0,
            ]
        )
        memory[n] = {
            "overlay_bytes": overlay_bytes,
            "clone_bytes": clone_bytes,
        }
    largest = max(tenant_counts)
    ratio = (
        memory[largest]["overlay_bytes"] / memory[largest]["clone_bytes"]
    )
    if largest >= 100 and ratio > 0.5:
        raise RuntimeError(
            f"overlay memory gate failed: {largest} overlays cost "
            f"{ratio:.1%} of {largest} graph clones (expected far less)"
        )
    payload = _table(
        "Tenants — shared engine, N distinct weight overlays "
        f"({asks_per_point} asks/point)",
        ["tenants", "asks/s", "plan hit rate", "overlay KiB", "clone KiB"],
        rows,
        memory=memory,
        overlay_to_clone_ratio=ratio,
    )
    print(
        f"   {largest} overlays cost {ratio:.1%} of "
        f"{largest} materialized graph clones"
    )
    return payload


#: the six-query movies mix of ``repro.service.bench.movies_workload``
SCALE_QUERIES = ("midnight", "drama", "garcia", "thriller", "comedy",
                 "crimson harbor")
#: source façade methods whose time the split attributes to the probe
#: and fetch layers (everything else the generator does is materialize)
_PROBES = ("lookup", "lookup_in", "lookup_pk")
_FETCHES = ("fetch", "fetch_many")


def _accumulate(db, methods, totals, key):
    """Shadow *methods* on every relation instance of *db* with timing
    wrappers adding into ``totals[key]``; returns an undo callable."""
    shadowed = []

    def timed(method):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                totals[key] += time.perf_counter() - start

        return call

    for name in db.relation_names:
        relation = db.relation(name)
        for method in methods:
            setattr(relation, method, timed(getattr(relation, method)))
            shadowed.append((relation, method))

    def undo():
        for relation, method in shadowed:
            delattr(relation, method)

    return undo


def scale(backend=None, sizes=(300, 3000, 30000), repeat=5):
    """Cost per ask and per output tuple as the data grows.

    The six-query movies mix with its narrative, at each movie count ×
    {memory, sqlite} × {unbounded, ``MaxTuplesPerRelation(10)``}. One
    database build per size and backend, from the seeded in-repo
    generator (``generate_movies_database(seed=11)``). ``ms/ask`` is the
    best of *repeat* warm passes over the mix; the split comes from one
    more, traced pass: ``probe`` and ``fetch`` are the time inside the
    source façade's index probes and tuple reads, ``materialize`` the
    rest of the result database generator (building the answer view),
    ``translate`` the narrative; each includes whatever cyclic-GC pause
    lands in it, which is larger on the memory backend, whose source
    tuples live on the Python heap. Both backends are always measured,
    so *backend* is ignored."""
    from repro.core import PrecisEngine, Unlimited
    from repro.datasets import (
        generate_movies_database,
        movies_graph,
        movies_translation_spec,
    )
    from repro.nlg import Translator
    from repro.obs import InMemorySink, Tracer

    bounds = (("unbounded", Unlimited()), ("c_R=10", MaxTuplesPerRelation(10)))
    rows = []
    for size in sizes:
        for store in ("memory", "sqlite"):
            db = generate_movies_database(n_movies=size, seed=11, backend=store)
            engine = PrecisEngine(
                db,
                graph=movies_graph(),
                translator=Translator(movies_translation_spec()),
            )
            for label, bound in bounds:

                def mix(**kwargs):
                    return [
                        engine.ask(query, cardinality=bound, **kwargs)
                        for query in SCALE_QUERIES
                    ]

                tuples = sum(answer.total_tuples() for answer in mix())
                seconds = _time(mix, repeat=repeat)
                totals = {"probe": 0.0, "fetch": 0.0}
                undo = [
                    _accumulate(db, _PROBES, totals, "probe"),
                    _accumulate(db, _FETCHES, totals, "fetch"),
                ]
                try:
                    answers = mix(tracer=Tracer([InMemorySink()]))
                finally:
                    for step in undo:
                        step()
                generator = sum(
                    a.stats.stage("database_generator").duration_s
                    for a in answers
                )
                translate = sum(
                    a.stats.stage("translate").duration_s for a in answers
                )
                per_ask = 1e3 / len(SCALE_QUERIES)
                rows.append(
                    [
                        size,
                        store,
                        label,
                        seconds * per_ask,
                        seconds / tuples * 1e6,
                        tuples / len(SCALE_QUERIES),
                        totals["probe"] * per_ask,
                        totals["fetch"] * per_ask,
                        (generator - totals["probe"] - totals["fetch"])
                        * per_ask,
                        translate * per_ask,
                    ]
                )
            db.close()
    return _table(
        "Scale — six-query movies mix vs data size, per backend and bound",
        [
            "movies", "backend", "bound", "ms/ask", "us/tuple",
            "tuples/ask", "probe ms", "fetch ms", "materialize ms",
            "translate ms",
        ],
        rows,
    )


def main(argv=None):
    from repro.storage import BACKEND_NAMES

    figures = {
        "fig7": figure_7,
        "fig8": figure_8,
        "fig9": figure_9,
        "formula2": formula_2,
        "strategies": ablation_strategies,
        "joinorder": ablation_join_order,
        "cache": ablation_cache,
        "overhead": metrics_overhead,
        "serve": serve_bench,
        "frontdoor": frontdoor_bench,
        "tracing": tracing_overhead,
        "tenants": tenants_scaling,
        "scale": scale,
    }
    default_json = Path(__file__).resolve().parent.parent / "BENCH_precis.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "figures", nargs="*", choices=[[], *figures], metavar="figure",
        help=f"which tables to print (default: all of {', '.join(figures)})",
    )
    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default="memory",
        help="storage backend the workload databases are built on",
    )
    parser.add_argument(
        "--json-out", default=str(default_json), metavar="FILE",
        help="where to write the structured results "
        "(default: BENCH_precis.json at the repo root; '-' disables)",
    )
    args = parser.parse_args(argv)
    backend = args.backend
    print(f"(storage backend: {backend})")
    experiments = {}
    for name in args.figures or list(figures):
        fn = figures[name]
        start = time.perf_counter()
        if name == "fig7":
            payload = fn()  # graph-only: no database involved
        else:
            payload = fn(backend=backend)
        payload["seconds"] = time.perf_counter() - start
        experiments[name] = payload
    if args.json_out != "-":
        # merge semantics: a partial run (e.g. just-added experiments)
        # updates its entries in an existing same-backend document
        # instead of discarding the others
        merged = dict(experiments)
        target = Path(args.json_out)
        if target.exists():
            try:
                existing = json.loads(target.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                existing = None
            if (
                isinstance(existing, dict)
                and existing.get("backend") == backend
                and isinstance(existing.get("experiments"), dict)
            ):
                merged = {**existing["experiments"], **experiments}
        document = {
            "backend": backend,
            "experiments": merged,
            "total_seconds": sum(p["seconds"] for p in merged.values()),
        }
        with open(args.json_out, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"(structured results written to {args.json_out})")


if __name__ == "__main__":
    main()
