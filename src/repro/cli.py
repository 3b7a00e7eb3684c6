"""Command-line interface: précis queries over CSV-backed databases.

Usage (after ``python setup.py develop``)::

    python -m repro init-demo ./demo          # the paper's movies DB
    python -m repro schema ./demo             # DDL + statistics
    python -m repro query ./demo '"Woody Allen"' --degree-weight 0.9 \
        --per-relation 3 --narrative
    python -m repro explain ./demo '"Woody Allen"' --degree-weight 0.9
    python -m repro query ./demo Allen --explain \
        --metrics-out metrics.json --slow-query-ms 0

A database directory is what ``repro.relational.csvio`` writes: one CSV
per relation plus ``_schema.json``, and optionally ``_graph.json`` (a
weighted schema graph with heading attributes, written by
``init-demo`` or :func:`repro.graph.serialization.save_graph`). Without
``_graph.json`` the graph is derived from the foreign keys at uniform
weights.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    CompositeCardinality,
    CompositeDegree,
    MaxPathLength,
    MaxTotalTuples,
    MaxTuplesPerRelation,
    PrecisEngine,
    TopRProjections,
    WeightThreshold,
    answer_ddl,
    emitted_queries,
    render_plan,
    render_stats,
)
from .core.explain import render_explanation
from .graph import graph_from_schema, result_schema_to_dot
from .graph.serialization import load_graph, save_graph
from .nlg import Translator, generic_spec
from .obs import InMemorySink, Tracer, format_span_table, write_metrics
from .cache import CacheConfig
from .relational import create_schema_sql, database_summary
from .relational.csvio import load_database, save_database
from .storage import BACKEND_NAMES, resolve_backend

__all__ = ["main", "build_parser"]

_GRAPH_FILE = "_graph.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Précis queries over relational databases (ICDE 2006).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "init-demo", help="write the paper's movies database to a directory"
    )
    demo.add_argument("directory")
    demo.add_argument(
        "--movies",
        type=int,
        default=0,
        help="generate a synthetic instance of N movies instead of the "
        "paper's micro-instance",
    )
    demo.add_argument("--seed", type=int, default=0)

    schema = sub.add_parser(
        "schema", help="print DDL and statistics of a database directory"
    )
    schema.add_argument("directory")

    for name, help_text in (
        ("query", "answer a précis query"),
        ("explain", "show the plan and SQL for a précis query"),
        ("estimate", "predict the answer size before generating it"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("directory")
        cmd.add_argument("query", help='free-form tokens, e.g. \'"Woody Allen"\'')
        cmd.add_argument(
            "--degree-weight",
            type=float,
            help="keep projections with path weight >= W",
        )
        cmd.add_argument(
            "--degree-top", type=int, help="keep at most R projected attributes"
        )
        cmd.add_argument(
            "--degree-length", type=int, help="keep paths of length <= L"
        )
        cmd.add_argument(
            "--per-relation", type=int, help="at most N tuples per relation"
        )
        cmd.add_argument("--total", type=int, help="at most N tuples overall")
        cmd.add_argument(
            "--strategy",
            choices=["auto", "naive", "round_robin"],
            default="auto",
        )
        cmd.add_argument(
            "--stats",
            action="store_true",
            help="print the per-stage timing + counter table "
            "(repro.obs tracing)",
        )
        cmd.add_argument(
            "--cache",
            action="store_true",
            help="enable the versioned plan + answer caches (repro.cache); "
            "entries are invalidated automatically when the database, "
            "index or graph changes",
        )
        cmd.add_argument(
            "--cache-size",
            type=int,
            metavar="N",
            help="max entries per cache layer (implies --cache)",
        )
        cmd.add_argument(
            "--backend",
            choices=list(BACKEND_NAMES),
            default="memory",
            help="storage backend for the loaded database",
        )
        cmd.add_argument(
            "--db-path",
            metavar="FILE",
            help="SQLite database file (implies --backend sqlite); "
            "tables are rebuilt from the CSV directory on each run "
            "and left on disk for inspection",
        )
        cmd.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="enable service metrics (repro.obs.metrics) and write "
            "a snapshot to FILE after the command ('-' for stdout)",
        )
        cmd.add_argument(
            "--metrics-format",
            choices=["json", "prometheus"],
            default="json",
            help="exporter for --metrics-out: JSON snapshot or "
            "Prometheus text exposition",
        )
        cmd.add_argument(
            "--slow-query-ms",
            type=float,
            metavar="N",
            help="keep asks slower than N ms in the slow-query log "
            "(part of the JSON metrics snapshot; implies metrics)",
        )
        cmd.add_argument(
            "--deadline-ms",
            type=float,
            metavar="N",
            help="cooperative time budget for the ask (repro.core."
            "deadline): on expiry the pipeline stops at the next "
            "iteration boundary and returns a valid partial answer "
            "flagged degraded (visible under --explain)",
        )
        if name == "estimate":
            cmd.add_argument(
                "--target-total",
                type=int,
                help="also suggest a per-relation cap for this total",
            )
        if name == "query":
            cmd.add_argument(
                "--narrative",
                action="store_true",
                help="print the natural-language synthesis",
            )
            cmd.add_argument(
                "--explain",
                action="store_true",
                help="print the provenance view: why each relation and "
                "tuple batch is in the précis and which constraint "
                "bounded it",
            )
            cmd.add_argument(
                "--dot",
                action="store_true",
                help="print the result schema as Graphviz DOT",
            )
            cmd.add_argument(
                "--save", metavar="DIR", help="export the answer database"
            )

    bench = sub.add_parser(
        "serve-bench",
        help="closed-loop concurrency benchmark of the serving layer "
        "(repro.service): N client threads over a thread-pooled "
        "PrecisService, reporting throughput, latency percentiles and "
        "shed/degraded counts",
    )
    bench.add_argument(
        "--movies",
        type=int,
        default=300,
        help="size of the synthetic movies workload database",
    )
    bench.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="memory",
        help="storage backend for the workload database",
    )
    bench.add_argument(
        "--clients", type=int, default=8, help="client threads (closed loop)"
    )
    bench.add_argument(
        "--requests", type=int, default=25, help="requests per client"
    )
    bench.add_argument(
        "--workers", type=int, default=2, help="service worker threads"
    )
    bench.add_argument(
        "--queue-depth", type=int, default=None, help="admission-queue bound"
    )
    bench.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; expired requests degrade or are shed",
    )
    bench.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="RPS",
        help="switch to the OPEN-loop harness: Poisson arrivals at RPS "
        "offered through the async front door (repro.service.loadgen), "
        "reporting goodput, shed rate, coalescing hit rate and "
        "per-class latency; results merge under 'frontdoor' instead "
        "of 'serve'",
    )
    bench.add_argument(
        "--duration",
        type=float,
        default=2.0,
        metavar="S",
        help="open loop: length of the arrival schedule in seconds "
        "(default 2)",
    )
    bench.add_argument(
        "--duplicate-fraction",
        type=float,
        default=0.5,
        metavar="F",
        help="open loop: share of arrivals aimed at the hot query — "
        "the coalescable mass (default 0.5)",
    )
    bench.add_argument(
        "--batch-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="open loop: share of arrivals classed 'batch' (default 0)",
    )
    bench.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="open loop: front-door pending-flight bound (default 256)",
    )
    bench.add_argument(
        "--seed",
        type=int,
        default=0,
        help="open loop: arrival-schedule RNG seed (default 0)",
    )
    bench.add_argument(
        "--no-baseline",
        action="store_true",
        help="open loop: skip the coalescing-off comparison arm",
    )
    bench.add_argument(
        "--json-out",
        default="BENCH_precis.json",
        metavar="FILE",
        help="merge the results into FILE under the 'serve' key "
        "('frontdoor' in open-loop mode; default: BENCH_precis.json; "
        "'-' disables)",
    )
    bench.add_argument(
        "--trace-out",
        metavar="FILE",
        help="capture per-request traces (repro.obs.context) and write "
        "them to FILE as JSON lines; render with 'repro trace export'",
    )
    bench.add_argument(
        "--trace-sample",
        type=float,
        default=0.1,
        metavar="RATE",
        help="head-sampling rate for normal traces (degraded/shed/"
        "retried/failed requests are always kept; default 0.1)",
    )
    bench.add_argument(
        "--trace-capacity",
        type=int,
        default=256,
        metavar="N",
        help="trace ring-buffer capacity (default 256)",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="run the statistical profiler (repro.obs.profile) across "
        "the bench and record the per-stage self-time breakdown",
    )
    bench.add_argument(
        "--trace-overhead",
        action="store_true",
        help="also measure tracing's throughput cost (sampling on vs "
        "off) and record it under 'trace_overhead'; warns above the "
        "5%% budget",
    )

    serve = sub.add_parser(
        "serve",
        help="serve précis queries over HTTP: the asyncio front door "
        "(request coalescing + priority classes, repro.service."
        "frontdoor) over a thread-pooled PrecisService, on the stdlib "
        "endpoint (GET /ask, /metrics, /healthz, /shutdown)",
    )
    serve.add_argument("directory")
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default lo)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (0 = ephemeral; default 8765)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="service worker threads"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None, help="admission-queue bound"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="front-door pending-flight bound (default 256)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="default per-request deadline for requests carrying none",
    )
    serve.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="memory",
        help="storage backend for the loaded database",
    )
    serve.add_argument(
        "--db-path",
        metavar="FILE",
        help="SQLite database file (implies --backend sqlite)",
    )
    serve.add_argument(
        "--cache",
        action="store_true",
        help="enable the versioned plan + answer caches",
    )
    serve.add_argument(
        "--cache-size", type=int, metavar="N", help="implies --cache"
    )
    serve.add_argument(
        "--trace-out",
        metavar="FILE",
        help="capture request traces and write them as JSON lines on "
        "shutdown",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.1,
        metavar="RATE",
        help="head-sampling rate for normal traces (default 0.1)",
    )
    serve.add_argument(
        "--trace-capacity",
        type=int,
        default=256,
        metavar="N",
        help="trace ring-buffer capacity (default 256)",
    )

    trace = sub.add_parser(
        "trace",
        help="work with captured request traces (repro.obs.context)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="render a JSONL trace capture (serve-bench --trace-out) as "
        "Chrome trace-event JSON for chrome://tracing / Perfetto",
    )
    export.add_argument("input", help="JSONL trace file to read")
    export.add_argument(
        "-o",
        "--out",
        default="-",
        metavar="FILE",
        help="output file ('-' for stdout, the default)",
    )
    export.add_argument(
        "--format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="output format (default: chrome trace-event JSON)",
    )
    export.add_argument(
        "--validate",
        action="store_true",
        help="validate the Chrome document structure after rendering "
        "(sorted ts, matched B/E pairs, pid/tid present) and fail on "
        "problems",
    )
    return parser


def _degree(args):
    parts = []
    if args.degree_weight is not None:
        parts.append(WeightThreshold(args.degree_weight))
    if args.degree_top is not None:
        parts.append(TopRProjections(args.degree_top))
    if args.degree_length is not None:
        parts.append(MaxPathLength(args.degree_length))
    if not parts:
        return WeightThreshold(0.9)
    return parts[0] if len(parts) == 1 else CompositeDegree(*parts)


def _cardinality(args):
    parts = []
    if args.per_relation is not None:
        parts.append(MaxTuplesPerRelation(args.per_relation))
    if args.total is not None:
        parts.append(MaxTotalTuples(args.total))
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else CompositeCardinality(*parts)


def _deadline(args):
    """Resolve --deadline-ms into a Deadline (or None)."""
    ms = getattr(args, "deadline_ms", None)
    if ms is None:
        return None
    from .core import Deadline

    return Deadline.after(ms / 1000.0)


def _backend_for(args):
    """Resolve --backend/--db-path into a StorageBackend (or None)."""
    backend = getattr(args, "backend", None)
    db_path = getattr(args, "db_path", None)
    if db_path is not None and backend in (None, "memory"):
        backend = "sqlite"
    if backend in (None, "memory") and db_path is None:
        return None
    return resolve_backend(backend, path=db_path)


def _cache_for(args) -> Optional[CacheConfig]:
    """Resolve --cache/--cache-size into a CacheConfig (or None)."""
    size = getattr(args, "cache_size", None)
    if not getattr(args, "cache", False) and size is None:
        return None
    if size is None:
        return CacheConfig(plans=True, answers=True)
    return CacheConfig(
        plans=True, answers=True, plan_entries=size, answer_entries=size
    )


def _load_engine(
    directory: str,
    tracer: Optional[Tracer] = None,
    backend=None,
    cache: Optional[CacheConfig] = None,
    metrics: bool = False,
    slow_query_ms: Optional[float] = None,
) -> PrecisEngine:
    path = Path(directory)
    db = load_database(path, enforce_foreign_keys=False, backend=backend)
    graph_path = path / _GRAPH_FILE
    translator = None
    if graph_path.exists():
        graph, headings = load_graph(graph_path)
        if headings:
            translator = Translator(generic_spec(graph, headings))
    else:
        graph = graph_from_schema(db.schema)
    return PrecisEngine(
        db,
        graph=graph,
        translator=translator,
        cache=cache,
        tracer=tracer,
        metrics=metrics or None,
        slow_query_ms=slow_query_ms,
    )


def _tracer_for(args) -> tuple[Optional[Tracer], Optional[InMemorySink]]:
    """A tracer + capture sink when ``--stats`` was passed, else Nones."""
    if not getattr(args, "stats", False):
        return None, None
    sink = InMemorySink()
    return Tracer([sink]), sink


def _metrics_requested(args) -> bool:
    return (
        getattr(args, "metrics_out", None) is not None
        or getattr(args, "slow_query_ms", None) is not None
    )


def _write_metrics(args, engine, out) -> None:
    """The ``--metrics-out`` epilogue (no-op when metrics are off)."""
    target = getattr(args, "metrics_out", None)
    if target is None or engine.metrics is None:
        return
    write_metrics(
        engine.metrics,
        out if target == "-" else target,
        format=args.metrics_format,
    )
    if target != "-":
        print(
            f"metrics written to {target} ({args.metrics_format})", file=out
        )


def _print_stats(answer, sink: InMemorySink, out, engine=None) -> None:
    """The ``--stats`` epilogue: index-build time + per-stage table,
    plus per-layer cache counters when caching is enabled."""
    print("", file=out)
    build = sink.find("build_index")
    if build is not None:
        print(
            f"index build: {build.duration_s * 1e3:.3f} ms "
            f"({build.counter('values_indexed')} values, "
            f"{build.counter('attributes_indexed')} attributes)",
            file=out,
        )
    print(render_stats(answer), file=out)
    if engine is not None and engine.cache is not None:
        for layer, counters in engine.cache_stats().items():
            body = " ".join(f"{k}={v}" for k, v in counters.items())
            print(f"cache[{layer}]: {body}", file=out)


def _cmd_init_demo(args, out) -> int:
    from .datasets import (
        generate_movies_database,
        movies_graph,
        paper_instance,
    )

    if args.movies > 0:
        db = generate_movies_database(n_movies=args.movies, seed=args.seed)
    else:
        db = paper_instance()
    path = save_database(db, args.directory)
    headings = {
        "THEATRE": "NAME",
        "MOVIE": "TITLE",
        "GENRE": "GENRE",
        "ACTOR": "ANAME",
        "DIRECTOR": "DNAME",
    }
    save_graph(movies_graph(), path / _GRAPH_FILE, headings)
    print(f"wrote {db.total_tuples()} tuples to {path}", file=out)
    return 0


def _cmd_schema(args, out) -> int:
    db = load_database(args.directory, enforce_foreign_keys=False)
    print(create_schema_sql(db.schema), file=out)
    print("", file=out)
    print(database_summary(db), file=out)
    return 0


def _cmd_query(args, out) -> int:
    tracer, sink = _tracer_for(args)
    engine = _load_engine(
        args.directory,
        tracer,
        backend=_backend_for(args),
        cache=_cache_for(args),
        metrics=_metrics_requested(args),
        slow_query_ms=args.slow_query_ms,
    )
    answer = engine.ask(
        args.query,
        degree=_degree(args),
        cardinality=_cardinality(args),
        strategy=args.strategy,
        deadline=_deadline(args),
    )
    if answer.degraded:
        print(
            f"(degraded: deadline expired during {answer.degraded_stage} — "
            f"partial answer)",
            file=out,
        )
    if not answer.found:
        print(f"no match for {args.query!r}", file=out)
        if sink is not None:
            _print_stats(answer, sink, out, engine)
        _write_metrics(args, engine, out)
        return 1
    if args.dot:
        print(result_schema_to_dot(answer.result_schema), file=out)
        return 0
    print(answer.describe(), file=out)
    if args.explain:
        print("", file=out)
        print(render_explanation(answer), file=out)
    if args.narrative and answer.narrative:
        print("", file=out)
        print(answer.narrative, file=out)
    if args.save:
        save_database(answer.database.to_database(), args.save)
        print(f"\nanswer database exported to {args.save}", file=out)
    if sink is not None:
        _print_stats(answer, sink, out, engine)
    _write_metrics(args, engine, out)
    return 0


def _cmd_explain(args, out) -> int:
    tracer, sink = _tracer_for(args)
    engine = _load_engine(
        args.directory,
        tracer,
        backend=_backend_for(args),
        cache=_cache_for(args),
        metrics=_metrics_requested(args),
        slow_query_ms=args.slow_query_ms,
    )
    answer = engine.ask(
        args.query,
        degree=_degree(args),
        cardinality=_cardinality(args),
        strategy=args.strategy,
        translate=False,
        deadline=_deadline(args),
    )
    print(render_explanation(answer), file=out)
    print("", file=out)
    print(render_plan(answer), file=out)
    print("", file=out)
    print("-- result database DDL", file=out)
    print(answer_ddl(answer), file=out)
    print("", file=out)
    print("-- retrieval queries", file=out)
    for query in emitted_queries(answer):
        print(query + ";", file=out)
    if sink is not None:
        _print_stats(answer, sink, out, engine)
    _write_metrics(args, engine, out)
    return 0


def _cmd_estimate(args, out) -> int:
    from .core import estimate_cardinalities, suggest_cardinality

    tracer, sink = _tracer_for(args)
    engine = _load_engine(
        args.directory,
        tracer,
        backend=_backend_for(args),
        cache=_cache_for(args),
        metrics=_metrics_requested(args),
        slow_query_ms=args.slow_query_ms,
    )
    schema, matches, __ = engine.plan(args.query, _degree(args))
    if schema.is_empty():
        print(f"no match for {args.query!r}", file=out)
        return 1
    seed_counts: dict[str, int] = {}
    for match in matches:
        for occ in match.occurrences:
            seed_counts[occ.relation] = seed_counts.get(occ.relation, 0) + len(
                occ.tids
            )
    estimated = estimate_cardinalities(engine.db, schema, seed_counts)
    print("estimated answer size (unconstrained):", file=out)
    for relation, expected in estimated.items():
        print(f"  {relation}: ~{expected:.1f} tuple(s)", file=out)
    print(f"  total: ~{sum(estimated.values()):.1f}", file=out)
    if args.target_total is not None:
        constraint = suggest_cardinality(
            engine.db, schema, seed_counts, args.target_total
        )
        print(
            f"suggested constraint for <= {args.target_total} tuples: "
            f"--per-relation {constraint.c0}",
            file=out,
        )
    if sink is not None:
        # plan() emits "match" and "schema" as separate roots (there is
        # no enclosing ask); print each captured span tree
        print("", file=out)
        for root in sink.spans:
            print(format_span_table(root), file=out)
        if engine.cache is not None:
            for layer, counters in engine.cache_stats().items():
                body = " ".join(f"{k}={v}" for k, v in counters.items())
                print(f"cache[{layer}]: {body}", file=out)
    _write_metrics(args, engine, out)
    return 0


def _merge_bench_json(args, out, key: str, payload: dict) -> None:
    """Merge *payload* into --json-out under *key* ('-' disables)."""
    import json

    if args.json_out == "-":
        return
    target = Path(args.json_out)
    document = {}
    if target.exists():
        try:
            document = json.loads(target.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {}
    document[key] = payload
    with open(target, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"(results merged into {target} under {key!r})", file=out)


def _serve_bench_open_loop(args, out) -> int:
    """The --arrival-rate branch of serve-bench: Poisson arrivals
    through the async front door, coalescing A/B, 'frontdoor' payload."""
    from .obs import TraceBuffer
    from .service import (
        OpenLoopConfig,
        movies_workload,
        run_frontdoor_bench,
    )

    engine, queries = movies_workload(
        n_movies=args.movies,
        backend=args.backend if args.backend != "memory" else None,
    )
    traces = (
        TraceBuffer(
            capacity=args.trace_capacity, sample_rate=args.trace_sample
        )
        if args.trace_out is not None
        else None
    )
    config = OpenLoopConfig(
        arrival_rate=args.arrival_rate,
        duration_s=args.duration,
        duplicate_fraction=args.duplicate_fraction,
        batch_fraction=args.batch_fraction,
        deadline_ms=args.deadline_ms,
        seed=args.seed,
    )
    payload = run_frontdoor_bench(
        engine,
        queries,
        config,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_pending=args.max_pending,
        compare_coalescing=not args.no_baseline,
        traces=traces,
    )
    payload["backend"] = args.backend
    on = payload["coalesced"]
    print(
        f"serve-bench (open loop): {args.arrival_rate:g} req/s offered "
        f"for {args.duration:g}s, {on['offered']} arrivals "
        f"({args.duplicate_fraction:.0%} duplicates, "
        f"{args.batch_fraction:.0%} batch), {args.workers} workers, "
        f"deadline "
        + (f"{args.deadline_ms:g} ms" if args.deadline_ms else "none"),
        file=out,
    )

    def describe(label: str, arm: dict) -> None:
        outcomes = arm["outcomes"]
        print(
            f"  {label}: goodput {arm['goodput_rps']:.1f} rps, "
            f"coalesce hit rate {arm['coalesce_hit_rate']:.0%}, "
            f"shed {arm['shed_rate']:.0%} "
            f"({outcomes['degraded']} degraded, {outcomes['failed']} "
            "failed)",
            file=out,
        )
        for priority, stats in sorted(arm["classes"].items()):
            latency = stats.get("latency_ms")
            if latency is None:
                tail = "no answers"
            else:
                tail = (
                    f"latency ms p50={latency['p50']:.2f} "
                    f"p95={latency['p95']:.2f} p99={latency['p99']:.2f}"
                )
            print(
                f"    {priority}: {stats['answered']}/{stats['offered']} "
                f"answered, {tail}",
                file=out,
            )

    describe("coalesced", on)
    if "uncoalesced" in payload:
        describe("uncoalesced", payload["uncoalesced"])
        print(
            f"  goodput ratio (coalesced/uncoalesced): "
            f"{payload['goodput_ratio']:.2f}x",
            file=out,
        )
    if traces is not None:
        kept = traces.export_jsonl(args.trace_out)
        stats = traces.stats()
        print(
            f"  traces: {kept} kept ({stats['kept_triggered']} triggered, "
            f"{stats['kept_sampled']} sampled of {stats['offered']} "
            f"offered) -> {args.trace_out}",
            file=out,
        )
    _merge_bench_json(args, out, "frontdoor", payload)
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from .obs import TraceBuffer
    from .service import (
        AsyncFrontDoor,
        FrontDoorConfig,
        FrontDoorHTTP,
        PrecisService,
        ServiceConfig,
    )

    engine = _load_engine(
        args.directory,
        backend=_backend_for(args),
        cache=_cache_for(args),
    )
    traces = (
        TraceBuffer(
            capacity=args.trace_capacity, sample_rate=args.trace_sample
        )
        if args.trace_out is not None
        else None
    )
    service = PrecisService(
        engine,
        config=ServiceConfig(
            workers=args.workers,
            queue_depth=(
                args.queue_depth if args.queue_depth is not None else 64
            ),
            default_timeout_s=(
                args.timeout_ms / 1000.0
                if args.timeout_ms is not None
                else None
            ),
        ),
        traces=traces,
    )

    async def run() -> None:
        frontdoor = AsyncFrontDoor(
            service, FrontDoorConfig(max_pending=args.max_pending)
        )
        http = FrontDoorHTTP(frontdoor, host=args.host, port=args.port)
        host, port = await http.start()
        print(
            f"precis front door listening on http://{host}:{port}",
            file=out,
        )
        print(
            "routes: GET /ask?q=... | /metrics | /healthz | /shutdown",
            file=out,
        )
        try:
            await http.serve_until_shutdown()
        finally:
            await http.stop()
            await frontdoor.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted", file=out)
    finally:
        service.close()
        if traces is not None:
            kept = traces.export_jsonl(args.trace_out)
            print(f"{kept} trace(s) -> {args.trace_out}", file=out)
    print("server stopped", file=out)
    return 0


def _cmd_serve_bench(args, out) -> int:
    from .obs import TraceBuffer
    from .service import (
        measure_trace_overhead,
        movies_workload,
        run_serve_bench,
    )

    if args.arrival_rate is not None:
        return _serve_bench_open_loop(args, out)

    engine, queries = movies_workload(
        n_movies=args.movies,
        backend=args.backend if args.backend != "memory" else None,
    )
    traces = (
        TraceBuffer(
            capacity=args.trace_capacity, sample_rate=args.trace_sample
        )
        if args.trace_out is not None
        else None
    )
    payload = run_serve_bench(
        engine,
        queries,
        client_threads=args.clients,
        requests_per_client=args.requests,
        workers=args.workers,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        traces=traces,
        profile=args.profile,
    )
    payload["backend"] = args.backend
    outcomes = payload["outcomes"]
    latency = payload["latency_ms"]

    def fmt(value):
        return "-" if value is None else f"{value:.2f}"

    print(
        f"serve-bench: {args.clients} clients x {args.requests} requests, "
        f"{args.workers} workers, queue depth {payload['queue_depth']}, "
        f"deadline "
        + (f"{args.deadline_ms:g} ms" if args.deadline_ms else "none"),
        file=out,
    )
    print(
        f"  answered {outcomes['answered']}/{payload['requests']} "
        f"({outcomes['degraded']} degraded, "
        f"{outcomes['shed_full']} shed full, "
        f"{outcomes['shed_stale']} shed stale, "
        f"{outcomes['failed']} failed)",
        file=out,
    )
    print(
        f"  throughput {payload['throughput_rps']:.1f} req/s; latency ms "
        f"p50={fmt(latency['p50'])} p95={fmt(latency['p95'])} "
        f"p99={fmt(latency['p99'])} max={fmt(latency['max'])}",
        file=out,
    )
    if traces is not None:
        kept = traces.export_jsonl(args.trace_out)
        stats = traces.stats()
        print(
            f"  traces: {kept} kept ({stats['kept_triggered']} triggered, "
            f"{stats['kept_sampled']} sampled of {stats['offered']} "
            f"offered) -> {args.trace_out}",
            file=out,
        )
    if args.profile and "profile" in payload:
        profile = payload["profile"]
        stages = ", ".join(
            f"{stage}={fraction:.0%}"
            for stage, fraction in sorted(
                profile["fractions"].items(), key=lambda kv: -kv[1]
            )[:5]
        )
        print(
            f"  profile: {profile['samples']} samples, "
            f"{profile['attributed_fraction']:.0%} in pipeline stages "
            f"({stages})",
            file=out,
        )
    if args.trace_overhead:
        # serial defaults on purpose: the budget gate isolates the
        # tracing code path; a concurrent closed loop would measure
        # scheduler noise (see measure_trace_overhead)
        overhead = measure_trace_overhead(
            engine,
            queries,
            sample_rate=args.trace_sample,
        )
        payload["trace_overhead"] = overhead
        verdict = "ok" if overhead["passed"] else "OVER BUDGET"
        print(
            f"  trace overhead: {overhead['overhead_pct']:.1f}% at "
            f"{overhead['sample_rate']:.0%} sampling "
            f"(budget {overhead['budget_pct']:g}%, {verdict})",
            file=out,
        )
        if not overhead["passed"]:
            print(
                "  warning: tracing costs more than its budget on this "
                "run; see benchmarks/test_trace_overhead.py for the "
                "gated measurement",
                file=out,
            )
    _merge_bench_json(args, out, "serve", payload)
    return 0


def _cmd_trace(args, out) -> int:
    import json

    from .obs.context import (
        chrome_trace_events,
        load_jsonl,
        validate_chrome_trace,
    )

    traces = load_jsonl(args.input)
    if args.format == "jsonl":
        lines = [
            json.dumps(trace.to_dict(), sort_keys=True) for trace in traces
        ]
        body = "\n".join(lines) + ("\n" if lines else "")
    else:
        document = chrome_trace_events(traces)
        if args.validate:
            problems = validate_chrome_trace(document)
            if problems:
                for problem in problems:
                    print(f"invalid: {problem}", file=out)
                return 1
        body = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        out.write(body)
    else:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(body)
        print(
            f"{len(traces)} trace(s) exported to {args.out} "
            f"({args.format})",
            file=out,
        )
    return 0


_COMMANDS = {
    "init-demo": _cmd_init_demo,
    "schema": _cmd_schema,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "estimate": _cmd_estimate,
    "serve": _cmd_serve,
    "serve-bench": _cmd_serve_bench,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
