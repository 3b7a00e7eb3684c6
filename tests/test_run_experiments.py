"""Smoke tests keeping benchmarks/run_experiments.py importable and

its cheap tables runnable (the heavy sweeps are exercised by the
pytest-benchmark suite)."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).parent.parent / "benchmarks" / "run_experiments.py"


def _load():
    spec = importlib.util.spec_from_file_location("run_experiments", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["run_experiments"] = module
    spec.loader.exec_module(module)
    return module


def test_module_loads_and_lists_figures():
    module = _load()
    for name in ("figure_7", "figure_8", "figure_9", "formula_2",
                 "ablation_strategies", "ablation_join_order"):
        assert hasattr(module, name)


def test_strategies_table_runs(capsys):
    module = _load()
    payload = module.ablation_strategies()
    out = capsys.readouterr().out
    assert "round_robin" in out
    assert "coverage" in out
    # every experiment doubles as a structured payload for BENCH_precis.json
    assert payload["columns"] == ["strategy", "driving-tuple coverage"]
    assert len(payload["rows"]) == 3


def test_main_dispatch(capsys):
    module = _load()
    module.main(["strategies", "--json-out", "-"])
    out = capsys.readouterr().out
    assert "Ablation" in out
    assert "backend: memory" in out


def test_main_dispatch_sqlite_backend(capsys):
    module = _load()
    module.main(["--backend", "sqlite", "strategies", "--json-out", "-"])
    out = capsys.readouterr().out
    assert "Ablation" in out
    assert "backend: sqlite" in out


def test_main_writes_bench_json(tmp_path, capsys):
    import json

    module = _load()
    target = tmp_path / "BENCH_precis.json"
    module.main(["strategies", "--json-out", str(target)])
    capsys.readouterr()
    document = json.loads(target.read_text())
    assert document["backend"] == "memory"
    experiment = document["experiments"]["strategies"]
    assert experiment["rows"]
    assert experiment["seconds"] >= 0
    assert document["total_seconds"] >= experiment["seconds"] * 0.99


def test_tenants_scaling_payload(capsys):
    module = _load()
    payload = module.tenants_scaling(tenant_counts=(1, 4))
    capsys.readouterr()
    assert payload["columns"] == [
        "tenants", "asks/s", "plan hit rate", "overlay KiB", "clone KiB",
    ]
    assert [row[0] for row in payload["rows"]] == [1, 4]
    for row in payload["rows"]:
        assert row[1] > 0  # asks/s
        assert 0.0 <= row[2] <= 1.0  # hit rate
        # sparse overlays must undercut materialized clones at every N
        assert row[3] < row[4]
    assert payload["overlay_to_clone_ratio"] < 0.5


def test_main_merges_into_existing_bench_json(tmp_path, capsys):
    import json

    module = _load()
    target = tmp_path / "BENCH_precis.json"
    module.main(["strategies", "--json-out", str(target)])
    module.main(["joinorder", "--json-out", str(target)])
    capsys.readouterr()
    document = json.loads(target.read_text())
    # the second (partial) run extended the document, not replaced it
    assert set(document["experiments"]) == {"strategies", "joinorder"}
    assert document["total_seconds"] >= sum(
        p["seconds"] for p in document["experiments"].values()
    ) * 0.99


def test_metrics_overhead_payload(capsys):
    module = _load()
    payload = module.metrics_overhead()
    capsys.readouterr()
    labels = [row[0] for row in payload["rows"]]
    assert labels == ["off", "metrics", "metrics+slowlog", "traced"]
    # the service counters ride along for BENCH_precis.json:
    # 5 warm-up asks + 3 timed passes of 5 under the metrics config
    assert payload["counters"]["precis_asks_total"] == 20
    assert payload["ask_histogram"]["count"] == 20
    assert payload["note"]


def test_scale_payload(capsys):
    module = _load()
    payload = module.scale(sizes=(30,), repeat=1)
    capsys.readouterr()
    assert payload["columns"][:3] == ["movies", "backend", "bound"]
    assert [row[1:3] for row in payload["rows"]] == [
        ["memory", "unbounded"], ["memory", "c_R=10"],
        ["sqlite", "unbounded"], ["sqlite", "c_R=10"],
    ]
    for row in payload["rows"]:
        ms_per_ask, us_per_tuple, tuples = row[3:6]
        assert ms_per_ask > 0 and us_per_tuple > 0 and tuples > 0
        probe, fetch, materialize, translate = row[6:]
        assert probe > 0 and fetch > 0 and translate > 0
        # the split is a breakdown of the measured generator time
        assert probe + fetch + materialize > 0
