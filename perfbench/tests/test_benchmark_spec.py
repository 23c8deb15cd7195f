"""BENCHMARK.json, the layer map and the metrics the code emits agree."""

import json
from pathlib import Path

from perfbench.layers import HOOKS, Recorder, serve_metrics, setup_metrics
from perfbench.workloads import WORKLOADS, Outcome
from repro.core.serving import QueryRecord, ServeReport

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())


def _fake_outcome() -> Outcome:
    recs = [QueryRecord(i, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0) for i in range(4)]
    rep = ServeReport(records=recs, makespan_us=5.0, gpu_cta_busy_us=8.0,
                      n_cta_slots=2, meta={"dropped": 0, "dropped_ids": []})
    return Outcome(rep, 1.0, list(range(4)))


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_is_emitted_and_mapped():
    declared = {m["name"] for m in SPEC["per_layer"]}
    emitted = set(setup_metrics(Recorder()))
    emitted |= set(serve_metrics(Recorder(), _fake_outcome()))
    emitted.add("trace.overhead_s")
    assert emitted == declared
    assert set(LAYER_MAP["layers"]) == declared
    for name, entry in LAYER_MAP["layers"].items():
        assert entry["moves"], name
        assert set(entry["moves"]) <= {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["workloads"]) <= set(WORKLOADS), name


def test_hooks_feed_declared_metrics():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for hook in HOOKS:
        assert set(hook.feeds) <= declared, hook.attr


def test_end_to_end_bounds():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
