"""Self-tests of the benchmark at the smallest size of each workload's shape."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _import_workloads():
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    return importlib.import_module("workloads")


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(workload, trace)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
        assert {k: v["unit"] for k, v in out["metrics"].items()} == \
            {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_records_each_workloads_size():
    workloads = _import_workloads()
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCH["workloads"]:
        w = workloads.WORKLOADS[entry["name"]]
        assert entry["why"].startswith(f"n={w.n},")
        assert w.path == "files" or f"mu={w.mu}" in entry["why"]


def test_per_layer_counts_repeat_exactly():
    def counts(out):
        return {k: v["value"] for k, v in out["metrics"].items() if v["unit"] != "s"}

    first, second = _run("ctx-mu95", 1), _run("ctx-mu95", 1)
    assert counts(first) == counts(second)
    assert counts(first)["crf.pairwise_terms"] > 0


def test_corrupted_labeling_trips_the_check(tmp_path):
    workloads = _import_workloads()
    check = workloads.check
    inst = workloads.Instance(workloads.WORKLOADS["ctx-mu95"].tiny(), seed=3,
                              workdir=str(tmp_path))
    outcome = inst.run()
    assert check(outcome, inst.seq) == []

    x = outcome.labeling.assignment.copy()
    x[0] = (x[0] + 1) % outcome.num_classes
    relabeled = dataclasses.replace(outcome.labeling, assignment=x)
    rid = inst.seq.regions[0].region_id
    moved = dataclasses.replace(outcome, labeling=relabeled,
                                prediction={**outcome.prediction, rid: int(x[0])})
    assert any("recomputed energy" in p for p in check(moved, inst.seq))

    out_of_range = dataclasses.replace(
        outcome, prediction={**outcome.prediction, rid: outcome.num_classes})
    assert any("outside [0," in p for p in check(out_of_range, inst.seq))

    rising = dataclasses.replace(outcome.labeling, energy_trace=[1.0, 2.0])
    assert "energy_trace increases" in check(
        dataclasses.replace(outcome, labeling=rising), inst.seq)


def test_missing_target_leaves_its_metrics_out(monkeypatch):
    _import_workloads()
    layers = importlib.import_module("layers")
    renamed = {**layers.TARGETS, "graph": [("build_knn_graph_v2", None, ("graph.edges",))]}
    monkeypatch.setattr(layers, "TARGETS", renamed)
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"graph.build_knn_graph_v2"}
    metrics = tracer.metrics()
    assert "graph.edges" not in metrics and "graph.build_s" in metrics
