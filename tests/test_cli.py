import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from problem_gen import tiled_sequence

import ctxseg
from ctxseg import cli, graph, pipeline, propagation, regions, synthetic, tracking
from ctxseg.cli import main
from ctxseg.pipeline import PipelineConfig


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(["synth", "--seed", "7", "--out", str(out)]) == 0
    return out


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_synth_outputs_exist(dataset):
    for name in ("regions.jsonl", "detections.jsonl", "gt.jsonl"):
        assert (dataset / name).stat().st_size > 0


def test_pipeline_runs_and_reports(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["pipeline", "--regions", str(dataset / "regions.jsonl"),
                "--detections", str(dataset / "detections.jsonl"),
                "--gt", str(dataset / "gt.jsonl"),
                "--out", str(out), "--seed", "7"])
    assert code == 0
    for name in ("hypotheses.jsonl", "labels.jsonl", "graph.json", "links.jsonl",
                 "scores.jsonl", "labeling.jsonl", "report.json"):
        assert (out / name).exists(), name
    report = json.loads(read(out / "report.json"))
    assert 0.0 <= report["mean"] <= 1.0


def test_pipeline_deterministic_across_runs_and_threads(dataset, tmp_path):
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert run(["pipeline", "--regions", str(dataset / "regions.jsonl"),
                    "--detections", str(dataset / "detections.jsonl"),
                    "--gt", str(dataset / "gt.jsonl"),
                    "--out", str(out), "--seed", "7"]) == 0
        outs.append(out)
    for name in ("hypotheses.jsonl", "labels.jsonl", "graph.json", "links.jsonl",
                 "scores.jsonl", "labeling.jsonl", "report.json"):
        blobs = [read(o / name) for o in outs]
        assert blobs[0] == blobs[1] == blobs[2], name


def test_pipeline_reproducible_across_blas_thread_counts(dataset, tmp_path):
    """Labels and report are bitwise stable across BLAS thread counts; the
    scores agree to round-off (their bits may depend on the BLAS schedule)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctxseg.__file__)))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ctxseg.cli", "pipeline",
             "--regions", str(dataset / "regions.jsonl"),
             "--detections", str(dataset / "detections.jsonl"),
             "--gt", str(dataset / "gt.jsonl"), "--seed", "7", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("labeling.jsonl", "report.json"):
        assert read(outs[0] / name) == read(outs[1] / name), name
    scores = []
    for out in outs:
        with open(out / "scores.jsonl") as fh:
            scores.append({(rec["m"], rec["n"], i, j): s for rec in map(json.loads, fh)
                           for i, j, s in rec["scores"]})
    assert scores[0].keys() == scores[1].keys()
    assert max((abs(scores[0][k] - scores[1][k]) for k in scores[0]), default=0.0) <= 1e-12


def test_non_finite_input_exits_with_diagnostic(tmp_path, capsys):
    regions = tmp_path / "r.jsonl"
    regions.write_text(json.dumps({"id": 0, "frame": 0, "feature": [1.0, float("nan")],
                                   "area": 10}) + "\n")
    code = run(["graph", "--regions", str(regions), "--out", str(tmp_path / "g.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"ctxseg graph: error: {regions}:1: feature holds a non-finite value" in err
    assert "Traceback" not in err


NAN = float("nan")
HUGE = 10 ** 400  # an integer literal too large for a float
GOOD_HYPOTHESIS = {"class": 1, "seed_confidence": 0.9,
                   "entries": [{"frame": 0, "bbox": [0, 0, 5, 5], "source": "det"}]}
GOOD_REGION = {"id": 0, "frame": 0, "feature": [1.0, 0.0], "area": 10, "bbox": [0, 0, 5, 5]}
GOOD_DETECTION = {"frame": 0, "bbox": [0, 0, 5, 5], "class": 1, "confidence": 0.9}
# (stage file, its second record, message after "<file>:2: ")
MALFORMED_STAGE_FILES = [
    pytest.param("links", {"m": 1, "n": 2}, "missing or invalid field",
                 id="links-missing-key"),
    pytest.param("links", {"m": 1, "n": 2, "links": [[0, 1000000]]},
                 "region index 1000000 out of range [0, {n})", id="links-index-range"),
    pytest.param("links", {"m": 1, "n": 2, "links": [[0, NAN]]},
                 "missing or invalid field (region index must be an integer, got nan)",
                 id="links-nan"),
    pytest.param("links", {"m": 1, "n": 2, "links": [0, 1]},
                 "missing or invalid field", id="links-flat-list"),
    pytest.param("links", {"m": 1, "n": 3, "links": [[0.5, 1.7]]},
                 "missing or invalid field (region index must be an integer, got 0.5)",
                 id="links-fractional-index"),
    pytest.param("links", {"m": -2, "n": 1, "links": [[0, 1]]},
                 "negative m -2", id="links-negative-class"),
    pytest.param("scores", {"n": 2, "scores": [[0, 1, 0.5]]},
                 "missing or invalid field", id="scores-missing-key"),
    pytest.param("scores", {"m": 1, "n": 2, "scores": [[0, 1, NAN]]},
                 "scores holds a non-finite value", id="scores-nan"),
    pytest.param("scores", {"m": 1, "n": 2, "scores": [[-1, 1, 0.5]]},
                 "negative region index -1", id="scores-index-range"),
    pytest.param("scores", {"m": 1, "n": 2, "scores": [[0, 1]]},
                 "missing or invalid field", id="scores-short-row"),
    pytest.param("scores", {"m": 1, "n": 3, "scores": [[0.5, 1.7, 0.3]]},
                 "missing or invalid field (region index must be an integer, got 0.5)",
                 id="scores-fractional-index"),
    pytest.param("scores", {"m": -1, "n": 1, "scores": [[0, 1, 0.5]]},
                 "negative m -1", id="scores-negative-class"),
    pytest.param("scores", {"m": 1.9, "n": 1, "scores": [[0, 1, 0.5]]},
                 "missing or invalid field (m must be an integer, got 1.9)",
                 id="scores-fractional-class"),
    pytest.param("scores", {"m": 1, "n": 2, "scores": [[1, 0, 0.5]]},
                 "class pair (1, 2) repeats an earlier record", id="scores-repeated-pair"),
    pytest.param("links", {"m": 1, "n": 3, "links": [[0, 1], [2, 0], [0, 1]]},
                 "position (0, 1) repeats an earlier entry", id="links-repeated-entry"),
    pytest.param("scores", {"m": 1, "n": 3, "scores": [[0, 1, 0.5], [0, 1, 0.25]]},
                 "position (0, 1) repeats an earlier entry", id="scores-repeated-entry"),
    pytest.param("regions", b'{"id": 1, "frame": 0, "caf\xe9": 1}',
                 "not UTF-8 (byte 0xe9 at column 27)", id="regions-not-utf8"),
    pytest.param("scores", b"\xff", "not UTF-8 (byte 0xff at column 1)",
                 id="scores-not-utf8"),
    pytest.param("hypotheses", {"entries": GOOD_HYPOTHESIS["entries"]},
                 "missing or invalid field", id="hypotheses-missing-key"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, seed_confidence=NAN),
                 "seed_confidence holds a non-finite value", id="hypotheses-nan-confidence"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=[
        {"frame": 0, "bbox": [0, 0, NAN, 5], "source": "det"}]),
                 "bbox holds a non-finite value", id="hypotheses-nan-bbox"),
    pytest.param("labels", {"id": 1}, "missing or invalid field",
                 id="labels-missing-class"),
    pytest.param("labels", {"id": 1, "class": True},
                 "missing or invalid field (class must be an integer, got True)",
                 id="labels-boolean-class"),
    pytest.param("labels", {"id": 0, "class": 1},
                 "region id 0 repeats an earlier record", id="labels-repeated-id"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries={}),
                 "missing or invalid field (entries must be a list of objects)",
                 id="hypotheses-dict-entries"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries={"frame": 0}),
                 "missing or invalid field (entries must be a list of objects)",
                 id="hypotheses-nonempty-dict-entries"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=""),
                 "missing or invalid field (entries must be a list of objects)",
                 id="hypotheses-string-entries"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=[[0, [0, 0, 5, 5], "det"]]),
                 "missing or invalid field (entries must be a list of objects)",
                 id="hypotheses-entry-not-object"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=[
        {"frame": 0, "bbox": [0, 0, 5, 5], "source": None}]),
                 "missing or invalid field (source must be 'det' or 'trk', got None)",
                 id="hypotheses-null-source"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=[
        {"frame": 0, "bbox": [0, 0, 5, 5], "source": 7}]),
                 "missing or invalid field (source must be 'det' or 'trk', got 7)",
                 id="hypotheses-number-source"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=[
        {"frame": 0, "bbox": [0, 0, 5, 5], "source": "x"}]),
                 "missing or invalid field (source must be 'det' or 'trk', got 'x')",
                 id="hypotheses-unknown-source"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=[
        {"frame": 1.5, "bbox": [0, 0, 5, 5], "source": "det"}]),
                 "missing or invalid field (frame must be an integer, got 1.5)",
                 id="hypotheses-fractional-frame"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, entries=[
        {"frame": 0, "bbox": [0, 0, -5, 5], "source": "det"}]),
                 "hypothesis entry bbox extents must be positive",
                 id="hypotheses-negative-bbox-width"),
    pytest.param("regions", dict(GOOD_REGION, id=1.9, frame=0.5),
                 "missing or invalid field (id must be an integer, got 1.9)",
                 id="regions-fractional-id"),
    pytest.param("detections", dict(GOOD_DETECTION, **{"class": "1"}),
                 "missing or invalid field (class must be an integer, got '1')",
                 id="detections-string-class"),
    pytest.param("regions", dict(GOOD_REGION, id=1, bbox=[HUGE, 0, 5, 5]),
                 "bbox holds a non-finite value",
                 id="regions-huge-bbox"),
    pytest.param("detections", dict(GOOD_DETECTION, bbox=[0, HUGE, 5, 5]),
                 "bbox holds a non-finite value",
                 id="detections-huge-bbox"),
    # a number is a JSON int or float, never a string or a boolean
    pytest.param("links", {"m": 1, "n": 3, "links": [["0", "1"]]},
                 "missing or invalid field (region index must be an integer, got '0')",
                 id="links-string-index"),
    pytest.param("links", {"m": 1, "n": 3, "links": [[True, 2]]},
                 "missing or invalid field (region index must be an integer, got True)",
                 id="links-boolean-index"),
    pytest.param("scores", {"m": 1, "n": 3, "scores": [[0, 1, "0.25"]]},
                 "missing or invalid field (scores: '0.25' is not a number)",
                 id="scores-string-score"),
    pytest.param("regions", dict(GOOD_REGION, id=1, feature=["1.0", 0.5]),
                 "missing or invalid field (feature: '1.0' is not a number)",
                 id="regions-string-feature"),
    pytest.param("regions", dict(GOOD_REGION, id=1, feature=[0.5, True]),
                 "missing or invalid field (feature: True is not a number)",
                 id="regions-boolean-feature"),
    pytest.param("regions", dict(GOOD_REGION, id=1, bbox=["1", 2, 3, 4]),
                 "missing or invalid field (bbox: '1' is not a number)",
                 id="regions-string-bbox"),
    pytest.param("detections", dict(GOOD_DETECTION, confidence="0.9"),
                 "missing or invalid field (confidence: '0.9' is not a number)",
                 id="detections-string-confidence"),
    pytest.param("detections", dict(GOOD_DETECTION, confidence=True),
                 "missing or invalid field (confidence: True is not a number)",
                 id="detections-boolean-confidence"),
    pytest.param("hypotheses", dict(GOOD_HYPOTHESIS, seed_confidence="0.5"),
                 "missing or invalid field (seed_confidence: '0.5' is not a number)",
                 id="hypotheses-string-seed-confidence"),
    # the region and detection value rules, read from a file
    pytest.param("regions", dict(GOOD_REGION, id=1, area=0),
                 "region 1: area must be positive", id="regions-zero-area"),
    pytest.param("regions", dict(GOOD_REGION, id=1, bbox=[0, 0, 0, 5]),
                 "region 1: bbox extents must be positive", id="regions-zero-bbox-width"),
    pytest.param("regions", dict(GOOD_REGION, id=1, bbox=[0, 0, 5, 0]),
                 "region 1: bbox extents must be positive", id="regions-zero-bbox-height"),
    pytest.param("regions", dict(GOOD_REGION, id=1, bbox=[0, 0, 1e-200, 1e-200]),
                 "region 1: bbox area must be positive", id="regions-bbox-area-underflow"),
    pytest.param("regions", GOOD_REGION, "duplicate region id 0", id="regions-repeated-id"),
    pytest.param("detections", dict(GOOD_DETECTION, confidence=1.5),
                 "detection confidence 1.5 not in [0,1]", id="detections-confidence-range"),
    # an integer literal longer than Python's int() reads (4300 digits by default)
    pytest.param("regions", b'{"id": ' + b"9" * 5000 + b', "frame": 0}',
                 "malformed JSON (Exceeds the limit", id="regions-id-past-digit-limit"),
]


@pytest.mark.parametrize("kind, bad, message", MALFORMED_STAGE_FILES)
def test_malformed_stage_file_exits_with_file_and_line(dataset, tmp_path, capsys,
                                                       kind, bad, message):
    regions = str(dataset / "regions.jsonl")
    n = sum(1 for line in read(dataset / "regions.jsonl").splitlines() if line.strip())
    good = {"links": {"m": 1, "n": 2, "links": [[0, 1]]},
            "scores": {"m": 1, "n": 2, "scores": [[0, 1, 0.5]]},
            "hypotheses": GOOD_HYPOTHESIS,
            "labels": {"id": 0, "class": 0},
            "regions": GOOD_REGION,
            "detections": GOOD_DETECTION}[kind]
    path = tmp_path / f"{kind}.jsonl"
    bad = bad if isinstance(bad, bytes) else json.dumps(bad).encode()  # bytes: as they are
    path.write_bytes(json.dumps(good).encode() + b"\n" + bad + b"\n")
    labels = tmp_path / "good-labels.jsonl"
    labels.write_text(json.dumps({"id": 0, "class": 0}) + "\n")
    assert run(["graph", "--regions", regions, "--out", str(tmp_path / "g.json")]) == 0
    argv = {
        "links": ["propagate", "--links", str(path), "--graph", str(tmp_path / "g.json"),
                  "--out", str(tmp_path / "s.jsonl")],
        "scores": ["infer", "--regions", regions, "--scores", str(path),
                   "--labels", str(labels), "--out", str(tmp_path / "p.jsonl"),
                   "--summary"],
        "hypotheses": ["context", "--regions", regions, "--hypotheses", str(path),
                       "--out", str(tmp_path / "l.jsonl"),
                       "--labels-out", str(tmp_path / "lab.jsonl")],
        "labels": ["infer", "--regions", regions, "--labels", str(path),
                   "--out", str(tmp_path / "p.jsonl")],
        "regions": ["graph", "--regions", str(path), "--out", str(tmp_path / "g2.json")],
        "detections": ["tracks", "--regions", regions, "--detections", str(path),
                       "--out", str(tmp_path / "h.jsonl")],
    }[kind]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"ctxseg {argv[0]}: error: {path}:2: {message.format(n=n)}" in err
    assert "Traceback" not in err


def test_infer_refuses_score_class_without_label(dataset, tmp_path, capsys):
    # checked before training, and named at the scores file
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"m": 1, "n": 10 ** 6, "scores": [[0, 1, 0.5]]}) + "\n")
    labels = tmp_path / "labels.jsonl"
    labels.write_text(json.dumps({"id": 0, "class": 0}) + "\n"
                      + json.dumps({"id": 1, "class": 1}) + "\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["infer", "--regions", str(dataset / "regions.jsonl"), "--scores", str(scores),
                "--labels", str(labels), "--out", str(tmp_path / "p.jsonl")]) == 1
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert len(err) < 1024
    assert (f"ctxseg infer: error: {scores}: class pair (1, 1000000) names class 1000000, "
            "which no region label has") in err


def test_negative_scores_load(tmp_path):
    # prune_eps=0 keeps round-off entries, which can fall just below zero
    path = tmp_path / "scores.jsonl"
    path.write_text(json.dumps({"m": 1, "n": 2, "scores": [[0, 1, -1e-17]]}) + "\n")
    scores = propagation.load_scores(str(path), 3)
    assert scores[(1, 2)].scores.toarray()[0, 1] == -1e-17


def _set_edge(edge):
    """Damage: replace the second edge (a function of the document's n)."""
    return lambda doc: dict(doc, edges=[doc["edges"][0], edge(doc), *doc["edges"][2:]])


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


# damage to the bytes of a good graph.json, by name
GRAPH_TEXT_DAMAGE = {
    "truncated": lambda b: b[:len(b) // 2],
    "not-utf8": lambda b: b"\xff",
    "empty": lambda b: b"",
    "two-records": lambda b: b + b,
    "indented": lambda b: json.dumps(json.loads(b), indent=2).encode(),
}

# (damage to a good graph.json document, message after "<file>:1: ", or after
# "<file>: " for a file that does not hold one record)
MALFORMED_GRAPHS = [
    pytest.param("truncated", "malformed JSON", id="truncated"),
    pytest.param("not-utf8", "not UTF-8 (byte 0xff at column 1)", id="not-utf8"),
    pytest.param("empty", "a graph file holds one record, not 0", id="empty"),
    pytest.param("two-records", "a graph file holds one record, not 2", id="two-records"),
    pytest.param("indented", "malformed JSON (Expecting property name", id="indented"),
    pytest.param(lambda doc: [doc], "record is not an object", id="not-an-object"),
    pytest.param(_drop("n"), "missing or invalid field", id="missing-n"),
    pytest.param(_drop("edges"), "missing or invalid field", id="missing-edges"),
    pytest.param(lambda doc: dict(doc, n=2.5), "n must be an integer, got 2.5",
                 id="fractional-n"),
    pytest.param(_set_edge(lambda doc: [0, 1]), "missing or invalid field", id="short-edge"),
    pytest.param(_set_edge(lambda doc: [0, "x", 0.5]), "missing or invalid field",
                 id="string-index"),
    pytest.param(_set_edge(lambda doc: [0.5, 1, 0.5]),
                 "missing or invalid field (region index must be an integer, got 0.5)",
                 id="fractional-index"),
    pytest.param(_set_edge(lambda doc: [0, 1, float("nan")]),
                 "edges holds a non-finite value", id="nan-weight"),
    pytest.param(_set_edge(lambda doc: [0, 1, float("inf")]),
                 "edges holds a non-finite value", id="infinite-weight"),
    pytest.param(_set_edge(lambda doc: [0, 1, -0.5]), "weight is negative",
                 id="negative-weight"),
    pytest.param(_set_edge(lambda doc: [-1, 1, 0.5]), "negative region index -1",
                 id="negative-index"),
    pytest.param(_set_edge(lambda doc: [0, doc["n"], 0.5]), "out of range [0, ",
                 id="index-n"),
    pytest.param(_set_edge(lambda doc: [1, 0, 0.5]), "needs i < j", id="descending-pair"),
    pytest.param(_set_edge(lambda doc: [1, 1, 0.5]), "needs i < j", id="self-loop"),
    pytest.param(_set_edge(lambda doc: doc["edges"][0]), ") repeats an earlier entry",
                 id="duplicate-pair"),
    pytest.param(_set_edge(lambda doc: ["0", 1, 0.5]),
                 "missing or invalid field (region index must be an integer, got '0')",
                 id="string-first-index"),
    pytest.param(_set_edge(lambda doc: ["0", 1, "0.5"]),
                 "missing or invalid field (region index must be an integer, got '0')",
                 id="string-index-and-weight"),
    pytest.param(_set_edge(lambda doc: [0, 1, "0.5"]),
                 "missing or invalid field (edges: '0.5' is not a number)", id="string-weight"),
    pytest.param(_set_edge(lambda doc: [True, 2, 0.5]),
                 "missing or invalid field (region index must be an integer, got True)",
                 id="boolean-index"),
    pytest.param(lambda doc: dict(doc, k=3.7), "k must be an integer, got 3.7",
                 id="fractional-k"),
    pytest.param(lambda doc: dict(doc, k=-5), "negative k -5", id="negative-k"),
    pytest.param(lambda doc: dict(doc, k=True), "k must be an integer, got True",
                 id="boolean-k"),
    pytest.param(lambda doc: dict(doc, k="7"), "k must be an integer, got '7'",
                 id="string-k"),
]


@pytest.mark.parametrize("damage, message", MALFORMED_GRAPHS)
def test_malformed_graph_exits_with_file_name(dataset, tmp_path, capsys, damage, message):
    path = tmp_path / "graph.json"
    assert run(["graph", "--regions", str(dataset / "regions.jsonl"),
                "--out", str(path)]) == 0
    if isinstance(damage, str):
        path.write_bytes(GRAPH_TEXT_DAMAGE[damage](path.read_bytes()))
    else:
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    links = tmp_path / "links.jsonl"
    links.write_text(json.dumps({"m": 1, "n": 2, "links": [[0, 1]]}) + "\n")
    capsys.readouterr()
    assert run(["propagate", "--links", str(links), "--graph", str(path),
                "--out", str(tmp_path / "s.jsonl")]) == 1
    err = capsys.readouterr().err
    at = "" if message.startswith("a graph file holds") else ":1"
    assert f"ctxseg propagate: error: {path}{at}: " in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "s.jsonl").exists()


def test_graph_integral_floats_read_as_ints(dataset, tmp_path):
    """``n``, ``k`` and edge indices written as integral floats load as their
    ints, as every other integer field does, and dump the same bytes."""
    path = tmp_path / "graph.json"
    assert run(["graph", "--regions", str(dataset / "regions.jsonl"),
                "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(dict(doc, n=float(doc["n"]), k=float(doc["k"]), edges=[
        [float(i), float(j), w] for i, j, w in doc["edges"]])))
    g = graph.load_graph(floats)
    assert type(g.n) is int and g.n == doc["n"] and type(g.k) is int
    graph.dump_graph(g, tmp_path / "again.json")
    assert read(tmp_path / "again.json") == read(path)


def test_chained_stages_reproduce_pipeline_byte_for_byte(dataset, tmp_path):
    pipe = tmp_path / "pipe"
    assert run(["pipeline", "--regions", str(dataset / "regions.jsonl"),
                "--detections", str(dataset / "detections.jsonl"),
                "--out", str(pipe), "--seed", "7"]) == 0

    d = tmp_path / "chain"
    os.makedirs(d)
    regions = str(dataset / "regions.jsonl")
    assert run(["tracks", "--regions", regions,
                "--detections", str(dataset / "detections.jsonl"),
                "--out", str(d / "hypotheses.jsonl"), "--seed", "7"]) == 0
    assert run(["graph", "--regions", regions,
                "--out", str(d / "graph.json"), "--seed", "7"]) == 0
    assert run(["context", "--regions", regions,
                "--hypotheses", str(d / "hypotheses.jsonl"),
                "--out", str(d / "links.jsonl"),
                "--labels-out", str(d / "labels.jsonl"), "--seed", "7"]) == 0
    assert run(["propagate", "--links", str(d / "links.jsonl"),
                "--graph", str(d / "graph.json"),
                "--out", str(d / "scores.jsonl"), "--seed", "7"]) == 0
    assert run(["infer", "--regions", regions,
                "--scores", str(d / "scores.jsonl"),
                "--labels", str(d / "labels.jsonl"),
                "--out", str(d / "labeling.jsonl"), "--seed", "7"]) == 0

    for name in ("hypotheses.jsonl", "graph.json", "links.jsonl",
                 "labels.jsonl", "scores.jsonl", "labeling.jsonl"):
        assert read(pipe / name) == read(d / name), name


def tiled(drop, factors):
    """``tiled_sequence(7, 1, 2, drop)`` with region i's feature times ``factors(n)[i]``."""
    seq, _ = tiled_sequence(7, 1, 2, drop)
    regions_ = [dataclasses.replace(r, feature=r.feature * f)
                for r, f in zip(seq.regions, factors(seq.n))]
    return regions.VideoSequence(regions_, seq.detections)


def trailing_empty_frames():
    """``ambiguity_scenario(7)`` cut to one detected class-1 object over frames
    0-20 of a 25-frame timeline, with no clutter: frames 21-24 hold nothing."""
    base = synthetic.ambiguity_scenario(7)
    obj = dataclasses.replace(base.objects[0], end_frame=20)
    seq, _ = synthetic.generate(dataclasses.replace(
        base, frame_count=25, objects=[obj], background_regions_per_frame=0))
    return seq


# (name, sequence maker): classes dropped from ambiguity_scenario(7), feature
# scales per region, and a timeline that ends in empty frames
DIFFERENTIAL_INPUTS = [
    ("default", lambda: tiled((), np.ones)),
    ("x3", lambda: tiled((), lambda n: np.full(n, 3.0))),
    ("x0.5", lambda: tiled((), lambda n: np.full(n, 0.5))),
    ("per-region", lambda: tiled((), lambda n: np.random.default_rng(5).uniform(0.1, 10.0, n))),
    ("no-1", lambda: tiled((1,), np.ones)),
    ("no-2", lambda: tiled((2,), np.ones)),
    ("no-1-3", lambda: tiled((1, 3), np.ones)),
    ("only-3", lambda: tiled((1, 2), np.ones)),
    ("trailing-empty-frames", trailing_empty_frames),
]


@pytest.mark.parametrize("make_seq", [case[1] for case in DIFFERENTIAL_INPUTS],
                         ids=[case[0] for case in DIFFERENTIAL_INPUTS])
def test_pipeline_in_memory_equals_cli_on_saved_files(tmp_path, monkeypatch, make_seq):
    """``run_pipeline`` on a sequence and ``ctxseg pipeline`` on its saved
    files give the same hypotheses and labeling bytes and energy bits, whatever
    length the features have, whichever class ids the labels skip, and whether
    or not the generator's timeline ends in empty frames."""
    seq = make_seq()
    cfg = PipelineConfig(mu=0.5, seed=7)
    memory = pipeline.run_pipeline(seq, cfg)
    regions.save_labeling(memory.prediction, tmp_path / "memory.jsonl")
    tracking.dump_hypotheses(memory.hypotheses, tmp_path / "memory-hypotheses.jsonl")

    regions.save_sequence(seq, tmp_path / "regions.jsonl", tmp_path / "detections.jsonl")
    infer_stage, runs = pipeline.infer_stage, []
    monkeypatch.setattr(pipeline, "infer_stage",
                        lambda *args: runs.append(infer_stage(*args)) or runs[-1])
    assert run(["pipeline", "--regions", str(tmp_path / "regions.jsonl"),
                "--detections", str(tmp_path / "detections.jsonl"),
                "--out", str(tmp_path / "cli"), "--mu", "0.5", "--seed", "7"]) == 0
    assert (read(tmp_path / "cli" / "hypotheses.jsonl")
            == read(tmp_path / "memory-hypotheses.jsonl"))
    assert read(tmp_path / "cli" / "labeling.jsonl") == read(tmp_path / "memory.jsonl")
    [(_, labeling)] = runs
    assert float(labeling.energy).hex() == float(memory.labeling.energy).hex()


def test_eval_identity_prediction_scores_one(dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["eval", "--regions", str(dataset / "regions.jsonl"),
                "--labeling", str(dataset / "gt.jsonl"),
                "--gt", str(dataset / "gt.jsonl"), "--out", str(out)])
    assert code == 0
    report = json.loads(read(out))
    assert report["mean"] == 1.0
    assert "mean" in capsys.readouterr().out


def test_eval_reads_ground_truth_once(dataset, monkeypatch):
    opened = []
    iter_records = regions._iter_records

    def counting(path):
        opened.append(str(path))
        return iter_records(path)

    monkeypatch.setattr(regions, "_iter_records", counting)
    gt = str(dataset / "gt.jsonl")
    assert run(["eval", "--regions", str(dataset / "regions.jsonl"),
                "--labeling", gt, "--gt", gt]) == 0
    assert opened.count(gt) == 2  # once as the labeling, once as the ground truth


@pytest.mark.parametrize("bad, message", [
    ({"id": 10 ** 6, "class": 1}, "unknown region id 1000000"),
    ({"id": 0, "class": -1}, "negative class -1"),
    ({"id": 0}, "missing or invalid field"),
    ({"id": 0, "class": 1.7}, "missing or invalid field (class must be an integer, got 1.7)"),
    ({"id": 0, "class": 1}, "region id 0 repeats an earlier record"),
    # a labeling skips its summary record; ground truth has none to skip
    ({"energy": 1.0, "sweeps": 2}, "missing or invalid field (id must be an integer, got None)"),
], ids=["unknown-id", "negative-class", "missing-class", "fractional-class", "repeated-id",
        "summary-record"])
def test_eval_bad_ground_truth_exits_with_file_and_line(dataset, tmp_path, capsys,
                                                        bad, message):
    gt = tmp_path / "gt.jsonl"
    gt.write_text(json.dumps({"id": 0, "class": 0}) + "\n" + json.dumps(bad) + "\n")
    capsys.readouterr()
    assert run(["eval", "--regions", str(dataset / "regions.jsonl"),
                "--labeling", str(dataset / "gt.jsonl"), "--gt", str(gt)]) == 1
    err = capsys.readouterr().err
    assert f"ctxseg eval: error: {gt}:2: {message}" in err
    assert "Traceback" not in err


def test_pipeline_and_eval_accept_the_same_ground_truth(dataset, tmp_path):
    """Without its class-3 detections, seed 7 still has class-3 regions in its
    ground truth: ``pipeline --gt`` loads the file as ``eval --gt`` does and
    reports class 3 at IoU 0 as eval does."""
    detections = tmp_path / "detections.jsonl"
    with open(dataset / "detections.jsonl", encoding="utf-8") as fh:
        detections.write_text("".join(line for line in fh if json.loads(line)["class"] != 3))
    regions_path, gt = str(dataset / "regions.jsonl"), str(dataset / "gt.jsonl")
    out = tmp_path / "run"
    assert run(["pipeline", "--regions", regions_path, "--detections", str(detections),
                "--gt", gt, "--out", str(out), "--seed", "7"]) == 0
    report = tmp_path / "report.json"
    assert run(["eval", "--regions", regions_path, "--labeling", str(out / "labeling.jsonl"),
                "--gt", gt, "--out", str(report)]) == 0
    assert read(out / "report.json") == read(report)
    record = json.loads(read(report))
    assert record["per_class"]["3"] == 0.0
    assert record["mean"] == pytest.approx(0.5909, abs=5e-5)


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_labeling_with_misspelled_keys_exits_with_file_and_line(dataset, tmp_path, capsys,
                                                                 command):
    # records keyed "ID" and "Class" are not summary records, so they are
    # refused, not skipped
    labeling = tmp_path / "labeling.jsonl"
    with open(dataset / "gt.jsonl", encoding="utf-8") as fh:
        labeling.write_text("".join(json.dumps({"ID": rec["id"], "Class": rec["class"]}) + "\n"
                                    for rec in map(json.loads, fh)))
    regions_path = str(dataset / "regions.jsonl")
    argv = (["eval", "--regions", regions_path, "--labeling", str(labeling),
             "--gt", str(dataset / "gt.jsonl")] if command == "eval" else
            ["infer", "--regions", regions_path, "--labels", str(labeling),
             "--out", str(tmp_path / "pred.jsonl")])
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert (f"ctxseg {command}: error: {labeling}:1: missing or invalid field "
            "(id must be an integer, got None)") in err
    assert "Traceback" not in err


def test_eval_unknown_labeling_id_exits_with_file_and_line(dataset, tmp_path, capsys):
    labeling = tmp_path / "labeling.jsonl"
    labeling.write_text(json.dumps({"id": 0, "class": 0}) + "\n"
                        + json.dumps({"id": 99999, "class": 1}) + "\n")
    capsys.readouterr()
    assert run(["eval", "--regions", str(dataset / "regions.jsonl"),
                "--labeling", str(labeling), "--gt", str(dataset / "gt.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"ctxseg eval: error: {labeling}:2: unknown region id 99999" in err
    assert "Traceback" not in err


def test_no_context_ablation_scores_lower(dataset, tmp_path):
    full = tmp_path / "full"
    bare = tmp_path / "bare"
    base = ["--regions", str(dataset / "regions.jsonl"),
            "--detections", str(dataset / "detections.jsonl"),
            "--gt", str(dataset / "gt.jsonl"), "--seed", "7", "--mu", "0.5"]
    assert run(["pipeline", *base, "--out", str(full)]) == 0
    assert run(["pipeline", *base, "--out", str(bare), "--no-context"]) == 0
    m_full = json.loads(read(full / "report.json"))["mean"]
    m_bare = json.loads(read(bare / "report.json"))["mean"]
    assert m_full > m_bare
    assert not (bare / "scores.jsonl").exists()


SUBCOMMANDS = ["context", "eval", "graph", "infer", "pipeline", "propagate", "synth", "tracks"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_takes_each_config_flag_once(command, capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == SUBCOMMANDS
    flags = [["--" + f.name.replace("_", "-")] for f in dataclasses.fields(PipelineConfig)]
    assert [a.option_strings for a in cli._config_parser()._actions] == flags
    actions = sub.choices[command]._actions
    for f, flag in zip(dataclasses.fields(PipelineConfig), flags):
        assert [a.option_strings for a in actions if a.dest == f.name] == [flag]
    # the run settings come only as flags: there is no config file
    required = [tok for a in actions if a.required for tok in (a.option_strings[0], "x")]
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *required, "--config", "cfg.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config cfg.json" in capsys.readouterr().err


def test_missing_input_fails_with_diagnostic(tmp_path, capsys):
    code = run(["graph", "--regions", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "g.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "graph" in err and "error" in err


def test_invalid_config_value_rejected(dataset, tmp_path, capsys):
    code = run(["propagate", "--links", str(tmp_path / "x.jsonl"),
                "--graph", str(tmp_path / "g.json"), "--out", str(tmp_path / "s"),
                "--mu", "1.5"])
    assert code == 1
    assert "mu" in capsys.readouterr().err


def test_non_finite_config_flag_rejected(tmp_path, capsys):
    code = run(["pipeline", "--regions", str(tmp_path / "r.jsonl"),
                "--detections", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "o"),
                "--lambda-pair", "inf"])
    assert code == 1
    err = capsys.readouterr().err
    assert "ctxseg pipeline: error: lambda_pair must be finite" in err
    assert "Traceback" not in err


def test_infer_without_scores_is_unary_only(dataset, tmp_path):
    d = tmp_path
    regions = str(dataset / "regions.jsonl")
    assert run(["tracks", "--regions", regions,
                "--detections", str(dataset / "detections.jsonl"),
                "--out", str(d / "h.jsonl"), "--seed", "7"]) == 0
    assert run(["context", "--regions", regions, "--hypotheses", str(d / "h.jsonl"),
                "--out", str(d / "l.jsonl"), "--labels-out", str(d / "lab.jsonl"),
                "--seed", "7"]) == 0
    assert run(["infer", "--regions", regions, "--labels", str(d / "lab.jsonl"),
                "--out", str(d / "pred.jsonl"), "--seed", "7", "--summary"]) == 0
    lines = read(d / "pred.jsonl").decode().strip().splitlines()
    summary = json.loads(lines[-1])
    assert "energy" in summary and "sweeps" in summary


@pytest.mark.parametrize("score", [0.0, 1e-200])
def test_infer_with_scores_that_square_to_zero(dataset, tmp_path, score):
    """Stored scores whose mean square is 0.0 leave beta at 1.0; they cost 0.0,
    so the labeling and the energy are those of a run without scores."""
    d = tmp_path
    regions = str(dataset / "regions.jsonl")
    assert run(["tracks", "--regions", regions,
                "--detections", str(dataset / "detections.jsonl"),
                "--out", str(d / "h.jsonl")]) == 0
    assert run(["context", "--regions", regions, "--hypotheses", str(d / "h.jsonl"),
                "--out", str(d / "l.jsonl"), "--labels-out", str(d / "lab.jsonl")]) == 0
    (d / "s.jsonl").write_text(json.dumps({"m": 1, "n": 2, "scores": [[0, 1, score]]}) + "\n")
    infer = ["infer", "--regions", regions, "--labels", str(d / "lab.jsonl"), "--summary"]
    assert run(infer + ["--scores", str(d / "s.jsonl"), "--out", str(d / "with.jsonl")]) == 0
    assert run(infer + ["--out", str(d / "without.jsonl")]) == 0
    assert read(d / "with.jsonl") == read(d / "without.jsonl")
