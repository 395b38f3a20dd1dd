import json
import math
import re

import numpy as np
import pytest
from problem_gen import dumps_rows, tiled_sequence

from ctxseg import pipeline, tracking
from ctxseg.cli import main
from ctxseg.context import dump_links, load_links
from ctxseg.graph import SimilarityGraph, build_knn_graph, dump_graph
from ctxseg.pipeline import PipelineConfig
from ctxseg.propagation import LinkScoreMatrix, dump_scores, load_scores, predict_all_links
from ctxseg.regions import (WRITE_ROWS, Detection, IngestError, Region, SparseMatrix,
                            VideoSequence, filter_detections, load_ground_truth,
                            load_labeling, load_sequence, save_labeling, save_sequence)
from ctxseg.tracking import dump_hypotheses, load_hypotheses


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def region_rec(rid, frame=0, feature=(1.0, 0.0), area=10, bbox=None):
    rec = {"id": rid, "frame": frame, "feature": list(feature), "area": area}
    if bbox is not None:
        rec["bbox"] = list(bbox)
    return rec


def det_rec(frame=0, bbox=(0, 0, 10, 10), cls=1, conf=0.9):
    return {"frame": frame, "bbox": list(bbox), "class": cls, "confidence": conf}


def test_l2_normalization_3_4_5(tmp_path):
    # the reader keeps [3, 4] as written; the graph scales it to [0.6, 0.8]
    p = write_jsonl(tmp_path / "r.jsonl", [region_rec(0, feature=[3.0, 4.0]),
                                           region_rec(1, feature=[0.0, 1.0])])
    seq = load_sequence(p)
    assert np.array_equal(seq.regions[0].feature, np.array([3.0, 4.0]))
    W = build_knn_graph(seq, 1).affinity
    assert W.row.tolist() == [0, 1] and W.col.tolist() == [1, 0]
    assert W.data.tolist() == [0.8, 0.8]


def test_zero_feature_kept(tmp_path):
    p = write_jsonl(tmp_path / "r.jsonl", [region_rec(0, feature=[0.0, 0.0])])
    seq = load_sequence(p)
    assert np.array_equal(seq.regions[0].feature, np.zeros(2))


def test_duplicate_region_id_names_offender(tmp_path):
    p = write_jsonl(tmp_path / "r.jsonl",
                    [region_rec(7), region_rec(7, frame=1)])
    with pytest.raises(IngestError, match="7"):
        load_sequence(p)


def test_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "r.jsonl"
    with open(p, "w") as fh:
        fh.write(json.dumps(region_rec(0)) + "\n")
        fh.write("{ not json\n")
    with pytest.raises(IngestError, match=":2"):
        load_sequence(p)


def test_feature_dimension_mismatch(tmp_path):
    p = write_jsonl(tmp_path / "r.jsonl",
                    [region_rec(0, feature=[1, 0]), region_rec(1, feature=[1, 0, 0])])
    with pytest.raises(IngestError, match="dimension"):
        load_sequence(p)


@pytest.mark.parametrize("features, message", [
    ([np.ones(2), np.ones(3)], "region 1: feature dimension 3 != 2"),
    ([np.array(1.0)], "region 0: feature dimension () != 1"),
    ([np.ones(2), np.array(1.0)], "region 1: feature dimension () != 2"),
], ids=["longer", "0-d-first", "0-d-second"])
def test_in_memory_feature_dimension_rejected(features, message):
    # a 0-d feature has no shape[0]; it is refused, not an IndexError
    regions = [Region(i, 0, f, 10) for i, f in enumerate(features)]
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        VideoSequence(regions, [])


def test_frame_count_spans_last_region_or_detection_frame():
    regions = [Region(0, 2, np.ones(2), 10)]
    assert VideoSequence(regions, []).frame_count == 3
    det = Detection(6, (0.0, 0.0, 10.0, 10.0), 1, 0.9)
    assert VideoSequence(regions, [det]).frame_count == 7


def test_negative_detection_class_rejected(tmp_path):
    seq = load_sequence(write_jsonl(tmp_path / "r.jsonl", [region_rec(0)]))
    det = Detection(0, (0.0, 0.0, 10.0, 10.0), -1, 0.9)
    with pytest.raises(IngestError, match="^negative detection class$"):
        VideoSequence(seq.regions, [det])


def test_nonpositive_area_rejected(tmp_path):
    p = write_jsonl(tmp_path / "r.jsonl", [region_rec(0, area=0)])
    with pytest.raises(IngestError, match="area"):
        load_sequence(p)


def test_bbox_area_underflow_rejected_with_location(tmp_path):
    # each extent is positive, but w * h rounds to 0.0
    tiny = region_rec(1, bbox=[0, 0, 1e-200, 1e-200])
    p = write_jsonl(tmp_path / "r.jsonl", [region_rec(0, bbox=[0, 0, 4, 4]), tiny])
    with pytest.raises(IngestError, match=r"r\.jsonl:2: region 1: bbox area must be positive$"):
        load_sequence(p)
    feature = np.array([1.0, 0.0])
    with pytest.raises(IngestError, match="^region 1: bbox area must be positive$"):
        VideoSequence([Region(1, 0, feature, 10, (0.0, 0.0, 1e-200, 1e-200))], [])


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_feature_rejected_with_location(tmp_path, bad):
    p = write_jsonl(tmp_path / "r.jsonl",
                    [region_rec(0), region_rec(1, feature=[1.0, bad])])
    with pytest.raises(IngestError, match=r"r\.jsonl:2: feature holds a non-finite"):
        load_sequence(p)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_bbox_rejected_with_location(tmp_path, bad):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0, bbox=[0, 0, bad, 4])])
    with pytest.raises(IngestError, match=r"r\.jsonl:1: bbox holds a non-finite"):
        load_sequence(r)
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    d = write_jsonl(tmp_path / "d.jsonl", [det_rec(), det_rec(bbox=(bad, 0, 10, 10))])
    with pytest.raises(IngestError, match=r"d\.jsonl:2: bbox holds a non-finite"):
        load_sequence(r, d)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_confidence_rejected_with_location(tmp_path, bad):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    d = write_jsonl(tmp_path / "d.jsonl", [det_rec(conf=bad)])
    with pytest.raises(IngestError, match=r"d\.jsonl:1: confidence holds a non-finite value"):
        load_sequence(r, d)


def test_filter_detections_strictly_exceeds(tmp_path):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    d = write_jsonl(tmp_path / "d.jsonl",
                    [det_rec(conf=0.4), det_rec(conf=0.5), det_rec(conf=0.9)])
    seq = load_sequence(r, d)
    kept = filter_detections(seq, 0.5)
    assert [k.confidence for k in kept] == [0.9]


def test_filter_detections_zero_threshold_keeps_all_in_order(tmp_path):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    d = write_jsonl(tmp_path / "d.jsonl",
                    [det_rec(conf=0.7), det_rec(conf=0.2), det_rec(conf=0.9)])
    seq = load_sequence(r, d)
    assert [k.confidence for k in filter_detections(seq, 0.0)] == [0.7, 0.2, 0.9]


def test_filter_detections_empty(tmp_path):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    seq = load_sequence(r)
    assert filter_detections(seq, 0.5) == []


def test_ground_truth_roundtrip(tmp_path):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0), region_rec(1, frame=1)])
    d = write_jsonl(tmp_path / "d.jsonl", [det_rec(cls=2)])
    g = write_jsonl(tmp_path / "g.jsonl", [{"id": 0, "class": 1}, {"id": 1, "class": 2}])
    seq = load_sequence(r, d)
    assert load_ground_truth(g, seq) == {0: 1, 1: 2}


def test_ground_truth_unknown_id(tmp_path):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    g = write_jsonl(tmp_path / "g.jsonl", [{"id": 999, "class": 0}])
    seq = load_sequence(r)
    with pytest.raises(IngestError, match="999"):
        load_ground_truth(g, seq)


def test_ground_truth_class_out_of_range(tmp_path):
    """A class that no detection has loads: the label space comes from the
    labels, not the detections. A negative class is still refused."""
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    seq = load_sequence(r)  # no detections
    g = write_jsonl(tmp_path / "g.jsonl", [{"id": 0, "class": 3}])
    assert load_ground_truth(g, seq) == {0: 3}
    g = write_jsonl(tmp_path / "neg.jsonl", [{"id": 0, "class": -1}])
    with pytest.raises(IngestError, match=r"neg.jsonl:1: negative class -1"):
        load_ground_truth(g, seq)


def test_ground_truth_empty_file(tmp_path):
    r = write_jsonl(tmp_path / "r.jsonl", [region_rec(0)])
    g = tmp_path / "g.jsonl"
    g.touch()
    assert load_ground_truth(g, load_sequence(r)) == {}


@pytest.mark.parametrize("record, skipped", [
    ({"energy": -1.5, "sweeps": 2}, True),
    ({"energy": -1.5}, True),
    ({"sweeps": 2}, True),
    ({}, False),
    ({"ID": 1, "Class": 2}, False),
    ({"energy": -1.5, "sweeps": 2, "note": "x"}, False),
], ids=["summary", "energy-only", "sweeps-only", "empty", "misspelled", "extra-key"])
def test_labeling_skips_only_summary_records(tmp_path, record, skipped):
    # a record whose keys are all summary keys is skipped; any other one is read
    # as a region label, so a record without id and class is refused, not skipped
    g = write_jsonl(tmp_path / "g.jsonl", [{"id": 0, "class": 1}, record])
    if skipped:
        assert load_labeling(g) == {0: 1}
    else:
        with pytest.raises(IngestError, match=r"g.jsonl:2: missing or invalid field "
                                              r"\(id must be an integer, got None\)"):
            load_labeling(g)


def test_ingest_idempotent_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    recs = [region_rec(i, frame=i % 4, feature=rng.standard_normal(6).tolist(),
                       area=int(rng.integers(1, 100)), bbox=[1.5, 2.0, 3.25, 4.0])
            for i in range(20)]
    dets = [det_rec(frame=i % 4, conf=float(rng.random())) for i in range(10)]
    r1 = write_jsonl(tmp_path / "r1.jsonl", recs)
    d1 = write_jsonl(tmp_path / "d1.jsonl", dets)
    seq1 = load_sequence(r1, d1)
    save_sequence(seq1, tmp_path / "r2.jsonl", tmp_path / "d2.jsonl")
    seq2 = load_sequence(tmp_path / "r2.jsonl", tmp_path / "d2.jsonl")
    assert seq1.frame_count == seq2.frame_count
    for a, b in zip(seq1.regions, seq2.regions):
        assert a.region_id == b.region_id and a.frame == b.frame
        assert a.area == b.area and a.bbox == b.bbox
        assert np.array_equal(a.feature, b.feature)
    assert seq1.detections == seq2.detections


def test_features_unit_norm_after_load(tmp_path):
    """Features load as written, and the graph of the loaded sequence is that of
    its features each divided by ``math.sqrt(f.dot(f))``, bit for bit."""
    rng = np.random.default_rng(11)
    recs = [region_rec(i, feature=(rng.standard_normal(8) * 10).tolist())
            for i in range(30)]
    recs[3]["feature"] = [0.0] * 8
    seq = load_sequence(write_jsonl(tmp_path / "r.jsonl", recs))
    unit = []
    for r, rec in zip(seq.regions, recs):
        assert r.feature.tolist() == rec["feature"]
        norm = math.sqrt(r.feature.dot(r.feature))
        unit.append(r.feature / norm if norm else r.feature)
        assert norm == 0.0 or abs(1.0 - np.linalg.norm(unit[-1])) <= 1e-6
    ref = VideoSequence([Region(r.region_id, r.frame, f, r.area)
                         for r, f in zip(seq.regions, unit)], [])
    dump_graph(build_knn_graph(seq, 5), tmp_path / "loaded.json")
    dump_graph(build_knn_graph(ref, 5), tmp_path / "unit.json")
    assert (tmp_path / "loaded.json").read_bytes() == (tmp_path / "unit.json").read_bytes()


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    """Every JSON-lines stage file the CLI writes for one synthetic video.

    ``bare_regions.jsonl`` drops the bbox of every other region, and
    ``summary.jsonl`` is an ``infer --summary`` labeling.
    """
    root = tmp_path_factory.mktemp("stage")
    data, run = root / "data", root / "run"
    assert main(["synth", "--seed", "7", "--out", str(data)]) == 0
    assert main(["pipeline", "--regions", str(data / "regions.jsonl"),
                 "--detections", str(data / "detections.jsonl"),
                 "--gt", str(data / "gt.jsonl"), "--seed", "7", "--out", str(run)]) == 0
    assert main(["infer", "--regions", str(data / "regions.jsonl"),
                 "--scores", str(run / "scores.jsonl"), "--labels", str(run / "labels.jsonl"),
                 "--summary", "--seed", "7", "--out", str(root / "summary.jsonl")]) == 0
    with open(data / "regions.jsonl", encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    for rec in recs[::2]:
        del rec["bbox"]
    write_jsonl(root / "bare_regions.jsonl", recs)
    assert "energy" in last_record(root / "summary.jsonl")
    return root


def last_record(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readlines()[-1])


def region_count(root):
    return load_sequence(root / "data" / "regions.jsonl").n


# (file under the stage_files root, load -> dump into dst)
ROUND_TRIPS = {
    "regions": ("data/regions.jsonl",
                lambda root, src, dst: save_sequence(load_sequence(src), dst)),
    "regions-without-bbox": ("bare_regions.jsonl",
                             lambda root, src, dst: save_sequence(load_sequence(src), dst)),
    "detections": ("data/detections.jsonl", lambda root, src, dst: save_sequence(
        load_sequence(root / "data" / "regions.jsonl", src), dst.with_name("r.jsonl"), dst)),
    "ground-truth": ("data/gt.jsonl",
                     lambda root, src, dst: save_labeling(load_labeling(src), dst)),
    "labels": ("run/labels.jsonl",
               lambda root, src, dst: save_labeling(load_labeling(src), dst)),
    "labeling": ("run/labeling.jsonl",
                 lambda root, src, dst: save_labeling(load_labeling(src), dst)),
    "labeling-with-summary": ("summary.jsonl", lambda root, src, dst: save_labeling(
        load_labeling(src), dst, summary=last_record(src))),
    "hypotheses": ("run/hypotheses.jsonl",
                   lambda root, src, dst: dump_hypotheses(load_hypotheses(src), dst)),
    "links": ("run/links.jsonl", lambda root, src, dst: dump_links(
        load_links(src, region_count(root)), dst)),
    "scores": ("run/scores.jsonl", lambda root, src, dst: dump_scores(
        load_scores(src, region_count(root)), dst)),
}


@pytest.mark.parametrize("kind", ROUND_TRIPS)
def test_stage_file_load_dump_reproduces_bytes(stage_files, tmp_path, kind):
    rel, roundtrip = ROUND_TRIPS[kind]
    src, dst = stage_files / rel, tmp_path / "out.jsonl"
    roundtrip(stage_files, src, dst)
    assert dst.read_bytes() == src.read_bytes()
    # and the file is plain json.dumps lines, whatever wrote it
    lines = src.read_text(encoding="utf-8").splitlines()
    assert lines and all(json.dumps(json.loads(line)) == line for line in lines)


# Each dump's bytes are those of one json.dumps of the whole document
# (problem_gen.dumps_rows), on either side of every block boundary.

def assert_dumped(dump, data, path, expected):
    """``dump(data, path)`` writes ``expected``; a mismatch names its first offset
    (pytest's diff of two such texts would take minutes)."""
    dump(data, path)
    got = path.read_text(encoding="utf-8")
    if got != expected:
        at = next((p for p, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        lo = max(at - 40, 0)
        pytest.fail(f"{path.name} differs at offset {at}: "
                    f"{got[lo:at + 40]!r} != {expected[lo:at + 40]!r}")


def graph_oracle(g):
    W = g.affinity
    upper = W.row < W.col
    return dumps_rows({"n": g.n, "k": g.k}, "edges",
                      (W.row[upper], W.col[upper], W.data[upper]))


def pairs_oracle(matrices, key, width):
    return "".join(dumps_rows({"m": m, "n": n}, key, (M.row, M.col, M.data)[:width])
                   for (m, n), M in sorted(matrices.items()))


def edge_values(rows):
    """``rows`` upper-triangle positions of the smallest n that holds them. The
    values next to the first block boundary and the last value are -0.0, the
    least subnormal and the largest float."""
    n = int(np.ceil((1 + np.sqrt(1 + 8 * rows)) / 2))
    i, j = np.triu_indices(n, 1)
    w = np.random.default_rng(rows).random(rows)
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -0.0]
    for at, v in zip([0, WRITE_ROWS - 1, WRITE_ROWS, rows - 1], extremes):
        if 0 <= at < rows:
            w[at] = v
    return n, i[:rows], j[:rows], w


@pytest.mark.parametrize("rows", [0, 1, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1,
                                  3 * WRITE_ROWS + 5])
def test_dumps_match_whole_document_bytes(tmp_path, rows):
    n, i, j, w = edge_values(rows)
    W = SparseMatrix.from_entries(np.r_[i, j], np.r_[j, i], np.r_[w, w], (n, n))
    g = SimilarityGraph(n=n, k=3, affinity=W, operator=None)
    assert_dumped(dump_graph, g, tmp_path / "graph.json", graph_oracle(g))

    matrices = {(2, 1): SparseMatrix.from_entries(j, i, w, (n, n)),
                (0, 3): SparseMatrix.from_entries(i[::-1], j[::-1], w, (n, n))}
    assert_dumped(dump_links, matrices, tmp_path / "links.jsonl",
                  pairs_oracle(matrices, "links", 2))
    assert_dumped(dump_scores, {pair: LinkScoreMatrix(M) for pair, M in matrices.items()},
                  tmp_path / "scores.jsonl", pairs_oracle(matrices, "scores", 3))


def test_dumps_match_whole_document_bytes_on_ctx_mu95(tmp_path):
    seq, _ = tiled_sequence(200, 2, 4)
    cfg = PipelineConfig(mu=0.95, seed=200)
    frames, labels = tracking.annotated_frames(pipeline.tracks_stage(seq), seq)
    links = pipeline.links_stage(seq, frames, labels)
    g = build_knn_graph(seq, cfg.k)
    scores = predict_all_links(links, g.operator, cfg.mu)
    assert g.affinity.nnz // 2 == 4431
    assert max(s.scores.nnz for s in scores.values()) > WRITE_ROWS
    assert_dumped(dump_graph, g, tmp_path / "graph.json", graph_oracle(g))
    assert_dumped(dump_links, links, tmp_path / "links.jsonl", pairs_oracle(links, "links", 2))
    assert_dumped(dump_scores, scores, tmp_path / "scores.jsonl",
                  pairs_oracle({p: s.scores for p, s in scores.items()}, "scores", 3))
