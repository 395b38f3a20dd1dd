import time

import numpy as np
import pytest
from problem_gen import pool_associate_trajectories

from ctxseg.regions import Detection, Region, VideoSequence
from ctxseg.tracking import (SOURCE_DETECTION, SOURCE_TRACKER, TrajectoryEntry,
                             TrajectoryHypothesis, _predict, annotated_frames,
                             associate_trajectories, dump_hypotheses, iou_box,
                             load_hypotheses)


class TestIouBox:
    def test_identical(self):
        assert iou_box((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou_box((0, 0, 2, 2), (10, 10, 2, 2)) == 0.0

    def test_partial_overlap(self):
        # intersection 1x2 = 2, union 4 + 4 - 2 = 6
        assert iou_box((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            a = tuple(rng.uniform(0, 10, 2)) + tuple(rng.uniform(0.5, 5, 2))
            b = tuple(rng.uniform(0, 10, 2)) + tuple(rng.uniform(0.5, 5, 2))
            assert iou_box(a, b) == pytest.approx(iou_box(b, a), abs=1e-12)
            assert 0.0 <= iou_box(a, b) <= 1.0


class TestDefaultTracker:
    def test_zero_initial_velocity(self):
        assert _predict(None, (0, (10, 10, 5, 5)), 1) == (10, 10, 5, 5)

    def test_linear_extrapolation(self):
        assert _predict((0, (0, 0, 5, 5)), (1, (4, 0, 5, 5)), 2) == (8, 0, 5, 5)

    def test_backward_extrapolation(self):
        assert _predict((10, (0, 0, 5, 5)), (9, (4, 0, 5, 5)), 8) == (8, 0, 5, 5)


def chain_dets(cls, frames, confs, x0=0.0, step=1.0, size=10.0, y=0.0):
    """Detections of one object drifting slowly so consecutive IoU > 0.5."""
    return [Detection(f, (x0 + step * i, y, size, size), cls, confs[i])
            for i, f in enumerate(frames)]


class TestAssociate:
    def test_three_frame_chain_single_hypothesis(self):
        dets = chain_dets(1, [0, 1, 2], [0.9, 0.8, 0.7])
        hyps = associate_trajectories(dets, 3)
        assert len(hyps) == 1
        h = hyps[0]
        assert h.class_id == 1
        assert h.instance_count == 3
        assert h.seed_confidence == 0.9  # seeded at the top-ranked detection
        assert [e.frame for e in h.entries] == [0, 1, 2]
        assert all(e.source == SOURCE_DETECTION for e in h.entries)

    def test_two_instances_not_retained(self):
        dets = chain_dets(1, [0, 1], [0.9, 0.8])
        hyps = associate_trajectories(dets, 2)
        assert hyps == []

    def test_two_disjoint_tracks_two_hypotheses(self):
        a = chain_dets(1, [0, 1, 2], [0.9, 0.85, 0.8], x0=0.0)
        b = chain_dets(1, [0, 1, 2], [0.7, 0.65, 0.6], x0=100.0)
        # brute-force check that the tracks never overlap above threshold
        for da in a:
            for db in b:
                assert iou_box(da.bbox, db.bbox) <= 0.5
        hyps = associate_trajectories(a + b, 3)
        assert len(hyps) == 2
        assert sorted(h.entries[0].bbox[0] for h in hyps) == [0.0, 100.0]
        assert all(h.instance_count == 3 for h in hyps)

    def test_class_gate_blocks_association(self):
        a = chain_dets(1, [0, 1, 2], [0.9, 0.85, 0.8])
        b = chain_dets(2, [0, 1, 2], [0.7, 0.65, 0.6])  # same boxes, other class
        hyps = associate_trajectories(a + b, 3)
        assert sorted(h.class_id for h in hyps) == [1, 2]

    def test_gap_filled_by_tracker_entries(self):
        dets = [Detection(0, (0, 0, 10, 10), 1, 0.9),
                Detection(1, (1, 0, 10, 10), 1, 0.8),
                Detection(3, (3, 0, 10, 10), 1, 0.7)]
        hyps = associate_trajectories(dets, 4)
        assert len(hyps) == 1
        by_frame = {e.frame: e for e in hyps[0].entries}
        assert by_frame[2].source == SOURCE_TRACKER
        assert hyps[0].instance_count == 3

    def test_direction_stops_after_max_miss(self):
        dets = chain_dets(1, [0, 1, 2], [0.9, 0.8, 0.7])
        hyps = associate_trajectories(dets, 50, max_miss=2)
        frames = [e.frame for e in hyps[0].entries]
        assert max(frames) == 4  # two tracker frames past the last detection
        trailing = [e for e in hyps[0].entries if e.frame > 2]
        assert all(e.source == SOURCE_TRACKER for e in trailing)

    def test_each_detection_consumed_once(self):
        rng = np.random.default_rng(0)
        dets = []
        for t in range(4):  # four overlapping same-class tracks
            dets += chain_dets(1, [0, 1, 2, 3, 4],
                               list(rng.uniform(0.5, 1.0, 5)), x0=30.0 * t)
        hyps = associate_trajectories(dets, 5)
        used = [e.bbox for h in hyps for e in h.entries if e.source == SOURCE_DETECTION]
        assert len(used) == len(set(used))
        assert len(used) <= len(dets)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        dets = []
        for t in range(3):
            dets += chain_dets(1, [0, 1, 2, 3], list(rng.uniform(0.5, 1.0, 4)),
                               x0=25.0 * t)
        h1 = associate_trajectories(list(dets), 4)
        h2 = associate_trajectories(list(dets), 4)
        assert h1 == h2

    def test_frames_strictly_increasing(self):
        dets = chain_dets(2, [0, 1, 2, 3, 4], [0.6, 0.9, 0.7, 0.8, 0.65])
        hyps = associate_trajectories(dets, 5)
        for h in hyps:
            f = [e.frame for e in h.entries]
            assert all(b > a for a, b in zip(f, f[1:]))

    def test_empty_input(self):
        assert associate_trajectories([], 5) == []

    @pytest.mark.parametrize("name", ["min_instances", "max_miss"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_count_below_one_rejected(self, name, value):
        dets = chain_dets(1, [0, 1, 2], [0.9, 0.8, 0.7])
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            associate_trajectories(dets, 3, **{name: value})


def tied_dets(rng, frames, classes=3, count=40):
    """Detections on a coarse grid, so rank keys, IoUs and candidate keys tie,
    with some repeated as equal but distinct objects."""
    dets = [Detection(int(rng.integers(frames)),
                      (float(rng.integers(4)), float(rng.integers(3)),
                       float(rng.choice([4.0, 5.0])), float(rng.choice([4.0, 5.0]))),
                      int(rng.integers(classes)), float(rng.choice([0.5, 0.7, 0.9])))
            for _ in range(count)]
    dets += [Detection(d.frame, d.bbox, d.class_id, d.confidence)
             for d in dets if rng.random() < 0.3]
    return [dets[i] for i in rng.permutation(len(dets))]


class TestAssociateMatchesPoolScan:
    @pytest.mark.parametrize("iou_threshold", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_pool_scan_oracle(self, seed, iou_threshold):
        rng = np.random.default_rng([seed, int(iou_threshold * 10)])
        for _ in range(25):
            frames = int(rng.integers(1, 12))
            dets = tied_dets(rng, frames)
            settings = dict(iou_threshold=iou_threshold,
                            min_instances=int(rng.integers(1, 5)),
                            max_miss=int(rng.integers(1, 5)))
            assert (associate_trajectories(dets, frames, **settings)
                    == pool_associate_trajectories(dets, frames, **settings))

    def test_long_video_is_linear_in_frames(self):
        frames = 6000
        rng = np.random.default_rng(0)
        dets = [Detection(f, (x, 0.0, 10.0, 10.0), 1, float(rng.uniform(0.5, 1.0)))
                for f in range(frames) for x in (0.0, 100.0)]
        start = time.perf_counter()
        hyps = associate_trajectories(dets, frames)
        elapsed = time.perf_counter() - start
        assert sorted(h.entries[0].bbox[0] for h in hyps) == [0.0, 100.0]
        assert all(h.instance_count == frames for h in hyps)
        assert elapsed < 1.0


def region(rid, frame, bbox, area=100):
    return Region(rid, frame, np.array([1.0, 0.0]), area, bbox)


def hyp(cls, frame_boxes, conf=0.9):
    return TrajectoryHypothesis(
        cls, [TrajectoryEntry(f, b, SOURCE_DETECTION) for f, b in frame_boxes], conf)


class TestAnnotatedFrames:
    def test_contained_region_takes_class(self):
        seq = VideoSequence([region(0, 0, (2, 2, 4, 4))], [])
        frames, labels = annotated_frames([hyp(3, [(0, (0, 0, 10, 10))])], seq)
        assert frames == frozenset({0})
        assert labels == {0: 3}

    def test_unmatched_region_becomes_background(self):
        seq = VideoSequence([region(0, 0, (50, 50, 4, 4))], [])
        _, labels = annotated_frames([hyp(3, [(0, (0, 0, 10, 10))])], seq)
        assert labels == {0: 0}

    def test_region_outside_annotated_frames_unlabeled(self):
        seq = VideoSequence([region(0, 1, (0, 0, 4, 4))], [])
        frames, labels = annotated_frames([hyp(3, [(0, (0, 0, 10, 10))])], seq)
        assert 1 not in frames
        assert labels == {}

    def test_region_without_bbox_warns_and_skips(self, caplog):
        r = Region(0, 0, np.array([1.0, 0.0]), 10, None)
        seq = VideoSequence([r], [])
        with caplog.at_level("WARNING"):
            _, labels = annotated_frames([hyp(1, [(0, (0, 0, 10, 10))])], seq)
        assert labels == {}
        assert any("no bbox" in m for m in caplog.messages)

    def test_tie_goes_to_higher_seed_confidence_then_smaller_class(self):
        seq = VideoSequence([region(0, 0, (0, 0, 4, 4))], [])
        box = (0, 0, 10, 10)
        _, labels = annotated_frames(
            [hyp(5, [(0, box)], conf=0.7), hyp(2, [(0, box)], conf=0.9)], seq)
        assert labels == {0: 2}
        _, labels = annotated_frames(
            [hyp(5, [(0, box)], conf=0.9), hyp(2, [(0, box)], conf=0.9)], seq)
        assert labels == {0: 2}

    def test_fraction_threshold_rho(self):
        # 40% of the region bbox inside the hypothesis box
        seq = VideoSequence([region(0, 0, (0, 0, 10, 10))], [])
        h = [hyp(1, [(0, (0, 0, 10, 4))])]
        _, labels = annotated_frames(h, seq, rho=0.5)
        assert labels == {0: 0}
        _, labels = annotated_frames(h, seq, rho=0.4)
        assert labels == {0: 1}


def test_hypotheses_dump_roundtrip(tmp_path):
    dets = chain_dets(1, [0, 1, 2], [0.9, 0.8, 0.7])
    hyps = associate_trajectories(dets, 5)
    path = tmp_path / "hyps.jsonl"
    dump_hypotheses(hyps, path)
    assert load_hypotheses(path) == hyps
