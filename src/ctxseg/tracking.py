"""Greedy association of detections into class-tagged trajectory hypotheses.

Detections are consumed highest-confidence first: the top detection seeds a
constant-velocity box tracker (a stand-in for a learned one) that runs toward
both ends of the video, absorbing same-class detections that overlap the
predicted box. Hypotheses keeping fewer than ``min_instances`` detections are
discarded, but the detections they consumed stay consumed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .regions import (Box, Detection, IngestError, VideoSequence, _float, _floats,
                      _ints, _iter_records, write_records)

log = logging.getLogger(__name__)

SOURCE_DETECTION = "det"
SOURCE_TRACKER = "trk"


def _intersection_area(a: Box, b: Box) -> float:
    iw = max(0.0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    return iw * ih


def iou_box(a: Box, b: Box) -> float:
    """Intersection-over-union of two (x, y, w, h) boxes; 0 when disjoint."""
    inter = _intersection_area(a, b)
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


@dataclass(frozen=True)
class TrajectoryEntry:
    frame: int
    bbox: Box
    source: str  # SOURCE_DETECTION or SOURCE_TRACKER


@dataclass
class TrajectoryHypothesis:
    class_id: int
    entries: list[TrajectoryEntry]
    seed_confidence: float

    @property
    def instance_count(self) -> int:
        return sum(1 for e in self.entries if e.source == SOURCE_DETECTION)


def _predict(prev: Optional[tuple[int, Box]], last: tuple[int, Box], frame: int) -> Box:
    """Box expected at ``frame``, moving at the velocity from ``prev`` to ``last``.

    Without ``prev`` the velocity is zero. Box size is held at ``last``'s.
    """
    f1, b1 = last
    if prev is not None:
        f0, b0 = prev
        vx = (b1[0] - b0[0]) / (f1 - f0)
        vy = (b1[1] - b0[1]) / (f1 - f0)
    else:
        vx = vy = 0.0
    dt = frame - f1
    return (b1[0] + vx * dt, b1[1] + vy * dt, b1[2], b1[3])


def _rank_key(d: Detection):
    # confidence desc, then frame, then smaller x / y / class for determinism
    return (-d.confidence, d.frame, d.bbox[0], d.bbox[1], d.class_id)


def associate_trajectories(dets: list[Detection], frame_count: int,
                           iou_threshold: float = 0.5, min_instances: int = 3,
                           max_miss: int = 5) -> list[TrajectoryHypothesis]:
    """Greedy confidence-ranked association of thresholded detections.

    Walks the detections in rank order (confidence descending, then frame,
    x, y, class). Each one still unconsumed seeds a hypothesis: track toward
    both video ends, and in each visited frame absorb the same-class
    detection whose IoU with the predicted box strictly exceeds
    ``iou_threshold``, first by (IoU descending, confidence descending, x,
    y), then rank order (predictions then extrapolate from it and the box
    accepted before it); otherwise keep the predicted box. A direction stops
    at the video boundary or after ``max_miss`` consecutive prediction-only
    frames. Hypotheses with at least ``min_instances`` detection-sourced
    entries are retained; either way the consumed detections never return.
    A visited frame reads only its own cell of a (frame, class) index, so
    the cost is linear in frames plus detections while cells stay small.

    ValueError: ``iou_threshold`` outside [0, 1], or ``min_instances`` or
    ``max_miss`` below 1.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must lie in [0, 1]")
    if min_instances < 1:
        raise ValueError(f"min_instances must be >= 1, got {min_instances}")
    if max_miss < 1:
        raise ValueError(f"max_miss must be >= 1, got {max_miss}")
    ranked = sorted(dets, key=_rank_key)
    cells: dict[tuple[int, int], list[Detection]] = {}  # unconsumed, in rank order
    for d in ranked:
        cells.setdefault((d.frame, d.class_id), []).append(d)
    retained: list[TrajectoryHypothesis] = []
    for seed in ranked:
        own = cells[seed.frame, seed.class_id]
        if not own or own[0] is not seed:  # consumed by an earlier hypothesis
            continue
        del own[0]
        entries = {seed.frame: TrajectoryEntry(seed.frame, seed.bbox, SOURCE_DETECTION)}
        for direction in (1, -1):
            prev, last = None, (seed.frame, seed.bbox)
            misses = 0
            f = seed.frame + direction
            while 0 <= f < frame_count and misses < max_miss:
                pred = _predict(prev, last, f)
                cands = cells.get((f, seed.class_id), [])
                best = min((d for d in cands if iou_box(pred, d.bbox) > iou_threshold),
                           key=lambda d: (-iou_box(pred, d.bbox), -d.confidence,
                                          d.bbox[0], d.bbox[1]), default=None)
                if best is not None:
                    entries[f] = TrajectoryEntry(f, best.bbox, SOURCE_DETECTION)
                    cands.remove(best)  # an equal detection before it would have won
                    prev, last = last, (f, best.bbox)
                    misses = 0
                else:
                    entries[f] = TrajectoryEntry(f, pred, SOURCE_TRACKER)
                    misses += 1
                f += direction
        hyp = TrajectoryHypothesis(
            class_id=seed.class_id,
            entries=[entries[f] for f in sorted(entries)],
            seed_confidence=seed.confidence)
        if hyp.instance_count >= min_instances:
            retained.append(hyp)
    return retained


def annotated_frames(hyps: list[TrajectoryHypothesis], seq: VideoSequence,
                     rho: float = 0.5) -> tuple[frozenset[int], dict[int, int]]:
    """Frames covered by hypotheses, and the region labeling they induce.

    A region in a covered frame takes the class of the hypothesis box that
    ranks first by (the fraction of the region's bbox area inside the box,
    seed confidence, smaller class id) if that fraction is at least ``rho``,
    and background 0 otherwise. Regions without a bbox in a covered frame
    are skipped with a warning and stay unlabeled.

    ValueError: ``rho`` outside (0, 1].
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    by_frame: dict[int, list[tuple[TrajectoryHypothesis, TrajectoryEntry]]] = {}
    for h in hyps:
        for e in h.entries:
            by_frame.setdefault(e.frame, []).append((h, e))
    frames = frozenset(by_frame)

    labels: dict[int, int] = {}
    for r in seq.regions:
        if r.frame not in frames:
            continue
        if r.bbox is None:
            log.warning("region %d lies in an annotated frame but has no bbox; "
                        "left unlabeled", r.region_id)
            continue
        area = r.bbox[2] * r.bbox[3]
        frac, _, neg_class = max((_intersection_area(r.bbox, e.bbox) / area,
                                  h.seed_confidence, -h.class_id)
                                 for h, e in by_frame[r.frame])
        labels[r.region_id] = -neg_class if frac >= rho else 0
    return frames, labels


def dump_hypotheses(hyps: list[TrajectoryHypothesis], path) -> None:
    """One JSON line per hypothesis: class, entries, and seed confidence.

    Seed confidence is carried so that labelings rebuilt from the dump break
    ties exactly as the in-memory pipeline does.
    """
    write_records(path, ({
        "class": h.class_id,
        "seed_confidence": float(h.seed_confidence),
        "entries": [{"frame": e.frame, "bbox": [float(v) for v in e.bbox],
                     "source": e.source} for e in h.entries],
    } for h in hyps))


def load_hypotheses(path) -> list[TrajectoryHypothesis]:
    out: list[TrajectoryHypothesis] = []
    for where, rec in _iter_records(path):
        [class_id] = _ints(where, rec, "class")
        seed_confidence = _float(where, "seed_confidence", rec.get("seed_confidence", 0.0))
        raw = rec.get("entries")
        if type(raw) is not list or any(type(e) is not dict for e in raw):
            raise IngestError(f"{where}: missing or invalid field "
                              "(entries must be a list of objects)")
        entries = []
        for e in raw:
            source = e.get("source")
            if source not in (SOURCE_DETECTION, SOURCE_TRACKER):
                raise IngestError(f"{where}: missing or invalid field (source must be "
                                  f"{SOURCE_DETECTION!r} or {SOURCE_TRACKER!r}, got {source!r})")
            [frame] = _ints(where, e, "frame")
            bbox = tuple(_floats(where, "bbox", e.get("bbox"), 4))
            if bbox[2] <= 0 or bbox[3] <= 0:
                raise IngestError(f"{where}: hypothesis entry bbox extents must be positive")
            entries.append(TrajectoryEntry(frame, bbox, source))
        out.append(TrajectoryHypothesis(class_id, entries, seed_confidence))
    return out
