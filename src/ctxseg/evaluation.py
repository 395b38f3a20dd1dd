"""Region-level IoU scoring of a predicted labeling against ground truth.

Regions are the atomic units, weighted by pixel area: for a class c the
intersection is the total area of regions labeled c by both maps and the
union the total area labeled c by either. Background never enters the mean.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .context import BACKGROUND
from .regions import VideoSequence


@dataclass
class EvalReport:
    per_class_iou: dict[int, float]
    mean_iou: float
    gt_regions: dict[int, int]
    pred_regions: dict[int, int]

    def to_record(self) -> dict:
        """The ``report.json`` record."""
        return {"per_class": {str(c): v for c, v in sorted(self.per_class_iou.items())},
                "mean": self.mean_iou}

    def format_table(self) -> str:
        lines = [f"{'class':>8} {'iou':>10} {'gt_regions':>12} {'pred_regions':>13}"]
        for c in sorted(self.per_class_iou):
            lines.append(f"{c:>8d} {self.per_class_iou[c]:>10.4f} "
                         f"{self.gt_regions.get(c, 0):>12d} "
                         f"{self.pred_regions.get(c, 0):>13d}")
        lines.append(f"{'mean':>8} {self.mean_iou:>10.4f}")
        return "\n".join(lines)


def iou_per_class(pred: Mapping[int, int], gt: Mapping[int, int],
                  seq: VideoSequence) -> EvalReport:
    """Area-weighted IoU per non-background class, mean over gt classes, in one
    pass over the ids. Classes appearing in neither map are skipped; the mean
    runs over the non-background classes present in the ground truth.
    """
    if not gt:
        raise ValueError("ground truth is empty")
    for rid in gt:
        seq.index_of(rid)  # raises on unknown ids

    inter, union = Counter(), Counter()
    for rid in set(pred) | set(gt):
        p, g = pred.get(rid), gt.get(rid)
        classes = {p, g} - {BACKGROUND, None}
        if not classes:  # background or absent in both: its id is not looked up
            continue
        area = seq.region(rid).area
        for c in classes:
            union[c] += area
        if p == g:
            inter[p] += area
    # every area is positive, so each class named by either map has a union
    per_class = {c: inter[c] / union[c] for c in sorted(union)}

    gt_classes = sorted(set(gt.values()) - {BACKGROUND})
    mean = (sum(per_class[c] for c in gt_classes) / len(gt_classes)
            if gt_classes else 0.0)
    return EvalReport(per_class, mean, Counter(gt.values()), Counter(pred.values()))
