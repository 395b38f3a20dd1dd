"""Associate noisy detections into trajectory hypotheses.

Two objects of the same class cross the frame on separate paths, with one
missed detection in the middle of the first track. The greedy association
seeds at the highest-confidence detection, tracks toward both video ends,
bridges the gap with constant-velocity predictions, and discards a spurious
two-detection track.
"""

import numpy as np

from ctxseg.tracking import annotated_frames, associate_trajectories
from ctxseg.regions import Detection, Region, VideoSequence

print(__doc__)

rng = np.random.default_rng(3)
detections = []
# object A: frames 0..7, missing frame 4, drifting right
for f in range(8):
    if f == 4:
        continue
    detections.append(Detection(f, (10.0 + 3 * f + rng.normal(0, 0.5), 20.0,
                                    30.0, 30.0), 1, float(rng.uniform(0.7, 0.95))))
# object B: frames 2..6, drifting down, same class, far away
for f in range(2, 7):
    detections.append(Detection(f, (200.0, 40.0 + 4 * f + rng.normal(0, 0.5),
                                    30.0, 30.0), 1, float(rng.uniform(0.6, 0.8))))
# a lone pair of detections that cannot form a hypothesis
detections.append(Detection(0, (150.0, 150.0, 20.0, 20.0), 2, 0.9))
detections.append(Detection(1, (150.0, 150.0, 20.0, 20.0), 2, 0.85))

hypotheses = associate_trajectories(detections, frame_count=10, iou_threshold=0.5,
                                    min_instances=3, max_miss=2)

print(f"{len(detections)} detections -> {len(hypotheses)} retained hypotheses\n")
for i, h in enumerate(hypotheses):
    marks = "".join("D" if e.source == "det" else "t" for e in h.entries)
    first, last = h.entries[0].frame, h.entries[-1].frame
    print(f"hypothesis {i}: class {h.class_id}, frames {first}..{last}, "
          f"{h.instance_count} detections, seed conf {h.seed_confidence:.2f}")
    print(f"  per-frame sources (D=detection, t=tracker): {marks}")

# regions covering the two objects pick up their classes; a far-away region
# in an annotated frame falls to background
regions = [
    Region(0, 3, np.array([1.0, 0.0]), 900, (10.0 + 9, 20.0, 30.0, 30.0)),
    Region(1, 3, np.array([0.0, 1.0]), 900, (200.0, 52.0, 30.0, 30.0)),
    Region(2, 3, np.array([1.0, 0.0]), 900, (100.0, 200.0, 30.0, 30.0)),
    Region(3, 9, np.array([0.0, 1.0]), 900, (0.0, 0.0, 30.0, 30.0)),
]
seq = VideoSequence(regions, detections)
frames, labels = annotated_frames(hypotheses, seq)
print(f"\nannotated frames: {sorted(frames)}")
print(f"region labels (regions 2 and 3 overlap no hypothesis box, so they "
      f"fall to background): {labels}")
