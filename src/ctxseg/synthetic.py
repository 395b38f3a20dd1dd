"""Seeded synthetic sequences with planted appearance clusters and contexts.

Features live on the unit sphere: each region draws its class mean, adds
Gaussian noise of scale ``sigma``, and renormalizes. Scripted objects move
on linear paths and emit jittered detections, so the full pipeline
(tracking, graph, propagation, CRF) can be exercised and ablated without
real data. Ground truth covers every generated region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .regions import Detection, Region, VideoSequence


@dataclass
class DetectionModel:
    miss_rate: float = 0.0                 # global miss probability, in [0, 1)
    per_frame_miss: dict[int, float] = field(default_factory=dict)  # may be 1.0
    confidence_base: float = 0.9
    confidence_noise: float = 0.03
    box_jitter: float = 1.0


@dataclass
class ScriptedObject:
    """One object instance: a class on a linear path over a frame range."""

    class_id: int
    start_frame: int
    end_frame: int                          # inclusive
    start_xy: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    size: tuple[float, float] = (40.0, 40.0)
    detectable: bool = True
    appearance: Optional[np.ndarray] = None  # unit vector overriding the class mean

    def box_at(self, frame: int) -> tuple[float, float, float, float]:
        dt = frame - self.start_frame
        return (self.start_xy[0] + self.velocity[0] * dt,
                self.start_xy[1] + self.velocity[1] * dt,
                self.size[0], self.size[1])


@dataclass
class SynthSpec:
    seed: int
    frame_count: int                        # the timeline; trailing empty frames are dropped
    feature_dim: int
    class_means: np.ndarray                 # (L, d) unit rows; row 0 = background
    sigma: float
    objects: list[ScriptedObject]
    background_regions_per_frame: int = 3
    image_size: tuple[int, int] = (320, 240)
    detection: DetectionModel = field(default_factory=DetectionModel)
    # where background clutter boxes may appear: (x, y, w, h), default full image
    background_zone: Optional[tuple[float, float, float, float]] = None
    background_box_range: tuple[float, float] = (20.0, 50.0)

    def validate(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not (0.0 <= self.detection.miss_rate < 1.0):
            raise ValueError("miss_rate must lie in [0, 1)")
        L = self.class_means.shape[0]
        for a in range(L):
            for b in range(a + 1, L):
                if np.allclose(self.class_means[a], self.class_means[b]):
                    raise ValueError(f"class means {a} and {b} coincide")
        for obj in self.objects:
            if not (0 < obj.class_id < L):
                raise ValueError(
                    f"scripted object references undefined class {obj.class_id}")
            if not (0 <= obj.start_frame <= obj.end_frame < self.frame_count):
                raise ValueError("scripted object frames out of range")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate(spec: SynthSpec) -> tuple[VideoSequence, dict[int, int]]:
    """Deterministic sequence + total ground truth for a spec."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    W, H = spec.image_size
    regions: list[Region] = []
    detections: list[Detection] = []
    gt: dict[int, int] = {}
    rid = 0

    def draw_feature(mean: np.ndarray) -> np.ndarray:
        noise = rng.standard_normal(spec.feature_dim)
        return _unit(mean + spec.sigma * noise)

    for f in range(spec.frame_count):
        for obj in spec.objects:
            if not (obj.start_frame <= f <= obj.end_frame):
                continue
            box = obj.box_at(f)
            mean = obj.appearance if obj.appearance is not None \
                else spec.class_means[obj.class_id]
            feature = draw_feature(mean)
            area = max(1, int(box[2] * box[3]))
            regions.append(Region(rid, f, feature, area, box))
            gt[rid] = obj.class_id
            rid += 1
            if obj.detectable:
                miss_p = spec.detection.per_frame_miss.get(f, spec.detection.miss_rate)
                roll = rng.random()
                jitter = spec.detection.box_jitter * rng.standard_normal(4)
                conf = float(np.clip(
                    spec.detection.confidence_base
                    + spec.detection.confidence_noise * rng.standard_normal(), 0.0, 1.0))
                if roll >= miss_p:
                    dbox = (box[0] + jitter[0], box[1] + jitter[1],
                            max(1.0, box[2] + jitter[2]), max(1.0, box[3] + jitter[3]))
                    detections.append(Detection(f, dbox, obj.class_id, conf))
        zx, zy, zw, zh = spec.background_zone or (0.0, 0.0, float(W), float(H))
        lo, hi = spec.background_box_range
        for _ in range(spec.background_regions_per_frame):
            w = float(rng.uniform(lo, min(hi, zw)))
            h = float(rng.uniform(lo, min(hi, zh)))
            x = zx + float(rng.uniform(0, zw - w))
            y = zy + float(rng.uniform(0, zh - h))
            feature = draw_feature(spec.class_means[0])
            regions.append(Region(rid, f, feature, max(1, int(w * h)), (x, y, w, h)))
            gt[rid] = 0
            rid += 1

    return VideoSequence(regions, detections), gt


AMBIGUITY_MU = 0.5  # propagation range calibrated for the toy graph size


def ambiguity_scenario(seed: int = 7) -> SynthSpec:
    """Canned spec where appearance alone cannot separate two classes.

    Classes 1 and 2 co-occur through the first annotated stretch; class 3
    appears alone in a second stretch. The unlabeled tail holds three
    undetected class-1 companions next to an object whose appearance sits
    between classes 2 and 3, leaning toward 3, but whose true class is 2:
    appearance favors 3 while the co-occurrence evidence supports 2.

    Layout choices that keep the experiment controlled for any seed: class
    means sit on a simplex (negative cross products), so after clamping each
    class cluster is its own graph component and only the ambiguous object
    bridges clusters 2 and 3; a background-only buffer separates the
    detection-bearing frames from the unlabeled tail so tracker tails cannot
    reach it; and background clutter lives in a horizontal band no object
    path or tracker extrapolation ever crosses. Run the pipeline with
    ``mu = AMBIGUITY_MU``: the default long-range diffusion is calibrated
    for far larger graphs and washes out locality on ~100 regions.
    """
    d = 16
    e = np.eye(d)
    centroid = e[:4].mean(axis=0)
    means = np.stack([_unit(e[i] - centroid) for i in range(4)])
    ambiguous = _unit(means[2] + 1.16 * means[3])

    objects = [
        # annotated stretch one: classes 1 and 2 together (frames 0..11)
        ScriptedObject(1, 0, 11, (20.0, 10.0), (2.0, 0.0), (40.0, 40.0)),
        ScriptedObject(2, 0, 11, (130.0, 20.0), (2.0, 0.0), (40.0, 40.0)),
        # annotated stretch two: class 3 alone (frames 12..16)
        ScriptedObject(3, 12, 16, (250.0, 25.0), (-2.0, 0.0), (40.0, 40.0)),
        # frames 17..21: background-only buffer that absorbs tracker tails
        # unlabeled tail: three class-1 companions plus the ambiguous class-2
        # object, all undetected
        ScriptedObject(1, 22, 26, (30.0, 150.0), (2.0, 0.0), (40.0, 40.0),
                       detectable=False),
        ScriptedObject(1, 22, 26, (90.0, 190.0), (2.0, 0.0), (40.0, 40.0),
                       detectable=False),
        ScriptedObject(1, 22, 26, (230.0, 185.0), (2.0, 0.0), (40.0, 40.0),
                       detectable=False),
        ScriptedObject(2, 22, 26, (160.0, 155.0), (2.0, 0.0), (40.0, 40.0),
                       detectable=False, appearance=ambiguous),
    ]
    return SynthSpec(
        seed=seed,
        frame_count=27,
        feature_dim=d,
        class_means=means,
        sigma=0.04,
        objects=objects,
        background_regions_per_frame=2,
        image_size=(320, 240),
        detection=DetectionModel(confidence_base=0.85, confidence_noise=0.04,
                                 box_jitter=1.0),
        # objects occupy y <= 80 and y >= 150; clutter stays in between
        background_zone=(0.0, 82.0, 320.0, 56.0),
        background_box_range=(18.0, 30.0),
    )
