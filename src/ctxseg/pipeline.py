"""End-to-end orchestration: one config object, and one function per stage
that composes several calls. The graph and propagation stages are one call
each, ``graph.build_knn_graph`` and ``propagation.predict_all_links``.

The config holds the settings a run varies; every other stage setting is
the default of the function that uses it.

Every stage consumes and produces the plain data types of the owning
modules, so the CLI can run the pipeline in memory or as file-chained
subcommands with identical results. No stage draws random numbers; only
``ctxseg synth`` reads ``seed``, through a stable per-stage hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Optional

from . import context as ctx
from . import crf, evaluation, graph, propagation, tracking
from .regions import SparseMatrix, VideoSequence, filter_detections


def stage_seed(seed: int, stage: str) -> int:
    """Deterministic per-stage sub-seed from the global seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PipelineConfig:
    """The settings a run varies. Each construction checks every field, so a direct
    call, ``dataclasses.replace`` and the CLI raise alike; the fields cannot be
    assigned afterwards. ``seed`` seeds only ``ctxseg synth``'s scenario; it stays
    a field because every subcommand takes the same flags, and ``perfbench``
    passes ``seed=`` and ``--seed``."""

    k: int = 20
    mu: float = 0.99
    lambda_pair: float = 1.0
    seed: int = 0
    no_context: bool = False

    def __post_init__(self) -> None:
        """Check each field's type, and its range against its module's contract.

        Each field must have its default's type: a bool field a bool, an int
        field an int that is not a bool, a float field an int or a float that
        is not a bool (kept as given). A non-finite float passes most range
        checks (``inf > 0``) and then turns the CRF energy into NaN or -inf,
        so every float must be finite.
        """
        for f in dataclasses.fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            allowed = (int, float) if kind is float else kind
            if not isinstance(value, allowed) or (kind is not bool and isinstance(value, bool)):
                name = {bool: "a bool", int: "an int", float: "a number"}[kind]
                raise ValueError(f"{f.name} must be {name}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        checks = [
            (self.k >= 1, "k must be >= 1"),
            (0.0 < self.mu < 1.0, "mu must lie in (0, 1)"),
            (self.lambda_pair >= 0.0, "lambda_pair must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)


def tracks_stage(seq: VideoSequence) -> list[tracking.TrajectoryHypothesis]:
    return tracking.associate_trajectories(filter_detections(seq), seq.frame_count)


def links_stage(seq: VideoSequence, frames: frozenset[int],
                labels: dict[int, int]) -> dict[tuple[int, int], SparseMatrix]:
    exemplars = ctx.extract_exemplars(labels, frames, seq)
    return ctx.build_observed_links(exemplars, seq.n)


def crf_label_space(labels: dict[int, int], scores) -> int:
    """One more than the largest class a label or a scored class pair names, 1
    if none does; only the benchmark's check of a run's result calls it."""
    classes = set(labels.values()) | {c for pair in scores for c in pair}
    return max(classes, default=0) + 1


def labeled_classes(labels: dict[int, int], scores) -> list[int]:
    """The classes the labels hold, ascending. ValueError: a negative class, or
    a scored class pair naming a class no label has."""
    classes = sorted(set(labels.values()))
    if classes and classes[0] < 0:
        raise ValueError(f"negative class {classes[0]}")
    unlabeled = [(pair, c) for pair in scores for c in pair if c not in classes]
    if unlabeled:
        raise ValueError("class pair {} names class {}, which no region label has"
                         .format(*unlabeled[0]))
    return classes


def infer_stage(seq: VideoSequence, labels: dict[int, int], scores,
                cfg: PipelineConfig) -> tuple[dict[int, int], crf.Labeling]:
    """Label every region. The CRF spans ``labeled_classes``, renumbered
    0..L'-1 in ascending order (so labels may skip ids); the returned map holds
    the caller's ids, ``Labeling.assignment`` the renumbered ones."""
    classes = labeled_classes(labels, scores)
    compact = {c: i for i, c in enumerate(classes)}
    model = crf.train_unary({rid: compact[c] for rid, c in labels.items()}, seq)
    unary = crf.unary_potentials(model, seq)
    scores = {(compact[m], compact[n]): s for (m, n), s in scores.items()}
    pairwise = crf.build_pairwise(scores, crf.beta_adaptive(scores), cfg.lambda_pair,
                                  len(classes))
    labeling = crf.infer(crf.CrfProblem(unary, pairwise))
    pred = {r.region_id: classes[c] for r, c in zip(seq.regions, labeling.assignment.tolist())}
    return pred, labeling


@dataclass
class PipelineResult:
    hypotheses: list[tracking.TrajectoryHypothesis]
    labels: dict[int, int]
    graph: Optional[graph.SimilarityGraph]
    links: dict
    scores: dict
    prediction: dict[int, int]
    labeling: crf.Labeling
    report: Optional[evaluation.EvalReport] = None


def run_pipeline(seq: VideoSequence, cfg: PipelineConfig,
                 gt: Optional[dict[int, int]] = None) -> PipelineResult:
    """All stages in memory; context stages are skipped under ``no_context``."""
    hyps = tracks_stage(seq)
    frames, labels = tracking.annotated_frames(hyps, seq)
    if cfg.no_context:
        g, links, scores = None, {}, {}
    else:
        g = graph.build_knn_graph(seq, cfg.k)
        links = links_stage(seq, frames, labels)
        scores = propagation.predict_all_links(links, g.operator, cfg.mu)
    pred, labeling = infer_stage(seq, labels, scores, cfg)
    report = evaluation.iou_per_class(pred, gt, seq) if gt else None
    return PipelineResult(hyps, labels, g, links, scores, pred, labeling, report)
