"""Workload table, seeded input generation, the timed operation and its checks.

Every workload is the synthetic ambiguity scenario tiled in time: the
scripted objects of ``ambiguity_scenario(seed)`` repeat ``repeats`` times,
shifted by one scenario length each time, with ``background`` clutter
regions per frame, so n = repeats * (49 + 27 * background). Only public
``ctxseg.synthetic`` names are used; the program sees only the generated
inputs.

Two paths run the pipeline:

* ``memory``: ``run_pipeline`` on the in-memory sequence.
* ``files``: the CLI subcommands ``tracks``, ``graph`` and
  ``pipeline --no-context`` over JSON-lines files written at set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ctxseg import cli, crf, propagation, regions, synthetic
from ctxseg.pipeline import PipelineConfig, crf_label_space, run_pipeline


@dataclass(frozen=True)
class Workload:
    name: str
    repeats: int
    background: int
    mu: float
    path: str            # "memory" or "files"

    @property
    def n(self) -> int:
        return self.repeats * (49 + 27 * self.background)

    def tiny(self) -> "Workload":
        """Smallest instance of the same shape, for the benchmark's own tests."""
        return dataclasses.replace(self, repeats=1, background=1)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("ctx-mu95", repeats=2, background=4, mu=0.95, path="memory"),
    Workload("files-bare", repeats=2, background=20, mu=0.99, path="files"),
]}


def tiled_spec(seed: int, repeats: int, background: int) -> synthetic.SynthSpec:
    """The ambiguity scenario repeated ``repeats`` times along the time axis."""
    base = synthetic.ambiguity_scenario(seed)
    span = base.frame_count
    objects = [dataclasses.replace(obj, start_frame=obj.start_frame + r * span,
                                   end_frame=obj.end_frame + r * span)
               for r in range(repeats) for obj in base.objects]
    return dataclasses.replace(base, frame_count=span * repeats, objects=objects,
                               background_regions_per_frame=background)


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks need."""

    prediction: dict[int, int]
    labeling: crf.Labeling
    problem: Optional[crf.CrfProblem]    # the problem handed to crf.infer
    num_classes: int
    mean_iou: float
    scores: dict                         # class pair -> LinkScoreMatrix
    links: dict = dataclasses.field(default_factory=dict)
    operator: object = None              # graph operator, when propagation ran

    def digest(self) -> str:
        body = json.dumps(sorted(self.prediction.items())).encode()
        return hashlib.sha256(body).hexdigest()[:16]


class Instance:
    """Generated inputs of one workload and the operation that consumes them."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.seq, self.gt = synthetic.generate(
            tiled_spec(seed, workload.repeats, workload.background))
        self.cfg = PipelineConfig(mu=workload.mu, seed=seed)
        if workload.path == "files":
            self.regions_path = os.path.join(workdir, "regions.jsonl")
            self.detections_path = os.path.join(workdir, "detections.jsonl")
            self.gt_path = os.path.join(workdir, "gt.jsonl")
            regions.save_sequence(self.seq, self.regions_path, self.detections_path)
            regions.save_labeling(self.gt, self.gt_path)

    def run(self) -> Outcome:
        """One pipeline run; the problem given to ``crf.infer`` is captured."""
        captured: list = []
        original = crf.infer

        def capture(problem, *args, **kwargs):
            labeling = original(problem, *args, **kwargs)
            captured.append((problem, labeling))
            return labeling

        crf.infer = capture
        try:
            if self.workload.path == "memory":
                return self._run_memory(captured)
            return self._run_files(captured)
        finally:
            crf.infer = original

    def _run_memory(self, captured) -> Outcome:
        res = run_pipeline(self.seq, self.cfg, gt=self.gt)
        problem = captured[-1][0] if captured else None
        return Outcome(res.prediction, res.labeling, problem,
                       crf_label_space(res.labels, res.scores), res.report.mean_iou,
                       res.scores, res.links,
                       res.graph.operator if res.graph is not None else None)

    def _run_files(self, captured) -> Outcome:
        out = os.path.join(self.workdir, "out")
        common = ["--seed", str(self.seed)]
        steps = [
            ["tracks", "--regions", self.regions_path, "--detections",
             self.detections_path, "--out", os.path.join(out, "hypotheses.jsonl")],
            ["graph", "--regions", self.regions_path,
             "--out", os.path.join(out, "graph.json")],
            ["pipeline", "--regions", self.regions_path, "--detections",
             self.detections_path, "--gt", self.gt_path, "--no-context",
             "--out", os.path.join(out, "run")],
        ]
        os.makedirs(out, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            for argv in steps:
                if cli.main(argv + common) != 0:
                    raise RuntimeError(f"ctxseg {argv[0]} failed: "
                                       f"{err.getvalue().strip()}")
        # read back with plain json so a traced run counts only the program's reads
        with open(os.path.join(out, "run", "labeling.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        prediction = {int(r["id"]): int(r["class"]) for r in records if "id" in r}
        with open(os.path.join(out, "run", "report.json"), encoding="utf-8") as fh:
            mean_iou = float(json.load(fh)["mean"])
        if not captured:
            raise RuntimeError("crf.infer was not called")
        problem, labeling = captured[-1]
        return Outcome(prediction, labeling, problem, problem.num_classes,
                       mean_iou, {})


def check(outcome: Outcome, seq: regions.VideoSequence) -> list[str]:
    """Output checks of one run; returns a message per failed check."""
    problems: list[str] = []
    L = outcome.num_classes
    ids = [r.region_id for r in seq.regions]
    if set(outcome.prediction) != set(ids):
        problems.append("prediction does not cover exactly the sequence's regions")
    bad = [rid for rid, c in outcome.prediction.items() if not 0 <= c < L]
    if bad:
        problems.append(f"{len(bad)} regions labeled outside [0, {L})")
    x = np.asarray(outcome.labeling.assignment)
    if x.shape != (seq.n,) or not np.array_equal(
            x, [outcome.prediction.get(rid, -1) for rid in ids]):
        problems.append("labeling assignment disagrees with the prediction")
    if outcome.problem is None:
        problems.append("no CRF problem captured; energy not rechecked")
    elif x.shape == (seq.n,) and ((x >= 0) & (x < L)).all():
        recomputed = crf.energy(outcome.problem, x)
        if not math.isclose(recomputed, outcome.labeling.energy,
                            rel_tol=1e-12, abs_tol=1e-9):
            problems.append(f"recomputed energy {recomputed!r} != "
                            f"Labeling.energy {outcome.labeling.energy!r}")
    trace = outcome.labeling.energy_trace
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("energy_trace increases")
    for pair, mat in outcome.scores.items():
        data = mat.scores.data
        if not (np.isfinite(data).all() and (data >= 0).all()):
            problems.append(f"class pair {pair}: stored scores not finite and >= 0")
    if not 0.0 <= outcome.mean_iou <= 1.0:
        problems.append(f"mean_iou {outcome.mean_iou!r} outside [0, 1]")
    return problems


def prop_max_abs_err(outcome: Outcome, mu: float) -> Optional[float]:
    """Max |stored score - closed-form limit| over class pairs, if propagation ran."""
    if not outcome.scores or outcome.operator is None:
        return None
    op = outcome.operator.toarray()
    err = 0.0
    for pair, mat in outcome.scores.items():
        exact = propagation.dense_two_pass_limit(outcome.links[pair].toarray(), op, mu)
        err = max(err, float(np.abs(mat.scores.toarray() - exact).max()))
    return err
