"""Command-line entry point.

Subcommands run the pipeline stage by stage over JSON-lines files or end to
end; ``pipeline`` also writes every intermediate dump so a run is byte-for-
byte reproducible by chaining the individual stages. Every subcommand takes
one flag per ``PipelineConfig`` field, defaulting to the field's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from typing import Optional

from . import context as ctx
from . import evaluation, graph, pipeline, propagation, synthetic, tracking
from .pipeline import PipelineConfig
from .regions import (IngestError, load_ground_truth, load_labeling,
                      load_sequence, save_labeling, save_sequence, write_records)


def _config_parser() -> argparse.ArgumentParser:
    """One flag per PipelineConfig field, for every subcommand."""
    parser = argparse.ArgumentParser(add_help=False)
    for f in dataclasses.fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(flag, action="store_true", help=f"(default {f.default})")
        else:
            parser.add_argument(flag, type=type(f.default), default=f.default,
                                help=f"(default {f.default})")
    return parser


def _load_seq(args):
    # argparse requires --detections where a stage reads them
    return load_sequence(args.regions, getattr(args, "detections", None))


def _cmd_synth(args, cfg: PipelineConfig) -> None:
    spec = synthetic.ambiguity_scenario(seed=pipeline.stage_seed(cfg.seed, "synth"))
    seq, gt = synthetic.generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_sequence(seq, os.path.join(args.out, "regions.jsonl"),
                  os.path.join(args.out, "detections.jsonl"))
    save_labeling(gt, os.path.join(args.out, "gt.jsonl"))
    print(f"wrote {seq.n} regions, {len(seq.detections)} detections, "
          f"{seq.frame_count} frames to {args.out}")


def _cmd_tracks(args, cfg: PipelineConfig) -> None:
    seq = _load_seq(args)
    hyps = pipeline.tracks_stage(seq)
    tracking.dump_hypotheses(hyps, args.out)
    print(f"wrote {len(hyps)} trajectory hypotheses to {args.out}")


def _cmd_graph(args, cfg: PipelineConfig) -> None:
    seq = _load_seq(args)
    g = graph.build_knn_graph(seq, cfg.k)
    graph.dump_graph(g, args.out)
    print(f"wrote graph with {g.n} vertices, {g.affinity.nnz // 2} edges to {args.out}")


def _cmd_context(args, cfg: PipelineConfig) -> None:
    seq = _load_seq(args)
    hyps = tracking.load_hypotheses(args.hypotheses)
    frames, labels = tracking.annotated_frames(hyps, seq)
    links = pipeline.links_stage(seq, frames, labels)
    ctx.dump_links(links, args.out)
    save_labeling(labels, args.labels_out)
    print(f"wrote {len(links)} class-pair link matrices to {args.out}; "
          f"{len(labels)} region labels to {args.labels_out}")


def _cmd_propagate(args, cfg: PipelineConfig) -> None:
    g = graph.load_graph(args.graph)
    links = ctx.load_links(args.links, g.n)
    scores = propagation.predict_all_links(links, g.operator, cfg.mu)
    propagation.dump_scores(scores, args.out)
    print(f"wrote scores for {len(scores)} class pairs to {args.out}")


def _cmd_infer(args, cfg: PipelineConfig) -> None:
    seq = _load_seq(args)
    labels = load_labeling(args.labels, seq)
    if not labels:
        raise IngestError(f"{args.labels}: no region labels")
    scores = propagation.load_scores(args.scores, seq.n) if args.scores else {}
    try:
        pipeline.labeled_classes(labels, scores)
    except ValueError as exc:
        raise IngestError(f"{args.scores}: {exc}") from None
    pred, labeling = pipeline.infer_stage(seq, labels, scores, cfg)
    summary = ({"energy": float(labeling.energy), "sweeps": labeling.sweeps}
               if args.summary else None)
    save_labeling(pred, args.out, summary=summary)
    print(f"wrote labeling for {len(pred)} regions to {args.out} "
          f"(energy {labeling.energy:.6f}, {labeling.sweeps} sweeps)")


def _cmd_eval(args, cfg: PipelineConfig) -> None:
    seq = load_sequence(args.regions)
    pred = load_labeling(args.labeling, seq)
    gt = load_ground_truth(args.gt, seq)
    report = evaluation.iou_per_class(pred, gt, seq)
    print(report.format_table())
    if args.out:
        write_records(args.out, [report.to_record()])


def _cmd_pipeline(args, cfg: PipelineConfig) -> None:
    seq = _load_seq(args)
    gt = load_ground_truth(args.gt, seq) if args.gt else None
    result = pipeline.run_pipeline(seq, cfg, gt=gt)
    os.makedirs(args.out, exist_ok=True)
    tracking.dump_hypotheses(result.hypotheses, os.path.join(args.out, "hypotheses.jsonl"))
    save_labeling(result.labels, os.path.join(args.out, "labels.jsonl"))
    if result.graph is not None:
        graph.dump_graph(result.graph, os.path.join(args.out, "graph.json"))
        ctx.dump_links(result.links, os.path.join(args.out, "links.jsonl"))
        propagation.dump_scores(result.scores, os.path.join(args.out, "scores.jsonl"))
    save_labeling(result.prediction, os.path.join(args.out, "labeling.jsonl"))
    if result.report is not None:
        write_records(os.path.join(args.out, "report.json"), [result.report.to_record()])
        print(result.report.format_table())
    print(f"pipeline outputs in {args.out} "
          f"(energy {result.labeling.energy:.6f}, {result.labeling.sweeps} sweeps)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxseg",
        description="Video region labeling with propagated context links")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_config_parser()]

    p = sub.add_parser("synth", parents=common, help="generate the synthetic ambiguity dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("tracks", parents=common, help="detections -> trajectory hypotheses")
    p.add_argument("--regions", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_tracks)

    p = sub.add_parser("graph", parents=common, help="regions -> similarity graph dump")
    p.add_argument("--regions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("context", parents=common, help="hypotheses + regions -> link/label dumps")
    p.add_argument("--regions", required=True)
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--out", required=True, help="observed-links output")
    p.add_argument("--labels-out", required=True, help="region-labels output")
    p.set_defaults(run=_cmd_context)

    p = sub.add_parser("propagate", parents=common, help="links + graph -> score dumps")
    p.add_argument("--links", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_propagate)

    p = sub.add_parser("infer", parents=common, help="scores + labels + regions -> labeling")
    p.add_argument("--regions", required=True)
    p.add_argument("--scores", default=None)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", action="store_true",
                   help="append an energy/sweeps summary record")
    p.set_defaults(run=_cmd_infer)

    p = sub.add_parser("eval", parents=common, help="labeling + ground truth -> IoU report")
    p.add_argument("--regions", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("pipeline", parents=common, help="run all stages")
    p.add_argument("--regions", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--gt", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_pipeline)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PipelineConfig(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(PipelineConfig)})
        args.run(args, cfg)
    except Exception as exc:  # surface stage failures with a diagnostic
        print(f"ctxseg {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
