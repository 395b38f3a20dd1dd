"""Per-layer tracing from outside the program.

``Tracer`` replaces public functions of the ``ctxseg`` modules (and the
listed methods of ``MaxFlowGraph``) with wrappers that record one span per
call and counts read off the arguments and results. Spans stay in memory;
a span's self time is its duration minus the durations of its direct
children, and a layer's self time sums the self times of its spans.
A target that no longer exists, or whose result no longer has the shape an
observer reads, is reported as missing and its metrics are left out.

``MaxFlowGraph.add_edge`` runs ~10^5 times per fusion, so it is not wrapped;
its cost lands in the self time of ``qpbo``, which builds the flow network.
``pipeline`` only orchestrates and is not a layer: its own time, and the
benchmark's glue, belong to no layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

LAYERS = ("regions", "tracking", "context", "graph", "propagation", "crf",
          "qpbo", "maxflow", "evaluation", "cli")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None)


def _accepted(trace) -> int:
    return sum(b < a for a, b in zip(trace, trace[1:]))


# Observers take (args, kwargs, result); for methods args[0] is the instance.
# Each target: (attribute path in ctxseg.<layer>, observer or None, metrics).
TARGETS = {
    "regions": [
        ("load_sequence", lambda a, k, r: {"regions.bytes_read": _file_bytes(
            _arg(a, k, 0, "regions_path"), _arg(a, k, 1, "detections_path"))},
         ("regions.bytes_read",)),
        ("load_ground_truth", lambda a, k, r: {
            "regions.bytes_read": _file_bytes(_arg(a, k, 0, "path"))}, ()),
        ("load_labeling", lambda a, k, r: {
            "regions.bytes_read": _file_bytes(_arg(a, k, 0, "path"))}, ()),
        ("save_sequence", None, ()),
        ("save_labeling", None, ()),
        ("filter_detections", None, ()),
    ],
    "tracking": [
        ("associate_trajectories", lambda a, k, r: {"tracking.hypotheses": len(r)},
         ("tracking.hypotheses",)),
        ("annotated_frames", lambda a, k, r: {"tracking.labeled_regions": len(r[1])},
         ("tracking.labeled_regions",)),
        ("dump_hypotheses", None, ()),
    ],
    "context": [
        ("extract_exemplars", lambda a, k, r: {"context.exemplars": len(r)},
         ("context.exemplars",)),
        ("build_observed_links", lambda a, k, r: {
            "context.link_nnz": sum(m.nnz for m in r.values()),
            "context.class_pairs": len(r)},
         ("context.link_nnz", "context.class_pairs")),
    ],
    "graph": [
        ("build_knn_graph", lambda a, k, r: {
            "graph.edges": r.affinity.nnz // 2, "graph.gram_bytes": r.n * r.n * 8},
         ("graph.edges", "graph.gram_bytes")),
        ("dump_graph", None, ()),
    ],
    "propagation": [
        ("predict_all_links", lambda a, k, r: {
            "propagation.unconverged_pairs": sum(not m.converged for m in r.values()),
            "propagation.score_nnz": sum(m.scores.nnz for m in r.values()),
            "propagation.score_cells": sum(
                m.scores.shape[0] * m.scores.shape[1] for m in r.values())},
         ("propagation.unconverged_pairs", "propagation.score_nnz",
          "propagation.score_density")),
        ("propagate_row_pass", lambda a, k, r: {"propagation.row_iters": r.iterations},
         ("propagation.row_iters",)),
        ("propagate_column_pass", lambda a, k, r: {
            "propagation.col_iters": r.iterations},
         ("propagation.col_iters",)),
    ],
    "crf": [
        ("train_unary", None, ()),
        ("unary_potentials", None, ()),
        ("beta_adaptive", None, ()),
        ("build_pairwise", lambda a, k, r: {"crf.pairwise_terms": len(r)},
         ("crf.pairwise_terms",)),
        ("infer", lambda a, k, r: {"crf.sweeps": r.sweeps,
                                   "crf.accepted_fusions": _accepted(r.energy_trace)},
         ("crf.sweeps", "crf.fuse_accept_ratio")),
        ("qpbo_fuse", lambda a, k, r: {"crf.fusions": 1}, ("crf.fusions",)),
        ("energy", lambda a, k, r: {"crf.energy_calls": 1}, ("crf.energy_calls",)),
    ],
    "qpbo": [
        ("solve_binary_pairwise", lambda a, k, r: {
            "qpbo.variables": len(r), "qpbo.labeled": int((r >= 0).sum())},
         ("qpbo.labeled_ratio",)),
    ],
    "maxflow": [
        ("MaxFlowGraph.max_flow", lambda a, k, r: {
            "maxflow.arcs": len(a[0].to), "maxflow.nodes": a[0].n},
         ("maxflow.arcs", "maxflow.nodes")),
        ("MaxFlowGraph.source_side", None, ()),
    ],
    "evaluation": [("iou_per_class", None, ())],
    "cli": [("main", None, ())],
}

# metric -> span names whose self times it sums; cli spans are per subcommand
TIME_METRICS = {
    "regions.load_s": ["regions.load_sequence", "regions.load_ground_truth",
                       "regions.load_labeling"],
    "regions.save_s": ["regions.save_sequence", "regions.save_labeling"],
    "tracking.associate_s": ["tracking.associate_trajectories"],
    "tracking.dump_s": ["tracking.dump_hypotheses"],
    "graph.build_s": ["graph.build_knn_graph"],
    "graph.dump_s": ["graph.dump_graph"],
    "propagation.row_pass_s": ["propagation.propagate_row_pass"],
    "propagation.col_pass_s": ["propagation.propagate_column_pass"],
    "crf.train_unary_s": ["crf.train_unary"],
    "crf.unary_potentials_s": ["crf.unary_potentials"],
    "crf.build_pairwise_s": ["crf.build_pairwise"],
    "crf.infer_s": ["crf.infer"],
    "crf.qpbo_fuse_s": ["crf.qpbo_fuse"],
    "crf.energy_s": ["crf.energy"],
    "qpbo.solve_s": ["qpbo.solve_binary_pairwise"],
    "maxflow.max_flow_s": ["maxflow.MaxFlowGraph.max_flow"],
    "evaluation.iou_s": ["evaluation.iou_per_class"],
    "cli.tracks_s": ["cli.main:tracks"],
    "cli.graph_s": ["cli.main:graph"],
    "cli.pipeline_s": ["cli.main:pipeline"],
}

COUNT_METRICS = [
    "regions.bytes_read", "tracking.hypotheses", "tracking.labeled_regions",
    "context.exemplars", "context.link_nnz", "context.class_pairs",
    "graph.edges", "graph.gram_bytes", "propagation.row_iters",
    "propagation.col_iters", "propagation.unconverged_pairs",
    "propagation.score_nnz", "crf.pairwise_terms", "crf.sweeps",
    "crf.fusions", "crf.energy_calls", "maxflow.arcs", "maxflow.nodes",
]

# ratio metric -> (numerator, denominator), both summed counts
RATIO_METRICS = {
    "propagation.score_density": ("propagation.score_nnz", "propagation.score_cells"),
    "crf.fuse_accept_ratio": ("crf.accepted_fusions", "crf.fusions"),
    "qpbo.labeled_ratio": ("qpbo.labeled", "qpbo.variables"),
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_bytes", "bytes_read")):
        return "bytes"
    if metric.endswith(("_ratio", "_density")):
        return "ratio"
    return "count"


class Tracer:
    """Wraps the targets while installed; records spans and summed counts."""

    def __init__(self):
        self.spans: list[list] = []          # [parent index, name, start, end]
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "ctxseg" or name.startswith("ctxseg.")]
        for layer, targets in TARGETS.items():
            try:
                module = importlib.import_module(f"ctxseg.{layer}")
            except ImportError:
                module = None
            for path, observe, _ in targets:
                name = f"{layer}.{path}"
                owner = module
                for part in path.split(".")[:-1]:
                    owner = getattr(owner, part, None)
                attr = path.split(".")[-1]
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(name, original, observe)
                self._patch(owner, attr, wrapper)
                if owner is module:  # also where other modules imported it by name
                    for other in package:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "cli.main":
                argv = _arg(args, kwargs, 0, "argv") or sys.argv[1:]
                span = f"{name}:{argv[0]}"
            record = [tracer._stack[-1] if tracer._stack else -1, span,
                      time.perf_counter(), None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None and name not in tracer.missing:
                try:
                    counts = observe(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.missing.add(name)  # the result changed shape
                else:
                    for key, value in counts.items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over calls."""
        children = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = {}
        for (_, name, start, end), child in zip(self.spans, children):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded; missing targets omitted."""
        absent = {metric for layer, targets in TARGETS.items()
                  for path, _, metrics in targets
                  if f"{layer}.{path}" in self.missing for metric in metrics}
        absent |= {metric for metric, spans in TIME_METRICS.items()
                   if any(s.split(":")[0] in self.missing for s in spans)}
        selfs = self.self_times()
        out: dict[str, float] = {}
        for metric, spans in TIME_METRICS.items():
            out[metric] = sum(selfs.get(s, 0.0) for s in spans)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for s, v in selfs.items()
                                         if s.split(".")[0] == layer)
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0)
        for metric, (num, den) in RATIO_METRICS.items():
            d = self.counts.get(den, 0)
            out[metric] = self.counts.get(num, 0) / d if d else 0.0
        return {k: v for k, v in out.items() if k not in absent}
