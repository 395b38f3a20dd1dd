"""One workload in a fresh process: set up, run the operation repeatedly, check.

Started by ``run.py``; prints one JSON object as its last stdout line. Set-up
time runs from ``--spawned-at`` (the parent's CLOCK_MONOTONIC reading just
before it started this process) until the inputs are ready, so it covers
interpreter start, imports and input generation (and file writing for the
``files`` path).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

from layers import Tracer, unit
from workloads import WORKLOADS, Instance, check, prop_max_abs_err

MIN_OPS = 2          # every run compares at least two operations of its seed
MAX_FAILURES = 3     # stop early once this many operations have failed


def _op(inst: Instance, tracer: Tracer | None):
    """Time one operation; returns (wall, cpu, outcome)."""
    if tracer is not None:
        tracer.install()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        outcome = inst.run()
    finally:
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
    return t1 - t0, c1 - c0, outcome


def measure(inst: Instance, seconds: float, trace: bool) -> dict:
    """Run operations for ``seconds``; with ``trace`` every second one is traced."""
    walls, cpus, traced_walls, layer_runs = [], [], [], []
    problems: list[str] = []
    attempted = failed = 0
    reference = None      # fingerprint of the first successful operation
    prop_err = None
    missing: set[str] = set()
    start = time.perf_counter()
    while failed < MAX_FAILURES:
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls) if walls else 0.0
        if attempted >= MIN_OPS and elapsed + typical > seconds:
            break
        traced = trace and attempted % 2 == 1
        tracer = Tracer() if traced else None
        attempted += 1
        try:
            wall, cpu, outcome = _op(inst, tracer)
            found = check(outcome, inst.seq)
            fingerprint = (outcome.digest(), outcome.mean_iou,
                           outcome.labeling.energy, tuple(outcome.labeling.energy_trace))
            if reference is None:
                reference = fingerprint
                prop_err = prop_max_abs_err(outcome, inst.workload.mu)
            elif fingerprint != reference:
                found.append(f"{'traced' if traced else 'untraced'} run "
                             "differs from the first run of this seed")
            del outcome
        except Exception:  # a failed run is counted and reported, not fatal
            found = ["operation raised:\n" + traceback.format_exc()]
        if tracer is not None and not found:
            metrics = tracer.metrics()
            missing |= tracer.missing
            if layer_runs and any(metrics.get(k) != v for k, v in layer_runs[0].items()
                                  if unit(k) != "s"):
                found.append("per-layer counts differ between traced runs")
            layer_runs.append(metrics)
        if found:
            failed += 1
            problems.extend(f"run {attempted}: {p}" for p in found)
        elif traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
    return {"walls": walls, "cpus": cpus, "traced_walls": traced_walls,
            "layer_runs": layer_runs, "attempted": attempted, "failed": failed,
            "problems": problems, "missing": sorted(missing),
            "digest": reference[0] if reference else None,
            "mean_iou": reference[1] if reference else None,
            "prop_max_abs_err": prop_err}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    inst = Instance(workload, args.seed, args.workdir)
    out = {"setup_s": time.monotonic() - args.spawned_at, "n": inst.seq.n}
    if not args.setup_only:
        out.update(measure(inst, args.seconds, bool(args.trace)))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
