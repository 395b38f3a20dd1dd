"""ctxseg benchmark: each workload measured in fresh child processes.

Usage, from the root of a source checkout (no install or build needed):

    python3 perfbench/run.py --workload ctx-mu95 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Load model: a batch job with one caller in a closed loop. One pipeline run
at a time, in one process, single-threaded (``threads=1``, BLAS pinned to
one thread). Inputs are generated from ``--seed`` (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: one child process runs the
operation for ``--seconds`` and reports the median wall and CPU time per
run, then a few more children only set up, so ``setup_s`` is a median too.
``--trace 1`` alternates untraced and traced runs in one child and reports
per-layer self times and counts (``layers.py``), plus the tracing overhead.

Every run is checked (``workloads.check``) and must reproduce the first
run's labeling, energy and mean IoU bit for bit; traced runs must match
untraced ones. Human-readable lines go first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from layers import LAYERS, unit

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5            # set-ups per --trace 0 run; setup_s is their median
DEADLINE_S = 170.0    # the whole invocation stays under the 180 s limit
WORKDIR = ".perfbench_work"


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    cuts = statistics.quantiles(samples, n=100)
    for p in range(99, 0, -1):
        if sum(s > cuts[p - 1] for s in samples) >= 10:
            return p, cuts[p - 1]
    return None


class Runner:
    def __init__(self, root: str, args: argparse.Namespace):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = os.path.join(root, WORKDIR, f"run-{os.getpid()}")
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(root, "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def child(self, index: int, setup_only: bool) -> dict:
        workdir = os.path.join(self.workdir, str(index))
        os.makedirs(workdir)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(self.args.trace),
               "--workdir", workdir]
        cmd += ["--setup-only"] * setup_only + ["--tiny"] * self.args.tiny
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                                stdout=subprocess.PIPE, env=self.env, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child {index} exceeded the time limit") from None
        finally:
            if proc.poll() is None:  # timed out or interrupted: stop it first
                proc.kill()
                proc.communicate()
            shutil.rmtree(workdir, ignore_errors=True)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"child {index} exited with code {proc.returncode}")
        return json.loads(lines[-1])


def summarize(args, main: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end or per-layer metrics from the children, and report lines."""
    lines = [f"workload {args.workload}: n={main['n']} seed={args.seed} "
             f"runs={main['attempted']} failed={main['failed']} "
             f"labeling digest {main['digest']}"]
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        walls = main["walls"]
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["cpu_s"] = (statistics.median(main["cpus"]), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB")
        metrics["mean_iou"] = (main["mean_iou"], "iou")
        high = high_percentile(walls) if len(walls) > 10 else None
        lines.append(f"  wall samples {len(walls)}: median {statistics.median(walls):.4f} s"
                     + (f", p{high[0]} {high[1]:.4f} s" if high else
                        ", too few samples for a percentile with ten above it"))
    else:
        runs = main["layer_runs"]
        for key, first in runs[0].items():  # counts are equal across runs
            value = statistics.median(r[key] for r in runs) if unit(key) == "s" else first
            metrics[key] = (value, unit(key))
        metrics["trace.overhead_s"] = (statistics.median(main["traced_walls"])
                                       - statistics.median(main["walls"]), "s")
        metrics["propagation.max_abs_err"] = (main["prop_max_abs_err"] or 0.0, "abs")
        busy = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS
                if f"{layer}.self_s" in metrics}
        total = statistics.median(main["traced_walls"])
        lines.append("  layer self time, share of traced wall "
                     f"{total:.4f} s: " + ", ".join(
                         f"{k} {v / total:.1%}" for k, v in
                         sorted(busy.items(), key=lambda kv: -kv[1]) if v > 0))
        for name in main["missing"]:
            lines.append(f"  absent: {name} no longer exists; its metrics are left out")
    if main["prop_max_abs_err"] is not None:
        lines.append(f"  prop_max_abs_err {main['prop_max_abs_err']:.6g} abs "
                     "(max |score - closed-form limit|)")
    lines.append(f"  failed_frac {main['failed'] / main['attempted']:.4f} ratio")
    lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines += [f"  CHECK FAILED {p}" for p in main["problems"]]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def run_workload(root: str, args: argparse.Namespace) -> int:
    """Measure one workload; prints the report lines and the JSON result."""
    runner = Runner(root, args)
    try:
        main_out = runner.child(0, setup_only=False)
        setups = [main_out["setup_s"]]
        if not args.trace:
            setups += [runner.child(i, setup_only=True)["setup_s"]
                       for i in range(1, SETUPS)]
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORKDIR))
        except OSError:
            pass

    if not main_out["walls"] or (args.trace and not main_out["layer_runs"]):
        for p in main_out["problems"]:
            print(f"CHECK FAILED {p}", file=sys.stderr)
        print("perfbench: no successful run to measure", file=sys.stderr)
        return 1
    metrics, lines = summarize(args, main_out, setups)
    print("\n".join(lines))
    print(json.dumps({"correct": main_out["failed"] == 0,
                      "attempted": main_out["attempted"],
                      "failed": main_out["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ctxseg benchmark")
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs of the workload's shape (self-test)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ctxseg", "__init__.py")):
        print("perfbench: run from the root of a ctxseg checkout "
              "(src/ctxseg not found)", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(root, args)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    return max(run_workload(root, argparse.Namespace(**{**vars(args), "workload": name}))
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
