"""The seven ``ctxseg pipeline`` dumps on ambiguity seeds 0-4, byte for byte.

``golden_pipeline.json`` holds the sha256 of every dump, recorded with

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/test_golden_pipeline.py > tests/golden_pipeline.json

Dumps are bitwise reproducible for a fixed BLAS build and thread count
only, so the check runs this module in a child process pinned to one BLAS
thread and is skipped where numpy's BLAS build differs from the recorded one.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

SEEDS = range(5)
DUMPS = ("hypotheses.jsonl", "labels.jsonl", "graph.json", "links.jsonl",
         "scores.jsonl", "labeling.jsonl", "report.json")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_pipeline.json")


def blas_build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration", f"{blas['name']} {blas['version']}")}


def record():
    """Run ``ctxseg synth`` and ``ctxseg pipeline`` per seed; digest every dump."""
    from ctxseg.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for seed in SEEDS:
            data, out = os.path.join(tmp, f"data{seed}"), os.path.join(tmp, f"run{seed}")
            assert main(["synth", "--seed", str(seed), "--out", data]) == 0
            assert main(["pipeline", "--regions", os.path.join(data, "regions.jsonl"),
                         "--detections", os.path.join(data, "detections.jsonl"),
                         "--gt", os.path.join(data, "gt.jsonl"),
                         "--seed", str(seed), "--out", out]) == 0
            for name in DUMPS:
                with open(os.path.join(out, name), "rb") as fh:
                    digests[f"{seed}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return {"build": blas_build(), "digests": digests}


def test_pipeline_dumps_match_recorded_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["build"] != blas_build():
        pytest.skip(f"digests recorded under {golden['build']}")
    import ctxseg
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctxseg.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)["digests"]
    assert sorted(digests) == sorted(golden["digests"])
    mismatched = [key for key in golden["digests"] if digests[key] != golden["digests"][key]]
    assert not mismatched


if __name__ == "__main__":
    sys.stdout.write(json.dumps(record(), indent=1, sort_keys=True) + "\n")
