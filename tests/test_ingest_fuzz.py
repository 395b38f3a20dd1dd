"""Seeded fuzz over malformed stage files read by the ``ctxseg`` subcommands.

Valid regions, hypotheses, labels, links, scores and detections files come
from one synthetic run; each case damages one of them (a truncated line, a
dropped field, a value of the wrong type, NaN or Infinity, a region index,
id, frame or class out of range, a fraction where an integer belongs, a
number written as a string or as a boolean, or an empty file) and runs the
subcommand that reads it. A damaged record must end the run with exit code 1
and ``<file>:<line>: ...`` on stderr, never a traceback. An empty file must be
rejected naming the file where the stage needs records (regions, labels); an
empty links, scores, hypotheses or detections file means "none" and must run.
"""

import json

import numpy as np
import pytest

from ctxseg.cli import main

FUZZ_SEED = 20240
# new kinds and mutations go last, so the earlier cases keep their draws
KINDS = ("regions", "hypotheses", "labels", "links", "scores", "detections")
MUTATIONS = ("truncate", "drop", "retype", "non_finite", "out_of_range", "empty",
             "fractional", "string", "boolean")
# fields a record may omit: dropping them must not fail
OPTIONAL = {"regions": {"bbox"}, "hypotheses": {"seed_confidence"}}
# string leaves the numeric mutations skip (a source is "det" or "trk"); kept
# out so the existing cases keep their draws
TEXT = {"source"}


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("stages")
    files = {k: str(d / f"{k}.jsonl") for k in KINDS}
    graph = str(d / "graph.json")
    assert main(["synth", "--seed", "11", "--out", str(d)]) == 0
    steps = [
        ["tracks", "--regions", files["regions"], "--detections",
         str(d / "detections.jsonl"), "--out", files["hypotheses"]],
        ["graph", "--regions", files["regions"], "--out", graph],
        ["context", "--regions", files["regions"], "--hypotheses", files["hypotheses"],
         "--out", files["links"], "--labels-out", files["labels"]],
        ["propagate", "--links", files["links"], "--graph", graph, "--out", files["scores"]],
    ]
    for argv in steps:
        assert main(argv + ["--seed", "11", "--mu", "0.5"]) == 0
    n = sum(1 for line in open(files["regions"], encoding="utf-8") if line.strip())
    return files, graph, n


def command(kind, path, files, graph, out):
    """The subcommand that reads a ``kind`` stage file from ``path``."""
    return {
        "regions": ["graph", "--regions", path, "--out", out],
        "hypotheses": ["context", "--regions", files["regions"], "--hypotheses", path,
                       "--out", out, "--labels-out", out + ".labels"],
        "labels": ["infer", "--regions", files["regions"], "--labels", path, "--out", out],
        "links": ["propagate", "--links", path, "--graph", graph, "--out", out],
        "scores": ["infer", "--regions", files["regions"], "--scores", path,
                   "--labels", files["labels"], "--out", out],
        "detections": ["tracks", "--regions", files["regions"], "--detections", path,
                       "--out", out],
    }[kind]


def leaves(value, path=()):
    """Paths to every scalar inside a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, path + (i,))
    else:
        yield path


def get(record, path):
    for key in path:
        record = record[key]
    return record


def put(record, path, value):
    get(record, path[:-1])[path[-1]] = value


def out_of_range(kind, record, n):
    """Groups of leaves that hold a region index, region id, frame or class,
    each with values outside their range: indices past [0, n), ids naming no
    region, negatives."""
    if kind in ("links", "scores"):
        index = [(kind, r, c) for r in range(len(record[kind])) for c in (0, 1)]
        return [(index, [n, -1, 10 ** 6]), ([("m",), ("n",)], [-1])]
    if kind == "labels":
        return [([("id",), ("class",)], [-1])]
    if kind == "regions":
        return [([("id",), ("frame",)], [-1])]
    if kind == "detections":
        return [([("frame",), ("class",)], [-1])]
    return [([("class",)] + [("entries", e, "frame") for e in range(len(record["entries"]))],
             [-1])]


def mutate(kind, mutation, lines, n, rng):
    """Damaged file text and the line the damage sits on (None for empty files)."""
    if mutation == "empty":
        return "", None
    candidates = range(len(lines))
    if kind in ("links", "scores"):
        candidates = [i for i in candidates if json.loads(lines[i])[kind]]
    at = int(rng.choice(candidates))
    record = json.loads(lines[at])
    if mutation == "truncate":
        bad = lines[at][:int(rng.integers(1, len(lines[at])))]
    else:
        if mutation == "drop":
            keys = [k for k in record if k not in OPTIONAL.get(kind, ())]
            del record[keys[int(rng.integers(len(keys)))]]
        elif mutation == "out_of_range":
            groups = out_of_range(kind, record, n)
            targets, values = groups[int(rng.integers(len(groups)))]
            put(record, targets[int(rng.integers(len(targets)))],
                values[int(rng.integers(len(values)))])
        elif mutation == "fractional":
            integer = [p for p in leaves(record) if type(get(record, p)) is int]
            path = integer[int(rng.integers(len(integer)))]
            put(record, path, get(record, path) + 0.5)
        else:
            numeric = [p for p in leaves(record) if not set(p) & TEXT]
            path = numeric[int(rng.integers(len(numeric)))]
            if mutation == "retype":
                value = ["x", None, [], {}][int(rng.integers(4))]
            elif mutation == "string":
                value = "1"
            elif mutation == "boolean":
                value = True
            else:
                value = [float("nan"), float("inf"), -float("inf")][int(rng.integers(3))]
            put(record, path, value)
        bad = json.dumps(record)
    return "\n".join(lines[:at] + [bad] + lines[at + 1:]) + "\n", at + 1


CASES = [(kind, mutation, rep) for rep in range(2) for mutation in MUTATIONS
         for kind in KINDS]


@pytest.mark.parametrize("kind, mutation, rep", CASES,
                         ids=[f"{k}-{m}-{r}" for k, m, r in CASES])
def test_malformed_stage_file_exits_with_diagnostic(stage_files, tmp_path, capsys,
                                                    kind, mutation, rep):
    files, graph, n = stage_files
    rng = np.random.default_rng([FUZZ_SEED, KINDS.index(kind), MUTATIONS.index(mutation), rep])
    with open(files[kind], encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    text, lineno = mutate(kind, mutation, lines, n, rng)
    path = str(tmp_path / f"{kind}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = command(kind, path, files, graph, str(tmp_path / "out"))
    capsys.readouterr()
    code = main(argv + ["--mu", "0.5"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if lineno is None and kind not in ("regions", "labels"):
        assert code == 0, err
        return
    assert code == 1
    where = f"{path}:{lineno}: " if lineno is not None else f"{path}: "
    assert f"ctxseg {argv[0]}: error: {where}" in err, err
