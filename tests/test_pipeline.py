import dataclasses
import re
from types import SimpleNamespace

import pytest
from problem_gen import tiled_sequence

from ctxseg import context, graph, pipeline, propagation, synthetic, tracking
from ctxseg.pipeline import PipelineConfig, stage_seed
from ctxseg.regions import SparseMatrix


def test_config_json_roundtrip():
    cfg = PipelineConfig(k=7, mu=0.8, lambda_pair=2.5, seed=42, no_context=True)
    assert PipelineConfig(**dataclasses.asdict(cfg)) == cfg


@pytest.mark.parametrize("field, value, message", [
    ("no_context", 0, "no_context must be a bool, got 0"),
    ("no_context", "false", "no_context must be a bool, got 'false'"),
    ("seed", 3.0, "seed must be an int, got 3.0"),
    ("mu", True, "mu must be a number, got True"),
    ("lambda_pair", "1", "lambda_pair must be a number, got '1'"),
])
def test_config_rejects_wrong_types(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PipelineConfig(**{field: value})


def test_config_keeps_int_given_for_float():
    cfg = PipelineConfig(lambda_pair=2)
    assert type(cfg.lambda_pair) is int


def test_config_validation_messages():
    for field, value in [("mu", 1.5), ("mu", 0.0), ("lambda_pair", -0.1),
                         ("k", 0), ("k", -3)]:
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(PipelineConfig(), **{field: value})


def test_config_fields_cannot_be_assigned():
    # a field assigned after construction would skip the checks
    cfg = PipelineConfig(seed=7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.no_context = "false"
    assert cfg.no_context is False
    assert dataclasses.replace(cfg, no_context=True).no_context is True
    with pytest.raises(ValueError, match="^no_context must be a bool, got 'false'$"):
        dataclasses.replace(cfg, no_context="false")


FLOAT_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)
                if isinstance(f.default, float)]


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        PipelineConfig(**{field: bad})


def test_stage_seeds_differ_by_stage_and_seed():
    # "synth" is the one stage that draws; another name must give another seed
    assert stage_seed(7, "other") != stage_seed(7, "synth")
    assert stage_seed(7, "synth") != stage_seed(8, "synth")
    assert stage_seed(7, "synth") == stage_seed(7, "synth")


@pytest.fixture(scope="module")
def stage_inputs():
    seq, _ = synthetic.generate(synthetic.ambiguity_scenario(7))
    frames, labels = tracking.annotated_frames(pipeline.tracks_stage(seq), seq)
    return SimpleNamespace(
        seq=seq, frames=frames, labels=labels,
        links=pipeline.links_stage(seq, frames, labels),
        op=graph.build_knn_graph(seq, PipelineConfig().k).operator)


NAN, INF = float("nan"), float("inf")
SETTING_CALLS = {
    "temporal_window": lambda s, v: context.extract_exemplars(
        s.labels, s.frames, s.seq, temporal_window=v),
    "prune_eps": lambda s, v: propagation.predict_all_links(s.links, s.op, 0.5, prune_eps=v),
    "mu": lambda s, v: propagation.predict_all_links({}, s.op, v),  # no link to propagate
}


OUT_OF_RANGE = [
    ("temporal_window", -1, "temporal_window must be >= 0"),
    ("prune_eps", INF, "prune_eps must be >= 0"),
    ("prune_eps", NAN, "prune_eps must be >= 0"),
    ("prune_eps", -1e-8, "prune_eps must be >= 0"),
    ("mu", 1.5, "mu must lie in (0, 1), got 1.5"),
    ("mu", NAN, "mu must lie in (0, 1), got nan"),
]


@pytest.mark.parametrize("setting, value, message", OUT_OF_RANGE,
                         ids=[f"{setting}={value}" for setting, value, _ in OUT_OF_RANGE])
def test_stage_setting_out_of_range_rejected(stage_inputs, setting, value, message):
    # the stage keywords a library caller can pass (the other settings are
    # module constants) and mu: none runs on a value outside its range
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SETTING_CALLS[setting](stage_inputs, value)


@pytest.mark.parametrize("pair, named", [((1, 2), 1), ((2, 5), 5), ((7, 0), 7)])
def test_infer_stage_refuses_scored_class_without_label(stage_inputs, pair, named):
    # the labels hold classes 0, 2 and 3; the message names the caller's id
    labels = {rid: c for rid, c in stage_inputs.labels.items() if c != 1}
    seq = stage_inputs.seq
    scores = {pair: propagation.LinkScoreMatrix(SparseMatrix([0], [1], [0.5], (seq.n, seq.n)))}
    with pytest.raises(ValueError, match=re.escape(
            f"class pair {pair} names class {named}, which no region label has")):
        pipeline.infer_stage(seq, labels, scores, PipelineConfig())


def test_infer_stage_refuses_negative_class(stage_inputs):
    labels = dict(stage_inputs.labels)
    labels[min(labels)] = -1
    with pytest.raises(ValueError, match="^negative class -1$"):
        pipeline.infer_stage(stage_inputs.seq, labels, {}, PipelineConfig())


CONTEXT_INPUTS = [(2, ()), (20, ()), (2, (2, 3)), (2, (1, 3)), (2, (1, 2))]


@pytest.mark.parametrize("seed", [200, 201, 7])
@pytest.mark.parametrize("background, drop", CONTEXT_INPUTS,
                         ids=["n103", "n589", "only-1", "only-2", "only-3"])
def test_context_does_not_lower_mean_iou(background, drop, seed):
    """With one repeat at mu 0.5 and k 20 the propagated context recovers the
    ambiguous object (0.925-1.000 against 0.735 without it); on the
    single-class videos both read 1.000. A change that makes context cost
    IoU here shows."""
    seq, gt = tiled_sequence(seed, 1, background, drop)
    cfg = PipelineConfig(k=20, mu=0.5, seed=seed)
    with_context = pipeline.run_pipeline(seq, cfg, gt=gt).report.mean_iou
    without = pipeline.run_pipeline(seq, dataclasses.replace(cfg, no_context=True),
                                    gt=gt).report.mean_iou
    assert with_context >= without
