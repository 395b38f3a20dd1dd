import dataclasses
import re
from types import SimpleNamespace

import pytest

from ctxseg import context, crf, graph, pipeline, propagation, synthetic, tracking
from ctxseg.pipeline import PipelineConfig, stage_seed
from ctxseg.regions import filter_detections


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
    assert stage_seed(7, "unary") != stage_seed(7, "synth")
    assert stage_seed(7, "unary") != stage_seed(8, "unary")
    assert stage_seed(7, "unary") == stage_seed(7, "unary")


@pytest.fixture(scope="module")
def stage_inputs():
    seq, _ = synthetic.generate(synthetic.ambiguity_scenario(7))
    hyps = pipeline.tracks_stage(seq)
    frames, labels = tracking.annotated_frames(hyps, seq)
    L = pipeline.crf_label_space(labels, {})
    model = crf.train_unary(labels, seq, L)
    unary = crf.unary_potentials(model, seq)
    return SimpleNamespace(
        seq=seq, hyps=hyps, frames=frames, labels=labels, model=model,
        links=pipeline.links_stage(seq, frames, labels),
        op=graph.build_knn_graph(seq, PipelineConfig().k).operator,
        problem=crf.CrfProblem(unary, crf.build_pairwise({}, 1.0, 1.0, L)))


NAN, INF = float("nan"), float("inf")
SETTING_CALLS = {
    "iou_threshold": lambda s, v: tracking.associate_trajectories(
        filter_detections(s.seq), s.seq.frame_count, iou_threshold=v),
    "rho": lambda s, v: tracking.annotated_frames(s.hyps, s.seq, rho=v),
    "temporal_window": lambda s, v: context.extract_exemplars(
        s.labels, s.frames, s.seq, temporal_window=v),
    "p_floor": lambda s, v: crf.unary_potentials(s.model, s.seq, p_floor=v),
    "prune_eps": lambda s, v: propagation.predict_all_links(s.links, s.op, 0.5, prune_eps=v),
    "max_sweeps": lambda s, v: crf.infer(s.problem, max_sweeps=v),
}


OUT_OF_RANGE = [
    ("iou_threshold", NAN, "iou_threshold must lie in [0, 1]"),
    ("iou_threshold", -1.0, "iou_threshold must lie in [0, 1]"),
    ("iou_threshold", 1.5, "iou_threshold must lie in [0, 1]"),
    ("rho", NAN, "rho must lie in (0, 1]"),
    ("rho", 0.0, "rho must lie in (0, 1]"),
    ("temporal_window", -1, "temporal_window must be >= 0"),
    ("p_floor", NAN, "p_floor must be positive"),
    ("p_floor", INF, "p_floor must be positive"),
    ("p_floor", 0.0, "p_floor must be positive"),
    ("prune_eps", INF, "prune_eps must be >= 0"),
    ("prune_eps", NAN, "prune_eps must be >= 0"),
    ("prune_eps", -1e-8, "prune_eps must be >= 0"),
    ("max_sweeps", 0, "max_sweeps must be >= 1"),
    ("max_sweeps", -3, "max_sweeps must be >= 1"),
]


@pytest.mark.parametrize("setting, value, message", OUT_OF_RANGE,
                         ids=[f"{setting}={value}" for setting, value, _ in OUT_OF_RANGE])
def test_stage_setting_out_of_range_rejected(stage_inputs, setting, value, message):
    # a library caller can pass any stage setting; none runs on a value outside its range
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SETTING_CALLS[setting](stage_inputs, value)
