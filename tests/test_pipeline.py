import ast
import dataclasses
import functools
import inspect
import json

import pytest

from ctxseg import pipeline
from ctxseg.pipeline import PipelineConfig, stage_seed


def test_config_json_roundtrip():
    cfg = PipelineConfig(k=7, mu=0.8, lambda_pair=2.5, seed=42, no_context=True)
    back = PipelineConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert back == cfg


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


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        PipelineConfig.from_dict({"k": 5, "bogus": 1})


def test_config_validation_messages():
    for field, value in [("mu", 1.5), ("det_threshold", -0.1), ("rho", 0.0),
                         ("k", 0), ("p_floor", 0.0)]:
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


def test_stage_function_defaults_match_the_config():
    """Every function that pipeline.py passes a ``cfg.<field>`` value: where it
    gives a parameter named after a config field a default, that default is the
    config's, so a direct call with defaults runs as the pipeline does."""
    called = {}
    for node in ast.walk(ast.parse(inspect.getsource(pipeline))):
        if isinstance(node, ast.Call) and any(
                isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name)
                and a.value.id == "cfg" for a in node.args + [k.value for k in node.keywords]):
            name = ast.unparse(node.func)
            called[name] = functools.reduce(getattr, name.split("."), pipeline)
    assert {"tracking.associate_trajectories", "tracking.annotated_frames",
            "ctx.extract_exemplars", "crf.train_unary", "crf.unary_potentials", "crf.infer",
            "graph.build_knn_graph", "propagation.predict_all_links",
            "crf.build_pairwise"} <= set(called)
    defaults = dataclasses.asdict(PipelineConfig())
    drift = [(name, p.name, p.default) for name, fn in sorted(called.items())
             for p in inspect.signature(fn).parameters.values()
             if p.name in defaults and p.default is not p.empty
             and p.default != defaults[p.name]]
    assert drift == []


def test_stage_seeds_differ_by_stage_and_seed():
    assert stage_seed(7, "unary") != stage_seed(7, "synth")
    assert stage_seed(7, "unary") != stage_seed(8, "unary")
    assert stage_seed(7, "unary") == stage_seed(7, "unary")
