import dataclasses
import json

import pytest

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
