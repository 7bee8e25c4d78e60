import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchparts.config import CORPUS_KEYS, TOP_LEVEL_KEYS, RunConfig, load_config
from sketchparts.errors import ConfigError
from sketchparts.training import RouterPlan, TrainPlan


def write(tmp_path, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(value))
    return path


@pytest.mark.parametrize("value", [5, [1], [], 0, "parser", None, True])
def test_top_level_must_be_an_object(tmp_path, value):
    with pytest.raises(ConfigError, match="object"):
        load_config(write(tmp_path, value))


@pytest.mark.parametrize("section", ["corpus", "parser", "router"])
@pytest.mark.parametrize("value", [5, [1], "x", None])
def test_section_must_be_an_object(tmp_path, section, value):
    with pytest.raises(ConfigError, match=f"{section} must be a JSON object"):
        load_config(write(tmp_path, {section: value}))


@pytest.mark.parametrize(
    "raw",
    [
        {"taxonomy": 5},
        {"seed": "1"},
        {"seed": -1},
        {"seed": 1.5},
        {"format_version": 99},
        {"format_version": "x"},
        {"format_version": None},
        {"format_version": True},
        {"format_version": 1.0},
    ],
)
def test_bad_scalar_values(tmp_path, raw):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, raw))


def test_non_utf8_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match="run.json"):
        load_config(path)


def test_valid_config_loads(tmp_path):
    cfg = load_config(
        write(tmp_path, {"format_version": 1, "seed": 3, "parser": {"iterations": 7}})
    )
    assert isinstance(cfg, RunConfig) and cfg.seed == 3
    assert cfg.train_plan().iterations == 7


def field_names(cls):
    return sorted(f.name for f in dataclasses.fields(cls))


json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)


def section(keys):
    return st.one_of(
        json_value, st.dictionaries(st.sampled_from(sorted(keys)), json_value, max_size=3)
    )


config_like = st.fixed_dictionaries(
    {},
    optional={
        "format_version": json_value,
        "taxonomy": json_value,
        "seed": json_value,
        "corpus": section(CORPUS_KEYS),
        "parser": section(field_names(TrainPlan)),
        "router": section(field_names(RouterPlan)),
    },
)


any_top_level_key = st.dictionaries(st.sampled_from(sorted(TOP_LEVEL_KEYS)), json_value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_value, config_like, any_top_level_key))
def test_fuzz_only_config_errors_escape(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("fuzz") / "run.json"
    path.write_text(json.dumps(value))
    try:
        cfg = load_config(path)
        plans = cfg.train_plan(), cfg.router_plan()
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert isinstance(plans[0], TrainPlan) and isinstance(plans[1], RouterPlan)
