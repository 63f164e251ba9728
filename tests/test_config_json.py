"""`write_json` against its oracle, `json.dumps(indent=2)`: the C encoder's
compact text laid out by one array pass must give the same bytes for every
JSON value. And `check_numbers`, which every config class runs on
construction: an `int` field holds an integer."""

import json
import math
import re
import reprlib
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsplace.baselines import KmeansConfig
from bsplace.config_json import DataError, write_json
from bsplace.eval_report import GeneratorConfig
from bsplace.optimizer import GaConfig
from bsplace.radio import RadioParams
from bsplace.scene import SceneConfig

# pieces that a wrong string scan would read as structure: quotes, escapes
# and escaped escapes, brackets, commas, control characters and non-ASCII text
_PIECES = ['"', "\\", '\\"', '\\\\"', "\\\\", "[", "]", "{", "}", ",", ":", ": ", " ", "a",
           "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "😀", "[]", "{}", '""']
_texts = st.one_of(st.lists(st.sampled_from(_PIECES), max_size=8).map("".join),
                   st.text(max_size=8))
_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), _finite,
    st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1.7976931348623157e308,
                     2**64, -2**63 - 1]),
    _texts,
    st.sampled_from([[], {}, [[]], [{}], {"": {}}, {"[": [[], {}]}, [[[]], {"a": {}}]]),
)
# int keys as history.json's `per_budget` has them; one key type per object,
# as sorting needs
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_texts, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=5),
        st.dictionaries(_finite, children, max_size=3),
    ),
    max_leaves=30,
)


def _dumps(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("ascii")


@settings(max_examples=600, deadline=None)
@given(obj=_json_values)
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("write_json") / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == _dumps(obj)


def test_write_json_lays_out_nested_and_empty_containers(tmp_path):
    obj = {"per_budget": {3: {"f1": -0.0, "sites": []}, 10: {}},
           'a"[,]{': [[], [{}], {"k": [1, [2, {"x": None}]]}], "b\\": [True, False, 2**70]}
    write_json(tmp_path / "out.json", obj)
    text = (tmp_path / "out.json").read_text()
    assert text == _dumps(obj).decode("ascii")
    assert '"sites": []\n' in text and '"10": {}\n' in text and '    [\n      {}\n    ],' in text


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["top", "value", "key", "nested"])
def test_write_json_rejects_non_finite_numbers_and_writes_nothing(tmp_path, bad, where):
    obj = {"top": bad, "value": {"a": bad}, "key": {bad: 1},
           "nested": {"a": [1.5, {"b": [2, bad]}]}}[where]
    path = tmp_path / "out.json"
    # the C encoder's message does not name the value, so only the type is asserted
    with pytest.raises(ValueError):
        write_json(path, obj)
    assert not path.exists() and not (tmp_path / "out.json.tmp").exists()


# every `int` field of every config class; 20 is a valid value of each
_INT_FIELDS = [(cls, name) for cls in (GaConfig, KmeansConfig, GeneratorConfig, RadioParams,
                                       SceneConfig)
               for name, kind in typing.get_type_hints(cls).items() if kind is int]


def test_int_fields_are_the_counts_and_seeds():
    assert [f"{cls.__name__}.{name}" for cls, name in _INT_FIELDS] == [
        "GaConfig.pop_size", "GaConfig.generations", "GaConfig.seed", "GaConfig.m_max",
        "KmeansConfig.seed", "GeneratorConfig.width", "GeneratorConfig.height",
        "GeneratorConfig.road_period", "GeneratorConfig.road_width"]


@pytest.mark.parametrize("cls, name", _INT_FIELDS, ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("value", [2.5, 20.0, np.float64(20.0), True, "20"],
                         ids=["fraction", "whole-float", "numpy-float", "bool", "str"])
def test_config_int_field_rejects_a_non_integer(cls, name, value):
    # a float used to pass and fail later in the search with a bare TypeError,
    # and a bool was taken as 0 or 1
    message = f"^{name} must be an integer, got {re.escape(reprlib.repr(value))}$"
    with pytest.raises(DataError, match=message):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", _INT_FIELDS, ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("value", [20, np.int64(20), np.uint8(20)], ids=["int", "int64", "uint8"])
def test_config_int_field_takes_any_integer(cls, name, value):
    assert getattr(cls(**{name: value}), name) == 20
