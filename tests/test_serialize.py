"""``dump_json`` spells reports with json's C string encoder; its bytes are
``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, every time a
dict key is a string.  A key or value of any other type raises TypeError."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from configcalc.serialize import dump_json

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-2 ** 80, 2 ** 80), st.text(),
                    st.floats(allow_nan=True, allow_infinity=True))
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300)
@given(TREES)
def test_dump_json_is_json_dumps_byte_for_byte(obj):
  assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dump_json_spells_empty_containers_and_non_ascii_text():
  obj = {"é": ["ü", "☃", "\ud83d", "tab\t", 'quote"'], "": {}, "b": [],
         "n": [None, True, False, 0, -7], "z": [[], {}, ()]}
  assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dump_json_spells_floats_as_json_dumps():
  # floats keep json's own spelling, NaN, the infinities and -0.0 included
  for obj in ({"x": [1.5, float("inf")]}, [{"k": 2.0}, -0.0, 1e300],
              (float("nan"), float("-inf"), [0.1, -2.5e-308])):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [{1: "a", 2: ["b"]}, [{"k": 2}, {3: None}],
                                 {"a": 1, None: 2}, {"a": Fraction(1, 2)},
                                 [1, {2}]])
def test_dump_json_refuses_non_string_keys_and_other_values(obj):
  with pytest.raises(TypeError):
    dump_json(obj)


def test_dump_json_writes_the_text(tmp_path):
  path = tmp_path / "report.json"
  text = dump_json({"b": [1, "2"], "a": None}, path)
  assert path.read_text() == text == '{\n  "a": null,\n  "b": [\n    1,\n    "2"\n  ]\n}\n'
