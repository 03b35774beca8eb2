"""The report writer, `formats.write_json`, against its oracle: its text is
exactly `json.dumps(value, sort_keys=True, indent=2) + "\\n"`, written in
blocks.  Every golden case (tests/test_golden_cli.py) goes through the
writer too, so a report with a non-str key would fail there."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmorse.formats import SCHEMA_VERSION, _BLOCK, report_document, write_json

# the characters JSON escapes, and some it writes as \uXXXX: quotes,
# backslashes, controls, non-ASCII, astral and lone surrogates
AWKWARD = ['"', "\\", "/", "\x00", "\x07", "\b", "\t", "\n", "\r", "\x1f", "\x7f",
           "\xe9", "\u2028", "\uffff", "\U0001f600", "\ud800", "\udfff"]
TEXT = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(AWKWARD)))
SCALARS = st.one_of(
    TEXT,
    st.booleans(),
    st.none(),
    st.integers(),
    st.integers(max_value=-2**64),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(TEXT, min_size=2, max_size=5),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


def _written(value) -> list[str]:
    blocks: list[str] = []
    write_json(value, blocks.append)
    return blocks


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=VALUES)
def test_writer_gives_the_bytes_of_json_dumps(value):
    assert "".join(_written(value)) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_empty_containers_and_scalars_at_the_top():
    for value in ([], {}, (), [[], {}], {"a": {}, "b": []}, "", "\ud800", -2**100, None,
                  True, False):
        assert "".join(_written(value)) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {1, 2}, Fraction(1, 2), b"bytes", object(), [1, {"a": {2}}], {"a": (1, Fraction(3))},
])
def test_a_value_json_dumps_rejects_raises_type_error(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        write_json(value, lambda text: None)


@pytest.mark.parametrize("value", [
    {1: "a"}, {None: 1}, {True: 1}, {2.5: 1}, {(1, 2): 3}, {"a": 1, 3: 2}, [{"x": {0: 1}}],
    0.5, ["a", 1.0], {"a": float("nan")},
])
def test_a_non_str_key_or_a_float_raises_type_error(value):
    """json.dumps writes these; no report holds one."""
    with pytest.raises(TypeError):
        write_json(value, lambda text: None)


def test_a_long_report_is_written_in_blocks():
    value = {"intervals": [{"class": [f"x{i}", f"y{i}"], "ok": True} for i in range(3 * _BLOCK)]}
    blocks = _written(value)
    assert len(blocks) > 3
    assert "".join(blocks) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_report_document_is_the_written_report():
    results = {"ok": True, "intervals": [{"interval": ["0", "3/2"], "class": ["v1"]}],
               "warnings": [], "counts": {"0": 1, "1": -2}}
    inputs = {"input": "data/t3_poset.txt", "matching": "m.txt"}
    doc = {"schema_version": SCHEMA_VERSION, "command": "sweep", "inputs": inputs,
           "results": results}
    assert report_document("sweep", results, inputs) == json.dumps(
        doc, sort_keys=True, indent=2) + "\n"
