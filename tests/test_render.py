"""The JSON writer: every rendering equals the stdlib's indented, sorted dump.

``tests/test_report_hashes.py`` pins the bytes of every bundled report; the
cases here cover what no report holds.
"""

import json

import pytest

from stratdual import examples
from stratdual.cli import main, render_report, run_verification


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def assert_renders_as_stdlib(value):
    assert render_report(value, "json") == stdlib(value)


@pytest.mark.parametrize("target, perversity, code", [
    ("x2-cone-torus", "0,2", "BAD_PERVERSITY"),
    ("no-such-input", "zero", "PARSE"),
])
def test_error_reports_render_as_stdlib(target, perversity, code):
    report, status = run_verification(target, perversity)
    assert status == 2 and report["error"]["code"] == code
    assert_renders_as_stdlib(report)


@pytest.mark.parametrize("value", [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    [[[]], [{}], {"x": [[], [[]]]}],
    {"only": {}},
    {"flag": True, "one": 1, "both": [True, 1, False, 0, None]},
    [-1, -(2 ** 70), 2 ** 64, 2 ** 64 + 1, 10 ** 40],
    (1, (2, "three"), [(), ("x",)]),
    {"tuple": (True, None), "z": 0, "a": -0, "M": "upper"},
    ['say "hi"', "back\\slash", "tab\there", "nl\nand\x00nul\x1f", "∂mu", "é", " "],
    {'key "quoted"': 1, "∂": "é", "ctrl\x07": ["\\"]},
    "just a string",
    7,
    None,
    False,
])
def test_synthetic_values_render_as_stdlib(value):
    assert_renders_as_stdlib(value)


@pytest.mark.parametrize("value", [
    1.5,
    {"x": [0.0]},
    {1, 2},
    [frozenset()],
    {1: "int key"},
    {"a": {2: "nested int key"}},
])
def test_values_a_report_cannot_hold_raise(value):
    with pytest.raises(TypeError):
        render_report(value, "json")


@pytest.mark.parametrize("argv, value", [
    (["examples", "list"], examples.catalog()),
    (["examples", "show", "x2-cone-torus"], examples.get_document("x2-cone-torus")),
])
def test_examples_print_as_stdlib(capsys, argv, value):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdlib(value)
