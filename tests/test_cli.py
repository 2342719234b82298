import json
from pathlib import Path

import pytest

from stratdual import examples
from stratdual.cli import main, render_report, run_verification
from stratdual.rational import COMPLEMENT_LEAD


def test_verify_x2_all_checks_pass():
    report, status = run_verification("x2-cone-torus", "zero", seed=11)
    assert status == 0
    assert report["pass"]
    assert set(report["checks"]) == {"model", "duality", "ladder", "lefschetz",
                                     "truncated-duality", "oracle", "properties"}
    assert report["perversity_values"] == {
        "p": [0, 0], "q": [0, 1], "cutoff_p": 2, "cutoff_q": 1}


def test_verify_subset_of_checks():
    report, status = run_verification("octahedron-marked", "zero",
                                      checks=["model", "oracle"], seed=3)
    assert status == 0
    assert set(report["checks"]) == {"model", "oracle"}


def test_verify_explicit_perversity():
    report, status = run_verification("x2-cone-torus", "0,1", checks=["model"])
    assert status == 0
    assert report["perversity_values"]["p"] == [0, 1]
    assert report["perversity_values"]["cutoff_p"] == 1


def test_nonorientable_input_error():
    report, status = run_verification("mobius-marked", "zero")
    assert status == 2
    assert report["error"]["code"] == "NON_ORIENTABLE"


def test_bad_perversity_error():
    report, status = run_verification("x2-cone-torus", "0,2")
    assert status == 2
    assert report["error"]["code"] == "BAD_PERVERSITY"


@pytest.mark.parametrize("perversity", ["0_0,1", "0,\uff11", "0,\u0661", "0,1_0",
                                        "\u00b2", "+", "+-1", ""])
def test_explicit_perversity_fields_are_ascii_decimal_integers(perversity):
    # int() reads "0_0" as 0 and fullwidth or Arabic-Indic digits as ASCII
    # ones, and str.isdigit() takes a superscript two; each field must be at
    # most one sign followed by ASCII digits, and at least one digit.
    report, status = run_verification("x2-cone-torus", perversity, checks=["model"])
    assert status == 2
    assert report["error"] == {"code": "BAD_PERVERSITY",
                               "message": f"cannot parse perversity {perversity!r}"}


@pytest.mark.parametrize("perversity, values", [(" 0,0", [0, 0]), ("0, 1", [0, 1])])
def test_explicit_perversity_fields_may_carry_whitespace(perversity, values):
    report, status = run_verification("x2-cone-torus", perversity, checks=["model"])
    assert status == 0
    assert report["perversity_values"]["p"] == values


def test_parse_error_for_unknown_input():
    report, status = run_verification("never-heard-of-it")
    assert status == 2
    assert report["error"]["code"] == "PARSE"


def test_unknown_check_rejected():
    report, status = run_verification("disk-cone-s1", checks=["bogus"])
    assert status == 2
    assert report["error"]["code"] == "PARSE"


def test_unknown_strategy_rejected():
    # Rejected up front, as an unknown check is: only the strategies of
    # rational.COMPLEMENT_LEAD reach the library, which raises a bare
    # ValueError for any other.
    for strategy in ("LEX", "reverse_lex", "", ["lex"]):
        report, status = run_verification("x2-cone-torus", "zero", strategy)
        assert status == 2
        assert report["error"] == {"code": "PARSE", "message": f"unknown strategy {strategy!r}"}
        assert "checks" not in report


def test_perversity_that_is_not_a_str_rejected():
    # Rejected up front, next to the strategy: resolve_perversity parses text.
    for perversity in (5, None, [0, 1]):
        report, status = run_verification("x2-cone-torus", perversity, "lex")
        assert status == 2
        assert report["error"] == {"code": "BAD_PERVERSITY",
                                   "message": f"perversity must be a str, got {perversity!r}"}
        assert "checks" not in report
        assert json.loads(render_report(report, "json"))["error"]["code"] == "BAD_PERVERSITY"


def test_target_that_is_not_a_str_rejected():
    # Rejected up front with a report that renders, where Path() raised
    # TypeError before.  A value the JSON writer cannot render is echoed as
    # its repr.
    for target, echoed in ((5, 5), (None, None), (["x2-cone-torus"], ["x2-cone-torus"]),
                           (Path("x2-cone-torus"), repr(Path("x2-cone-torus")))):
        report, status = run_verification(target)
        assert status == 2
        assert report["error"] == {"code": "PARSE",
                                   "message": f"input must be a str, got {target!r}"}
        assert report["config"]["input"] == echoed
        assert "checks" not in report
        assert json.loads(render_report(report, "json"))["config"]["input"] == echoed
        assert render_report(report, "text").startswith("stratdual report")


def test_checks_that_are_not_a_list_of_str_rejected():
    # Rejected up front, where list() raised TypeError on an int before and
    # split a str into its letters.
    for checks, echoed in ((3, 3), ("model", "model"), (["model", 5], ["model", 5]),
                           ({"model"}, repr({"model"}))):
        report, status = run_verification("x2-cone-torus", checks=checks)
        assert status == 2
        assert report["error"] == {
            "code": "PARSE", "message": f"checks must be a list or tuple of str, got {checks!r}"}
        assert report["config"]["checks"] == echoed
        assert "checks" not in report
        assert json.loads(render_report(report, "json"))["error"]["code"] == "PARSE"
    report, status = run_verification("disk-cone-s1", checks=("model",))
    assert status == 0 and report["config"]["checks"] == ["model"]


def test_an_inert_seed_of_another_type_is_echoed_so_the_report_renders():
    # No check reads the seed, so any seed runs; one the JSON writer cannot
    # render is echoed as its repr.
    report, status = run_verification("disk-cone-s1", checks=["model"], seed=1.5)
    assert status == 0 and report["config"]["seed"] == "1.5"
    assert json.loads(render_report(report, "json"))["config"]["seed"] == "1.5"


def test_cli_strategies_are_the_complement_strategies(capsys):
    for strategy in COMPLEMENT_LEAD:
        assert main(["verify", "disk-cone-s1", "--checks", "model",
                     "--strategy", strategy]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "disk-cone-s1", "--strategy", "LEX"])
    assert exit_.value.code == 2
    assert "invalid choice: 'LEX'" in capsys.readouterr().err


def test_verify_file_input(tmp_path):
    doc = examples.get_document("disk-cone-s1")
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, status = run_verification(str(path), "zero", checks=["model", "duality"])
    assert status == 0
    assert report["input"] == "input.json"


def test_malformed_file_input(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    report, status = run_verification(str(path))
    assert status == 2
    assert report["error"]["code"] == "PARSE"


def test_non_utf8_file_input(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    report, status = run_verification(str(path))
    assert status == 2
    assert report["error"]["code"] == "PARSE"
    assert main(["verify", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "PARSE"


def test_disconnected_link_error(tmp_path):
    doc = {
        "name": "wedge",
        "dimension": 2,
        "facets": [[3, 0, 1], [3, 1, 2], [3, 0, 2], [0, 1, 2],
                   [3, 4, 5], [3, 5, 6], [3, 4, 6], [4, 5, 6]],
        "singular_vertex": 3,
    }
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, status = run_verification(str(path))
    assert status == 2
    assert report["error"]["code"] == "LINK_DISCONNECTED"


def test_byte_identical_reports():
    r1, _ = run_verification("octahedron-marked", "zero", seed=9)
    r2, _ = run_verification("octahedron-marked", "zero", seed=9)
    assert render_report(r1, "json") == render_report(r2, "json")


def test_exit_status_through_main(capsys):
    assert main(["verify", "disk-cone-s1", "--checks", "model", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert main(["verify", "mobius-marked", "--format", "text"]) == 2


def test_examples_list_stable(capsys):
    assert main(["examples", "list"]) == 0
    first = capsys.readouterr().out
    assert main(["examples", "list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    names = [entry["name"] for entry in json.loads(first)]
    assert {"octahedron-marked", "x2-cone-torus", "disk-cone-s1"} <= set(names)


def test_examples_show(capsys):
    assert main(["examples", "show", "x2-cone-torus"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["singular_vertex"] == 7
    assert len(doc["facets"]) == 21
    assert main(["examples", "show", "missing"]) == 2
    out = capsys.readouterr().out
    assert out == ('{\n  "error": {\n    "code": "PARSE",\n'
                   '    "message": "unknown example \'missing\'"\n  }\n}\n')
    assert json.loads(out)["error"]["code"] == "PARSE"


def test_csv_and_text_render():
    report, _ = run_verification("disk-cone-s1", checks=["model"])
    csv_out = render_report(report, "csv")
    assert csv_out.splitlines()[0] == "section,item,value"
    assert "model,pass,true" in csv_out
    text_out = render_report(report, "text")
    assert "overall: pass" in text_out
    with pytest.raises(Exception):
        render_report(report, "yaml")


@pytest.mark.parametrize("key,value", [
    ("singular_vertex", False),
    ("singular_vertex", True),
    ("singular_vertex", 0.0),
    ("dimension", 2.0),
    ("facets", [[[0, 1], 2, 3]]),
    ("facets", [[{"a": 1}, 2, 3]]),
])
def test_non_integer_vertex_or_dimension_rejected(tmp_path, capsys, key, value):
    # JSON false/true/0.0/2.0 compare equal to integers in Python, so they
    # must be rejected by type, as facet vertex ids are.  A list or object
    # vertex id must be rejected before it reaches set(), which cannot hash it.
    doc = dict(examples.get_document("disk-cone-s1"))
    doc[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, status = run_verification(str(path), checks=["model"])
    assert status == 2
    assert report["error"]["code"] == "PARSE"
    assert main(["verify", str(path), "--checks", "model"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", [None, 5, [1]])
def test_a_name_that_is_not_a_str_rejected(tmp_path, capsys, name):
    # Every complex name and error message carries the document's name, so
    # a name of another JSON type would show there as its repr.
    doc = dict(examples.get_document("disk-cone-s1"), name=name)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, status = run_verification(str(path), checks=["model"])
    assert status == 2
    assert report["error"] == {"code": "PARSE", "message": f"name must be a string, got {name!r}"}
    assert main(["verify", str(path), "--checks", "model"]) == 2
    capsys.readouterr()


def test_stokes_identity_detects_a_wrong_coboundary_sign(monkeypatch):
    # Negating d^0 of X keeps d∘d = 0, so the complex is valid but has the
    # wrong sign for Stokes; the exact identity must see it.
    from stratdual import cli, workspace
    from stratdual.cochains import CochainComplex, simplicial_cochains

    def flipped(K):
        C, cup = simplicial_cochains(K)
        d = (C.d[0].scaled(-1),) + C.d[1:]
        return CochainComplex(C.name, C.dims, d), cup

    # X's cochains are built once per workspace, so the run needs a fresh one.
    monkeypatch.setattr(workspace, "simplicial_cochains", flipped)
    monkeypatch.setattr(cli, "_workspace", None)
    report, status = run_verification("x2-cone-torus", checks=["properties"])
    assert status == 1
    properties = report["checks"]["properties"]
    assert properties["stokes_identity"] is False
    assert properties["pass"] is False
    assert properties["euler_characteristic"] is True


def test_properties_read_the_cotruncations_of_the_runs_strategy(monkeypatch):
    from stratdual import cli

    monkeypatch.setattr(cli, "_workspace", None)
    report, status = run_verification("x2-cone-torus", "zero", "reverse-lex", ["properties"])
    assert status == 0
    assert all(value is True for value in report["checks"]["properties"].values())
    # The link has dimension c = 2, and properties reads the cutoffs 1..c + 1.
    assert not {("cotruncation", k, "lex") for k in range(1, 4)} & set(cli._workspace._built)


@pytest.mark.parametrize("name", examples.decomposition_names())
def test_schema_v2_properties_keys(name):
    report, status = run_verification(name, checks=["properties"])
    assert report["schema_version"] == 2
    if status == 2:
        assert report["error"]["code"] == "NON_ORIENTABLE"
        return
    assert status == 0
    assert set(report["checks"]["properties"]) == {
        "pass", "stokes_identity", "product_vanishing",
        "boundary_products_vanish", "euler_characteristic"}
