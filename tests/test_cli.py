import json

import pytest

from stratdual import examples
from stratdual.cli import main, render_report, run_verification


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


def test_parse_error_for_unknown_input():
    report, status = run_verification("never-heard-of-it")
    assert status == 2
    assert report["error"]["code"] == "PARSE"


def test_unknown_check_rejected():
    report, status = run_verification("disk-cone-s1", checks=["bogus"])
    assert status == 2
    assert report["error"]["code"] == "PARSE"


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
])
def test_non_integer_vertex_or_dimension_rejected(tmp_path, capsys, key, value):
    # JSON false/true/0.0/2.0 compare equal to integers in Python, so they
    # must be rejected by type, as facet vertex ids are.
    doc = dict(examples.get_document("disk-cone-s1"))
    doc[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report, status = run_verification(str(path), checks=["model"])
    assert status == 2
    assert report["error"]["code"] == "PARSE"
    assert main(["verify", str(path), "--checks", "model"]) == 2
    capsys.readouterr()
