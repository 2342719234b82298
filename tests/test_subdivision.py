"""Everything a report states but its matrix entries survives subdivision.

Betti vectors, pairing dimensions and ranks, ladder signs and every verdict
are invariants of the pseudomanifold, so one barycentric subdivision must
leave them unchanged; only the entries of the pairing matrices depend on
the cohomology bases the triangulation induces.
"""

import hashlib
import json

import pytest

from stratdual import examples
from stratdual.cli import render_report, run_verification

STRUCTURAL_CHECKS = ["model", "duality", "ladder", "lefschetz", "truncated-duality", "oracle"]


def without_entries(report):
    """The report minus matrix entries and the input file name."""
    if isinstance(report, dict):
        return {key: without_entries(value) for key, value in report.items()
                if key not in ("entries", "input")}
    if isinstance(report, list):
        return [without_entries(value) for value in report]
    return report


def verify_subdivided(name, level, tmp_path, perversity, strategy):
    path = tmp_path / f"{name}-sd{level}.json"
    path.write_text(json.dumps(examples.subdivide(examples.get_document(name), level)))
    return run_verification(str(path), perversity, strategy, STRUCTURAL_CHECKS, 0)


def test_subdivide_keeps_old_vertices_and_splits_facets():
    document = examples.get_document("disk-cone-s1")
    once = examples.subdivide(document, 1)
    # Each triangle splits into 3! = 6; the new vertex ids start above the old ones.
    assert len(once["facets"]) == 6 * len(document["facets"])
    assert once["singular_vertex"] == document["singular_vertex"]
    old = {v for f in document["facets"] for v in f}
    new = {v for f in once["facets"] for v in f}
    assert old <= new and min(new - old) > max(old)
    assert examples.subdivide(once, 1) == examples.subdivide(document, 2)
    assert examples.subdivide(document, 0) == document


@pytest.mark.parametrize("name", ["disk-cone-s1", "octahedron-marked", "x2-cone-torus"])
@pytest.mark.parametrize("perversity, strategy", [("zero", "lex"), ("top", "reverse-lex")])
def test_subdivision_keeps_every_invariant(name, perversity, strategy, tmp_path):
    before, status_before = verify_subdivided(name, 0, tmp_path, perversity, strategy)
    after, status_after = verify_subdivided(name, 1, tmp_path, perversity, strategy)
    assert status_before == status_after == 0
    assert without_entries(after) == without_entries(before)


@pytest.mark.parametrize("perversity, strategy", [("zero", "lex"), ("top", "reverse-lex")])
def test_subdivided_properties_pass(perversity, strategy, tmp_path):
    # On x2-cone-torus sd1 the products of properties run over 504 tetrahedra
    # and their links, not only over the bundled triangulations.
    path = tmp_path / "x2-cone-torus-sd1.json"
    path.write_text(json.dumps(examples.subdivide(examples.get_document("x2-cone-torus"), 1)))
    report, status = run_verification(str(path), perversity, strategy, ["properties"], 0)
    assert status == 0
    assert all(report["checks"]["properties"].values())


def test_subdivided_non_orientable_input_is_rejected(tmp_path):
    report, status = verify_subdivided("mobius-marked", 1, tmp_path, "zero", "lex")
    assert status == 2
    assert report["error"]["code"] == "NON_ORIENTABLE"


def test_subdivided_report_bytes(tmp_path, monkeypatch):
    # x2-cone-torus sd1 (504 tetrahedra), read from a fixed relative path so
    # that the report's input name is stable.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "x2-cone-torus-sd1.json"
    document = examples.subdivide(examples.get_document("x2-cone-torus"), 1)
    assert len(document["facets"]) == 504
    path.write_text(json.dumps(document))
    report, status = run_verification(path.name, "zero", "lex", STRUCTURAL_CHECKS, 0)
    digest = hashlib.sha256(render_report(report, "json").encode("utf-8")).hexdigest()
    assert (status, digest) == (
        0, "9c4d3aebd259344d655b6c033d5dcee9d99e09478f11384b26f0059b85868a98")


def test_subdivided_reverse_lex_report_bytes(tmp_path, monkeypatch):
    # The lex pin above reads a pi_k of unit rows; reverse-lex's is not.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "x2-cone-torus-sd1.json"
    path.write_text(json.dumps(examples.subdivide(examples.get_document("x2-cone-torus"), 1)))
    report, status = run_verification(path.name, "zero", "reverse-lex", STRUCTURAL_CHECKS, 0)
    digest = hashlib.sha256(render_report(report, "json").encode("utf-8")).hexdigest()
    assert (status, digest) == (
        0, "21c3b96b7824c61129991acc18d33fb4277bfaad9eb62ec6b98f1f4f97ffa9c1")
