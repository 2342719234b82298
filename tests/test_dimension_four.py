"""Inputs of dimension 4: report bytes, and one model per cutoff.

Both inputs are a compact 4-manifold M plus the cone on its boundary, whose
fresh apex is the singular vertex:

- ``s1-x-d3``: the 3-edge circle times a tetrahedron, S^1 x D^3, whose link
  is S^1 x S^2 (48 facets);
- ``d2-x-t2``: a triangle times two 3-edge circles, D^2 x S^1 x S^1, whose
  link is the 3-torus (270 facets).

At n = 4 the middle perversities give both models the cutoff k = 2, and
zero and top give the cutoffs 3 and 1.
"""

import hashlib
import json
from itertools import combinations

import pytest

from stratdual import cli, workspace
from stratdual.cli import render_report, run_verification
from stratdual.duality import main_pairing
from stratdual.errors import NotComplementaryError
from stratdual.model import NAMED_PERVERSITIES, build_model
from stratdual.workspace import Workspace

CIRCLE = [[0, 1], [1, 2], [0, 2]]


def product(facets_a, facets_b):
    """The staircase triangulation of the product of two ordered complexes:
    one facet per lattice path through a pair of facets, with the vertex
    pairs relabelled in sorted order."""
    cells = set()
    for a in facets_a:
        for b in facets_b:
            steps = len(a) + len(b) - 2
            for rights in combinations(range(steps), len(a) - 1):
                i = j = 0
                path = [(a[0], b[0])]
                for step in range(steps):
                    if step in rights:
                        i += 1
                    else:
                        j += 1
                    path.append((a[i], b[j]))
                cells.add(tuple(path))
    label = {v: i for i, v in enumerate(sorted({v for cell in cells for v in cell}))}
    return sorted([label[v] for v in cell] for cell in cells)


def cone_on_boundary(name, facets):
    """M plus the cone on its boundary, the faces of codimension one that
    lie in one facet only; the cone's fresh apex is the singular vertex."""
    count = {}
    for facet in facets:
        for face in combinations(facet, len(facet) - 1):
            count[face] = count.get(face, 0) + 1
    apex = max(v for facet in facets for v in facet) + 1
    cone = [list(face) + [apex] for face in sorted(count) if count[face] == 1]
    return {"name": name, "dimension": len(facets[0]) - 1,
            "facets": facets + cone, "singular_vertex": apex}


DOCUMENTS = {
    "s1-x-d3": cone_on_boundary("s1-x-d3", product(CIRCLE, [[0, 1, 2, 3]])),
    "d2-x-t2": cone_on_boundary("d2-x-t2", product(product([[0, 1, 2]], CIRCLE), CIRCLE)),
}

# (input, perversity, strategy) -> sha256 of the JSON report with every
# check, which each of these runs passes.
REPORTS = {
    ("d2-x-t2", "zero", "lex"):
        "6ae7d6e6f2fa892312f58c98ff6558055d6efc9dd23b6b938dd678d40167e4f3",
    ("d2-x-t2", "zero", "reverse-lex"):
        "9aaa327ada97e4c6a8dff5b7cbe2a8af62dd50d1b974ad9607570469bd45ae79",
    ("d2-x-t2", "top", "lex"):
        "454d39b9d8edc6fd611643929cd26dc1f7f6bc360216314d8bb1b75a0c770d64",
    ("d2-x-t2", "top", "reverse-lex"):
        "374ff9b602c22ef88ba3a097524d783409dfe682348608d97c9b7073674f7746",
    ("d2-x-t2", "lower-middle", "lex"):
        "1dde0c3f0bde2b07b4bcbce31a85c464d9a7657c39b4cba9cf378222bde84cac",
    ("d2-x-t2", "lower-middle", "reverse-lex"):
        "5fbf0edb1a2539bbc138088f22c9a16001531390839f916ba508704d4854c1fd",
    ("d2-x-t2", "upper-middle", "lex"):
        "98db4da869033ed0e382235915ed8a59621456552555bd76492f06894863d3bc",
    ("d2-x-t2", "upper-middle", "reverse-lex"):
        "e81a49e8a2406402896d591c14bda7b1c56e0a3598f28ab540959f12635d6a5c",
    ("s1-x-d3", "zero", "lex"):
        "d4cc779254cb01a32ecf3d58289db9b22726ea52b7c11292fec553e5d387e596",
    ("s1-x-d3", "zero", "reverse-lex"):
        "3f4d8e310a7b19289ce20d1d95ba1130ba1755e7c5f0cf4858bd09e538a7bc8a",
    ("s1-x-d3", "top", "lex"):
        "f57a72000b51210e7e9d6765aaaa8ca844c95974b431dbc7441145b808a4c4fc",
    ("s1-x-d3", "top", "reverse-lex"):
        "b4ff2377857dbba12810da9bd78d52b84639891731042ae2d6c3ac2124c32edd",
    ("s1-x-d3", "lower-middle", "lex"):
        "d7cf0d62b4beb09838e60f031e67208c002ba22a21464a3ca5ff31416ea16afb",
    ("s1-x-d3", "lower-middle", "reverse-lex"):
        "31163ff0edc78c3fd840ec6b564fab365f910b7526c8fb70f07120a2ae94df8c",
    ("s1-x-d3", "upper-middle", "lex"):
        "a494c8043309aed6a4cfd392ec87591acdbe91c69eb941efd6c5d845710f9864",
    ("s1-x-d3", "upper-middle", "reverse-lex"):
        "78b66e8d2960e8cf31be46af7b37d4ebb47c4fe1c9845c21c72a735aee2555ee",
}


def test_facet_counts():
    assert {name: len(doc["facets"]) for name, doc in DOCUMENTS.items()} == {
        "s1-x-d3": 48, "d2-x-t2": 270}


@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
@pytest.mark.parametrize("perversity", NAMED_PERVERSITIES)
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_report_bytes(name, perversity, strategy, tmp_path, monkeypatch):
    # Read from a fixed relative path, so that the report's input name is stable.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DOCUMENTS[name]))
    report, status = run_verification(path.name, perversity, strategy, None, 0)
    digest = hashlib.sha256(render_report(report, "json").encode("utf-8")).hexdigest()
    assert (status, digest) == (0, REPORTS[name, perversity, strategy])


@pytest.mark.parametrize("perversity, cutoffs", [
    ("lower-middle", [2]), ("upper-middle", [2]), ("zero", [3, 1]), ("top", [1, 3])])
def test_equal_cutoffs_build_one_model(perversity, cutoffs, tmp_path, monkeypatch):
    # The middle perversities give p and q the cutoff 2, so one model serves
    # both sides.  The model check builds no model of the other strategy: it
    # reads that strategy's cutoff passes alone.
    path = tmp_path / "s1-x-d3.json"
    path.write_text(json.dumps(DOCUMENTS["s1-x-d3"]))
    built = []
    paired = []

    def counted(D, k, strategy, **kwargs):
        built.append((k, strategy))
        return build_model(D, k, strategy, **kwargs)

    def check_duality(mp, mq, forms):
        paired.append((mp, mq))
        return check(mp, mq, forms)

    check = cli._check_duality
    monkeypatch.setattr(workspace, "build_model", counted)
    monkeypatch.setattr(cli, "_check_duality", check_duality)
    monkeypatch.setattr(cli, "_workspace", None)
    report, status = run_verification(str(path), perversity, "lex", None, 0)
    assert status == 0
    assert built == [(k, "lex") for k in cutoffs]
    passes = [key for key in cli._workspace._built if key[0] == "cutoff pass"]
    assert sorted(passes) == [("cutoff pass", k, s) for k in sorted(cutoffs)
                              for s in ("lex", "reverse-lex")]
    (mp, mq), = paired
    values = report["perversity_values"]
    assert (mp.k, mq.k) == (values["cutoff_p"], values["cutoff_q"])
    assert (mp is mq) == (len(cutoffs) == 1)
    assert cli._workspace.model(mp.k, "lex") is mp


def test_the_middle_model_pairs_with_itself():
    # k + k = n at k = 2, so one model is both sides of the duality; at
    # k = 3 the same model twice is not complementary.
    ws = Workspace(DOCUMENTS["d2-x-t2"])
    m = ws.model(2, "lex")
    assert m.betti() == (0, 0, 2, 0, 0)
    assert main_pairing(m, m, ws.forms()).passed
    m3 = ws.model(3, "lex")
    with pytest.raises(NotComplementaryError, match="^cutoffs do not satisfy k \\+ l = n$"):
        main_pairing(m3, m3, ws.forms())
