"""Cross-call sweeps on relabelled documents.

A relabelling of the vertex ids permutes every basis the engine picks, so a
fault that depends on the order of simplices shows on some relabellings
only.  x2-cone-torus (the document of perfbench's repeat-sweep) and
octahedron-marked sd¹ are relabelled by ten seeded permutations each, and
each relabelled document runs repeat-sweep's eight structural
configurations in sequence in one process, the later calls on the workspace
the earlier ones built.  Each must match the unrelabelled document's
verdicts and Betti vectors, and render the bytes of the same run made cold.
At n = 2 the explicit perversities 0,0 and 0,1 are rejected, on every
relabelling alike.
"""

import json
import random

import pytest

from stratdual import cli, examples
from stratdual.cli import render_report, run_verification

STRUCTURAL_CHECKS = ["model", "duality", "ladder", "lefschetz",
                     "truncated-duality", "oracle"]
SWEEP = [(perversity, strategy)
         for perversity in ("zero", "top", "0,0", "0,1")
         for strategy in ("lex", "reverse-lex")]
DOCUMENTS = {
    "x2-cone-torus": examples.get_document("x2-cone-torus"),
    "octahedron-marked-sd1": examples.subdivide(examples.get_document("octahedron-marked"), 1),
}
SEEDS = range(10)


def relabel(document, seed):
    """The same complex with its vertex ids permuted by a seeded shuffle."""
    old = sorted({v for facet in document["facets"] for v in facet})
    new = list(old)
    random.Random(seed).shuffle(new)
    mapping = dict(zip(old, new))
    return {
        "name": document["name"],
        "dimension": document["dimension"],
        "facets": sorted(sorted(mapping[v] for v in facet) for facet in document["facets"]),
        "singular_vertex": mapping[document["singular_vertex"]],
    }


def outcome(report, status):
    """What a relabelling must not change: the status, each check's verdict
    and the Betti vectors."""
    if "error" in report:
        return status, report["error"]["code"]
    checks = report["checks"]
    return (status, {name: section["pass"] for name, section in checks.items()},
            checks["model"]["betti_p"], checks["model"]["betti_q"],
            {tag: side["cone_betti"] for tag, side in checks["oracle"]["sides"].items()})


def sweep(path):
    """The sweep's reports on one file, in sequence, from a cold workspace."""
    cli._workspace = None
    runs = []
    for perversity, strategy in SWEEP:
        report, status = run_verification(str(path), perversity, strategy, STRUCTURAL_CHECKS)
        runs.append((outcome(report, status), render_report(report, "json")))
    return runs


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_relabelled_sweeps_match_the_document_and_cold_runs(tmp_path, monkeypatch, name):
    monkeypatch.setattr(cli, "_workspace", None)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DOCUMENTS[name]), encoding="utf-8")
    expected = [result for result, _ in sweep(path)]
    for seed in SEEDS:
        path = tmp_path / f"{name}-{seed}.json"
        path.write_text(json.dumps(relabel(DOCUMENTS[name], seed)), encoding="utf-8")
        warm = sweep(path)
        assert [result for result, _ in warm] == expected, seed
        # The first run of a sweep is cold; every later one reads what the
        # runs before it built.
        for (perversity, strategy), (_, text) in list(zip(SWEEP, warm))[1:]:
            cli._workspace = None
            report, _ = run_verification(str(path), perversity, strategy, STRUCTURAL_CHECKS)
            assert render_report(report, "json") == text, (seed, perversity, strategy)
