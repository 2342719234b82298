"""A model eliminates only at its cutoff, and choice independence is one rank.

``build_model`` reads every pass and cohomology class of the model off its
pair C*(M, L) -> C*(M), except in degree k, and takes its pass on d^k from
``cutoff_pass``.  The reference is the model as it was computed
before: the same differentials in a complex that runs every pass itself.
The truncation and the cotruncations of C*(L) read C*(L)'s passes and
classes outside their cutoff the same way, against the same reference.
``_check_model`` decides choice independence by the two strategies' cutoff
passes; the reference is the Betti vectors of both strategies' full models.
"""

import copy
from itertools import product

import pytest

from stratdual import cli, examples
from stratdual.cochains import CochainComplex
from stratdual.errors import StratdualError
from stratdual.model import cutoff_pass
from stratdual.workspace import Workspace

from test_dimension_four import DOCUMENTS as DIMENSION_FOUR

STRATEGIES = ("lex", "reverse-lex")

INPUTS = {name: examples.get_document(name) for name in examples.decomposition_names()}
INPUTS["x2-cone-torus-sd1"] = examples.subdivide(examples.get_document("x2-cone-torus"), 1)
INPUTS.update(DIMENSION_FOUR)


def workspace(name):
    ws = Workspace(INPUTS[name])
    try:
        ws.pair()
    except StratdualError:
        pytest.skip(f"{name} is rejected")
    return ws


def from_scratch(model) -> CochainComplex:
    """The model's complex with none of its passes or classes shared."""
    C = model.complex
    return CochainComplex(C.name, C.dims, C.d, ambient=model.pair.full)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_shared_passes_and_classes_match_a_model_computed_from_scratch(name):
    ws = workspace(name)
    pair, n = ws.pair(), ws.decomposition().n
    for k, strategy in product(range(1, n), STRATEGIES):
        m = ws.model(k, strategy)
        reference = from_scratch(m)
        where = (name, k, strategy)
        assert m.betti() == reference.betti(), where
        for r in range(-1, n + 2):
            ours, theirs = m.complex.echelon(r), reference.echelon(r)
            assert (ours.rank, ours.pivots, ours.pivot_rows) == (
                theirs.rank, theirs.pivots, theirs.pivot_rows), (where, r)
            assert m.complex.representative_matrix(r) == reference.representative_matrix(r), (
                where, r)
        # What the model shares is the pair's own objects, and the workspace's pass.
        assert m.complex.echelon(k) is ws.cutoff_pass(k, strategy)
        for r in range(-1, k - 1):
            assert m.complex.echelon(r) is pair.rel.echelon(r), (where, r)
        for r in range(k + 1, n + 2):
            assert m.complex.echelon(r) is pair.full.echelon(r), (where, r)
        for r in range(-1, k):
            assert m.complex.cohomology(r) is pair.rel.cohomology(r), (where, r)
        for r in range(k + 1, n + 2):
            assert m.complex.cohomology(r) is pair.full.cohomology(r), (where, r)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_truncations_share_the_link_passes_outside_their_cutoff(name):
    # At cutoff k the truncation takes C*(L)'s passes for r <= k - 2 and its
    # classes for r <= k - 1; a cotruncation takes both for r >= k + 1.
    ws = workspace(name)
    link, n = ws.pair().sub, ws.decomposition().n
    top = link.top
    for k, strategy in product(range(1, n), STRATEGIES):
        truncation = ws.truncation(k).complex
        cotruncation = ws.cotruncation(k, strategy).complex
        for which, C in (("truncation", truncation), ("cotruncation", cotruncation)):
            reference = CochainComplex(C.name, C.dims, C.d, ambient=link)
            where = (name, k, strategy, which)
            assert C.betti() == reference.betti(), where
            for r in range(-1, top + 2):
                ours, theirs = C.echelon(r), reference.echelon(r)
                assert (ours.rank, ours.pivots, ours.pivot_rows) == (
                    theirs.rank, theirs.pivots, theirs.pivot_rows), (where, r)
                assert C.representative_matrix(r) == reference.representative_matrix(r), (
                    where, r)
        where = (name, k, strategy)
        for r in range(-1, k - 1):
            assert truncation.echelon(r) is link.echelon(r), (where, r)
        for r in range(-1, k):
            assert truncation.cohomology(r) is link.cohomology(r), (where, r)
        for r in range(k + 1, top + 2):
            assert cotruncation.echelon(r) is link.echelon(r), (where, r)
            assert cotruncation.cohomology(r) is link.cohomology(r), (where, r)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_cutoff_pass_reads_the_complement_alone(name):
    # Built first, the workspace's pass on d^k builds no cotruncation, and it
    # is the pass that the cotruncation's inclusion in degree k gives.
    ws = workspace(name)
    pair, n = ws.pair(), ws.decomposition().n
    for k, strategy in product(range(1, n), STRATEGIES):
        where = (name, k, strategy)
        before = set(ws._built)
        ours = ws.cutoff_pass(k, strategy)
        assert set(ws._built) - before == {("cutoff pass", k, strategy)}, where
        theirs = cutoff_pass(pair, k, ws.cotruncation(k, strategy).inclusion[k])
        assert (ours.cols, ours.rank, ours.pivots, ours.pivot_rows, ours.cleared) == (
            theirs.cols, theirs.rank, theirs.pivots, theirs.pivot_rows, theirs.cleared), where


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_choice_independence_by_one_rank_matches_both_full_models(name):
    ws = workspace(name)
    n = ws.decomposition().n
    for k in range(1, n):
        betti = {s: from_scratch(ws.model(k, s)).betti() for s in STRATEGIES}
        for strategy in STRATEGIES:
            m = ws.model(k, strategy)
            result = cli._check_model(ws, m, m, strategy)
            assert result["choice_independent"] == (betti["lex"] == betti["reverse-lex"]), (
                name, k, strategy)
            assert result["choice_independent"]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("side, cutoff", [("p", 2), ("q", 1)])
def test_another_rank_at_the_cutoff_breaks_choice_independence(side, cutoff, strategy,
                                                               monkeypatch):
    # The zero perversity on x2-cone-torus gives p the cutoff 2 and q the
    # cutoff 1; the other strategy's pass at one of them loses a pivot.
    other = "reverse-lex" if strategy == "lex" else "lex"
    cutoff_pass = Workspace.cutoff_pass

    def patched(ws, k, s):
        echelon = cutoff_pass(ws, k, s)
        if (k, s) != (cutoff, other):
            return echelon
        short = copy.copy(echelon)
        short.pivots = echelon.pivots[:-1]
        return short

    def check():
        monkeypatch.setattr(cli, "_workspace", None)
        report, status = cli.run_verification("x2-cone-torus", "zero", strategy, ["model"])
        return status, report["checks"]["model"]

    status, clean = check()
    assert status == 0 and clean["choice_independent"] is True
    assert clean[f"cutoff_{side}"] == cutoff
    monkeypatch.setattr(Workspace, "cutoff_pass", patched)
    status, model = check()
    assert status == 1
    assert model["choice_independent"] is False
    assert model["pass"] is False
    # The run's own models read the unpatched passes.
    assert {key: model[key] for key in ("betti_p", "betti_q", "complementarity_symmetric")} == {
        key: clean[key] for key in ("betti_p", "betti_q", "complementarity_symmetric")}
