"""Reuse of derived objects across calls on one document.

``run_verification`` keeps the objects derived from the last input document
and reuses them when the next call's document has the same content.  A run
on a warm workspace must render the same bytes as the same run made cold.
Within one run each object of the link is built once, and the checks read
the same truncated pairing as the standalone ``truncated_duality``.
"""

import collections
import gc
import json
import sys
import weakref

import pytest

from stratdual import cli, cotruncation, examples, rational
from stratdual.cli import render_report, run_verification
from stratdual.cotruncation import truncated_duality
from stratdual.errors import StratdualError
from stratdual.examples import decomposition_names
from stratdual.model import NAMED_PERVERSITIES
from stratdual.workspace import Workspace, document_key

STRUCTURAL_CHECKS = ["model", "duality", "ladder", "lefschetz",
                     "truncated-duality", "oracle"]

# The eight structural configurations of tests/test_report_hashes.py, then
# the all-check default run.
CONFIGS = [(perversity, strategy, STRUCTURAL_CHECKS)
           for perversity in NAMED_PERVERSITIES
           for strategy in ("lex", "reverse-lex")] + [("zero", "lex", None)]


def _bytes(target, perversity="zero", strategy="lex", checks=None):
    report, status = run_verification(target, perversity, strategy, checks)
    return status, render_report(report, "json")


def _held_key():
    return cli._workspace.key if cli._workspace is not None else None


@pytest.mark.parametrize("name", decomposition_names())
def test_cold_run_renders_the_bytes_of_a_warm_run(name):
    other = next(n for n in decomposition_names() if n != name)
    key = document_key(examples.get_document(name))
    for i, config in enumerate(CONFIGS):
        _bytes(other, checks=["model"])
        assert _held_key() != key
        cold = _bytes(name, *config)
        # Warm: a fresh workspace that the other configurations build first.
        _bytes(other, checks=["model"])
        for j, warm_up in enumerate(CONFIGS):
            if j != i:
                _bytes(name, *warm_up)
        assert _held_key() == key
        assert _bytes(name, *config) == cold, config


def test_a_rewritten_file_is_read_anew(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(examples.get_document("x2-cone-torus")), encoding="utf-8")
    first = _bytes(str(path))
    path.write_text(json.dumps(examples.get_document("octahedron-marked")), encoding="utf-8")
    second = _bytes(str(path))
    # The same path and document again, cold: another document ran between.
    _bytes("disk-cone-s1", checks=["model"])
    assert _bytes(str(path)) == second != first


def test_same_content_under_another_path_reuses_the_workspace(tmp_path):
    document = examples.get_document("disk-cone-s1")
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    _bytes("disk-cone-s1", checks=["model"])
    held = cli._workspace
    _bytes(str(path), checks=["model"])
    assert cli._workspace is held


def test_a_failing_document_fails_alike_twice_and_keeps_no_partial_object():
    first = _bytes("mobius-marked")
    assert first[0] == 2
    assert json.loads(first[1])["error"]["code"] == "NON_ORIENTABLE"
    assert "D" in cli._workspace._built
    assert "mu" not in cli._workspace._built
    assert _bytes("mobius-marked") == first
    assert "mu" not in cli._workspace._built


def test_only_the_last_documents_workspace_is_held():
    _bytes("disk-cone-s1", checks=["model"])
    first = weakref.ref(cli._workspace)
    _bytes("octahedron-marked", checks=["model"])
    gc.collect()
    assert first() is None
    assert _held_key() == document_key(examples.get_document("octahedron-marked"))


def test_equal_perversity_values_share_one_model():
    _bytes("x2-cone-torus", "zero", "lex", ["model"])
    _bytes("x2-cone-torus", "0,0", "lex", ["model"])
    _bytes("x2-cone-torus", "upper-middle", "lex", ["model"])
    models = [key for key in cli._workspace._built if key[0] == "model"]
    passes = [key for key in cli._workspace._built if key[0] == "cutoff pass"]
    # The cutoffs 2 and 1 of zero and top, whichever of them is p, in the
    # runs' strategy alone: the model check reads the models' own cutoff
    # passes.
    assert sorted(models) == [("model", k, "lex") for k in (1, 2)]
    assert sorted(passes) == [("cutoff pass", k, "lex") for k in (1, 2)]


def _count_link_builds(monkeypatch):
    """Count the calls of cotruncate, truncate_below and quotient_by_cotruncation
    per (k, strategy), through every stratdual module that binds them."""
    counts = collections.Counter()
    keys = {
        cotruncation.cotruncate:
            lambda C, k, strategy="lex": ("cotruncate", k, strategy),
        cotruncation.truncate_below:
            lambda C, k: ("truncate_below", k),
        cotruncation.quotient_by_cotruncation:
            lambda C, ct, truncation=None: ("quotient", ct.k, ct.strategy),
    }

    def counted(f):
        def wrapper(*args, **kwargs):
            counts[keys[f](*args, **kwargs)] += 1
            return f(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "stratdual" or name.startswith("stratdual."):
            for attribute, value in list(vars(module).items()):
                for f in keys:
                    if value is f:
                        monkeypatch.setattr(module, attribute, counted(f))
    return counts


@pytest.mark.parametrize("name", decomposition_names())
def test_an_all_check_run_builds_each_link_object_once(name, monkeypatch):
    monkeypatch.setattr(cli, "_workspace", None)
    counts = _count_link_builds(monkeypatch)
    _, status = run_verification(name)
    if status != 2:
        assert counts
    assert all(n == 1 for n in counts.values()), counts


@pytest.mark.parametrize("checks", [["model"], None])
@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
@pytest.mark.parametrize("name", decomposition_names())
def test_a_run_cotruncates_in_its_own_strategy_only(name, strategy, checks, monkeypatch):
    # The model check reads the other strategy's complement alone, through
    # its pass on the cutoff degree, and builds no cotruncation of it.
    monkeypatch.setattr(cli, "_workspace", None)
    counts = _count_link_builds(monkeypatch)
    run_verification(name, "zero", strategy, checks)
    assert {key[2] for key in counts if key[0] == "cotruncate"} <= {strategy}, counts


@pytest.mark.parametrize("checks", [["model"], None])
@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
@pytest.mark.parametrize("name", decomposition_names())
def test_a_run_builds_nothing_in_the_other_strategy(name, strategy, checks, monkeypatch):
    # Choice independence is read off the run's own cutoff passes, so no
    # complement, cutoff pass, cotruncation or model of the other strategy
    # is built, by the model check or any other.
    picked = []
    complement_basis = rational.complement_basis

    def counted(sub, strategy="lex"):
        picked.append(strategy)
        return complement_basis(sub, strategy)

    for module_name, module in list(sys.modules.items()):
        if module_name == "stratdual" or module_name.startswith("stratdual."):
            if vars(module).get("complement_basis") is complement_basis:
                monkeypatch.setattr(module, "complement_basis", counted)
    monkeypatch.setattr(cli, "_workspace", None)
    counts = _count_link_builds(monkeypatch)
    _, status = run_verification(name, "zero", strategy, checks)
    other = "reverse-lex" if strategy == "lex" else "lex"
    assert other not in picked, picked
    assert not [key for key in counts if other in key], counts
    assert not [key for key in cli._workspace._built if other in key], list(cli._workspace._built)
    if status != 2:
        assert strategy in picked and ("cutoff pass", 1, strategy) in cli._workspace._built


@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
@pytest.mark.parametrize("name", decomposition_names())
def test_a_run_picks_each_complement_once(name, strategy, monkeypatch):
    # A cotruncation and the model's cutoff pass read one D per cutoff and
    # strategy, the oracle's truncation at a cutoff complements the run's one
    # Z_k(L), and no complement is picked in the other strategy.
    calls = collections.Counter()
    kept = []
    complement_basis = rational.complement_basis

    def counted(sub, strategy="lex"):
        kept.append(sub)
        calls[(id(sub), strategy)] += 1
        return complement_basis(sub, strategy)

    for module_name, module in list(sys.modules.items()):
        if module_name == "stratdual" or module_name.startswith("stratdual."):
            if vars(module).get("complement_basis") is complement_basis:
                monkeypatch.setattr(module, "complement_basis", counted)
    monkeypatch.setattr(cli, "_workspace", None)
    report, status = run_verification(name, "zero", strategy)
    if status == 2:
        # Rejected before any complement is picked.
        assert calls == collections.Counter()
        return
    ws = cli._workspace
    C, chains = ws.pair().sub, ws.chains("L")
    labels = {}
    for k in range(1, C.top + 2):
        labels[id(C.image(k - 1))] = ("image", k)
        labels[id(chains.cycles(k))] = ("cycles", k)
    picked = collections.Counter({(*labels[sub], s): n for (sub, s), n in calls.items()})
    assert sum(picked.values()) == sum(calls.values()), calls
    assert all(n == 1 for n in picked.values()), picked
    assert {s for *_, s in picked} == {strategy}, picked
    values = report["perversity_values"]
    for k in {values["cutoff_p"], values["cutoff_q"]}:
        assert {("image", k, strategy), ("cycles", k, strategy)} <= set(picked), picked


def _fingerprint(echelon):
    return (echelon.lead, echelon.cols, echelon.pivots, tuple(
        (c, tuple(sorted(row.items()))) for c, row in sorted(echelon._rows.items())))


@pytest.mark.parametrize("strategy, checks", [
    ("lex", STRUCTURAL_CHECKS), ("lex", STRUCTURAL_CHECKS[1:]),
    ("reverse-lex", STRUCTURAL_CHECKS)])
@pytest.mark.parametrize("name", ["x2-cone-torus", "octahedron-marked"])
def test_complement_passes_end_with_their_projection(name, strategy, checks, monkeypatch):
    # A lex complement eliminates nothing; a reverse-lex one runs one pass
    # over the image basis, which its cotruncation releases once pi_k is
    # built.  A run picks no complement in the other strategy, so a lex run
    # runs no such pass and ends holding none, and a reverse-lex run keeps no
    # complement's pass.  The oracle's truncations complement Z_k(L) and keep
    # the complement's matrix alone.  A pass is followed by its id and
    # content, so that the spy holds none.
    passes = []
    init = rational.Echelon.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if sys._getframe(1).f_code is rational.complement_basis.__code__:
            passes.append((id(self), _fingerprint(self)))

    monkeypatch.setattr(rational.Echelon, "__init__", spy)
    monkeypatch.setattr(cli, "_workspace", None)
    report, status = run_verification(name, "zero", strategy, checks)
    assert status == 0
    C = cli._workspace.pair().sub
    values = report["perversity_values"]
    cutoffs = {values["cutoff_p"], values["cutoff_q"]}
    gc.collect()
    alive = {(id(o), _fingerprint(o)) for o in gc.get_objects()
             if isinstance(o, rational.Echelon)}
    held = [fingerprint for key, fingerprint in passes if (key, fingerprint) in alive]
    assert all(fingerprint[0] is max for _, fingerprint in passes)
    assert held == []
    if strategy == "lex":
        assert passes == []
    else:
        assert len(passes) > len(cutoffs)
    for k in cutoffs:
        assert C.complement(k, "lex").take_pass() is None


def test_repeated_runs_build_each_evaluation_form_once(monkeypatch):
    # Every pairing of one degree over mu, or over ∂mu, reads one form, and
    # the workspace keeps it for the next call on the document.
    from stratdual.cochains import CupStructure

    counts = collections.Counter()
    evaluation_form = CupStructure.evaluation_form

    def counted(cup, n, r, chain):
        counts[(id(cup), n, r)] += 1
        return evaluation_form(cup, n, r, chain)

    monkeypatch.setattr(CupStructure, "evaluation_form", counted)
    monkeypatch.setattr(cli, "_workspace", None)
    for perversity, strategy, checks in CONFIGS:
        run_verification("x2-cone-torus", perversity, strategy, checks)
    assert counts and all(n == 1 for n in counts.values()), counts


@pytest.mark.parametrize("name", decomposition_names())
def test_workspace_truncated_duality_equals_the_standalone_report(name):
    ws = Workspace(examples.get_document(name))
    try:
        forms = ws.forms()
    except StratdualError:
        pytest.skip("the fundamental chain is rejected")
    pair = ws.pair()
    c = ws.decomposition().n - 1
    for k in range(1, c + 1):
        for strategy in ("lex", "reverse-lex"):
            alone = truncated_duality(pair.A, k, c + 1 - k, lam=forms.lam, strategy=strategy,
                                      cochains=(pair.sub, pair.sub_cup))
            assert ws.truncated_duality(k, strategy).to_jsonable() == alone.to_jsonable()
