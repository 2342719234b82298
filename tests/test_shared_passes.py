"""A model eliminates only at its cutoff, and choice independence is one rank.

``build_model`` reads every pass and cohomology class of the model off its
pair C*(M, L) -> C*(M), except in degree k, and takes its pass on d^k from
``cutoff_pass``.  The reference is the model as it was computed
before: the same differentials in a complex that runs every pass itself.
The truncation and the cotruncations of C*(L) read C*(L)'s passes and
classes outside their cutoff the same way, against the same reference.
Outside degrees k - 1 and k the model's blocks are the pair's objects; the
reference is the per-degree loop that read, multiplied and checked every
degree.  The induced maps that the ladder reads are kept per run, and its
connecting maps are made where asked; the reference for each is the map
computed anew.
``_check_model`` decides choice independence by the two strategies' cutoff
passes; the reference is the Betti vectors of both strategies' full models.
"""

import copy
from itertools import product

import pytest

from stratdual import cli, examples
from stratdual.cochains import CochainComplex, induced_map
from stratdual.errors import InternalExactnessError, StratdualError
from stratdual.model import cutoff_pass
from stratdual.rational import RationalMatrix, SubspaceBasis
from stratdual.workspace import Workspace

from test_dimension_four import DOCUMENTS as DIMENSION_FOUR

STRATEGIES = ("lex", "reverse-lex")

INPUTS = {name: examples.get_document(name) for name in examples.decomposition_names()}
INPUTS.update({f"{name}-sd1": examples.subdivide(examples.get_document(name), 1)
               for name in examples.decomposition_names()})
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
        # At k - 1 the truncation's pass is C*(L)'s, its pivot rows renamed
        # onto the image basis's positions 0..rank - 1, sharing its entries.
        ours, theirs = truncation.echelon(k - 1), link.echelon(k - 1)
        assert (ours.pivots, ours.rank) == (theirs.pivots, theirs.rank), where
        assert ours.pivot_rows == tuple(range(ours.rank)), where
        assert ours._rows is theirs._rows, where
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


def per_degree_blocks(ws, m):
    """The model's blocks as the loop that read, multiplied and checked
    every degree built them, before the model took its pair's blocks."""
    pair, ct, n = m.pair, m.cotruncation, m.decomposition.n
    _, pi, section = ws.quotient(m.k, m.strategy)
    bases, kappa, placed, lifts = [], [], [], []
    for r in range(n + 1):
        kappa.append(pi[r] @ pair.restrict[r])
        extend = pair.restrict[r].transpose()
        placed.append(extend @ ct.inclusion[r])
        lifts.append(extend @ section[r] if r < len(section)
                     else RationalMatrix.zeros(pair.full.dim(r), 0))
        relative = [i for i, row in enumerate(pair.include_rel[r].data) if row]
        rows = sorted(relative + [next(iter(pair.restrict[r].data[i]))
                                  for i in pivot_rows(ct.inclusion[r])])
        units = RationalMatrix.identity(pair.full.dim(r)).rows_at(rows)
        bases.append(SubspaceBasis(units.transpose(), rows))
    iota = [basis.matrix() for basis in bases]
    zero = SubspaceBasis.from_vectors(0, [])
    d = []
    for r, theta in enumerate(iota):
        above = bases[r + 1] if r + 1 <= n else zero
        d.append(above.coordinates(pair.full.diff(r) @ theta))
    rho, eta = [], []
    for r in range(n + 1):
        theta = ct.inclusion[r]
        rho.append(SubspaceBasis(theta, pivot_rows(theta)).coordinates(
            pair.restrict[r] @ iota[r]))
        eta.append(bases[r].coordinates(pair.include_rel[r]))
    identity = [RationalMatrix.identity(pair.full.dim(r)) for r in range(n + 1)]
    return {
        "d": d, "iota": iota, "kappa": kappa, "rho": rho, "eta": eta,
        "eta-rho left": [pair.include_rel[r].transpose() @ iota[r] for r in range(n + 1)],
        "eta-rho right": [p.rows_at(b.pivot_rows) for p, b in zip(placed, bases)],
        "iota-kappa left": [i.rows_at(b.pivot_rows) for i, b in zip(identity, bases)],
        "iota-kappa right": lifts,
    }


def pivot_rows(m):
    return [min(column) for column in m.transpose().data]


def model_blocks(m):
    return {
        "d": m.complex.d, "iota": m.iota, "kappa": m.kappa, "rho": m.rho, "eta": m.eta,
        "eta-rho left": m.ses_eta_rho.left, "eta-rho right": m.ses_eta_rho.right,
        "iota-kappa left": m.ses_iota_kappa.left, "iota-kappa right": m.ses_iota_kappa.right,
    }


# block -> (the pair's object below k, above k), None where the block is empty.
PAIR_BLOCKS = {
    "iota": (lambda p, r: p.include_rel[r], lambda p, r: p.full.identity(r)),
    "kappa": (lambda p, r: p.restrict[r], None),
    "rho": (None, lambda p, r: p.restrict[r]),
    "eta": (lambda p, r: p.rel.identity(r), lambda p, r: p.include_rel[r]),
    "eta-rho left": (lambda p, r: p.rel.identity(r), lambda p, r: p.project_rel[r]),
    "eta-rho right": (None, lambda p, r: p.extend[r]),
    "iota-kappa left": (lambda p, r: p.project_rel[r], lambda p, r: p.full.identity(r)),
    "iota-kappa right": (lambda p, r: p.extend[r], None),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_shared_blocks_equal_a_per_degree_build(name):
    ws = workspace(name)
    pair, n = ws.pair(), ws.decomposition().n
    for k, strategy in product(range(1, n), STRATEGIES):
        m = ws.model(k, strategy)
        ours, theirs = model_blocks(m), per_degree_blocks(ws, m)
        for block, maps in ours.items():
            assert len(maps) == n + 1, (name, k, strategy, block)
            for r in range(n + 1):
                assert maps[r] == theirs[block][r], (name, k, strategy, block, r)
        for r in set(range(n + 1)) - {k - 1, k}:
            where = (name, k, strategy, r)
            d = pair.rel.d[r] if r < k else pair.full.d[r]
            assert m.complex.d[r] is d, where
            for block, sides in PAIR_BLOCKS.items():
                side = sides[0] if r < k else sides[1]
                if side is None:
                    assert not (ours[block][r].rows and ours[block][r].cols), (where, block)
                else:
                    assert ours[block][r] is side(pair, r), (where, block)
        # Every complex read off C*(M) shares the rows of its one identity.
        for C in (pair.rel, m.complex):
            for r in range(n + 1):
                rows = C.identity(r).data
                assert all(a is b for a, b in zip(rows, pair.full.identity(r).data)), (
                    name, k, strategy, C.name, r)
        # At k - 1 only d is read; every other block is the pair's.
        for block, (below, _) in PAIR_BLOCKS.items():
            if below is not None:
                assert ours[block][k - 1] is below(pair, k - 1), (name, k, strategy, block)


def uncached_connecting(ses, r):
    """The connecting map by the lift, computed anew."""
    reps = ses.W.representative_matrix(r)
    if not reps.cols:
        return RationalMatrix.zeros(ses.U.cohomology(r + 1).dimension, 0)
    dv = ses.V.diff(r) @ (ses.right[r] @ reps)
    left = ses.left[r + 1] if r + 1 < len(ses.left) else RationalMatrix.zeros(
        ses.U.dim(r + 1), ses.V.dim(r + 1))
    u = left @ dv
    if ses.alpha_mat(r + 1) @ u != dv:
        raise InternalExactnessError("SES: boundary not in the subcomplex")
    return ses.U.express_class(u, r + 1)


def ladder_maps(mp, mq, r):
    """The induced maps the ladder reads at degree r, as (f, source, target, degree)."""
    n, pair = mp.decomposition.n, mp.pair
    return {"iota": (mp.iota, mp.complex, pair.full, r),
            "kappa": (mp.kappa, pair.full, mp.quotient, r),
            "rho": (mq.rho, mq.complex, mq.cotruncation.complex, n - r),
            "eta": (mq.eta, pair.rel, mq.complex, n - r)}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_kept_ladder_maps_equal_uncached_ones(name):
    ws = workspace(name)
    n = ws.decomposition().n
    for k, strategy in product(range(1, n), STRATEGIES):
        mp, mq = ws.model(k, strategy), ws.model(n - k, strategy)
        for r in range(n + 1):
            where = (name, k, strategy, r)
            for which, (f, source, target, s) in ladder_maps(mp, mq, r).items():
                expected = target.express_class(f[s] @ source.representative_matrix(s), s)
                assert induced_map(f, source, target, s) == expected, (where, which)
            for ses, s in ((mp.ses_iota_kappa, r - 1), (mq.ses_eta_rho, n - r - 1)):
                assert ses.connecting(s) == uncached_connecting(ses, s), (where, s)
    # Outside its cutoff a model's iota and eta are the pair's objects, and
    # so are its classes: both strategies' models read one kept matrix there.
    pair = ws.pair()
    for k, r in product(range(1, n), range(n + 1)):
        if r == k:
            continue
        lex, other = (ws.model(k, s) for s in STRATEGIES)
        assert (induced_map(lex.iota, lex.complex, pair.full, r)
                is induced_map(other.iota, other.complex, pair.full, r)), (name, k, r)
        assert (induced_map(lex.eta, pair.rel, lex.complex, r)
                is induced_map(other.eta, pair.rel, other.complex, r)), (name, k, r)
