"""The incidence matrices, as the simplicial layer writes them.

Each d^r, ∂_r, restriction i*, inclusion L -> M and evaluation form is
written straight into the kernel's integer rows.  The references here are
built from entries instead: ∂_r through the validating constructor
``RationalMatrix(rows, cols, entries)``, d^r as its transpose scaled by
-(-1)^r, and the other matrices likewise from their entries.  Each must
agree field by field, ``rows``, ``cols``, ``den`` and ``data``.
"""

import sys
from fractions import Fraction

import pytest

from stratdual import cli, examples
from stratdual.cochains import (
    PairComplexes,
    koszul_evaluation_sign,
    restriction_map,
    simplicial_cochains,
)
from stratdual.cone import SimplicialChains
from stratdual.duality import boundary_link_chain
from stratdual.rational import RationalMatrix
from stratdual.simplicial import (
    FundamentalChain,
    boundary_of_chain,
    decompose,
    fundamental_chain,
    parse_complex,
)

from test_dimension_four import DOCUMENTS as DIMENSION_FOUR

INPUTS = {}
for _name in examples.decomposition_names():
    INPUTS[_name] = examples.get_document(_name)
    INPUTS[f"{_name}-sd1"] = examples.subdivide(examples.get_document(_name), 1)
INPUTS.update(DIMENSION_FOUR)
# mobius-marked is non-orientable, so it and its subdivision have no mu.
ORIENTABLE = sorted(name for name in INPUTS if not name.startswith("mobius-marked"))


def fields(m: RationalMatrix):
    return m.rows, m.cols, m.den, m.data


def reference_boundary(K, r):
    entries = {}
    if 0 < r <= K.dimension:
        for j, s in enumerate(K.simplices(r)):
            for i in range(r + 1):
                entries[(K.index[s[:i] + s[i + 1:]], j)] = (-1) ** i
    return RationalMatrix(K.n_simplices(r - 1), K.n_simplices(r), entries)


def reference_coboundary(K, r):
    return reference_boundary(K, r + 1).transpose().scaled(-(-1) ** r)


def reference_form(K, n, r, chain):
    sign = koszul_evaluation_sign(n) * Fraction(-1) ** (r * (n - r))
    entries = {}
    for w, value in zip(K.simplices(n), chain, strict=True):
        if value:
            entries[(K.index[w[:r + 1]], K.index[w[r:]])] = sign * value
    return RationalMatrix(K.n_simplices(r), K.n_simplices(n - r), entries)


def decomposition(name):
    document = INPUTS[name]
    return decompose(parse_complex(document), document["singular_vertex"])


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_boundaries_and_coboundaries(name):
    D = decomposition(name)
    for K in (D.X, D.M, D.L):
        C = simplicial_cochains(K)[0]
        chains = SimplicialChains(K)
        for r in range(K.dimension + 1):
            want = fields(reference_coboundary(K, r))
            assert fields(C.diff(r)) == want, (K.name, r)
            assert fields(K.coboundary_matrix(r)) == want, (K.name, r)
        for r in range(K.dimension + 2):
            want = fields(reference_boundary(K, r))
            assert fields(K.boundary_matrix(r)) == want, (K.name, r)
            if 1 <= r <= K.dimension:
                assert fields(chains.bnd(r)) == want, (K.name, r)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_restriction_and_inclusion(name):
    D = decomposition(name)
    M, L = D.M, D.L
    pair = PairComplexes(M, L)
    for r in range(M.dimension + 1):
        restriction = RationalMatrix(L.n_simplices(r), M.n_simplices(r), {
            (i, M.index[s]): 1 for i, s in enumerate(L.simplices(r))})
        assert fields(pair.restrict[r]) == fields(restriction), r
        assert fields(restriction_map(M, L)[r]) == fields(restriction), r
        inclusion = RationalMatrix(M.n_simplices(r), L.n_simplices(r), {
            (M.index[s], j): 1 for j, s in enumerate(L.simplices(r))})
        assert fields(D.inclusion(r)) == fields(inclusion), r


@pytest.mark.parametrize("name", ORIENTABLE)
def test_evaluation_forms_over_mu_and_its_boundary(name):
    D = decomposition(name)
    mu = fundamental_chain(D)
    n = D.n
    pair = PairComplexes(D.M, D.L)
    boundary = reference_boundary(D.M, n).apply(mu.coefficients)
    lower = D.M.simplices(n - 1)
    assert boundary_of_chain(D.M, mu) == {lower[i]: c for i, c in enumerate(boundary) if c}
    lam = boundary_link_chain(pair, mu)
    # A chain with a denominator gives a form with one.
    halves = tuple(c / 2 for c in mu.coefficients)
    for r in range(n + 1):
        assert fields(pair.cup.evaluation_form(n, r, mu.coefficients)) == fields(
            reference_form(D.M, n, r, mu.coefficients)), r
        assert fields(pair.cup.evaluation_form(n, r, halves)) == fields(
            reference_form(D.M, n, r, halves)), r
    for r in range(n):
        assert fields(pair.sub_cup.evaluation_form(n - 1, r, lam)) == fields(
            reference_form(D.L, n - 1, r, lam)), r


def test_a_chain_keeps_its_boundary_per_complex():
    # The boundary is computed once per chain and complex: the same chain
    # read in another complex with the same top simplices gets its own.
    D = decomposition("x2-cone-torus")
    mu = fundamental_chain(D)
    other = decomposition("x2-cone-torus").M
    assert boundary_of_chain(other, mu) == boundary_of_chain(D.M, mu)
    doubled = FundamentalChain(mu.degree, [2 * c for c in mu.coefficients])
    assert boundary_of_chain(D.M, doubled) == {
        s: 2 * c for s, c in boundary_of_chain(D.M, mu).items()}


def test_one_cold_run_builds_no_matrix_from_entries_and_one_boundary_of_mu(monkeypatch):
    # The validating constructor is for callers outside the engine: no
    # builder in a run calls it.  And the run's mu has its boundary computed
    # once, whichever matrix product computes it.
    constructor_callers = []
    init = RationalMatrix.__init__

    def counted_init(self, *args, **kwargs):
        constructor_callers.append(sys._getframe(1).f_globals.get("__name__"))
        init(self, *args, **kwargs)

    vectors = []

    def counted(method):
        def spy(self, v):
            vectors.append(v)
            return method(self, v)
        return spy

    monkeypatch.setattr(cli, "_workspace", None)
    monkeypatch.setattr(RationalMatrix, "__init__", counted_init)
    monkeypatch.setattr(RationalMatrix, "apply", counted(RationalMatrix.apply))
    transpose_apply = getattr(RationalMatrix, "transpose_apply", None)
    if transpose_apply is not None:
        monkeypatch.setattr(RationalMatrix, "transpose_apply", counted(transpose_apply))
    report, status = cli.run_verification("x2-cone-torus")
    assert status == 0 and set(report["checks"]) == set(cli.ALL_CHECKS)
    assert [c for c in constructor_callers if c.startswith("stratdual")] == []
    mu = cli._workspace.mu()
    assert sum(v is mu.coefficients for v in vectors) == 1
