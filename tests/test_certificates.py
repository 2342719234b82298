"""Model maps by construction and exactness by certificate.

``build_model`` reads the model basis off the unit cochains that span it,
and each exactness statement follows from a certificate checked where its
ingredients are made, with no elimination behind it.  The reference here is
the elimination it replaced: the kernel of kappa, solves against theta and
the basis, and the connecting maps by solves through beta and alpha; the
statements no longer checked at run time are asserted beside it.  The
corruption tests patch one entry of a certified map, with every rank and
solver forbidden, and show that a certificate raises InternalExactnessError
at the degree the rank proof named.
"""

import sys
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from stratdual import cli, cochains, examples
from stratdual import workspace as workspace_module
from stratdual.cochains import CochainComplex, PairComplexes, ShortExactSequence
from stratdual.cone import ChainComplex
from stratdual.cotruncation import (
    StandardCotruncation,
    cotruncate,
    quotient_by_cotruncation,
    truncate_below,
)
from stratdual.errors import InternalExactnessError
from stratdual.model import build_model, cutoff_pass
from stratdual.rational import (
    Complement,
    RationalMatrix,
    Solver,
    complement_basis,
    kernel_basis,
)
from stratdual.workspace import Workspace

from helpers import from_rows, get_decomposition, reference_connecting

STRATEGIES = ("lex", "reverse-lex")


def workspace(name, level=0):
    return Workspace(examples.subdivide(examples.get_document(name), level))


def reference_maps(m):
    """iota, d, rho and eta of a model by elimination: iota is the kernel
    basis of kappa, and d, rho and eta are solves against iota and theta."""
    pair, ct, n = m.pair, m.cotruncation, m.decomposition.n
    iota = [kernel_basis(m.kappa[r]).matrix() for r in range(n + 1)]
    d = [Solver(iota[r + 1]).solve_matrix(pair.full.diff(r) @ iota[r]) for r in range(n)]
    d.append(RationalMatrix.zeros(0, iota[n].cols))
    rho = [Solver(ct.inclusion[r]).solve_matrix(pair.restrict[r] @ iota[r])
           for r in range(n + 1)]
    eta = [Solver(iota[r]).solve_matrix(pair.include_rel[r]) for r in range(n + 1)]
    return iota, d, rho, eta


def forbidden(*args, **kwargs):
    raise AssertionError("an elimination ran where a certificate should hold")


@contextmanager
def eliminations_forbidden(monkeypatch):
    """Make every rank and every solver factorization raise."""
    with monkeypatch.context() as patch:
        patch.setattr(RationalMatrix, "rank", forbidden)
        patch.setattr(Solver, "__init__", forbidden)
        yield patch


def check_models(monkeypatch, ws):
    """The model of every cutoff 1 <= k <= n - 1, with both strategies."""
    ws.pair()
    for k, strategy in product(range(1, ws.decomposition().n), STRATEGIES):
        with eliminations_forbidden(monkeypatch):
            m = ws.model(k, strategy)
        quotient = ws.quotient(k, strategy)
        iota, d, rho, eta = reference_maps(m)
        assert list(m.iota) == iota, (k, strategy)
        assert list(m.complex.d) == d, (k, strategy)
        assert list(m.rho) == rho, (k, strategy)
        assert list(m.eta) == eta, (k, strategy)
        # The statements that quotient_by_cotruncation and ShortExactSequence
        # inherit from the certificates of their inputs.
        _, pi, section = quotient
        for r, s in enumerate(section):
            assert pi[r] @ s == RationalMatrix.identity(s.cols), (k, strategy, r)
        for ses in (m.ses_eta_rho, m.ses_iota_kappa):
            top = max(ses.U.top, ses.V.top, ses.W.top)
            assert len(ses.left) == len(ses.right) == top + 1
            for r in range(top + 1):
                a, b = ses.alpha_mat(r), ses.beta[r]
                where = (k, strategy, r)
                assert ses.left[r] @ a == RationalMatrix.identity(ses.U.dim(r)), where
                assert b @ ses.right[r] == RationalMatrix.identity(ses.W.dim(r)), where
                assert (b @ a).is_zero(), where
            for r in range(-1, top + 1):
                # The cohomology bases solve once per complex; the
                # connecting map itself only multiplies.
                ses.W.cohomology(r)
                ses.U.cohomology(r + 1)
                with eliminations_forbidden(monkeypatch):
                    certified = ses.connecting(r)
                assert certified == reference_connecting(ses, r), (k, strategy, r)


@pytest.mark.parametrize("name", examples.decomposition_names())
def test_model_maps_match_elimination(monkeypatch, name):
    check_models(monkeypatch, workspace(name))


def test_subdivided_model_maps_match_elimination(monkeypatch):
    check_models(monkeypatch, workspace("x2-cone-torus", 1))


# -- corruption ---------------------------------------------------------

def patched(m: RationalMatrix, i: int, j: int, value) -> RationalMatrix:
    """m with entry (i, j) set to value."""
    entries = {(a, b): m.entry(a, b) for a, row in enumerate(m.data) for b in row}
    entries[(i, j)] = value
    return RationalMatrix(m.rows, m.cols, entries)


def patched_at(maps, r, i, j, value):
    return tuple(patched(f, i, j, value) if s == r else f for s, f in enumerate(maps))


def first_entry(m: RationalMatrix):
    """(i, j) of the first nonzero entry of m in row-major order."""
    i = next(i for i, row in enumerate(m.data) if row)
    return i, min(m.data[i])


def test_connecting_certificate_sees_a_boundary_outside_the_subcomplex(monkeypatch):
    # 0 -> U -> V -> W -> 0 with beta a cochain map, until W's d^0 is patched
    # from 1 to 0: then W has a class whose lift's coboundary leaves alpha's image.
    one = RationalMatrix.identity(1)
    U = CochainComplex("U", (0, 1), (RationalMatrix.zeros(1, 0), RationalMatrix.zeros(0, 1)))
    V = CochainComplex("V", (1, 2), (from_rows([[1], [1]]),
                                     RationalMatrix.zeros(0, 2)))
    W = CochainComplex("W", (1, 1), (RationalMatrix.zeros(1, 1), RationalMatrix.zeros(0, 1)))
    alpha = (RationalMatrix.zeros(1, 0), from_rows([[1], [0]]))
    beta = (one, from_rows([[0, 1]]))
    left = (RationalMatrix.zeros(0, 1), from_rows([[1, 0]]))
    right = (one, from_rows([[0], [1]]))
    ses = ShortExactSequence(U, V, W, alpha, beta, left, right)
    W.cohomology(0)
    with eliminations_forbidden(monkeypatch), pytest.raises(
            InternalExactnessError, match="^SES: boundary not in the subcomplex$"):
        ses.connecting(0)


def test_corrupted_restriction_raises_as_by_rank(monkeypatch):
    D = get_decomposition("x2-cone-torus")
    restriction_map = cochains.restriction_map

    def corrupted(K, A):
        maps = restriction_map(K, A)
        return patched_at(maps, 1, *first_entry(maps[1]), 0)

    monkeypatch.setattr(cochains, "restriction_map", corrupted)
    with eliminations_forbidden(monkeypatch), pytest.raises(
            InternalExactnessError, match="^restriction not surjective in degree 1$"):
        PairComplexes(D.M, D.L)


@pytest.mark.parametrize("degree", [1, 2])
def test_corrupted_restriction_raises_as_not_a_cochain_map(monkeypatch, degree):
    # Swapping two rows of the restriction keeps it a surjection onto C*(L)
    # that kills C*(M, L), so only the cochain-map proof sees it, at the
    # first square the swapped degree enters.
    D = get_decomposition("x2-cone-torus")
    restriction_map = cochains.restriction_map

    def corrupted(K, A):
        maps = restriction_map(K, A)
        rows = list(range(maps[degree].rows))
        rows[0], rows[1] = rows[1], rows[0]
        return tuple(f.rows_at(rows) if r == degree else f for r, f in enumerate(maps))

    monkeypatch.setattr(cochains, "restriction_map", corrupted)
    with eliminations_forbidden(monkeypatch), pytest.raises(
            InternalExactnessError,
            match=f"^restriction not a cochain map at degree {degree - 1}$"):
        PairComplexes(D.M, D.L)


def test_corrupted_cotruncation_inclusion_raises_as_by_solve(monkeypatch):
    # A stray entry off theta's pivot rows takes its column off the unit
    # cochain at its pivot row, which the model basis holds, so the fiber
    # square theta ∘ rho = i* ∘ iota fails where the corrupted column is
    # placed.  The solve against theta raised at the same degree when kappa
    # was eliminated.
    ws = workspace("x2-cone-torus")
    D, pair, ct = ws.decomposition(), ws.pair(), ws.cotruncation(2, "lex")
    theta = ct.inclusion[2]
    pivots = {min(column) for column in theta.transpose().data}
    row = max(set(range(theta.rows)) - pivots)
    inclusion = patched_at(ct.inclusion, 2, row, theta.cols - 1, 1)
    corrupted = StandardCotruncation(ct.k, ct.D, ct.complex, inclusion, ct.strategy)
    quotient = ws.quotient(2, "lex")
    with eliminations_forbidden(monkeypatch), pytest.raises(
            InternalExactnessError, match="^restriction escapes the cotruncation at degree 2$"):
        build_model(D, 2, "lex", pair, corrupted, quotient,
                    cutoff_pass(pair, 2, corrupted.inclusion[2]))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cotruncation_split_needs_no_elimination(monkeypatch, strategy):
    # The pass that chooses D gives pi_k, and one certificate proves the
    # split, so no solver factors [im | D] and no rank counts it.
    for name in examples.decomposition_names():
        C = workspace(name).pair().sub
        with eliminations_forbidden(monkeypatch):
            for k in range(1, C.top + 2):
                quotient_by_cotruncation(C, cotruncate(C, k, strategy), truncate_below(C, k))


def _not_a_complement(kind):
    """complement_basis with its first column swapped for the image basis's
    first column, or dropped."""
    def corrupted(img, strategy="lex"):
        b = complement_basis(img, strategy).matrix()
        tail = b.columns_at(range(1, b.cols))
        b = img.matrix().columns_at([0]).hstack(tail) if kind == "image column" else tail
        return Complement(b, (), None)
    return corrupted


@pytest.mark.parametrize("kind", ["image column", "dropped"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_non_complement_does_not_split(monkeypatch, kind, strategy):
    # An image column in D is not killed by pi_k; a dropped one leaves D
    # and the image short of C^k.
    C = workspace("x2-cone-torus").pair().sub
    with eliminations_forbidden(monkeypatch) as patch:
        # cotruncate takes D from the complex, which picks it once per strategy.
        patch.setattr(cochains, "complement_basis", _not_a_complement(kind))
        for k in (1, 2):
            with pytest.raises(InternalExactnessError,
                               match="^complement does not split the cotruncation degree$"):
                cotruncate(C, k, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_short_cotruncation_inclusion_fails_the_count(monkeypatch, strategy):
    # theta^2 without its last column places one unit cochain fewer in M, so
    # A^2 is one short of C^2(M, L) plus the cotruncation's D.  The reads and
    # the fiber square hold on what is left; the dimension count sees it.
    ws = workspace("x2-cone-torus")
    D, pair, ct = ws.decomposition(), ws.pair(), ws.cotruncation(2, strategy)
    theta = ct.inclusion[2]
    inclusion = tuple(theta.columns_at(range(theta.cols - 1)) if r == 2 else f
                      for r, f in enumerate(ct.inclusion))
    corrupted = StandardCotruncation(ct.k, ct.D, ct.complex, inclusion, ct.strategy)
    quotient = ws.quotient(2, strategy)
    with eliminations_forbidden(monkeypatch), pytest.raises(
            InternalExactnessError, match="^SES: exactness fails in degree 2$"):
        build_model(D, 2, strategy, pair, corrupted, quotient,
                    cutoff_pass(pair, 2, corrupted.inclusion[2]))


# -- cochain maps proved where they are made ------------------------------

def assert_cochain_map(f, source, target):
    """f^{r+1} d^r == d^r f^r in every degree, a missing degree of f being
    zero: the check that ``induced_map`` ran before each map was proved
    where it is made."""
    def at(r):
        if r < len(f):
            return f[r]
        return RationalMatrix.zeros(target.dim(r), source.dim(r))

    for r in range(max(source.top, target.top) + 1):
        assert at(r + 1) @ source.diff(r) == target.diff(r) @ at(r), (
            source.name, target.name, r)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", examples.decomposition_names())
def test_maps_handed_to_induced_map_are_cochain_maps(name, strategy):
    # Every map the engine hands to induced_map: i* and j of the pair, and
    # theta, pi, the section, iota, kappa, rho and eta of the model of each
    # cutoff 1 <= k <= n - 1, so both models of every duality are among them.
    ws = workspace(name)
    D, pair = ws.decomposition(), ws.pair()
    maps = [(pair.restrict, pair.full, pair.sub), (pair.include_rel, pair.rel, pair.full)]
    for k in range(1, D.n):
        ct = ws.cotruncation(k, strategy)
        quotient, pi, section = ws.quotient(k, strategy)
        m = ws.model(k, strategy)
        maps += [(ct.inclusion, ct.complex, pair.sub), (pi, pair.sub, quotient),
                 (section, quotient, pair.sub), (m.iota, m.complex, pair.full),
                 (m.kappa, pair.full, quotient), (m.rho, m.complex, ct.complex),
                 (m.eta, pair.rel, m.complex)]
    for f, source, target in maps:
        assert_cochain_map(f, source, target)


# -- one d∘d proof per differential ---------------------------------------

def test_derived_complexes_do_not_reprove_d_squared(monkeypatch):
    # d∘d is multiplied where a differential is made from matrices: C*(K).
    # Subcomplexes inherit it from the certified reads of ``subcomplex``, and
    # no chain complex multiplies ∂∘∂: a cone proves its comparison map g a
    # chain map instead, by ∂ g_r == g_{r-1} ∂ in each degree below its top.
    # A subcomplex takes C's own d^r where its bases are whole, so its d
    # objects may be those of a C*(K): each such pair is multiplied once.
    # Every factor stays alive in ``kept``, so ids name one object each.
    kept = []
    products = Counter()
    matmul = RationalMatrix.__matmul__

    def spy(a, b):
        kept.append((a, b))
        products[(id(a), id(b))] += 1
        return matmul(a, b)

    made = []

    def collecting(make):
        def simplicial_cochains(K):
            result = make(K)
            made.append(result[0])
            return result
        return simplicial_cochains

    chain_complexes = []
    chain_init = ChainComplex.__init__

    def collect(self, *args):
        chain_init(self, *args)
        chain_complexes.append(self)

    monkeypatch.setattr(cli, "_workspace", None)
    monkeypatch.setattr(RationalMatrix, "__matmul__", spy)
    monkeypatch.setattr(ChainComplex, "__init__", collect)
    for module in (cochains, workspace_module):
        monkeypatch.setattr(module, "simplicial_cochains",
                            collecting(module.simplicial_cochains))
    _, status = cli.run_verification("x2-cone-torus", checks=[
        "model", "duality", "ladder", "lefschetz", "truncated-duality", "oracle"])
    assert status == 0

    def squared(d, r, s):
        return (id(d[r]), id(d[s])) in products

    built = cli._workspace._built
    kinds = {key[0] for key in built if isinstance(key, tuple)}
    assert kinds >= {"truncation", "cotruncation", "model", "cone"}
    pair = built["pair"]
    derived = [pair.rel] + [value.complex for key, value in built.items()
                            if isinstance(key, tuple)
                            and key[0] in ("truncation", "cotruncation", "model")]
    assert any(X is pair.full for X in made)
    for X in derived + made:
        for r in range(X.top):
            times = products[(id(X.d[r + 1]), id(X.d[r]))]
            assert times <= 1, (X.name, r)
            if times:
                assert any(X.d[r + 1] is K.d[r + 1] and X.d[r] is K.d[r] for K in made), (
                    X.name, r)
    assert all(squared(pair.full.d, r + 1, r) for r in range(pair.full.top))

    cones = [value for key, value in built.items() if isinstance(key, tuple) and key[0] == "cone"]
    target = built[("chains", "M")]
    assert cones and len(chain_complexes) > len(cones)
    for K in chain_complexes:
        assert not any(squared(K.boundary, r, r + 1) for r in range(1, K.top)), K.name
    # A cone holds its blocks, not a stacked boundary, so it does not pass
    # through ChainComplex.__init__: the workspace holds it, and it holds the
    # truncation that intersection_space_cone built for it.
    for K in cones:
        t = K.truncation.complex
        assert any(t is C for C in chain_complexes)
        assert K.name == f"cone({t.name} -> {target.name})"
        for r in range(1, K.top):
            # ∂_M's columns at the simplices that g reaches, times g's rows there.
            reached = [i for i, row in enumerate(K.g[r].data) if row]
            assert any(a == target.bnd(r).columns_at(reached) and b.cols == t.dim(r)
                       for a, b in kept)
            assert any(b is t.boundary[r] and a.rows == target.dim(r - 1) for a, b in kept)


# -- exactness inherited, not re-proved -----------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exactness_is_inherited_not_multiplied(monkeypatch, strategy):
    # quotient_by_cotruncation assembles pi from the identity, pi_k and zero,
    # and ShortExactSequence counts dimensions: in a structural run neither
    # multiplies, though both are built.
    inherited = {ShortExactSequence.__init__.__code__,
                 quotient_by_cotruncation.__code__}
    offenders = []
    matmul = RationalMatrix.__matmul__

    def spy(a, b):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in inherited:
                offenders.append(frame.f_code.co_name)
            frame = frame.f_back
        return matmul(a, b)

    monkeypatch.setattr(cli, "_workspace", None)
    monkeypatch.setattr(RationalMatrix, "__matmul__", spy)
    _, status = cli.run_verification("x2-cone-torus", strategy=strategy, checks=[
        "model", "duality", "ladder", "lefschetz", "truncated-duality", "oracle"])
    assert status == 0
    kinds = {key[0] for key in cli._workspace._built if isinstance(key, tuple)}
    assert kinds >= {"quotient", "model"}
    assert offenders == []
