"""Canonical (co)homology bases against the construction they replaced.

The reference takes the reduced echelon basis of the cycles, keeps the
cycles that are new in the echelon form of the stacked [boundaries | cycles],
and reduces them modulo the boundaries' reduced echelon basis.  It expresses
a class by solving against [representatives | boundaries].  The engine reads
the same representatives and coordinates off forward-pass pivots in
``cochains``; the cone oracle computes ranks only, so its chain complexes
are checked for their Betti numbers.
"""

import random
from fractions import Fraction

import pytest

from stratdual import examples
from stratdual.cochains import CochainComplex, simplicial_cochains
from stratdual.cone import ChainComplex, SimplicialChains, chain_truncate
from stratdual.rational import RationalMatrix, Solver, image_basis, kernel_basis, rref
from stratdual.workspace import Workspace

from helpers import complex_names, get_complex

DECOMPOSITIONS = ("disk-cone-s1", "octahedron-marked", "x2-cone-torus")


def reference_representatives(d: RationalMatrix, e: RationalMatrix) -> RationalMatrix:
    """Representatives of ker d / im e as columns: kernel RREF, stacked rref, reduce."""
    cycles = kernel_basis(d).matrix()
    boundaries = image_basis(e)
    if boundaries.count == 0:
        return cycles
    pivots, _ = rref(boundaries.matrix().hstack(cycles))
    chosen = cycles.columns_at([j - boundaries.count for j in pivots if j >= boundaries.count])
    # The boundary basis B is the identity at its pivot rows P, so
    # chosen - B @ chosen[P], the block product [chosen | B] @ [I; -chosen[P]],
    # clears them and changes each column by a boundary only.
    unit = RationalMatrix.identity(chosen.cols)
    return chosen.hstack(boundaries.matrix()) @ unit.vstack(
        -chosen.rows_at(boundaries.pivot_rows))


def reference_coordinates(reps: RationalMatrix, e: RationalMatrix,
                          z: RationalMatrix) -> RationalMatrix:
    solution = Solver(reps.hstack(image_basis(e).matrix())).solve_matrix(z)
    assert solution is not None
    return solution.rows_at(range(reps.cols))


def _random_matrix(rng, rows, cols, density):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                if rng.random() < 0.3:
                    entries[(i, j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                else:
                    entries[(i, j)] = Fraction(rng.randint(-3, 3))
    return RationalMatrix(rows, cols, entries)


def sample_cycles(d, e, reps, rng):
    """Some vectors of the cycle basis, and random combinations of
    representatives and boundaries."""
    cycles = kernel_basis(d).matrix()
    cycles = cycles.columns_at(sorted(rng.sample(range(cycles.cols), min(cycles.cols, 4))))
    extra = rng.randint(1, 3)
    # reps @ X + e @ Y, as one block product.
    mixed = reps.hstack(e) @ _random_matrix(rng, reps.cols, extra, 0.7).vstack(
        _random_matrix(rng, e.cols, extra, 0.5))
    return cycles.hstack(mixed)


def check_cochains(C: CochainComplex, rng):
    for r in range(-1, C.top + 2):
        want = reference_representatives(C.diff(r), C.diff(r - 1))
        got = C.representative_matrix(r)
        assert got == want, (C.name, r)
        if 0 <= r <= C.top:
            assert C.betti()[r] == want.cols
            z = sample_cycles(C.diff(r), C.diff(r - 1), want, rng)
            assert C.express_class(z, r) == reference_coordinates(want, C.diff(r - 1), z), (C.name, r)
            assert C.express_class(got, r) == RationalMatrix.identity(want.cols)


def check_chains(C: ChainComplex):
    dims = C.homology_dims()
    for r in range(C.top + 1):
        want = reference_representatives(C.bnd(r), C.bnd(r + 1))
        assert dims[r] == want.cols, (C.name, r)


def random_cochain_complex(rng) -> CochainComplex:
    """Each d^r is a random combination of the rows that annihilate im d^{r-1}."""
    top = rng.randint(0, 4)
    dims = [rng.choice([0, rng.randint(1, 3), rng.randint(1, 7)]) for _ in range(top + 1)]
    d = []
    previous = RationalMatrix.zeros(dims[0], 0)
    for r in range(top + 1):
        annihilators = kernel_basis(previous.transpose()).matrix()
        target = dims[r + 1] if r < top else 0
        mixing = _random_matrix(rng, target, annihilators.cols, rng.random())
        d.append(mixing @ annihilators.transpose())
        previous = d[-1]
    return CochainComplex("random", dims, d)


def test_random_complexes_match_reference():
    rng = random.Random(6061)
    for _ in range(250):
        C = random_cochain_complex(rng)
        check_cochains(C, rng)
        # The transposed differentials form a chain complex for the oracle's twin.
        boundary = [RationalMatrix.zeros(0, C.dims[0])]
        boundary += [C.d[r - 1].transpose() for r in range(1, C.top + 1)]
        check_chains(ChainComplex("random", C.dims, boundary))


def test_fixture_complexes_match_reference():
    rng = random.Random(6062)
    for name in complex_names():
        K = get_complex(name)
        check_cochains(simplicial_cochains(K)[0], rng)
        check_chains(SimplicialChains(K))


def workspace(name, level):
    return Workspace(examples.subdivide(examples.get_document(name), level))


def check_decomposition(ws, rng, configurations):
    D, pair = ws.decomposition(), ws.pair()
    for C in (pair.full, pair.sub, pair.rel):
        check_cochains(C, rng)
    check_chains(ws.chains("M"))
    for k, strategy in configurations:
        m = ws.model(k, strategy)
        for C in (m.complex, m.quotient, m.cotruncation.complex):
            check_cochains(C, rng)
        check_chains(chain_truncate(D.L, k, strategy, ws.chains("L")).complex)
        check_chains(ws.cone(k, strategy))


@pytest.mark.parametrize("name", DECOMPOSITIONS)
def test_decomposition_complexes_match_reference(name):
    ws = workspace(name, 0)
    configurations = [(k, s) for k in range(1, ws.decomposition().n)
                      for s in ("lex", "reverse-lex")]
    check_decomposition(ws, random.Random(name), configurations)


@pytest.mark.parametrize("name", DECOMPOSITIONS)
def test_subdivided_complexes_match_reference(name):
    # The cutoffs n - 1 and 1 are every cutoff at n <= 3, and each runs with
    # one of the two strategies.
    ws = workspace(name, 1)
    n = ws.decomposition().n
    check_decomposition(ws, random.Random(name), [(n - 1, "lex"), (1, "reverse-lex")])


def test_non_orientable_pair_matches_reference():
    pair = workspace("mobius-marked", 0).pair()
    rng = random.Random(6063)
    for C in (pair.full, pair.sub, pair.rel):
        check_cochains(C, rng)
