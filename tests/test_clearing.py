"""Clearing: the one forward pass per complex and degree against uncleared passes.

``CochainComplex.echelon(r)`` leads by the highest column of d^r and drops
the columns at the pivot rows P of im d^{r-1}; ``ChainComplex.echelon(r)``
enters the r-cells last first and leaves out those at the pivots of the pass
on ∂_{r+1} (the twist).  Both must give the rank, pivots and pivot rows of
the whole matrix, and the cocycles (cycles) read off a cleared pass by
back-substitution must be the kernel vectors that vanish at P.
"""

import random
from fractions import Fraction

from stratdual import examples
from stratdual.cochains import CochainComplex, PairComplexes, simplicial_cochains
from stratdual.cone import ChainComplex, intersection_space_cone, simplicial_chains
from stratdual.rational import Echelon, RationalMatrix
from stratdual.simplicial import decompose, parse_complex

STRATEGIES = ("lex", "reverse-lex")


def _decompositions():
    for name in examples.decomposition_names():
        yield examples.get_decomposition(name)
    for name in ("disk-cone-s1", "octahedron-marked"):
        doc = examples.subdivide(examples.get_document(name), 1)
        yield decompose(parse_complex(doc), doc["singular_vertex"])


def _dense_product(a, b):
    return [[sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def _random_unimodular(rng, n):
    """A random invertible n x n rational matrix and its inverse, as dense
    rows: a permutation followed by row additions and row scalings."""
    perm = list(range(n))
    rng.shuffle(perm)
    s = [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    inv = [[s[j][i] for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        i = rng.randrange(n)
        if n >= 2 and rng.random() < 0.7:
            j = rng.choice([j for j in range(n) if j != i])
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            s[i] = [x + c * y for x, y in zip(s[i], s[j])]
            # The inverse takes the column operation that undoes it.
            for row in inv:
                row[j] -= c * row[i]
        else:
            c = Fraction(rng.choice([-2, -1, 2, 3]), rng.choice([1, 2, 5]))
            s[i] = [c * x for x in s[i]]
            for row in inv:
                row[i] /= c
    return s, inv


def _random_cochain_complex(rng, index):
    """A seeded random complex with d∘d = 0: the standard complex of chosen
    ranks and Betti numbers, conjugated degreewise by random invertible
    matrices, so its entries are rational and its pivots scattered."""
    top = rng.randint(1, 4)
    ranks = [rng.randint(0, 3) for _ in range(top)] + [0]
    betti = [rng.randint(0, 2) for _ in range(top + 1)]
    dims = [(ranks[r - 1] if r else 0) + betti[r] + ranks[r] for r in range(top + 1)]
    bases = [_random_unimodular(rng, dims[r]) for r in range(top + 1)]
    d = []
    for r in range(top):
        # The last ranks[r] basis vectors of C^r go onto the first of C^{r+1}.
        offset = dims[r] - ranks[r]
        standard = [[Fraction(int(j == offset + i)) for j in range(dims[r])]
                    for i in range(dims[r + 1])]
        if dims[r] and dims[r + 1]:
            dense = _dense_product(_dense_product(bases[r + 1][0], standard), bases[r][1])
            d.append(RationalMatrix.from_rows(dense))
        else:
            d.append(RationalMatrix.zeros(dims[r + 1], dims[r]))
    d.append(RationalMatrix.zeros(0, dims[top]))
    return CochainComplex(f"random {index}", dims, d)


def _random_complexes():
    rng = random.Random(4051)
    return [_random_cochain_complex(rng, i) for i in range(60)]


def _cochain_complexes():
    complexes = [simplicial_cochains(examples.get_complex(name))[0]
                 for name in examples.complex_names()]
    for D in _decompositions():
        pair = PairComplexes(D.M, D.L)
        complexes += [pair.full, pair.sub, pair.rel]
    return complexes + _random_complexes()


def _as_chains(C: CochainComplex) -> ChainComplex:
    """The dual chain complex: ∂_{r+1} is the transpose of d^r."""
    boundary = [RationalMatrix.zeros(0, C.dim(0))]
    boundary += [C.diff(r - 1).transpose() for r in range(1, C.top + 1)]
    return ChainComplex(f"dual {C.name}", C.dims, boundary)


def _chain_complexes():
    complexes = [simplicial_chains(examples.get_complex(name))
                 for name in examples.complex_names()]
    for D in _decompositions():
        complexes += [simplicial_chains(D.M), simplicial_chains(D.L)]
        for k in range(1, D.n):
            complexes += [intersection_space_cone(D, k, s).complex for s in STRATEGIES]
    return complexes + [_as_chains(C) for C in _random_complexes()]


def _image_pivot_rows(C: CochainComplex, r: int) -> set:
    return set(C.echelon(r - 1).pivot_rows) if r > 0 else set()


def test_cleared_cochain_pass_agrees_with_uncleared():
    cleared_somewhere = False
    for C in _cochain_complexes():
        for r in range(-1, C.top + 2):
            cleared = C.echelon(r)
            whole = Echelon(C.diff(r), max)
            assert cleared.cleared == _image_pivot_rows(C, r)
            cleared_somewhere = cleared_somewhere or bool(cleared.cleared)
            assert (cleared.rank, cleared.pivots, cleared.pivot_rows) == (
                whole.rank, whole.pivots, whole.pivot_rows), (C.name, r)
            # The same pass, uncleared, led by the lowest column of the column-reversed d^r.
            flipped = Echelon(C.diff(r).reversed_columns())
            last = C.dim(r) - 1
            assert cleared.pivots == tuple(sorted(last - p for p in flipped.pivots))
            assert cleared.pivot_rows == flipped.pivot_rows
    assert cleared_somewhere


def test_cocycles_read_off_the_cleared_pass():
    for C in _cochain_complexes():
        for r in range(C.top + 1):
            P = _image_pivot_rows(C, r)
            echelon = C.echelon(r)
            w = echelon.kernel()
            assert (C.diff(r) @ w).is_zero(), (C.name, r)
            # A cleared column is free in the pass but yields no basis vector.
            assert not any(w.data[i] for i in P)
            assert w.cols == C.dim(r) - echelon.rank - len(P) == C.betti_number(r)
            assert w.rank() == w.cols
            # Each vector is 1 at its own free column and 0 at the others.
            free = [j for j in range(C.dim(r)) if j not in echelon.pivots and j not in P]
            assert w.rows_at(free) == RationalMatrix.identity(len(free))
            reps = C.representative_matrix(r)
            assert (C.diff(r) @ reps).is_zero()
            assert not any(reps.data[i] for i in P)


def test_chain_twist_agrees_with_uncleared():
    skipped_somewhere = False
    for K in _chain_complexes():
        for r in range(K.top + 2):
            twisted = K.echelon(r)
            # Uncleared: every r-cell entered, last first.
            whole = Echelon(K.bnd(r).reversed_columns().transpose())
            last = K.dim(r) - 1
            assert (twisted.rank, twisted.pivots) == (whole.rank, whole.pivots), (K.name, r)
            assert twisted.pivot_rows == tuple(sorted(last - i for i in whole.pivot_rows))
            skipped_somewhere = skipped_somewhere or (
                r <= K.top and bool(K.echelon(r + 1).pivots) and K.dim(r) > 0)
    assert skipped_somewhere


def test_cycles_read_off_the_highest_lead_pass():
    for K in _chain_complexes():
        for r in range(K.top + 1):
            P = frozenset(K.echelon(r + 1).pivots)
            cycles = Echelon(K.bnd(r), max, cleared=P)
            w = cycles.kernel()
            assert (K.bnd(r) @ w).is_zero(), (K.name, r)
            assert not any(w.data[i] for i in P)
            assert w.cols == K.dim(r) - cycles.rank - len(P) == K.homology_dims()[r]
            assert cycles.rank == K.echelon(r).rank
