import random
from fractions import Fraction

import pytest

from stratdual import examples
from stratdual.cochains import (
    CochainComplex,
    PairComplexes,
    ShortExactSequence,
    chain_vector,
    induced_map,
    integrate,
    pair_against_chain,
    pairing_matrix,
    restriction_map,
    simplicial_cochains,
    subcomplex,
)
from stratdual.errors import InternalExactnessError, NonOrientableError, ParseError
from stratdual.rational import (
    RationalMatrix,
    Solver,
    SubspaceBasis,
    image_basis,
    kernel_basis,
    vec,
    vec_is_zero,
)
from stratdual.simplicial import SimplicialComplex, decompose, orient_top_chain, parse_complex

from helpers import from_columns


def betti(K):
    C, _ = simplicial_cochains(K)
    return C.betti()


def dense(m):
    """The rows of m as lists of Fractions."""
    return [list(m.row(i)) for i in range(m.rows)]


def solve(m, rhs):
    """Some x with m @ x == rhs, or None when there is none."""
    x = Solver(m).solve_matrix(from_columns([rhs], len(rhs)))
    return None if x is None else x.column(0)


def test_single_edge_dims_and_differential():
    K = SimplicialComplex.from_facets([[0, 1]])
    C, _ = simplicial_cochains(K)
    assert C.dims == (2, 1)
    # d(phi)= -(-1)^0 phi∘∂: vertex duals map to ∓(edge dual).
    assert dense(C.d[0]) == [[Fraction(1), Fraction(-1)]]


def test_triangle_boundary_cohomology():
    # Hand elimination of the 3x3 incidence matrix gives rank 2.
    K = examples.get_complex("s1-triangle")
    C, _ = simplicial_cochains(K)
    assert C.d[0].rank() == 2
    assert C.betti() == (1, 1)


def test_torus_betti():
    assert betti(examples.get_complex("t2-7")) == (1, 2, 1)


def test_disk_annulus_solid_torus_betti():
    assert betti(examples.get_complex("disk")) == (1, 0, 0)
    assert betti(examples.get_complex("annulus")) == (1, 1, 0)
    assert betti(examples.get_complex("solid-torus")) == (1, 1, 0, 0)


def test_octahedron_sphere_betti():
    X = SimplicialComplex.from_facets(
        examples.DECOMPOSITION_DOCUMENTS["octahedron-marked"]["facets"], name="S2")
    assert betti(X) == (1, 0, 1)


def test_euler_characteristic_matches_betti():
    for name in ("s1-triangle", "t2-7", "disk", "annulus", "solid-torus"):
        K = examples.get_complex(name)
        b = betti(K)
        assert K.euler_characteristic() == sum((-1) ** r * b[r] for r in range(len(b)))


def test_cohomology_out_of_range_is_zero():
    C, _ = simplicial_cochains(examples.get_complex("disk"))
    assert C.cohomology(5).dimension == 0


def test_link_betti_poincare_duality():
    # Links of the bundled decompositions are closed oriented manifolds.
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        D = examples.get_decomposition(name)
        b = betti(D.L)
        c = D.n - 1
        for r in range(c + 1):
            assert b[r] == b[c - r]


def test_cup_leibniz_exact_on_basis_pairs():
    for name in ("s1-triangle", "disk", "annulus", "t2-7"):
        K = examples.get_complex(name)
        C, cup = simplicial_cochains(K)
        top = C.top
        for r in range(top + 1):
            for s in range(top + 1 - r):
                sign = Fraction(-1) ** r
                for i in range(C.dim(r)):
                    a = tuple(Fraction(int(x == i)) for x in range(C.dim(r)))
                    da = C.d[r].apply(a)
                    for j in range(C.dim(s)):
                        b = tuple(Fraction(int(x == j)) for x in range(C.dim(s)))
                        db = C.d[s].apply(b)
                        lhs = C.diff(r + s).apply(cup.cup(r, a, s, b))
                        rhs = tuple(
                            p + sign * q
                            for p, q in zip(cup.cup(r + 1, da, s, b),
                                            cup.cup(r, a, s + 1, db)))
                        assert lhs == rhs


def test_cup_associativity_exact_on_basis_triples():
    for name in ("s1-triangle", "disk", "t2-7"):
        K = examples.get_complex(name)
        C, cup = simplicial_cochains(K)
        top = C.top
        for r in range(top + 1):
            for s in range(top + 1 - r):
                for t in range(top + 1 - r - s):
                    for i in range(C.dim(r)):
                        a = tuple(Fraction(int(x == i)) for x in range(C.dim(r)))
                        for j in range(C.dim(s)):
                            b = tuple(Fraction(int(x == j)) for x in range(C.dim(s)))
                            ab = cup.cup(r, a, s, b)
                            for k in range(C.dim(t)):
                                c = tuple(Fraction(int(x == k)) for x in range(C.dim(t)))
                                bc = cup.cup(s, b, t, c)
                                assert cup.cup(r + s, ab, t, c) == cup.cup(r, a, s + t, bc)


def products_vanish_dense(cup, r, left, s, right):
    """Reference: the cup product of every pair of columns, one at a time."""
    return all(vec_is_zero(cup.cup(r, a, s, b))
               for a in left.columns() for b in right.columns())


def test_products_vanish_matches_the_pairwise_products():
    rng = random.Random(17)
    sd1 = examples.subdivide(examples.get_document("x2-cone-torus"), 1)
    D = decompose(parse_complex(sd1), sd1["singular_vertex"])
    complexes = [examples.get_decomposition(name).L for name in examples.decomposition_names()]
    complexes += [D.L, D.M]

    def columns(rows, support, count=2):
        """count columns with random nonzero entries on rows in ``support``."""
        entries = {(i, j): rng.choice((-2, -1, 1, Fraction(1, 3)))
                   for j in range(count) for i in support if rng.random() < 0.6}
        return RationalMatrix(rows, count, entries)

    seen = {True: 0, False: 0}
    for K in complexes:
        C, cup = simplicial_cochains(K)
        for total in range(K.dimension + 1):
            for r in range(total + 1):
                s = total - r
                faces = [(K.index[w[:r + 1]], K.index[w[r:]]) for w in K.simplices(total)]
                for _ in range(4):
                    fronts = rng.sample(range(C.dim(r)), min(3, C.dim(r)))
                    # Rows no simplex glues to the chosen fronts: the products vanish.
                    blocked = {j for i, j in faces if i in fronts}
                    free = [j for j in range(C.dim(s)) if j not in blocked]
                    backs = rng.sample(free, min(3, len(free)))
                    left, right = columns(C.dim(r), fronts), columns(C.dim(s), backs)
                    assert cup.products_vanish(r, left, s, right)
                    assert products_vanish_dense(cup, r, left, s, right)
                    seen[True] += 1
                    # Some rows that glue to the fronts among others: a row
                    # may get no entry, so these vanish or not.
                    glued = rng.sample(sorted(blocked), min(2, len(blocked)))
                    right = columns(C.dim(s), glued + backs)
                    verdict = cup.products_vanish(r, left, s, right)
                    assert verdict == products_vanish_dense(cup, r, left, s, right)
                    seen[verdict] += 1
                # The unit cochains at the front and back faces of one simplex.
                i, j = faces[rng.randrange(len(faces))]
                left = RationalMatrix(C.dim(r), 1, {(i, 0): 1})
                right = RationalMatrix(C.dim(s), 1, {(j, 0): 1})
                assert not cup.products_vanish(r, left, s, right)
                assert not products_vanish_dense(cup, r, left, s, right)
                seen[False] += 1
                with pytest.raises(ValueError):
                    cup.products_vanish(r, RationalMatrix.zeros(C.dim(r) + 1, 1), s, right)
                with pytest.raises(ValueError):
                    cup.products_vanish(r, left, s, RationalMatrix.zeros(C.dim(s) + 1, 1))
    assert seen[True] > 100 and seen[False] > 100


def test_graded_commutativity_up_to_coboundary():
    # a∪b - (-1)^{|a||b|} b∪a is a coboundary for cohomology representatives.
    for name in ("t2-7", "annulus"):
        K = examples.get_complex(name)
        C, cup = simplicial_cochains(K)
        for r in range(C.top + 1):
            for s in range(C.top + 1 - r):
                for a in C.cohomology(r).representatives:
                    for b in C.cohomology(s).representatives:
                        ab = cup.cup(r, a, s, b)
                        ba = cup.cup(s, b, r, a)
                        sign = Fraction(-1) ** (r * s)
                        diff = tuple(x - sign * y for x, y in zip(ab, ba))
                        assert solve(C.diff(r + s - 1), diff) is not None


def test_restriction_identity_and_empty():
    K = examples.get_complex("disk")
    mats = restriction_map(K, K)
    for r, m in enumerate(mats):
        assert m == RationalMatrix.identity(K.n_simplices(r))


def test_restriction_solid_triangle_boundary():
    K = examples.get_complex("disk")
    A = SimplicialComplex.from_facets([[0, 1], [1, 2], [0, 2]], name="bd")
    mats = restriction_map(K, A)
    # Degree 1: all three edges restrict; kernel is zero there.
    assert mats[1].rank() == 3
    assert kernel_basis(mats[1]).count == 0
    # Degree 2: everything dies.
    assert mats[2].is_zero() and mats[2].rows == 0


def test_restriction_not_subcomplex():
    K = examples.get_complex("disk")
    A = SimplicialComplex.from_facets([[0, 3]], name="stray")
    with pytest.raises(ParseError):
        restriction_map(K, A)


def test_relative_complex_empty_and_full():
    K = examples.get_complex("disk")
    # Relative to one of its vertices only that vertex is removed.
    assert PairComplexes(K, SimplicialComplex.from_facets([[0]], name="pt")).rel.dims == (2, 3, 1)
    assert PairComplexes(K, K).rel.dims == (0, 0, 0)


@pytest.mark.parametrize("name,level", [(name, 0) for name in examples.decomposition_names()]
                         + [("x2-cone-torus", 1)])
def test_relative_complex_is_the_cut_of_the_full_coboundary(name, level):
    # C*(M, L) is read by subcomplex; it equals the rows and columns of
    # C*(M)'s coboundary at the simplices outside L.
    document = examples.subdivide(examples.get_document(name), level)
    D = decompose(parse_complex(document), document["singular_vertex"])
    pair = PairComplexes(D.M, D.L)
    kept = [[i for i, s in enumerate(D.M.simplices(r)) if not D.L.has_simplex(s)]
            for r in range(D.M.dimension + 2)]
    for r in range(D.M.dimension + 1):
        assert pair.rel.d[r] == pair.full.d[r].rows_at(kept[r + 1]).columns_at(kept[r])
        assert pair.include_rel[r] == RationalMatrix(
            D.M.n_simplices(r), len(kept[r]), {(k, i): 1 for i, k in enumerate(kept[r])})


@pytest.mark.parametrize("name,level", [(name, 0) for name in examples.decomposition_names()]
                         + [("x2-cone-torus", 1)])
def test_image_from_spanning_columns_is_the_full_image(name, level):
    # CochainComplex.image eliminates only the columns of d^r at the pivots
    # of its forward pass; the full column space is the reference.
    document = examples.subdivide(examples.get_document(name), level)
    D = decompose(parse_complex(document), document["singular_vertex"])
    pair = PairComplexes(D.M, D.L)
    for C in (simplicial_cochains(D.X)[0], pair.full, pair.sub, pair.rel):
        for r in range(C.top + 1):
            assert C.image(r) == image_basis(C.diff(r)), (C.name, r)


def test_relative_solid_torus_lefschetz_dims():
    # H^r(M, ∂M) matches H_{n-r}(M) computed independently from chain ranks.
    D = examples.get_decomposition("x2-cone-torus")
    pair = PairComplexes(D.M, D.L)
    rel_betti = pair.rel.betti()
    chain_betti = []
    for r in range(D.n + 1):
        boundary_r = D.M.boundary_matrix(r)
        boundary_r1 = D.M.boundary_matrix(r + 1)
        chain_betti.append(kernel_basis(boundary_r).count - boundary_r1.rank())
    assert rel_betti == (0, 0, 1, 1)
    assert tuple(chain_betti[D.n - r] for r in range(D.n + 1)) == rel_betti


def test_pair_complexes_checks_exactness():
    D = examples.get_decomposition("octahedron-marked")
    pair = PairComplexes(D.M, D.L)
    assert pair.rel.betti() == (0, 0, 1)
    assert pair.full.betti() == (1, 0, 0)


def test_induced_map_identity_and_zero():
    C, _ = simplicial_cochains(examples.get_complex("t2-7"))
    ident = [RationalMatrix.identity(C.dim(r)) for r in range(C.top + 1)]
    for r in range(C.top + 1):
        h = induced_map(ident, C, C, r)
        assert h == RationalMatrix.identity(C.cohomology(r).dimension)
    zero = [RationalMatrix.zeros(C.dim(r), C.dim(r)) for r in range(C.top + 1)]
    assert induced_map(zero, C, C, 1).is_zero()


@pytest.mark.parametrize("degree", [0, 1])
def test_complex_from_matrices_checks_d_squared(degree):
    # d^{degree+1} d^{degree} = [[1]]: a complex built directly from
    # matrices has its d∘d checked, which subcomplexes inherit.
    d = [RationalMatrix.zeros(1, 1) for _ in range(3)] + [RationalMatrix.zeros(0, 1)]
    d[degree] = d[degree + 1] = RationalMatrix.identity(1)
    with pytest.raises(InternalExactnessError) as err:
        CochainComplex("bad", (1, 1, 1, 1), d)
    assert str(err.value) == f"bad: d∘d != 0 at degree {degree}"
    assert err.value.code == "INTERNAL_EXACTNESS"


def test_subcomplex_rejects_a_basis_not_closed_under_d():
    # One vertex of the triangle spans no subcomplex: d of its dual is a
    # nonzero edge cochain, and degree 1 holds nothing.
    C, _ = simplicial_cochains(examples.get_complex("s1-triangle"))
    bases = [SubspaceBasis.from_vectors(3, [(1, 0, 0)]), SubspaceBasis.from_vectors(3, [])]
    with pytest.raises(InternalExactnessError,
                       match="^sub: inclusion fails to commute with d at 0$") as info:
        subcomplex("sub", C, bases)
    assert info.value.code == "INTERNAL_EXACTNESS"


def test_induced_restriction_solid_torus_to_boundary():
    # Degree 1: rank one (the longitude survives, the meridian dies).
    D = examples.get_decomposition("x2-cone-torus")
    pair = PairComplexes(D.M, D.L)
    sub = pair.sub
    h = induced_map(pair.restrict, pair.full, sub, 1)
    assert (h.rows, h.cols) == (2, 1)
    assert h.rank() == 1


def pair_sequence(pair):
    """0 -> C*(K,A) -> C*(K) -> C*(A) -> 0 with the pair's unit inverses."""
    return ShortExactSequence(pair.rel, pair.full, pair.sub, pair.include_rel, pair.restrict,
                              [j.transpose() for j in pair.include_rel],
                              [i.transpose() for i in pair.restrict])


def test_connecting_homomorphism_solid_torus():
    D = examples.get_decomposition("x2-cone-torus")
    pair = PairComplexes(D.M, D.L)
    ses = pair_sequence(pair)
    # r=2: H^2(T^2) -> H^3(M, ∂M) is an isomorphism Q -> Q.
    delta2 = ses.connecting(2)
    assert (delta2.rows, delta2.cols) == (1, 1)
    assert delta2.rank() == 1
    # r=1: H^1(T^2) = Q^2 -> H^2(M, ∂M) = Q surjective with kernel dim 1.
    delta1 = ses.connecting(1)
    assert (delta1.rows, delta1.cols) == (1, 2)
    assert delta1.rank() == 1
    assert kernel_basis(delta1).count == 1


def test_connecting_zero_for_acyclic_third_term():
    # Split SES U -> U ⊕ W -> W with W acyclic: connecting maps vanish.
    U, _ = simplicial_cochains(examples.get_complex("s1-triangle"))
    W = CochainComplex("acyclic", (1, 1), (RationalMatrix.identity(1),
                                           RationalMatrix.zeros(0, 1)))
    dims = [U.dim(r) + W.dim(r) for r in range(2)]
    d = []
    for r in range(2):
        # Values through entry(), since `entries` holds numerators over `den`.
        entries = {(i, j): U.d[r].entry(i, j) for i, j in U.d[r].entries}
        for i, j in W.d[r].entries:
            entries[(U.dim(r + 1) + i, U.dim(r) + j)] = W.d[r].entry(i, j)
        d.append(RationalMatrix(dims[r + 1] if r + 1 < 2 else 0, dims[r], entries))
    V = CochainComplex("sum", dims, d)
    alpha = [RationalMatrix(dims[r], U.dim(r),
                            {(i, i): 1 for i in range(U.dim(r))}) for r in range(2)]
    beta = [RationalMatrix(W.dim(r), dims[r],
                           {(i, U.dim(r) + i): 1 for i in range(W.dim(r))}) for r in range(2)]
    # alpha and beta are unit inclusions and projections, so their
    # transposes are the split's unit projections and inclusions.
    ses = ShortExactSequence(U, V, W, alpha, beta, [a.transpose() for a in alpha],
                             [b.transpose() for b in beta])
    for r in range(2):
        assert ses.connecting(r).is_zero()
    assert all(h == 0 for h in W.betti())


def test_connecting_zero_in_degree_zero_for_disk_pair():
    # Constants extend over the disk, so the degree-0 connecting map is zero.
    D = examples.get_decomposition("disk-cone-s1")
    pair = PairComplexes(D.M, D.L)
    ses = pair_sequence(pair)
    assert ses.connecting(0).is_zero()


def test_connecting_independent_of_lift():
    D = examples.get_decomposition("x2-cone-torus")
    pair = PairComplexes(D.M, D.L)
    sub = pair.sub
    ses = pair_sequence(pair)
    rng = random.Random(2)
    for r in (1, 2):
        for w in sub.cohomology(r).representatives:
            v = solve(ses.beta[r], w)
            # Perturb the lift by something in the image of alpha.
            noise = tuple(Fraction(rng.randint(-2, 2)) for _ in range(pair.rel.dim(r)))
            v2 = tuple(a + b for a, b in zip(v, ses.alpha_mat(r).apply(noise)))
            dv2 = pair.full.diff(r).apply(v2)
            u2 = solve(ses.alpha_mat(r + 1), dv2)
            dv = pair.full.diff(r).apply(v)
            u = solve(ses.alpha_mat(r + 1), dv)
            classes = pair.rel.express_class(
                from_columns([u, u2], pair.rel.dim(r + 1)), r + 1)
            assert classes.column(0) == classes.column(1)


def test_kept_induced_maps_are_keyed_on_the_target_classes():
    # One map from one source into two targets that differ only in d^0: e1
    # is a coboundary in the first and not in the second, so the class of
    # f(e1) is zero in one target only, though the source keeps both maps.
    S = CochainComplex("S", (0, 1), (RationalMatrix.zeros(1, 0), RationalMatrix.zeros(0, 1)))
    f = (RationalMatrix.zeros(1, 0), RationalMatrix.from_rows([[1], [0]]))
    targets = [CochainComplex(name, (1, 2),
                              (RationalMatrix.from_rows(d), RationalMatrix.zeros(0, 2)))
               for name, d in (("T1", [[1], [0]]), ("T2", [[0], [1]]))]
    assert induced_map(f, S, targets[0], 1).is_zero()
    assert not induced_map(f, S, targets[1], 1).is_zero()


def test_connecting_certificate_rejects_a_zero_left_inverse():
    # Two sequences that share every operand but the left inverse in degree
    # 2, which is zero in the second: the first has a nonzero connecting map
    # in degree 1, and the second's certificate must fail.
    D = examples.get_decomposition("x2-cone-torus")
    pair = PairComplexes(D.M, D.L)
    ses = pair_sequence(pair)
    assert not ses.connecting(1).is_zero()
    left = list(ses.left)
    left[2] = RationalMatrix.zeros(left[2].rows, left[2].cols)
    other = ShortExactSequence(ses.U, ses.V, ses.W, ses.alpha, ses.beta, left, ses.right)
    with pytest.raises(InternalExactnessError, match="^SES: boundary not in the subcomplex$"):
        other.connecting(1)


def test_integrate_dual_basis_and_bilinearity():
    K = examples.get_complex("disk")
    C, _ = simplicial_cochains(K)
    sigma = (0, 1)
    phi = tuple(Fraction(int(s == sigma)) for s in K.simplices(1))
    assert integrate(phi, chain_vector(K, 1, {sigma: 1})) == 1
    assert integrate(phi, chain_vector(K, 1, {sigma: 2, (1, 2): -3})) == 2
    zero = tuple(Fraction(0) for _ in K.simplices(1))
    assert integrate(zero, chain_vector(K, 1, {sigma: 5})) == 0
    with pytest.raises(ParseError):
        integrate(phi, vec([1]))


def test_pairing_evaluation_stokes_is_sign_free():
    # The twisted evaluation used by the duality pairings satisfies the
    # sign-free boundary identity.
    rng = random.Random(12)
    K = examples.get_complex("t2-7")
    C, _ = simplicial_cochains(K)
    for _ in range(200):
        r = rng.randint(0, C.top - 1)
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(C.dim(r)))
        xi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(C.dim(r + 1)))
        lhs = pair_against_chain(r + 1, C.d[r].apply(x), xi)
        rhs = pair_against_chain(r, x, K.boundary_matrix(r + 1).apply(xi))
        assert lhs == rhs


def test_stokes_identity_randomized():
    # integrate(dx, xi) = -(-1)^{deg x} integrate(x, ∂xi), exactly.
    rng = random.Random(31)
    for name in ("s1-triangle", "t2-7", "disk", "annulus", "solid-torus"):
        K = examples.get_complex(name)
        C, _ = simplicial_cochains(K)
        for _ in range(200):
            r = rng.randint(0, C.top - 1)
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(C.dim(r)))
            xi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(C.dim(r + 1)))
            lhs = integrate(C.d[r].apply(x), xi)
            rhs = integrate(x, K.boundary_matrix(r + 1).apply(xi))
            assert lhs == -((-1) ** r) * rhs


def test_evaluation_form_matches_cup_then_evaluate():
    # a^T G b must equal the reference path: the dense cup product evaluated
    # by pair_against_chain, for every complex, degree and both kinds of chain.
    rng = random.Random(47)

    def random_vector(size):
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size))

    for name in examples.complex_names():
        K = examples.get_complex(name)
        C, cup = simplicial_cochains(K)
        n = K.dimension
        chains = [random_vector(C.dim(n))]
        try:
            chains.append(orient_top_chain(K).coefficients)
        except NonOrientableError:
            assert name == "mobius"
        for chain in chains:
            for r in range(n + 1):
                G = cup.evaluation_form(n, r, chain)
                assert (G.rows, G.cols) == (C.dim(r), C.dim(n - r))
                for _ in range(5):
                    a = random_vector(C.dim(r))
                    b = random_vector(C.dim(n - r))
                    expected = pair_against_chain(n, cup.cup(r, a, n - r, b), chain)
                    assert integrate(a, G.apply(b)) == expected
                left = [random_vector(C.dim(r)) for _ in range(3)]
                right = [random_vector(C.dim(n - r)) for _ in range(2)]
                P = pairing_matrix(lambda: G,
                                   from_columns(left, C.dim(r)),
                                   from_columns(right, C.dim(n - r)))
                assert dense(P) == [
                    [pair_against_chain(n, cup.cup(r, a, n - r, b), chain) for b in right]
                    for a in left]


def test_pairing_matrix_with_an_empty_side():
    K = examples.get_complex("t2-7")
    C, cup = simplicial_cochains(K)
    chain = orient_top_chain(K).coefficients
    some = RationalMatrix.identity(C.dim(1))

    def unbuilt():
        raise AssertionError("the form of a pairing with an empty side was built")

    # Neither the form nor the empty side's row count is read, as for
    # degrees -1 and n+1.
    assert pairing_matrix(unbuilt, RationalMatrix.zeros(0, 0), some) == \
        RationalMatrix.zeros(0, C.dim(1))
    assert pairing_matrix(unbuilt, some, RationalMatrix.zeros(5, 0)) == \
        RationalMatrix.zeros(C.dim(1), 0)
    assert pairing_matrix(lambda: cup.evaluation_form(2, 1, chain), some, some) == \
        some.transpose() @ cup.evaluation_form(2, 1, chain) @ some
