import random

import pytest

from stratdual.errors import (
    LinkDisconnectedError,
    NonOrientableError,
    NotPseudomanifoldError,
    ParseError,
)
from stratdual.simplicial import (
    SimplicialComplex,
    boundary_of_chain,
    decompose,
    fundamental_chain,
    link_of_vertex,
    orient_top_chain,
    parse_complex,
)

from helpers import get_complex, get_decomposition


def test_parse_triangle_boundary():
    K = parse_complex({"name": "s1", "dimension": 1, "facets": [[0, 1], [1, 2], [0, 2]]})
    assert K.dimension == 1
    assert K.n_simplices(0) == 3 and K.n_simplices(1) == 3


def test_parse_solid_triangle():
    K = parse_complex({"name": "d2", "dimension": 2, "facets": [[0, 1, 2]]})
    assert K.dimension == 2
    assert K.faces[1] == ((0, 1), (0, 2), (1, 2))


def test_parse_not_pure():
    with pytest.raises(ParseError):
        SimplicialComplex.from_facets([[0, 1], [2]])


def test_parse_repeated_vertex():
    with pytest.raises(ParseError):
        SimplicialComplex.from_facets([[0, 1, 1]])


def test_parse_declared_dimension_mismatch():
    with pytest.raises(ParseError):
        parse_complex({"dimension": 2, "facets": [[0, 1]]})


def test_link_of_triangle_boundary_vertex():
    K = get_complex("s1-triangle")
    link = link_of_vertex(K, 0)
    assert link.dimension == 0
    assert link.faces[0] == ((1,), (2,))


def test_link_in_solid_triangle():
    K = get_complex("disk")
    link = link_of_vertex(K, 0)
    assert link.facets == ((1, 2),)


def test_link_unknown_vertex():
    with pytest.raises(ParseError):
        link_of_vertex(get_complex("disk"), 9)


def test_link_of_cone_apex_recovers_base():
    # link_of_vertex(cone(K), apex) == K on 50 random pure complexes.
    rng = random.Random(5)
    for _ in range(50):
        n_vertices = rng.randint(3, 6)
        size = rng.randint(2, min(3, n_vertices))
        facets = set()
        for _ in range(rng.randint(1, 5)):
            facets.add(tuple(sorted(rng.sample(range(n_vertices), size))))
        K = SimplicialComplex.from_facets([list(f) for f in facets])
        apex = 99
        cone = SimplicialComplex.from_facets([list(f) + [apex] for f in facets])
        link = link_of_vertex(cone, apex)
        assert link.faces == K.faces


def test_decompose_octahedron():
    D = get_decomposition("octahedron-marked")
    assert D.n == 2
    assert D.L.dimension == 1 and len(D.L.facets) == 4
    assert len(D.M.facets) == 4
    assert set(D.M.vertices) == {1, 2, 3, 4, 5}


def test_decompose_cone_torus():
    D = get_decomposition("x2-cone-torus")
    assert D.n == 3
    assert len(D.L.facets) == 14 and len(D.L.vertices) == 7
    assert len(D.M.facets) == 7
    assert D.M.euler_characteristic() == 0
    assert D.L.euler_characteristic() == 0


def test_decompose_rejects_disconnected_link():
    # Two disks wedged at the marked vertex: the link is two disjoint circles.
    facets = [[3, 0, 1], [3, 1, 2], [3, 0, 2], [0, 1, 2],
              [3, 4, 5], [3, 5, 6], [3, 4, 6], [4, 5, 6]]
    X = SimplicialComplex.from_facets(facets, name="wedge")
    with pytest.raises(LinkDisconnectedError):
        decompose(X, 3)


def test_decompose_rejects_bad_cofacets():
    # A lone solid triangle has boundary edges with one cofacet.
    X = SimplicialComplex.from_facets([[0, 1, 2], [3, 0, 1], [3, 1, 2]], name="bad")
    with pytest.raises(NotPseudomanifoldError):
        decompose(X, 3)


def test_decompose_rejects_low_dimension():
    X = get_complex("s1-triangle")
    with pytest.raises(NotPseudomanifoldError):
        decompose(X, 0)


def test_fundamental_chain_disk():
    K = get_complex("disk")
    mu = orient_top_chain(K)
    assert mu.coefficients == (1,)
    support = boundary_of_chain(K, mu)
    assert set(support) == {(0, 1), (0, 2), (1, 2)}


def test_fundamental_chain_annulus():
    K = get_complex("annulus")
    mu = orient_top_chain(K)
    assert all(c in (1, -1) for c in mu.coefficients)
    support = boundary_of_chain(K, mu)
    outer = {(0, 1), (1, 2), (2, 3), (0, 3)}
    inner = {(4, 5), (5, 6), (6, 7), (4, 7)}
    assert set(support) == outer | inner
    assert all(c in (1, -1) for c in support.values())


def test_fundamental_chain_mobius_fails():
    with pytest.raises(NonOrientableError):
        orient_top_chain(get_complex("mobius"))


def test_fundamental_chain_of_decompositions():
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        D = get_decomposition(name)
        mu = fundamental_chain(D)
        assert all(c in (1, -1) for c in mu.coefficients)
        support = boundary_of_chain(D.M, mu)
        link_faces = set(D.L.simplices(D.n - 1))
        assert set(support) <= link_faces
        # ∂∂mu = 0.
        boundary_vec = D.M.boundary_matrix(D.n).apply(mu.coefficients)
        assert D.M.boundary_matrix(D.n - 1).apply(boundary_vec) == tuple(
            [0] * D.M.n_simplices(D.n - 2))


def test_fundamental_chain_mobius_marked_decomposition():
    D = get_decomposition("mobius-marked")
    with pytest.raises(NonOrientableError):
        fundamental_chain(D)


def test_closed_surfaces_have_empty_chain_boundary():
    for name in ("t2-7",):
        K = get_complex(name)
        mu = orient_top_chain(K)
        assert boundary_of_chain(K, mu) == {}
