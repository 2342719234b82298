"""The simplicial layer reads M, L, every count and mu off X's one closure.

``decompose`` takes M's and L's face tables from X's, checks X, L and M on
X's one count of cofacets, and ``fundamental_chain`` counts the relative top
cycles by the orientation walk's components.  The references below are the
constructions they replace, kept here: each facet closed on its own, M and L
closed again from their facets, each complex counted on its own, a walk
over tuple faces, and the relative cycles by a rank.  On every bundled
input, its sd¹, both n = 4 documents and ten relabellings of each, M, L, mu
and ∂mu must equal the references'; on random small complexes and on
broken bundled inputs, so must the error, type and message.  A relabelling
reorders every face table, so an order that follows the labels shows on
some relabellings only.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from stratdual import examples
from stratdual.errors import (
    LinkDisconnectedError,
    NonOrientableError,
    NotPseudomanifoldError,
    ParseError,
    StratdualError,
)
from stratdual.simplicial import (
    SimplicialComplex,
    _is_int,
    boundary_of_chain,
    decompose,
    fundamental_chain,
    parse_complex,
)

from helpers import COMPLEX_FACETS
from test_dimension_four import DOCUMENTS as DIMENSION_FOUR
from test_relabelled_sweeps import relabel

FIELDS = ("name", "dimension", "vertices", "facets", "faces", "index")

BASES = {name: examples.get_document(name) for name in examples.decomposition_names()}
BASES.update({f"{name}-sd1": examples.subdivide(document, 1)
              for name, document in list(BASES.items())})
BASES.update(DIMENSION_FOUR)
INPUTS = {(name, seed): document if seed is None else relabel(document, seed)
          for name, document in BASES.items() for seed in (None, *range(10))}


# -- the constructions that the closure replaces ---------------------------

def closed(facets, name):
    """A complex with every subset of every facet, as the tables were built
    before they were closed top down."""
    norm = sorted({tuple(sorted(f)) for f in facets})
    dimension = len(norm[0]) - 1
    faces = {r: set() for r in range(dimension + 1)}
    for f in norm:
        for r in range(dimension + 1):
            faces[r].update(combinations(f, r + 1))
    faces = {r: tuple(sorted(fs)) for r, fs in faces.items()}
    index = {s: pos for fs in faces.values() for pos, s in enumerate(fs)}
    return SimplicialComplex(name, dimension, tuple(v for (v,) in faces[0]), tuple(norm),
                             faces, index)


def counts_of(K):
    counts = {s: 0 for s in K.simplices(K.dimension - 1)}
    for f in K.facets:
        for i in range(len(f)):
            counts[f[:i] + f[i + 1:]] += 1
    return counts


def link_of(K, v):
    if v not in K.vertices:
        raise ParseError(f"vertex {v} not in complex {K.name!r}")
    facets = [tuple(w for w in f if w != v) for f in K.facets if v in f]
    if not facets:
        raise NotPseudomanifoldError(f"vertex {v} is isolated in {K.name!r}")
    return closed(facets, f"link({K.name},{v})")


def reference_decompose(X, x):
    """M and L of X at x, closed from their facets and checked one by one."""
    if not _is_int(x):
        raise ParseError(f"singular vertex must be an integer vertex id, got {x!r}")
    n = X.dimension
    if n < 2:
        raise NotPseudomanifoldError(f"{X.name}: dimension {n} < 2")
    if x not in X.vertices:
        raise ParseError(f"singular vertex {x} not in {X.name!r}")
    if not X.is_connected():
        raise NotPseudomanifoldError(f"{X.name}: not connected")
    for s, c in counts_of(X).items():
        if x not in s and c != 2:
            raise NotPseudomanifoldError(
                f"{X.name}: (n-1)-simplex {s} lies in {c} facets, expected 2")
    L = link_of(X, x)
    if L.dimension != n - 1:
        raise NotPseudomanifoldError(
            f"{X.name}: link of {x} has dimension {L.dimension}, expected {n - 1}")
    for s, c in counts_of(L).items():
        if c != 2:
            raise NotPseudomanifoldError(
                f"link of {x}: simplex {s} lies in {c} top simplices, expected 2")
    if not L.is_connected():
        raise LinkDisconnectedError(f"{X.name}: link of {x} is disconnected")
    exterior = [f for f in X.facets if x not in f]
    if not exterior:
        raise NotPseudomanifoldError(f"{X.name}: every facet contains {x}")
    M = closed(exterior, f"{X.name}:exterior")
    for r in range(n + 1):
        for s in X.simplices(r):
            if x not in s and not M.has_simplex(s):
                raise NotPseudomanifoldError(
                    f"{X.name}: simplex {s} avoids {x} but lies only in its star")
    if not M.contains_complex(L):
        raise NotPseudomanifoldError(f"{X.name}: link of {x} not contained in the exterior")
    if {s for s, c in counts_of(M).items() if c == 1} != set(L.simplices(n - 1)):
        raise NotPseudomanifoldError(f"{X.name}: exterior boundary differs from the link of {x}")
    return M, L


def reference_orientation(K):
    """The walk over tuple faces: signs per facet."""
    n = K.dimension
    facets = K.facets
    by_face = {}
    for idx, f in enumerate(facets):
        for i in range(n + 1):
            by_face.setdefault(f[:i] + f[i + 1:], []).append((idx, i))
    signs = {}
    for start in range(len(facets)):
        if start in signs:
            continue
        signs[start] = 1
        queue = [start]
        for cur in queue:
            f = facets[cur]
            for i in range(n + 1):
                face = f[:i] + f[i + 1:]
                incidences = by_face[face]
                if len(incidences) != 2:
                    continue
                for other, j in incidences:
                    if other == cur:
                        continue
                    needed = -signs[cur] * (-1) ** (i + j)
                    if other in signs:
                        if signs[other] != needed:
                            raise NonOrientableError(
                                f"{K.name}: orientation conflict at face {face}")
                    else:
                        signs[other] = needed
                        queue.append(other)
    return tuple(Fraction(signs[i]) for i in range(len(facets)))


def reference_mu(name, M, L, n):
    """mu by the tuple walk, its support on L, and the relative cycles by rank."""
    coefficients = reference_orientation(M)
    boundary = {}
    for f, c in zip(M.facets, coefficients):
        for i in range(n + 1):
            face = f[:i] + f[i + 1:]
            boundary[face] = boundary.get(face, 0) + (-1) ** i * c
    boundary = {s: c for s, c in boundary.items() if c}
    link_faces = set(L.simplices(n - 1))
    for s in sorted(boundary):
        if s not in link_faces:
            raise NotPseudomanifoldError(f"{name}: ∂mu touches interior simplex {s}")
    interior = [i for i, s in enumerate(M.simplices(n - 1)) if s not in link_faces]
    rel = M.coboundary_matrix(n - 1).columns_at(interior)
    if rel.rows - rel.rank() != 1:
        raise NotPseudomanifoldError(f"{name}: relative top cycles have dimension != 1")
    return coefficients, boundary


def outcome(run, *args):
    try:
        return run(*args)
    except StratdualError as error:
        return type(error), str(error)


def ours(document):
    X = parse_complex(document)
    D = decompose(X, document["singular_vertex"])
    mu = fundamental_chain(D)
    return D, mu


def theirs(document):
    X = parse_complex(document)
    M, L = reference_decompose(X, document["singular_vertex"])
    return M, L, reference_mu(X.name, M, L, X.dimension)


# -- valid inputs ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BASES))
def test_tables_and_mu_match_the_closures_of_the_facets(name):
    for seed in (None, *range(10)):
        document = INPUTS[name, seed]
        where = (name, seed)
        reference = outcome(theirs, document)
        if not isinstance(reference[0], SimplicialComplex):
            assert outcome(lambda: ours(document)[1].coefficients) == reference, where
            continue
        M, L, (coefficients, boundary) = reference
        D, mu = ours(document)
        X = closed(document["facets"], document["name"])
        for field in FIELDS:
            assert getattr(D.X, field) == getattr(X, field), (where, "X", field)
            assert getattr(D.M, field) == getattr(M, field), (where, "M", field)
            assert getattr(D.L, field) == getattr(L, field), (where, "L", field)
        assert mu.coefficients == coefficients, where
        assert boundary_of_chain(D.M, mu) == boundary, where


# -- rejected inputs -------------------------------------------------------

def glue_sphere(facets, face, n):
    """The facets and the boundary of an (n+1)-simplex glued along ``face``,
    a list of vertices, its other vertices fresh."""
    fresh = max(v for f in facets for v in f) + 1
    sphere = [*face, *range(fresh, fresh + n + 2 - len(face))]
    return [list(f) for f in facets] + [list(f) for f in combinations(sphere, n + 1)]


def broken_documents():
    """Each bundled input (mobius-marked among them) with a sphere wedged at
    a vertex, the marked one included, or glued along one or two
    (n-1)-faces through the marked vertex, which leaves the link not closed
    there, or with one facet removed."""
    for name in examples.decomposition_names():
        document = examples.get_document(name)
        facets, n, x = document["facets"], document["dimension"], document["singular_vertex"]
        for v in sorted({v for f in facets for v in f}):
            yield {**document, "facets": glue_sphere(facets, [v], n)}
        through = sorted({face for f in facets for face in combinations(sorted(f), n)
                          if x in face})
        for face in through:
            yield {**document, "facets": glue_sphere(facets, list(face), n)}
        yield {**document, "facets": glue_sphere(glue_sphere(facets, list(through[0]), n),
                                                 list(through[-1]), n)}
        for i in range(len(facets)):
            yield {**document, "facets": facets[:i] + facets[i + 1:]}


SMALL = [COMPLEX_FACETS[name] for name in ("disk", "annulus", "mobius", "t2-7",
                                                       "solid-torus", "s1-square")]


def random_document(rng):
    """A small document: random facets, or a bundled or small complex
    relabelled, or the cone on one, with facets removed or added and
    spheres glued along faces; marked at a vertex of the last glued face,
    at the cone's apex, at any vertex, or at none."""
    kind = rng.randrange(4)
    marks = []
    if kind == 0:
        n = rng.randint(1, 3)
        vertices = rng.randint(n + 1, n + 5)
        facets = [rng.sample(range(vertices), n + 1) for _ in range(rng.randint(1, 9))]
    else:
        source = rng.choice([examples.get_document(name)["facets"]
                             for name in examples.decomposition_names()] + SMALL)
        vertices = sorted({v for f in source for v in f})
        mapping = dict(zip(vertices, rng.sample(range(2 * len(vertices)), len(vertices))))
        facets = [[mapping[v] for v in f] for f in source]
        n = len(facets[0]) - 1
        if kind == 3:
            apex = max(v for f in facets for v in f) + 1
            facets = [f + [apex] for f in facets]
            n += 1
            marks = [apex]
        for _ in range(rng.randint(0, 2)):
            move = rng.randrange(3)
            if move == 0 and len(facets) > 1:
                facets.pop(rng.randrange(len(facets)))
            elif move == 1:
                vertices = max(v for f in facets for v in f) + 2
                facets.append(rng.sample(range(vertices), n + 1))
            else:
                marks = rng.sample(rng.choice(facets), rng.randint(1, n))
                facets = glue_sphere(facets, marks, n)
    vertices = sorted({v for f in facets for v in f})
    if marks and rng.random() < 0.5:
        x = rng.choice(marks)
    else:
        x = rng.choice(vertices + [max(vertices) + 1] if rng.random() < 0.05 else vertices)
    return {"name": "random", "dimension": n, "facets": facets, "singular_vertex": x}


def error_of(run, document):
    try:
        run(document)
    except StratdualError as error:
        return type(error), str(error)
    return None


def test_rejections_match_on_broken_bundled_inputs():
    seen = set()
    for document in broken_documents():
        expected = error_of(theirs, document)
        assert error_of(ours, document) == expected, document
        seen.add(expected and expected[1].split(": ", 1)[-1].split(" ", 1)[0])
    assert seen >= {"(n-1)-simplex", "simplex", "relative", "orientation"}, seen


def test_rejections_match_on_random_small_complexes():
    rng = random.Random(20240)
    seen = {}
    for _ in range(1000):
        document = random_document(rng)
        expected = error_of(theirs, document)
        assert error_of(ours, document) == expected, document
        # The check that rejected it: the message's first word after the name.
        key = expected and expected[1].split(": ", 1)[-1].split(" ", 1)[0]
        seen[key] = seen.get(key, 0) + 1
    print(seen)
    # Accepted inputs and rejections at every check of X, L and mu occur.
    assert set(seen) >= {None, "(n-1)-simplex", "simplex", "link", "orientation",
                         "relative"}, seen
