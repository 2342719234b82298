"""Triangulated pseudomanifolds with one isolated singularity.

A complex is stored by its facets; all faces are derived by closure and kept
sorted (vertices ascending inside a simplex, simplices lexicographic per
degree), which fixes every downstream basis order.  ``decompose`` splits X
into the exterior manifold M and the link L of the marked vertex and checks
the pseudomanifold conditions; ``fundamental_chain`` propagates a coherent
orientation over the facet adjacency graph.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import (
    LinkDisconnectedError,
    NonOrientableError,
    NotPseudomanifoldError,
    ParseError,
)
from .rational import RationalMatrix, kernel_basis

Simplex = tuple  # tuple[int, ...], strictly increasing vertex ids


def _is_int(v) -> bool:
    """True for a JSON integer; bools and floats such as 2.0 are not."""
    return isinstance(v, int) and not isinstance(v, bool)


class SimplicialComplex:
    """Finite pure simplicial complex, immutable after construction."""

    __slots__ = ("name", "dimension", "vertices", "facets", "faces", "index")

    def __init__(self, name, dimension, vertices, facets, faces, index):
        self.name = name
        self.dimension = dimension
        self.vertices = vertices
        self.facets = facets
        self.faces = faces          # degree -> tuple of simplices
        self.index = index          # simplex -> position within its degree

    @classmethod
    def from_facets(cls, facets, name="complex") -> "SimplicialComplex":
        norm = []
        for f in facets:
            fl = list(f)
            if len(set(fl)) != len(fl):
                raise ParseError(f"{name}: repeated vertex within facet {fl}")
            if not fl:
                raise ParseError(f"{name}: empty facet")
            if any(not _is_int(v) or v < 0 for v in fl):
                raise ParseError(f"{name}: vertex ids must be non-negative integers, got {fl}")
            norm.append(tuple(sorted(fl)))
        if not norm:
            raise ParseError(f"{name}: no facets")
        sizes = {len(f) for f in norm}
        if len(sizes) != 1:
            raise ParseError(f"{name}: not pure, facet sizes {sorted(sizes)}")
        norm = sorted(set(norm))
        dimension = len(norm[0]) - 1
        faces = {r: set() for r in range(dimension + 1)}
        for f in norm:
            for r in range(dimension + 1):
                for s in combinations(f, r + 1):
                    faces[r].add(s)
        faces = {r: tuple(sorted(fs)) for r, fs in faces.items()}
        index = {}
        for r, fs in faces.items():
            for pos, s in enumerate(fs):
                index[s] = pos
        vertices = tuple(v for (v,) in faces[0])
        return cls(name, dimension, vertices, tuple(norm), faces, index)

    def simplices(self, r: int):
        return self.faces.get(r, ())

    def n_simplices(self, r: int) -> int:
        return len(self.faces.get(r, ()))

    def has_simplex(self, s: Simplex) -> bool:
        return s in self.index

    def contains_complex(self, other: "SimplicialComplex") -> bool:
        return all(self.has_simplex(f) for f in other.facets)

    def boundary_matrix(self, r: int) -> RationalMatrix:
        """Chain boundary C_r -> C_{r-1} with the usual alternating signs."""
        if r <= 0 or r > self.dimension:
            return RationalMatrix.zeros(self.n_simplices(r - 1), self.n_simplices(r))
        lower = self.index
        entries = {}
        for j, s in enumerate(self.faces[r]):
            for i in range(r + 1):
                face = s[:i] + s[i + 1:]
                entries[(lower[face], j)] = Fraction(-1) ** i
        return RationalMatrix(self.n_simplices(r - 1), self.n_simplices(r), entries)

    def euler_characteristic(self) -> int:
        return sum((-1) ** r * self.n_simplices(r) for r in range(self.dimension + 1))

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = {v: set() for v in self.vertices}
        for (a, b) in self.faces.get(1, ()):
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def __repr__(self):
        return f"SimplicialComplex({self.name!r}, dim {self.dimension}, {len(self.facets)} facets)"


def empty_complex(name: str = "empty") -> SimplicialComplex:
    """The empty subcomplex (no faces in any degree)."""
    return SimplicialComplex(name, -1, (), (), {}, {})


def parse_complex(document: dict) -> SimplicialComplex:
    """Build a complex from the JSON-shaped input document."""
    if not isinstance(document, dict):
        raise ParseError("document must be a JSON object")
    missing = {"dimension", "facets"} - set(document)
    if missing:
        raise ParseError(f"document missing keys: {sorted(missing)}")
    name = document.get("name", "complex")
    facets = document["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError("facets must be a list of vertex-id lists")
    if not _is_int(document["dimension"]):
        raise ParseError(f"dimension must be an integer, got {document['dimension']!r}")
    complex_ = SimplicialComplex.from_facets(facets, name=name)
    if complex_.dimension != document["dimension"]:
        raise ParseError(
            f"declared dimension {document['dimension']} but facets have dimension {complex_.dimension}")
    return complex_


def link_of_vertex(K: SimplicialComplex, v: int) -> SimplicialComplex:
    """Subcomplex {s : s ∪ {v} ∈ K, v ∉ s}."""
    if v not in K.vertices:
        raise ParseError(f"vertex {v} not in complex {K.name!r}")
    link_facets = [tuple(w for w in f if w != v) for f in K.facets if v in f]
    if not link_facets:
        raise NotPseudomanifoldError(f"vertex {v} is isolated in {K.name!r}")
    return SimplicialComplex.from_facets(link_facets, name=f"link({K.name},{v})")


def cofacet_counts(K: SimplicialComplex):
    """Number of facets containing each codimension-1 simplex."""
    counts = {s: 0 for s in K.simplices(K.dimension - 1)}
    for f in K.facets:
        for i in range(len(f)):
            counts[f[:i] + f[i + 1:]] += 1
    return counts


class PseudomanifoldDecomposition:
    """X = M ∪_L cone(x * L) with the marked singular vertex x."""

    __slots__ = ("name", "X", "singular_vertex", "M", "L", "n")

    def __init__(self, name, X, singular_vertex, M, L):
        self.name = name
        self.X = X
        self.singular_vertex = singular_vertex
        self.M = M
        self.L = L
        self.n = X.dimension

    def __repr__(self):
        return (f"PseudomanifoldDecomposition({self.name!r}, n={self.n}, "
                f"x={self.singular_vertex})")


def _check_closed_pseudomanifold(L: SimplicialComplex, context: str):
    for s, c in cofacet_counts(L).items():
        if c != 2:
            raise NotPseudomanifoldError(
                f"{context}: simplex {s} lies in {c} top simplices, expected 2")


def decompose(X: SimplicialComplex, x: int) -> PseudomanifoldDecomposition:
    """Split X into exterior M and link L of x, validating all invariants."""
    if not _is_int(x):
        raise ParseError(f"singular vertex must be an integer vertex id, got {x!r}")
    n = X.dimension
    if n < 2:
        raise NotPseudomanifoldError(f"{X.name}: dimension {n} < 2")
    if x not in X.vertices:
        raise ParseError(f"singular vertex {x} not in {X.name!r}")
    if not X.is_connected():
        raise NotPseudomanifoldError(f"{X.name}: not connected")

    # Pseudomanifold condition away from x.
    for s, c in cofacet_counts(X).items():
        if x not in s and c != 2:
            raise NotPseudomanifoldError(
                f"{X.name}: (n-1)-simplex {s} lies in {c} facets, expected 2")

    L = link_of_vertex(X, x)
    if L.dimension != n - 1:
        raise NotPseudomanifoldError(
            f"{X.name}: link of {x} has dimension {L.dimension}, expected {n - 1}")
    _check_closed_pseudomanifold(L, f"link of {x}")
    if not L.is_connected():
        raise LinkDisconnectedError(f"{X.name}: link of {x} is disconnected")

    exterior_facets = [f for f in X.facets if x not in f]
    if not exterior_facets:
        raise NotPseudomanifoldError(f"{X.name}: every facet contains {x}")
    M = SimplicialComplex.from_facets(exterior_facets, name=f"{X.name}:exterior")

    # M must pick up every simplex of X avoiding x (M ∪ star(x) = X).
    for r in range(n + 1):
        for s in X.simplices(r):
            if x not in s and not M.has_simplex(s):
                raise NotPseudomanifoldError(
                    f"{X.name}: simplex {s} avoids {x} but lies only in its star")
    if not M.contains_complex(L):
        raise NotPseudomanifoldError(f"{X.name}: link of {x} not contained in the exterior")

    # Boundary of M is exactly L.
    boundary = {s for s, c in cofacet_counts(M).items() if c == 1}
    if boundary != set(L.simplices(n - 1)):
        raise NotPseudomanifoldError(
            f"{X.name}: exterior boundary differs from the link of {x}")

    return PseudomanifoldDecomposition(X.name, X, x, M, L)


class FundamentalChain:
    """Signed sum of top simplices; coefficients indexed like faces[degree]."""

    __slots__ = ("degree", "coefficients")

    def __init__(self, degree: int, coefficients):
        self.degree = degree
        self.coefficients = tuple(coefficients)

    def negated(self) -> "FundamentalChain":
        return FundamentalChain(self.degree, tuple(-c for c in self.coefficients))


def orient_top_chain(K: SimplicialComplex) -> FundamentalChain:
    """Coherently oriented top chain of a pure complex.

    Breadth-first propagation over the facet adjacency graph from the
    lexicographically smallest facet (sign +1); adjacent facets must induce
    opposite orientations on their shared interior face.
    """
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
        while queue:
            cur = queue.pop(0)
            f = facets[cur]
            for i in range(n + 1):
                face = f[:i] + f[i + 1:]
                incidences = by_face[face]
                if len(incidences) != 2:
                    continue
                for other, j in incidences:
                    if other == cur:
                        continue
                    # Coherence: induced orientations on the shared face cancel.
                    needed = -signs[cur] * (-1) ** (i + j)
                    if other in signs:
                        if signs[other] != needed:
                            raise NonOrientableError(
                                f"{K.name}: orientation conflict at face {face}")
                    else:
                        signs[other] = needed
                        queue.append(other)
    return FundamentalChain(n, tuple(Fraction(signs[i]) for i in range(len(facets))))


def boundary_of_chain(K: SimplicialComplex, chain: FundamentalChain):
    """∂(chain) as {simplex: coefficient} in degree chain.degree - 1."""
    vec = K.boundary_matrix(chain.degree).apply(chain.coefficients)
    lower = K.simplices(chain.degree - 1)
    return {lower[i]: c for i, c in enumerate(vec) if c != 0}


def fundamental_chain(D: PseudomanifoldDecomposition) -> FundamentalChain:
    """Fundamental chain mu of the exterior M, oriented coherently.

    Validates that ∂mu is supported on L and that the relative class
    generates H_n(M, ∂M), i.e. that relative n-cycles are one-dimensional.
    """
    mu = orient_top_chain(D.M)
    n = D.n
    support = boundary_of_chain(D.M, mu)
    link_faces = set(D.L.simplices(n - 1))
    for s, c in support.items():
        if s not in link_faces:
            raise NotPseudomanifoldError(
                f"{D.name}: ∂mu touches interior simplex {s}")
    # Relative n-cycles: chains whose boundary lives on L.
    full = D.M.boundary_matrix(n)
    interior_rows = {i: k for k, i in enumerate(
        i for i, s in enumerate(D.M.simplices(n - 1)) if s not in link_faces)}
    rel = RationalMatrix(len(interior_rows), D.M.n_simplices(n), {
        (interior_rows[i], j): v
        for (i, j), v in full.entries.items() if i in interior_rows
    })
    if kernel_basis(rel).count != 1:
        raise NotPseudomanifoldError(
            f"{D.name}: relative top cycles have dimension != 1")
    return mu
