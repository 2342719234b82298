"""Triangulated pseudomanifolds with one isolated singularity.

A complex is stored by its facets; all faces are derived by closure and kept
sorted (vertices ascending inside a simplex, simplices lexicographic per
degree), which fixes every downstream basis order.  An input's facets are
closed once: ``decompose`` reads the exterior manifold M and the link L of
the marked vertex off X's face tables, and checks the pseudomanifold
conditions of X, L and M on X's one count of cofacets.
``fundamental_chain`` propagates a coherent orientation over the facet
adjacency graph, read off the rows of d^{n-1}.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, repeat

from .errors import (
    LinkDisconnectedError,
    NonOrientableError,
    NotPseudomanifoldError,
    ParseError,
)
from .rational import RationalMatrix

Simplex = tuple  # tuple[int, ...], strictly increasing vertex ids


def _is_int(v) -> bool:
    """True for a JSON integer; bools and floats such as 2.0 are not."""
    return isinstance(v, int) and not isinstance(v, bool)


class SimplicialComplex:
    """Finite pure simplicial complex, immutable after construction."""

    __slots__ = ("name", "dimension", "vertices", "facets", "faces", "index", "_coboundary")

    def __init__(self, name, dimension, vertices, facets, faces, index):
        self.name = name
        self.dimension = dimension
        self.vertices = vertices
        self.facets = facets
        self.faces = faces          # degree -> tuple of simplices
        self.index = index          # simplex -> position within its degree
        self._coboundary = {}       # degree -> coboundary_matrix, built on first call

    @classmethod
    def from_facets(cls, facets, name="complex") -> "SimplicialComplex":
        """The pure complex closed from ``facets``, lists of distinct
        non-negative int vertex ids, all of one size.

        Closed top down: the faces of degree r - 1 are the faces of the
        degree-r faces, deduplicated per degree, so a face is written once
        per face of the degree above that holds it, not once per facet.
        """
        norm = []
        for f in facets:
            fl = list(f)
            # Ids are checked before the set below, which unhashable ids break.
            if any(not _is_int(v) or v < 0 for v in fl):
                raise ParseError(f"{name}: vertex ids must be non-negative integers, got {fl}")
            if len(set(fl)) != len(fl):
                raise ParseError(f"{name}: repeated vertex within facet {fl}")
            if not fl:
                raise ParseError(f"{name}: empty facet")
            norm.append(tuple(sorted(fl)))
        if not norm:
            raise ParseError(f"{name}: no facets")
        sizes = {len(f) for f in norm}
        if len(sizes) != 1:
            raise ParseError(f"{name}: not pure, facet sizes {sorted(sizes)}")
        tables = [tuple(sorted(set(norm)))]
        for r in range(len(norm[0]) - 1, 0, -1):
            tables.append(tuple(sorted(set(chain.from_iterable(
                map(combinations, tables[-1], repeat(r)))))))
        return cls._from_faces(name, tables[::-1])

    @classmethod
    def _from_faces(cls, name, tables) -> "SimplicialComplex":
        """The complex whose faces of degree r are ``tables[r]``, each sorted
        and closed under taking faces; its facets are the top table."""
        index = {}
        for fs in tables:
            index.update(zip(fs, range(len(fs))))
        dimension = len(tables) - 1
        return cls(name, dimension, tuple(v for (v,) in tables[0]), tables[dimension],
                   dict(enumerate(tables)), index)

    def simplices(self, r: int):
        return self.faces.get(r, ())

    def n_simplices(self, r: int) -> int:
        return len(self.faces.get(r, ()))

    def has_simplex(self, s: Simplex) -> bool:
        return s in self.index

    def contains_complex(self, other: "SimplicialComplex") -> bool:
        return all(self.has_simplex(f) for f in other.facets)

    def _face_rows(self, r: int, sign: int) -> list:
        """One integer row per r-simplex s: ``sign * (-1)^i`` at the position
        of the face that drops vertex i of s.  ``combinations`` lists those
        faces with i descending."""
        if r < 1:
            return [{}] * self.n_simplices(r)
        index = self.index
        signs = [sign * (-1) ** i for i in range(r, -1, -1)]
        return [dict(zip(map(index.__getitem__, combinations(s, r)), signs))
                for s in self.faces.get(r, ())]

    def coboundary_matrix(self, r: int) -> RationalMatrix:
        """The coboundary d^r: C^r -> C^{r+1}, d^r = -(-1)^r transpose(∂_{r+1}).

        Written once per degree straight into the kernel's integer rows: row
        j holds the signed r-faces of the (r+1)-simplex j.  C*(K) and C_*(K)
        share it, and nothing copies or transposes it.  Degrees -1 and
        ``dimension`` give the maps into C^0 and out of the top, with no
        columns and no rows.
        """
        m = self._coboundary.get(r)
        if m is None:
            m = self._coboundary[r] = RationalMatrix.from_integer_rows(
                self.n_simplices(r), self._face_rows(r + 1, (-1) ** (r + 1)))
        return m

    def boundary_matrix(self, r: int) -> RationalMatrix:
        """Chain boundary C_r -> C_{r-1} with the usual alternating signs.

        Written into the kernel's integer rows from the face index, one
        r-simplex column at a time, and built anew on each call: the
        oracle's chain complexes (``cone.SimplicialChains``) keep the ∂_r
        they read.
        """
        rows = [{} for _ in range(self.n_simplices(r - 1))]
        if 0 < r <= self.dimension:
            for j, faces in enumerate(self._face_rows(r, 1)):
                for i, v in faces.items():
                    rows[i][j] = v
        return RationalMatrix.from_integer_rows(self.n_simplices(r), rows)

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
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    complex_ = SimplicialComplex.from_facets(facets, name=name)
    if complex_.dimension != document["dimension"]:
        raise ParseError(
            f"declared dimension {document['dimension']} but facets have dimension {complex_.dimension}")
    return complex_


def link_of_vertex(K: SimplicialComplex, v: int) -> SimplicialComplex:
    """Subcomplex {s : s ∪ {v} ∈ K, v ∉ s}.

    Read off K's face tables: the faces of degree r are K's faces of degree
    r + 1 through v, with v dropped.  They stay sorted, because dropping a
    vertex that two simplices share keeps their lexicographic order.  A
    vertex of a pure complex lies in a facet, so the link has one.
    """
    if v not in K.vertices:
        raise ParseError(f"vertex {v} not in complex {K.name!r}")
    if K.dimension == 0:
        # The link of a point is the empty simplex alone.
        raise ParseError(f"link({K.name},{v}): empty facet")
    tables = []
    for r in range(1, K.dimension + 1):
        table = []
        for s in K.faces[r]:
            if v in s:
                i = s.index(v)
                table.append(s[:i] + s[i + 1:])
        tables.append(tuple(table))
    return SimplicialComplex._from_faces(f"link({K.name},{v})", tables)


def cofacet_counts(K: SimplicialComplex) -> Counter:
    """Number of facets containing each codimension-1 simplex."""
    return Counter(chain.from_iterable(map(combinations, K.facets, repeat(K.dimension))))


class PseudomanifoldDecomposition:
    """X = M ∪_L cone(x * L) with the marked singular vertex x."""

    __slots__ = ("name", "X", "singular_vertex", "M", "L", "n", "_inclusion")

    def __init__(self, name, X, singular_vertex, M, L):
        self.name = name
        self.X = X
        self.singular_vertex = singular_vertex
        self.M = M
        self.L = L
        self.n = X.dimension
        self._inclusion = {}        # degree -> inclusion, built on first call

    def inclusion(self, r: int) -> RationalMatrix:
        """The chain inclusion C_r(L) -> C_r(M): one unit column per r-simplex of L."""
        m = self._inclusion.get(r)
        if m is None:
            index = self.M.index
            rows = [{}] * self.M.n_simplices(r)
            for j, s in enumerate(self.L.simplices(r)):
                rows[index[s]] = {j: 1}
            m = self._inclusion[r] = RationalMatrix.from_integer_rows(self.L.n_simplices(r), rows)
        return m

    def __repr__(self):
        return (f"PseudomanifoldDecomposition({self.name!r}, n={self.n}, "
                f"x={self.singular_vertex})")


def decompose(X: SimplicialComplex, x: int) -> PseudomanifoldDecomposition:
    """Split X into exterior M and link L of x, validating all invariants.

    M's face tables are X's faces that avoid x, and L's are X's faces
    through x with x dropped (``link_of_vertex``).  Every pseudomanifold
    check reads X's one ``cofacet_counts``, in the order of X's
    (n-1)-faces:
    - X away from x: each (n-1)-face that avoids x lies in 2 facets.
    - L closed: L's count at an (n-2)-face t is X's count at t ∪ {x}, as
      the facets of L through t are those of X through t ∪ {x} with x
      dropped.  So each (n-1)-face through x lies in 2 facets.
    - L connected, by L's edges.
    L is pure of dimension n - 1, as X is pure of dimension n.  Once X's
    count away from x holds, it proves the checks of M that the exterior
    facets' own closure needed:
    - M is the closure of X's facets that avoid x (M ∪ star(x) = X), and it
      holds L.  An (n-1)-face g that avoids x lies in two facets, and at
      most one of them, g ∪ {x}, holds x.  A lower face that avoids x lies
      in a facet f; if x ∈ f, it lies in f less x, such a g.  L's faces
      avoid x, so they are M's.  L has a facet, so M has one.
    - ∂M = L.  M's count at an (n-1)-face s is X's count, less one if
      s ∪ {x} is a facet: 1 exactly when s is a facet of L, else 2.
    """
    if not _is_int(x):
        raise ParseError(f"singular vertex must be an integer vertex id, got {x!r}")
    n = X.dimension
    if n < 2:
        raise NotPseudomanifoldError(f"{X.name}: dimension {n} < 2")
    if x not in X.vertices:
        raise ParseError(f"singular vertex {x} not in {X.name!r}")
    if not X.is_connected():
        raise NotPseudomanifoldError(f"{X.name}: not connected")

    counts = cofacet_counts(X)
    link_fault = None
    if set(counts.values()) != {2}:
        for s in X.simplices(n - 1):
            c = counts[s]
            if c == 2:
                continue
            if x not in s:
                raise NotPseudomanifoldError(
                    f"{X.name}: (n-1)-simplex {s} lies in {c} facets, expected 2")
            if link_fault is None:
                link_fault = (tuple(v for v in s if v != x), c)
    L = link_of_vertex(X, x)
    if link_fault is not None:
        raise NotPseudomanifoldError(
            f"link of {x}: simplex {link_fault[0]} lies in {link_fault[1]} top simplices, expected 2")
    if not L.is_connected():
        raise LinkDisconnectedError(f"{X.name}: link of {x} is disconnected")

    M = SimplicialComplex._from_faces(f"{X.name}:exterior", [
        tuple(s for s in X.simplices(r) if x not in s) for r in range(n + 1)])
    return PseudomanifoldDecomposition(X.name, X, x, M, L)


class FundamentalChain:
    """Signed sum of top simplices; coefficients indexed like faces[degree].

    ``boundary_of_chain`` keeps the chain's boundary here with the complex it
    was computed in, so that the readers of one run's mu (its validation,
    ``duality._validate_mu`` and ``duality.boundary_link_chain``) share one
    ∂mu, and a chain read in another complex gets its own.
    """

    __slots__ = ("degree", "coefficients", "_boundary")

    def __init__(self, degree: int, coefficients):
        self.degree = degree
        self.coefficients = tuple(coefficients)
        self._boundary = None       # (complex, ∂ of the chain there)


_UNIT = {1: Fraction(1), -1: Fraction(-1)}


def _orientation(K: SimplicialComplex):
    """K's coherently oriented top chain, and the number of components of
    its facet adjacency graph, from one breadth-first walk.

    Facets are joined at the (n-1)-faces that lie in exactly two of them.
    The walk reads the integer rows of d^{n-1} (``coboundary_matrix``), row
    j holding (-1)^n (-1)^i at the face that drops vertex i of facet j, so
    facets f and g that share a face induce cancelling orientations on it
    when sign_g = -sign_f e_f e_g, with e_f and e_g their entries there.
    Each component starts at its first unsigned facet with sign +1, and
    each facet's faces are visited by the vertex dropped, ascending.  In
    dimension 0, where d^{-1} has no columns, each point is a component.
    """
    n = K.dimension
    rows = K.coboundary_matrix(n - 1).data
    cofacets = [[] for _ in range(K.n_simplices(n - 1))]
    for j, row in enumerate(rows):
        for face in row:
            cofacets[face].append(j)
    signs = [0] * len(rows)
    components = 0
    for start in range(len(rows)):
        if signs[start]:
            continue
        components += 1
        signs[start] = 1
        queue = [start]
        for cur in queue:
            row = rows[cur]
            sign = signs[cur]
            # A row lists its faces ascending, so the one that drops the
            # last vertex first; reversed, they come by the vertex dropped.
            for face in reversed(row):
                pair = cofacets[face]
                if len(pair) != 2:
                    continue
                other = pair[1] if pair[0] == cur else pair[0]
                needed = -sign * row[face] * rows[other][face]
                if signs[other]:
                    if signs[other] != needed:
                        raise NonOrientableError(
                            f"{K.name}: orientation conflict at face {K.simplices(n - 1)[face]}")
                else:
                    signs[other] = needed
                    queue.append(other)
    return FundamentalChain(n, map(_UNIT.__getitem__, signs)), components


def orient_top_chain(K: SimplicialComplex) -> FundamentalChain:
    """Coherently oriented top chain of a pure complex.

    Breadth-first propagation over the facet adjacency graph from the
    lexicographically smallest facet (sign +1); adjacent facets must induce
    opposite orientations on their shared interior face (see
    ``_orientation``).
    """
    return _orientation(K)[0]


def boundary_of_chain(K: SimplicialComplex, chain: FundamentalChain):
    """∂(chain) as {simplex: coefficient} in degree chain.degree - 1.

    Read off the rows of d^{r-1} = (-1)^r transpose(∂_r), computed once per
    chain and complex (see ``FundamentalChain``).
    """
    kept = chain._boundary
    if kept is None or kept[0] is not K:
        r = chain.degree
        vec = K.coboundary_matrix(r - 1).transpose_apply(chain.coefficients)
        lower = K.simplices(r - 1)
        kept = chain._boundary = (K, {lower[i]: (-1) ** r * c for i, c in enumerate(vec) if c})
    return dict(kept[1])


def fundamental_chain(D: PseudomanifoldDecomposition) -> FundamentalChain:
    """Fundamental chain mu of the exterior M, oriented coherently.

    Validates that ∂mu is supported on L and that the relative class
    generates H_n(M, ∂M), i.e. that relative n-cycles are one-dimensional.
    D is as ``decompose`` returns it, so each (n-1)-face of M lies in one
    facet of M if it is L's and in two otherwise.

    The relative n-cycles are the chains c whose boundary vanishes at every
    interior face, the kernel of ∂_n read there.  At an interior face with
    facets f and g, (∂c) there is ±(c_f e_f + c_g e_g), so it vanishes
    exactly when c_g = -c_f e_f e_g, the rule of the orientation walk
    (``_orientation``).  So a relative cycle is fixed on each component of
    the walk by its value at one facet, and, as the walk found no conflict,
    every value there extends to one, the walk's signs times it.  No face
    joins two components, so the relative cycles have the dimension of the
    walk's component count.
    """
    mu, components = _orientation(D.M)
    n = D.n
    support = boundary_of_chain(D.M, mu)
    link_faces = set(D.L.simplices(n - 1))
    for s, c in support.items():
        if s not in link_faces:
            raise NotPseudomanifoldError(
                f"{D.name}: ∂mu touches interior simplex {s}")
    if components != 1:
        raise NotPseudomanifoldError(
            f"{D.name}: relative top cycles have dimension != 1")
    return mu
