"""Constructors, fixtures and references that only the tests use, and the
generators of the n = 4 inputs, which ``bench/frontier.py`` reads too."""

from itertools import combinations

from stratdual.examples import (
    DECOMPOSITION_DOCUMENTS,
    _cyclic_solid_torus_facets,
    _mobius_facets,
    _torus7_facets,
)
from stratdual.rational import RationalMatrix, Solver
from stratdual.simplicial import SimplicialComplex, decompose, parse_complex


def from_rows(rows) -> RationalMatrix:
    """The len(rows) x len(rows[0]) matrix with the given rows of numbers."""
    cols = len(rows[0]) if rows else 0
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged rows")
    return RationalMatrix(len(rows), cols, {
        (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


def from_columns(columns, rows: int) -> RationalMatrix:
    """The rows x len(columns) matrix whose columns are the given vectors."""
    if any(len(col) != rows for col in columns):
        raise ValueError("column length mismatch")
    return from_rows(columns).transpose() if columns else RationalMatrix(rows, 0)


def pairing(report, degree: int):
    """The pairing of a ``DualityReport`` in the given degree."""
    for p in report.pairings:
        if p.degree == degree:
            return p
    raise KeyError(degree)


def reference_connecting(ses, r):
    """H^r(W) -> H^{r+1}(U) by elimination: lift each representative by a
    solve through beta, apply d, and solve through alpha."""
    reps = ses.W.representative_matrix(r)
    if not reps.cols:
        return RationalMatrix.zeros(ses.U.cohomology(r + 1).dimension, 0)
    v = Solver(ses.beta[r]).solve_matrix(reps)
    u = Solver(ses.alpha_mat(r + 1)).solve_matrix(ses.V.diff(r) @ v)
    return ses.U.express_class(u, r + 1)


def _annulus_facets():
    # Outer square 0..3, inner square 4..7, eight triangles.
    return [[0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
            [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7]]


# name -> plain complex fixtures
COMPLEX_FACETS = {
    "s1-triangle": [[0, 1], [1, 2], [0, 2]],
    "s1-square": [[1, 2], [2, 3], [3, 4], [1, 4]],
    "t2-7": _torus7_facets(),
    "disk": [[0, 1, 2]],
    "annulus": _annulus_facets(),
    "solid-torus": _cyclic_solid_torus_facets(),
    "mobius": _mobius_facets(),
}


def complex_names():
    return sorted(COMPLEX_FACETS)


def get_complex(name: str) -> SimplicialComplex:
    return SimplicialComplex.from_facets(COMPLEX_FACETS[name], name=name)


def get_decomposition(name: str):
    doc = DECOMPOSITION_DOCUMENTS[name]
    return decompose(parse_complex(doc), doc["singular_vertex"])


CIRCLE = [[0, 1], [1, 2], [0, 2]]


def product(facets_a, facets_b):
    """The staircase triangulation of the product of two ordered complexes:
    one facet per lattice path through a pair of facets, with the vertex
    pairs relabelled in sorted order."""
    cells = set()
    for a in facets_a:
        for b in facets_b:
            steps = len(a) + len(b) - 2
            for rights in combinations(range(steps), len(a) - 1):
                i = j = 0
                path = [(a[0], b[0])]
                for step in range(steps):
                    if step in rights:
                        i += 1
                    else:
                        j += 1
                    path.append((a[i], b[j]))
                cells.add(tuple(path))
    label = {v: i for i, v in enumerate(sorted({v for cell in cells for v in cell}))}
    return sorted([label[v] for v in cell] for cell in cells)


def cone_on_boundary(name, facets):
    """M plus the cone on its boundary, the faces of codimension one that
    lie in one facet only; the cone's fresh apex is the singular vertex."""
    count = {}
    for facet in facets:
        for face in combinations(facet, len(facet) - 1):
            count[face] = count.get(face, 0) + 1
    apex = max(v for facet in facets for v in facet) + 1
    cone = [list(face) + [apex] for face in sorted(count) if count[face] == 1]
    return {"name": name, "dimension": len(facets[0]) - 1,
            "facets": facets + cone, "singular_vertex": apex}


DIMENSION_FOUR = {
    "s1-x-d3": cone_on_boundary("s1-x-d3", product(CIRCLE, [[0, 1, 2, 3]])),
    "d2-x-t2": cone_on_boundary("d2-x-t2", product(product([[0, 1, 2]], CIRCLE), CIRCLE)),
}
