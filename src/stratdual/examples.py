"""Bundled triangulations.

Decomposition inputs (pseudomanifolds with a marked vertex), which the CLI
lists and verifies by name, and their barycentric subdivisions.  Every
bundled input is small enough to verify by exact rank computations in well
under a second.
"""

from __future__ import annotations

from itertools import combinations, permutations


def _cyclic_solid_torus_facets():
    # Seven tetrahedra {i, i+1, i+2, i+3} mod 7 glued in a ring; the boundary
    # is exactly the 7-vertex Moebius-Kuehnel torus.
    return [sorted([i, (i + 1) % 7, (i + 2) % 7, (i + 3) % 7]) for i in range(7)]


def _torus7_facets():
    return ([sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)]
            + [sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)])


def _octahedron_facets():
    # Antipodal pairs (0,5), (1,3), (2,4).
    return [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
            [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]


def _mobius_facets():
    # Classic 5-vertex Moebius band.
    return [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4], [0, 1, 4]]


# name -> input document (decompositions, consumable by the CLI)
DECOMPOSITION_DOCUMENTS = {
    "disk-cone-s1": {
        "name": "disk-cone-s1",
        "dimension": 2,
        "facets": [[0, 1, 2], [3, 0, 1], [3, 1, 2], [3, 0, 2]],
        "singular_vertex": 3,
    },
    "octahedron-marked": {
        "name": "octahedron-marked",
        "dimension": 2,
        "facets": _octahedron_facets(),
        "singular_vertex": 0,
    },
    "x2-cone-torus": {
        "name": "x2-cone-torus",
        "dimension": 3,
        "facets": _cyclic_solid_torus_facets()
        + [sorted([7, a, b, c]) for (a, b, c) in
           (tuple(f) for f in _torus7_facets())],
        "singular_vertex": 7,
    },
    "mobius-marked": {
        # RP^2 = Moebius band plus a cone on its boundary circle; the
        # exterior is non-orientable, so every verification run must fail
        # with NON_ORIENTABLE.
        "name": "mobius-marked",
        "dimension": 2,
        "facets": _mobius_facets()
        + [[5, 0, 2], [5, 2, 4], [5, 1, 4], [5, 1, 3], [5, 0, 3]],
        "singular_vertex": 5,
    },
}

def decomposition_names():
    return sorted(DECOMPOSITION_DOCUMENTS)


def get_document(name: str) -> dict:
    return DECOMPOSITION_DOCUMENTS[name]


def catalog():
    """Stable metadata table for `examples list`."""
    out = []
    for name in decomposition_names():
        doc = DECOMPOSITION_DOCUMENTS[name]
        out.append({
            "name": name,
            "dimension": doc["dimension"],
            "facets": len(doc["facets"]),
            "singular_vertex": doc["singular_vertex"],
            "link": _LINK_TYPES[name],
        })
    return out


_LINK_TYPES = {
    "disk-cone-s1": "circle (3 vertices)",
    "octahedron-marked": "circle (4 vertices)",
    "x2-cone-torus": "torus (7 vertices)",
    "mobius-marked": "circle (5 vertices)",
}


def subdivide(document: dict, times: int = 1) -> dict:
    """Barycentric subdivision of an input document, applied ``times`` times.

    Old vertices keep their ids, so the marked vertex survives and its link
    becomes the subdivided link.  The barycentre of each simplex of dimension
    at least one gets a fresh id above the old maximum, in (dimension,
    vertex tuple) order.  Each facet splits into one facet per ordering of
    its vertices: the flag {v0} < {v0, v1} < ... < facet.
    """
    for _ in range(times):
        facets = [tuple(sorted(f)) for f in document["facets"]]
        faces = sorted({face for f in facets for size in range(2, len(f) + 1)
                        for face in combinations(f, size)},
                       key=lambda face: (len(face), face))
        fresh = max(v for f in facets for v in f) + 1
        ids = {face: fresh + i for i, face in enumerate(faces)}
        ids.update({(v,): v for f in facets for v in f})
        flags = {tuple(sorted(ids[tuple(sorted(order[:i]))] for i in range(1, len(order) + 1)))
                 for f in facets for order in permutations(f)}
        document = {
            "name": document["name"],
            "dimension": document["dimension"],
            "facets": [list(f) for f in sorted(flags)],
            "singular_vertex": document["singular_vertex"],
        }
    return document
