"""Seeded input documents for the benchmark workloads.

Every document the program sees is generated here and written to disk:
bundled examples and their barycentric subdivisions, with vertex ids
relabelled by a seeded random permutation.  Subdivision keeps the original
vertex ids for the old vertices, so the marked vertex survives it; the link
of the marked vertex is then the subdivided link.
"""

from __future__ import annotations

import random
from itertools import permutations

STRUCTURAL_CHECKS = ("model", "duality", "ladder", "lefschetz",
                     "truncated-duality", "oracle")
ALL_CHECKS = STRUCTURAL_CHECKS + ("properties",)


def subdivide(document: dict, times: int = 1) -> dict:
    """Barycentric subdivision, applied ``times`` times.

    Old vertices keep their ids; the barycentre of each higher simplex gets a
    fresh id above the old maximum, in (dimension, vertex tuple) order.
    """
    for _ in range(times):
        facets = [tuple(sorted(f)) for f in document["facets"]]
        faces = set()
        for f in facets:
            for mask in range(1, 1 << len(f)):
                faces.add(tuple(v for i, v in enumerate(f) if mask >> i & 1))
        next_id = max(v for f in facets for v in f) + 1
        ids = {}
        for s in sorted(faces, key=lambda s: (len(s), s)):
            if len(s) == 1:
                ids[s] = s[0]
            else:
                ids[s] = next_id
                next_id += 1
        # One new facet per ordering of a facet's vertices: the flag
        # {v0} < {v0,v1} < ... < facet.
        new_facets = set()
        for f in facets:
            for order in permutations(f):
                flag = [ids[tuple(sorted(order[:i + 1]))] for i in range(len(order))]
                new_facets.add(tuple(sorted(flag)))
        document = {
            "name": document["name"],
            "dimension": document["dimension"],
            "facets": [list(f) for f in sorted(new_facets)],
            "singular_vertex": document["singular_vertex"],
        }
    return document


def relabel(document: dict, rng: random.Random) -> dict:
    """Same complex under a random permutation of its vertex ids."""
    old = sorted({v for f in document["facets"] for v in f})
    new = list(old)
    rng.shuffle(new)
    mapping = dict(zip(old, new))
    facets = sorted(sorted(mapping[v] for v in f) for f in document["facets"])
    return {
        "name": document["name"],
        "dimension": document["dimension"],
        "facets": facets,
        "singular_vertex": mapping[document["singular_vertex"]],
    }


# Each call: (base example, subdivision level, perversity, strategy, checks).
# The base example and the perversity key the expected-answer table.
WORKLOADS = {
    # Every check, so the randomized `properties` probes (Stokes trials,
    # cup products, cochain evaluation) dominate the time.
    "bundled-full": [
        ("disk-cone-s1", 0, "zero", "lex", ALL_CHECKS),
        ("octahedron-marked", 0, "zero", "lex", ALL_CHECKS),
        ("x2-cone-torus", 0, "zero", "lex", ALL_CHECKS),
        ("x2-cone-torus", 0, "top", "reverse-lex", ALL_CHECKS),
        ("mobius-marked", 0, "zero", "lex", ALL_CHECKS),
    ],
    # Distinct inputs of growing size, so exact elimination dominates and
    # no work is shared between calls.
    "subdiv-ladder": [
        ("disk-cone-s1", 0, "zero", "lex", STRUCTURAL_CHECKS),
        ("octahedron-marked", 0, "zero", "lex", STRUCTURAL_CHECKS),
        ("x2-cone-torus", 0, "zero", "lex", STRUCTURAL_CHECKS),
        ("disk-cone-s1", 1, "zero", "lex", STRUCTURAL_CHECKS),
        ("octahedron-marked", 1, "zero", "lex", STRUCTURAL_CHECKS),
    ],
    # One input under eight configurations, so calls share almost all of
    # their work and a cache kept across calls could hit.
    "repeat-sweep": [
        ("x2-cone-torus", 0, perversity, strategy, STRUCTURAL_CHECKS)
        for perversity in ("zero", "top", "0,0", "0,1")
        for strategy in ("lex", "reverse-lex")
    ],
}

# Workloads whose calls grow in size, for the informational scaling slope.
SCALING_WORKLOADS = ("subdiv-ladder",)


def workload_inputs(workload: str, seed: int, base_documents: dict, variant: int = 0):
    """Documents and calls of one workload.

    Returns ``(documents, calls)``: ``documents`` maps a file stem to its
    input document, and each call is ``(stem, base, perversity, strategy,
    checks, facet_count)``.  Each distinct (base, level) is relabelled once,
    so repeated calls on it see the same file.  ``variant`` picks another
    relabelling for the same seed; variant 0 is the seed's own.
    """
    rng = random.Random(seed if variant == 0 else f"{seed}/{variant}")
    documents = {}
    calls = []
    for base, level, perversity, strategy, checks in WORKLOADS[workload]:
        stem = f"{base}-sd{level}"
        if stem not in documents:
            documents[stem] = relabel(subdivide(base_documents[base], level), rng)
        calls.append((stem, base, perversity, strategy, checks,
                      len(documents[stem]["facets"])))
    return documents, calls
