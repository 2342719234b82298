"""Hand-written expected answers for the correctness gate.

Keyed by (base example, perversity).  The answers are topological, so they
hold for every barycentric subdivision level and every vertex relabelling,
and they do not depend on the complement strategy.  Each pairing is listed
per degree as (left_dim, right_dim, rank).

The x2-cone-torus rows follow from M = solid torus, L = 7-vertex torus:
the zero perversity has cutoff 2 and the top perversity cutoff 1, the two are
complementary, so their Betti vectors swap.  "0,0" is zero and "0,1" is top
written out for n = 3.
"""

from __future__ import annotations

_NULL2 = [(0, 0, 0)] * 3
_SURFACE_CONE = {
    # M is a disk and L a circle: the model is acyclic in every degree.
    "status": 0, "error": None,
    "betti_p": [0, 0, 0], "betti_q": [0, 0, 0],
    "pairings": {
        "duality": _NULL2,
        "lefschetz": [(1, 1, 1), (0, 0, 0), (0, 0, 0)],
        "truncated-duality k=1,l=1": [(1, 1, 1), (0, 0, 0)],
    },
}
_X2_LEFSCHETZ = [(1, 1, 1), (1, 1, 1), (0, 0, 0), (0, 0, 0)]
_X2_TRUNCATED = {
    "truncated-duality k=1,l=2": [(1, 1, 1), (0, 0, 0), (0, 0, 0)],
    "truncated-duality k=2,l=1": [(1, 1, 1), (2, 2, 2), (0, 0, 0)],
}
_X2_ZERO = {
    "status": 0, "error": None,
    "betti_p": [0, 0, 1, 0], "betti_q": [0, 1, 0, 0],
    "pairings": {
        "duality": [(0, 0, 0), (0, 0, 0), (1, 1, 1), (0, 0, 0)],
        "lefschetz": _X2_LEFSCHETZ,
        **_X2_TRUNCATED,
    },
}
_X2_TOP = {
    "status": 0, "error": None,
    "betti_p": [0, 1, 0, 0], "betti_q": [0, 0, 1, 0],
    "pairings": {
        "duality": [(0, 0, 0), (1, 1, 1), (0, 0, 0), (0, 0, 0)],
        "lefschetz": _X2_LEFSCHETZ,
        **_X2_TRUNCATED,
    },
}

EXPECTED = {
    ("disk-cone-s1", "zero"): _SURFACE_CONE,
    ("octahedron-marked", "zero"): _SURFACE_CONE,
    ("x2-cone-torus", "zero"): _X2_ZERO,
    ("x2-cone-torus", "0,0"): _X2_ZERO,
    ("x2-cone-torus", "top"): _X2_TOP,
    ("x2-cone-torus", "0,1"): _X2_TOP,
    # The exterior is a Moebius band: every run stops with an error.
    ("mobius-marked", "zero"): {"status": 2, "error": "NON_ORIENTABLE"},
}


def _dims_and_ranks(pairing_report: dict):
    return [(p["left_dim"], p["right_dim"], p["rank"])
            for p in sorted(pairing_report["pairings"], key=lambda p: p["degree"])]


def outcome(report: dict, status: int) -> dict:
    """The parts of a report the gate compares."""
    checks = report.get("checks", {})
    result = {
        "status": status,
        "error": report.get("error", {}).get("code"),
        "verdicts": {name: section["pass"] for name, section in checks.items()},
    }
    if "model" in checks:
        result["betti_p"] = checks["model"]["betti_p"]
        result["betti_q"] = checks["model"]["betti_q"]
    pairings = {}
    for name in ("duality", "lefschetz"):
        if name in checks:
            pairings[name] = _dims_and_ranks(checks[name]["pairing"])
    for window, section in checks.get("truncated-duality", {}).get("windows", {}).items():
        pairings[f"truncated-duality {window}"] = _dims_and_ranks(section)
    if pairings:
        result["pairings"] = pairings
    return result


def expected_outcome(base: str, perversity: str, checks) -> dict:
    """What ``outcome`` must return for a call requesting ``checks``."""
    answer = EXPECTED[(base, perversity)]
    result = {"status": answer["status"], "error": answer["error"], "verdicts": {}}
    if answer["status"] != 0:
        return result
    result["verdicts"] = {name: True for name in checks}
    if "model" in checks:
        result["betti_p"] = answer["betti_p"]
        result["betti_q"] = answer["betti_q"]
    pairings = {name: dims for name, dims in answer["pairings"].items()
                if name.split(" ")[0] in checks}
    if pairings:
        result["pairings"] = pairings
    return result
