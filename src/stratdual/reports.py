"""Report data structures shared by the pairing and CLI layers.

A pairing H^a x H^b -> Q is stored as the matrix P with P[i][j] =
pairing(left_i, right_j) in the canonical cohomology bases; "dual map"
anywhere in the engine means transpose composed through P.  Nondegenerate is
operationalized as: square and full rank.  Rationals serialize as "p/q"
strings so exactness survives the wire.
"""

from __future__ import annotations

from .rational import RationalMatrix


def fraction_str(x) -> str:
    """An int or a Fraction as "p/q", read off its own numerator and denominator."""
    return f"{x.numerator}/{x.denominator}"


class PairingMatrix:
    """A pairing's matrix with its rank.  The entries' "p/q" strings are
    made on the first render and kept, so rendering a kept pairing again
    makes none; every render hands out fresh lists."""

    __slots__ = ("degree", "matrix", "rank", "nondegenerate", "_entries")

    def __init__(self, degree: int, matrix: RationalMatrix):
        self.degree = degree
        self.matrix = matrix
        self.rank = matrix.rank()
        self.nondegenerate = (matrix.rows == matrix.cols == self.rank)
        self._entries = None

    def to_jsonable(self) -> dict:
        m = self.matrix
        if self._entries is None:
            self._entries = tuple(tuple(fraction_str(v) for v in m.row(i))
                                  for i in range(m.rows))
        return {
            "degree": self.degree,
            "left_dim": m.rows,
            "right_dim": m.cols,
            "rank": self.rank,
            "nondegenerate": self.nondegenerate,
            "matrix": {
                "rows": m.rows,
                "cols": m.cols,
                "entries": [list(row) for row in self._entries],
            },
        }


class DualityReport:
    __slots__ = ("kind", "pairings", "left_betti", "right_betti", "passed")

    def __init__(self, kind: str, pairings, left_betti, right_betti):
        self.kind = kind
        self.pairings = tuple(pairings)
        self.left_betti = tuple(left_betti)
        self.right_betti = tuple(right_betti)
        self.passed = all(p.nondegenerate for p in self.pairings)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "pass": self.passed,
            "left_betti": list(self.left_betti),
            "right_betti": list(self.right_betti),
            "pairings": [p.to_jsonable() for p in self.pairings],
        }
