"""Each distinct pass and product once per call, up to a committed allowlist.

A counting spy wraps ``Echelon.__init__`` and ``RationalMatrix.__matmul__``
for one cold call of the six structural checks.  A pass is keyed on its
matrix's content, its lead, its order and its cleared set, and a product on
the content of both factors.  An input repeats when an earlier input of the
same call had its key.  Repeats are counted per call site, the file and
function that asked for the pass or the product, and must equal ``ALLOWED``:
a new repeat fails the test, and a change that removes one shrinks the
list with it.
The list grows only with a CHANGES.md entry that says why.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from stratdual import cli, examples
from stratdual.rational import Echelon, RationalMatrix

from test_dimension_four import DOCUMENTS as DIMENSION_FOUR

STRUCTURAL = ["model", "duality", "ladder", "lefschetz", "truncated-duality", "oracle"]

COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")

SD1 = examples.subdivide(examples.get_document("x2-cone-torus"), 1)

# name -> (document, perversity, strategy)
RUNS = {
    "x2-cone-torus-sd1 zero/lex": (SD1, "zero", "lex"),
    "x2-cone-torus-sd1 top/reverse-lex": (SD1, "top", "reverse-lex"),
    "s1-x-d3 zero/lex": (DIMENSION_FOUR["s1-x-d3"], "zero", "lex"),
}

# name -> {"<kind> <file>:<function>": repeats}.  Why they repeat, by site:
# - echelon cochains.py:echelon: passes on the empty matrices of the degrees
#   where a truncation or a cotruncation has no cochains.
# - echelon rational.py:quotient_basis, matmul rational.py:quotient_basis
#   and solve_matrix: a degree's classes in a complex that computes its own
#   (a model at its cutoff, a truncation or cotruncation at theirs) whose
#   boundaries or 1 x 1 solves equal another complex's.  A degree without
#   boundaries takes its cocycle basis as its classes and makes neither.
# - matmul cochains.py:__init__: the restriction's cochain-map proof in its
#   top degree, whose zero-row factor is also d∘d's at C*(M)'s top.
# - matmul cochains.py:subcomplex: a model's read of d at k - 1 multiplies
#   d_M^{k-1} j as C*(M, L)'s read did, and a truncation's read at k - 1
#   multiplies d^{k-1} by its identity inclusion, as one of the pair's
#   checks did; each is then read in another basis and checked.
# - matmul cochains.py:induced_map and connecting: an identity map, an
#   inclusion or a lift applied to representatives that another product
#   read before, on other objects than the kept maps' keys.  A map onto a
#   target without classes makes no product.
# - matmul cochains.py:mapped_representatives and pairing_matrix, and
#   duality.py:_ladder_record: products of one side's representatives and
#   forms of equal content in the two windows of the truncated pairing, and
#   the ladder squares' empty and 1 x 1 products.
# - matmul cone.py:intersection_space_cone: the cones' comparison maps on
#   equal blocks of two cutoffs.
# - matmul model.py:build_model and rational.py:coordinates: products at a
#   model's cutoff whose factors equal another cutoff's.
ALLOWED = {
    "x2-cone-torus-sd1 zero/lex": {
        "echelon cochains.py:echelon": 3,
        "echelon rational.py:quotient_basis": 1,
        "matmul cochains.py:__init__": 1,
        "matmul cochains.py:connecting": 2,
        "matmul cochains.py:mapped_representatives": 2,
        "matmul cochains.py:pairing_matrix": 2,
        "matmul cochains.py:subcomplex": 2,
        "matmul duality.py:_ladder_record": 14,
        "matmul rational.py:solve_matrix": 4,
    },
    "x2-cone-torus-sd1 top/reverse-lex": {
        "echelon cochains.py:echelon": 3,
        "echelon rational.py:quotient_basis": 1,
        "matmul cochains.py:__init__": 1,
        "matmul cochains.py:connecting": 1,
        "matmul cochains.py:induced_map": 1,
        "matmul cochains.py:mapped_representatives": 1,
        "matmul cochains.py:pairing_matrix": 1,
        "matmul cochains.py:subcomplex": 2,
        "matmul duality.py:_ladder_record": 17,
        "matmul rational.py:solve_matrix": 4,
    },
    "s1-x-d3 zero/lex": {
        "echelon cochains.py:echelon": 16,
        "echelon rational.py:quotient_basis": 1,
        "matmul cochains.py:__init__": 2,
        "matmul cochains.py:connecting": 10,
        "matmul cochains.py:induced_map": 4,
        "matmul cochains.py:mapped_representatives": 6,
        "matmul cochains.py:pairing_matrix": 5,
        "matmul cochains.py:subcomplex": 4,
        "matmul cone.py:intersection_space_cone": 1,
        "matmul duality.py:_ladder_record": 24,
        "matmul model.py:build_model": 1,
        "matmul rational.py:coordinates": 1,
        "matmul rational.py:quotient_basis": 1,
        "matmul rational.py:solve_matrix": 3,
    },
}


def content(m: RationalMatrix):
    return (m.rows, m.cols, m.den, tuple(tuple(sorted(row.items())) for row in m.data))


def call_site(frame) -> str:
    """The file and function of ``frame``.  A comprehension is named by the
    function around it, as Python 3.12 inlines list comprehensions."""
    while frame.f_code.co_name in COMPREHENSIONS:
        frame = frame.f_back
    return f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}"


def repeats(monkeypatch, tmp_path, document, perversity, strategy) -> dict:
    """Repeated passes and products of one cold call, per call site."""
    seen = set()
    counts = Counter()

    def note(kind, key):
        if key in seen:
            counts[f"{kind} {call_site(sys._getframe(2))}"] += 1
        seen.add(key)

    matmul = RationalMatrix.__matmul__
    echelon = Echelon.__init__

    def matmul_spy(a, b):
        note("matmul", ("matmul", content(a), content(b)))
        return matmul(a, b)

    def echelon_spy(self, m, lead=min, order=None, cleared=frozenset()):
        key = ("echelon", content(m), lead.__name__,
               None if order is None else tuple(order), frozenset(cleared))
        note("echelon", key)
        echelon(self, m, lead, order, cleared)

    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    monkeypatch.setattr(cli, "_workspace", None)
    monkeypatch.setattr(RationalMatrix, "__matmul__", matmul_spy)
    monkeypatch.setattr(Echelon, "__init__", echelon_spy)
    _, status = cli.run_verification(str(path), perversity, strategy, STRUCTURAL)
    assert status == 0
    return dict(counts)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_repeats_per_call_site_equal_the_allowlist(name, monkeypatch, tmp_path):
    assert repeats(monkeypatch, tmp_path, *RUNS[name]) == ALLOWED[name]
