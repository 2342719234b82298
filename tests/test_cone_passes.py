"""The oracle's cones extend one pass of C_*(M) per degree.

``MappingCone.echelon(r)`` enters the rows of the truncation's cells after
the pass of C_*(M) in degree r, which it reads in place.  Every cone of a
run reads the same pass object, and no cone stacks its boundary blocks in
a run.  The reference is the uncleared pass on the stacked ∂_r, every cell
entered, last first.
"""

import sys
from collections import Counter
from itertools import product

import pytest

from stratdual import cli, examples
from stratdual.rational import Echelon, RationalMatrix
from stratdual.workspace import Workspace

from test_dimension_four import DOCUMENTS as DIMENSION_FOUR

STRATEGIES = ("lex", "reverse-lex")

INPUTS = dict(DIMENSION_FOUR)
INPUTS["x2-cone-torus-sd1"] = examples.subdivide(examples.get_document("x2-cone-torus"), 1)


def test_every_cone_of_a_run_extends_the_one_pass_of_m_and_stacks_nothing(monkeypatch):
    extended = []
    extend = Echelon.extend

    def spy_extend(self, rows):
        extended.append(self)
        return extend(self, rows)

    stacked = Counter()

    def from_cone(method):
        original = getattr(RationalMatrix, method)

        def spy(self, other):
            if sys._getframe(1).f_globals["__name__"] == "stratdual.cone":
                stacked[method] += 1
            return original(self, other)
        return spy

    monkeypatch.setattr(Echelon, "extend", spy_extend)
    for method in ("hstack", "vstack"):
        monkeypatch.setattr(RationalMatrix, method, from_cone(method))
    monkeypatch.setattr(cli, "_workspace", None)
    # The zero perversity's cutoffs are 2 and 1: four cones over two runs.
    for strategy in STRATEGIES:
        report, status = cli.run_verification("x2-cone-torus", "zero", strategy, ["oracle"])
        assert status == 0 and report["checks"]["oracle"]["pass"]
    assert stacked == Counter()

    built = cli._workspace._built
    m_chains = built[("chains", "M")]
    cones = [built[("cone", k, s)] for k, s in product((1, 2), STRATEGIES)]
    top = m_chains.top
    assert all(cone.target is m_chains and cone.top == top for cone in cones)
    # Each cone's pass in each degree extends the pass of C_*(M) in that
    # degree, the very object C_*(M) keeps.
    passes = [m_chains.echelon(r) for r in range(top + 2)]
    assert len({id(p) for p in passes}) == len(passes)
    assert Counter(map(id, extended)) == Counter({id(p): len(cones) for p in passes})


def _stacked_pass(cone, r):
    """The uncleared pass on the stacked ∂_r: every r-cell entered, last first."""
    return Echelon(cone.bnd(r).transpose(), order=range(cone.dim(r) - 1, -1, -1))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cone_passes_match_the_uncleared_pass_on_the_stacked_boundary(name):
    ws = Workspace(INPUTS[name])
    n = ws.decomposition().n
    extended_by_a_row = False
    for k, strategy in product(range(1, n), STRATEGIES):
        cone = ws.cone(k, strategy)
        for r in range(cone.top + 2):
            ours, whole = cone.echelon(r), _stacked_pass(cone, r)
            assert (ours.rank, ours.pivots, ours.pivot_rows) == (
                whole.rank, whole.pivots, whole.pivot_rows), (name, k, strategy, r)
            base = ws.chains("M").echelon(r)
            extended_by_a_row = extended_by_a_row or ours.rank > base.rank
    assert extended_by_a_row
