"""Each derivation that replaced a pass or a product, against that computation.

- Choice independence: ``_check_model`` compares the run's own cutoff pass
  with dim A^k = dim C^k(M, L) + dim C^k(L) - rank d_L^{k-1} and
  rank d_A^k = rank d_M^k.  The reference is the cutoff pass that each
  strategy's complement gives, the pass the check used to build for the
  strategy the run did not ask for.
- The cutoff pass enters only the pivot rows of C*(M)'s pass on d_M^k.  The
  reference is the same pass over every row.
- d_A^{k-1} is d_rel^{k-1} placed at A^k's relative rows, and a
  truncation's d^{k-1} is d_L^{k-1} at the image's pivot rows, with no
  product.  The reference is each read by the product it replaced, and the
  statement iota^k d^{k-1} = d^{k-1} iota^{k-1} that the read checked.

Each runs on every bundled input, their first subdivisions and both n = 4
documents, at every cutoff and in both strategies.
"""

from itertools import product

import pytest

from stratdual.model import _basis_rows, cutoff_pass
from stratdual.rational import Echelon, RationalMatrix, SubspaceBasis

from test_shared_passes import INPUTS, STRATEGIES, workspace


def derived(pair, k):
    """(dim A^k, rank d_A^k) as ``_check_model`` reads them off the pair."""
    return (pair.rel.dim(k) + pair.sub.dim(k) - pair.sub.echelon(k - 1).rank,
            pair.full.echelon(k).rank)


def pass_state(echelon):
    return (echelon.lead, echelon.cols, echelon.cleared, echelon.rank, echelon.pivots,
            echelon.pivot_rows, {c: dict(row) for c, row in echelon._rows.items()})


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_each_strategys_cutoff_pass_has_the_derived_cols_and_rank(name):
    ws = workspace(name)
    pair, n = ws.pair(), ws.decomposition().n
    for k, strategy in product(range(1, n), STRATEGIES):
        where = (name, k, strategy)
        theirs = cutoff_pass(pair, k, pair.sub.complement(k, strategy).matrix())
        assert (theirs.cols, theirs.rank) == derived(pair, k), where
        ours = ws.cutoff_pass(k, strategy)
        assert (ours.cols, ours.rank) == derived(pair, k), where


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_cutoff_pass_over_pivot_rows_equals_the_pass_over_every_row(name):
    ws = workspace(name)
    pair, n = ws.pair(), ws.decomposition().n
    for k, strategy in product(range(1, n), STRATEGIES):
        ours = ws.cutoff_pass(k, strategy)
        rows, _ = _basis_rows(pair, ws.cotruncation(k, strategy).inclusion[k], k)
        every_row = Echelon(pair.full.diff(k).columns_at(rows), max, cleared=ours.cleared)
        assert pass_state(ours) == pass_state(every_row), (name, k, strategy)
        assert ours.pivot_rows == pair.full.echelon(k).pivot_rows, (name, k, strategy)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_placed_rows_equal_the_read_by_product(name):
    ws = workspace(name)
    pair, n = ws.pair(), ws.decomposition().n
    for k, strategy in product(range(1, n), STRATEGIES):
        where = (name, k, strategy)
        m = ws.model(k, strategy)
        iota = m.iota[k]
        basis = SubspaceBasis(iota, [min(column) for column in iota.transpose().data])
        read = basis.coordinates(pair.full.diff(k - 1) @ pair.include_rel[k - 1])
        assert read is not None, where
        assert m.complex.d[k - 1] == read, where
        assert iota @ m.complex.d[k - 1] == pair.full.diff(k - 1) @ m.iota[k - 1], where
    link = pair.sub
    for k in range(1, link.top + 2):
        truncation = ws.truncation(k)
        img = link.image(k - 1)
        read = img.coordinates(link.diff(k - 1) @ RationalMatrix.identity(link.dim(k - 1)))
        assert read is not None, (name, k)
        assert truncation.complex.d[k - 1] == read, (name, k)
        assert img.matrix() @ truncation.complex.d[k - 1] == link.diff(k - 1), (name, k)
