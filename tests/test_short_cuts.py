"""Trivial operands take a short cut, and every short cut is the general code's answer.

A product or a transpose with a zero dimension returns ``RationalMatrix.zeros``,
a pass on a matrix with no rows or no columns copies and enters nothing,
``quotient_basis`` without boundaries takes its cocycle basis as its classes,
and ``induced_map`` onto a target without classes makes no product.  The
references are the general code, copied here: the product's and the
transpose's loops, the pass's forward elimination, ``quotient_basis`` with
``QuotientBasis.coordinates`` as they were before the short cut, and the
induced map as the coordinates of the mapped representatives.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from stratdual import cli, examples
from stratdual.cochains import CochainComplex, induced_map
from stratdual.errors import StratdualError
from stratdual.rational import Echelon, RationalMatrix, Solver, _forward, quotient_basis
from stratdual.workspace import Workspace

from test_dimension_four import DOCUMENTS as DIMENSION_FOUR

STRUCTURAL = ["model", "duality", "ladder", "lefschetz", "truncated-duality", "oracle"]

INPUTS = {name: examples.get_document(name) for name in examples.decomposition_names()}
INPUTS.update({f"{name}-sd1": examples.subdivide(examples.get_document(name), 1)
               for name in examples.decomposition_names()})
INPUTS.update(DIMENSION_FOUR)

# Shapes with a zero dimension, and the sizes a partner may take.
SIZES = (0, 1, 3)


def fields(m: RationalMatrix):
    return m.rows, m.cols, m.den, m.data


def random_matrix(rng, rows, cols) -> RationalMatrix:
    if not rows:
        return RationalMatrix.zeros(0, cols)
    return RationalMatrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                      for _ in range(cols)] for _ in range(rows)])


# -- the general code ----------------------------------------------------


def general_matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    data = []
    for row in a.data:
        acc = {}
        for k, v in row.items():
            for j, w in b.data[k].items():
                acc[j] = acc.get(j, 0) + v * w
        data.append({j: x for j, x in acc.items() if x})
    return RationalMatrix.from_integer_rows(b.cols, data, a.den * b.den)


def general_transpose(m: RationalMatrix) -> RationalMatrix:
    data = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, v in row.items():
            data[j][i] = v
    return RationalMatrix.from_integer_rows(m.rows, data, m.den)


def general_echelon(m: RationalMatrix, lead=min, order=None, cleared=frozenset()) -> Echelon:
    e = Echelon.__new__(Echelon)
    data = m.data if order is None else [m.data[i] for i in order]
    rows = [{j: v for j, v in row.items() if j not in cleared} for row in data]
    e._rows, _ = _forward(rows, m.cols, lead)
    e.cols, e.lead, e.cleared = m.cols, lead, cleared
    e.pivots = tuple(sorted(e._rows))
    if order is None:
        e.pivot_rows = tuple(i for i, row in enumerate(rows) if row)
    else:
        e.pivot_rows = tuple(sorted(i for i, row in zip(order, rows) if row))
    return e


class ReferenceQuotient:
    """``QuotientBasis`` as it was: coordinates always by the boundary pass."""

    def __init__(self, lead, boundaries, chosen):
        self.matrix = None
        self.lead = lead
        self.boundaries = boundaries
        self.chosen = chosen

    def coordinates(self, z):
        if not self.chosen:
            return RationalMatrix.zeros(0, z.cols)
        normal = self.boundaries.normal_form(z.rows_at(self.lead).transpose())
        return normal.transpose().rows_at(self.chosen)


def reference_quotient_basis(w, e, lead, spanning):
    boundaries = Echelon(e.rows_at(lead).transpose(), max, order=spanning)
    trailing = set(boundaries.pivots)
    chosen = [i for i in range(len(lead)) if i not in trailing]
    basis = ReferenceQuotient(lead, boundaries, chosen)
    if len(chosen) != w.cols:
        return None
    inverse = Solver(basis.coordinates(w)).solve_matrix(RationalMatrix.identity(w.cols))
    if inverse is None:
        return None
    basis.matrix = w @ inverse
    return basis


# -- the matrix layer -----------------------------------------------------


def test_products_with_a_zero_dimension_equal_the_general_loop():
    rng = random.Random(31)
    seen = 0
    for p, q, s in product(SIZES, repeat=3):
        if p and q and s:
            continue
        a, b = random_matrix(rng, p, q), random_matrix(rng, q, s)
        assert fields(a @ b) == fields(general_matmul(a, b)), (p, q, s)
        seen += 1
    assert seen == 19


def test_transposes_with_a_zero_dimension_equal_the_general_loop():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (0, 1), (1, 0)):
        m = RationalMatrix.zeros(rows, cols)
        assert fields(m.transpose()) == fields(general_transpose(m)), (rows, cols)
        assert (m.transpose().rows, m.transpose().cols) == (cols, rows)


def echelon_cases():
    """(matrix, lead, order, cleared) on 0-row and 0-column matrices."""
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 0)):
        m = RationalMatrix.zeros(rows, cols)
        orders = [None] + ([[2, 0], list(range(rows))[::-1]] if rows > 2 else
                           [list(range(rows))])
        clears = [frozenset()] + ([frozenset({1})] if cols > 1 else [])
        for lead, order, cleared in product((min, max), orders, clears):
            yield m, lead, order, cleared


@pytest.mark.parametrize("case", list(echelon_cases()),
                         ids=lambda c: f"{c[0].rows}x{c[0].cols}-{c[1].__name__}"
                                       f"-{c[2]}-{sorted(c[3])}")
def test_passes_on_empty_matrices_equal_the_general_pass(case):
    m, lead, order, cleared = case
    ours, theirs = Echelon(m, lead, order, cleared), general_echelon(m, lead, order, cleared)
    assert (ours.cols, ours.lead, ours.cleared, ours.pivots, ours.pivot_rows, ours.rank,
            ours._rows) == (theirs.cols, theirs.lead, theirs.cleared, theirs.pivots,
                            theirs.pivot_rows, theirs.rank, theirs._rows)
    assert fields(ours.kernel()) == fields(theirs.kernel())
    rng = random.Random(7)
    for rows in SIZES:
        x = random_matrix(rng, rows, m.cols)
        assert fields(ours.normal_form(x)) == fields(theirs.normal_form(x)), rows
    # Rows entered after the pass: at its columns outside the cleared ones,
    # or below 0 where it has none.
    columns = [j for j in range(m.cols) if j not in cleared] or [-2, -1]
    rows = [{j: rng.randint(1, 5) for j in columns} for _ in range(3)]
    assert (ours.extend([dict(row) for row in rows])
            == theirs.extend([dict(row) for row in rows]))


def test_a_count_mismatch_without_boundaries_is_refused():
    """A pass cleared of a column that is no pivot row of the boundaries
    keeps it in ``lead`` but not in the kernel, and the count refuses it."""
    d = RationalMatrix.zeros(1, 3)
    cycles = Echelon(d, max, cleared=frozenset({1}))
    w = cycles.kernel()
    lead = [j for j in range(3) if j not in cycles.pivots]
    args = (w, RationalMatrix.zeros(3, 0), lead, ())
    assert (w.cols, len(lead)) == (2, 3)
    assert quotient_basis(*args) is None and reference_quotient_basis(*args) is None


def test_kernel_rows_of_one_entry_are_shared_by_content():
    """Without boundaries the kernel basis is kept as the classes, so its
    rows are shared as a product with the identity would share them."""
    d = RationalMatrix.from_rows([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, 0, 0]])
    w = Echelon(d, max).kernel()
    assert w == RationalMatrix.from_rows([[1, 0], [1, 0], [1, 0], [0, 1]])
    assert w.data[0] is w.data[1] is w.data[2]
    assert fields(w) == fields(general_matmul(w, RationalMatrix.identity(2)))


# -- classes and induced maps on the complexes of a run ---------------------


def complexes_of_a_run(monkeypatch, tmp_path, document):
    """Every cochain complex that cold structural runs of ``document``
    build, zero/lex and top/reverse-lex; the test is skipped for a
    rejected document."""
    built = []
    init = CochainComplex.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    monkeypatch.setattr(CochainComplex, "__init__", spy)
    for perversity, strategy in (("zero", "lex"), ("top", "reverse-lex")):
        monkeypatch.setattr(cli, "_workspace", None)
        _, status = cli.run_verification(str(path), perversity, strategy, STRUCTURAL)
        if status == 2:
            pytest.skip("the document is rejected")
    monkeypatch.setattr(CochainComplex, "__init__", init)
    return built


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_classes_equal_the_general_quotient_basis(name, monkeypatch, tmp_path):
    """In every degree of every complex of a run, and so in every degree
    without boundaries, the classes are those of the general code: equal
    representatives, lead positions and chosen positions, and equal
    coordinates of the representatives and of seeded random cocycles."""
    rng = random.Random(name)
    short_cuts = 0
    for C in complexes_of_a_run(monkeypatch, tmp_path, INPUTS[name]):
        for r in range(C.top + 1):
            cycles, spanning = C.echelon(r), C.echelon(r - 1).pivots
            pivots = set(cycles.pivots)
            lead = [j for j in range(C.dim(r)) if j not in pivots]
            w = cycles.kernel()
            args = (w, C.diff(r - 1), lead, spanning)
            ours, theirs = quotient_basis(*args), reference_quotient_basis(*args)
            where = (C.name, r)
            assert (ours is None) == (theirs is None), where
            if ours is None:
                continue
            assert fields(ours.matrix) == fields(theirs.matrix), where
            assert (ours.lead, ours.chosen) == (theirs.lead, theirs.chosen), where
            assert ours.matrix == C.representative_matrix(r), where
            cocycles = w @ random_matrix(rng, w.cols, 3)
            for z in (ours.matrix, cocycles):
                assert fields(ours.coordinates(z)) == fields(theirs.coordinates(z)), where
            if not spanning and w.cols:
                assert ours.boundaries is None and ours.matrix is w, where
                short_cuts += 1
    assert short_cuts


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_induced_maps_equal_the_coordinates_of_mapped_representatives(name):
    """Every map of both model sequences, onto targets with classes or
    without, is the target's coordinates of the mapped representatives."""
    ws = Workspace(INPUTS[name])
    try:
        n = ws.decomposition().n
        ws.pair()
    except StratdualError:
        pytest.skip(f"{name} is rejected")
    short_cuts = 0
    for k, strategy in product(range(1, n), ("lex", "reverse-lex")):
        m = ws.model(k, strategy)
        for ses in (m.ses_eta_rho, m.ses_iota_kappa):
            for f, source, target in ((ses.alpha, ses.U, ses.V), (ses.beta, ses.V, ses.W)):
                for r in range(len(f)):
                    expected = target.express_class(f[r] @ source.representative_matrix(r), r)
                    assert fields(induced_map(f, source, target, r)) == fields(expected), (
                        k, strategy, r)
                    if source.cohomology(r).dimension and not target.cohomology(r).dimension:
                        short_cuts += 1
    assert short_cuts
