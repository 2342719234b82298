import copy
from collections import Counter
from fractions import Fraction

import pytest

from stratdual import examples
from stratdual import duality, reports
from stratdual.cochains import PairComplexes, ShortExactSequence
from stratdual.duality import (
    PairingForms,
    boundary_link_chain,
    ladder_check,
    lefschetz_pairing,
    main_pairing,
    stokes_vanishing_probe,
    well_definedness_identity,
    well_definedness_probe,
)
from stratdual.errors import NotComplementaryError, NotPseudomanifoldError
from stratdual.rational import RationalMatrix
from stratdual.reports import PairingMatrix
from stratdual.simplicial import (
    SimplicialComplex,
    FundamentalChain,
    orient_top_chain,
)
from stratdual.workspace import Workspace

from helpers import pairing


def manifold_pair(name, boundary_facets):
    K = examples.get_complex(name)
    A = SimplicialComplex.from_facets(boundary_facets, name=f"bd({name})")
    return PairComplexes(K, A), orient_top_chain(K)


def models_for(name, k=None, strategy="lex", document=None):
    """The decomposition, pairing forms and models at cutoffs k and n - k of
    one workspace, k = n - 1 (the zero perversity's cutoff) unless given."""
    ws = Workspace(examples.get_document(name) if document is None else document)
    D = ws.decomposition()
    k = D.n - 1 if k is None else k
    return D, ws.forms(), ws.model(k, strategy), ws.model(D.n - k, strategy)


def subdivided_models():
    """As ``models_for``, on x2-cone-torus subdivided once: no bundled model
    has cochains one degree below a paired class, which leaves the
    coboundary terms of the well-definedness identity empty."""
    return models_for("x2-cone-torus", document=examples.subdivide(
        examples.get_document("x2-cone-torus"), 1))


DISK_BOUNDARY = [[0, 1], [1, 2], [0, 2]]
ANNULUS_BOUNDARY = [[0, 1], [1, 2], [2, 3], [0, 3], [4, 5], [5, 6], [6, 7], [4, 7]]


def test_lefschetz_disk():
    report = lefschetz_pairing(PairingForms(*manifold_pair("disk", DISK_BOUNDARY)))
    assert report.passed
    p0 = pairing(report, 0)
    assert (p0.matrix.rows, p0.matrix.cols) == (1, 1)
    assert p0.matrix.entry(0, 0) != 0


def test_lefschetz_annulus():
    report = lefschetz_pairing(PairingForms(*manifold_pair("annulus", ANNULUS_BOUNDARY)))
    assert report.passed
    p1 = pairing(report, 1)
    assert (p1.matrix.rows, p1.matrix.cols) == (1, 1)
    assert p1.matrix.entry(0, 0) != 0


def test_lefschetz_solid_torus():
    report = lefschetz_pairing(Workspace(examples.get_document("x2-cone-torus")).forms())
    assert report.passed
    for r, dims in ((0, (1, 1)), (1, (1, 1)), (2, (0, 0)), (3, (0, 0))):
        p = pairing(report, r)
        assert (p.matrix.rows, p.matrix.cols) == dims
    # Degree-1 block of the torus-boundary fixture is the classical ±1.
    assert pairing(report, 1).matrix.entry(0, 0) in (1, -1)


def test_lefschetz_rejects_invalid_mu():
    pair, mu = manifold_pair("disk", DISK_BOUNDARY)
    bad = FundamentalChain(mu.degree, (0,) * len(mu.coefficients))
    with pytest.raises(NotPseudomanifoldError):
        lefschetz_pairing(PairingForms(pair, bad))


def test_main_pairing_x2():
    D, forms, mp, mq = models_for("x2-cone-torus")
    report = main_pairing(mp, mq, forms)
    assert report.passed
    p2 = pairing(report, 2)
    assert (p2.matrix.rows, p2.matrix.cols) == (1, 1)
    assert p2.matrix.entry(0, 0) != 0
    for r in (0, 1, 3):
        p = pairing(report, r)
        assert (p.matrix.rows, p.matrix.cols) == (0, 0)


def test_main_pairing_x2_swapped():
    D, forms, mp, mq = models_for("x2-cone-torus", 1)
    report = main_pairing(mp, mq, forms)
    assert report.passed
    p1 = pairing(report, 1)
    assert (p1.matrix.rows, p1.matrix.cols) == (1, 1)
    assert p1.matrix.entry(0, 0) != 0


def test_main_pairing_octahedron():
    D, forms, mp, mq = models_for("octahedron-marked")
    report = main_pairing(mp, mq, forms)
    assert report.passed
    assert all((p.matrix.rows, p.matrix.cols) == (0, 0) for p in report.pairings)


def test_main_pairing_rejects_non_complementary():
    D, forms, mp, _ = models_for("x2-cone-torus", 2)
    with pytest.raises(NotComplementaryError, match="^cutoffs do not satisfy k \\+ l = n$"):
        main_pairing(mp, mp, forms)


def test_main_pairing_rejects_decomposition_mismatch():
    D1, forms1, mp1, _ = models_for("x2-cone-torus")
    D2, forms2, _, mq2 = models_for("octahedron-marked")
    with pytest.raises(ValueError):
        main_pairing(mp1, mq2, forms1)


def test_orientation_covariance():
    D, forms, mp, mq = models_for("x2-cone-torus")
    mu = forms.mu
    negated = PairingForms(forms.pair, FundamentalChain(
        mu.degree, tuple(-c for c in mu.coefficients)))
    report = main_pairing(mp, mq, forms)
    flipped = main_pairing(mp, mq, negated)
    for r in range(D.n + 1):
        assert pairing(flipped, r).matrix == -pairing(report, r).matrix
        assert pairing(flipped, r).nondegenerate == pairing(report, r).nondegenerate
    lef = lefschetz_pairing(forms)
    lef_flipped = lefschetz_pairing(negated)
    for r in range(D.n + 1):
        assert pairing(lef_flipped, r).matrix == -pairing(lef, r).matrix


def test_well_definedness_probe():
    for name in ("octahedron-marked", "x2-cone-torus"):
        D, forms, mp, mq = models_for(name)
        assert well_definedness_probe(mp, mq, forms.mu, trials=25, seed=7)


def test_well_definedness_identity_detects_a_corrupted_iota():
    # No bundled model has cochains one degree below a paired class, which
    # leaves the coboundary terms empty; one subdivision gives them columns.
    D, forms, mp, mq = subdivided_models()
    mu = forms.mu
    assert (mp.betti()[2], mq.betti()[1]) == (1, 1)
    assert mp.complex.dim(1) and mq.complex.dim(0)
    assert well_definedness_identity(mp, mq, forms)
    # Every model cochain of degree 2 also lands on the first 2-simplex of M.
    bad = copy.copy(mp)
    iota = mp.iota[2]
    shifted = iota + RationalMatrix(iota.rows, iota.cols, {(0, j): 1 for j in range(iota.cols)})
    bad.iota = mp.iota[:2] + (shifted,) + mp.iota[3:]
    assert not well_definedness_identity(bad, mq, forms)
    assert not well_definedness_probe(bad, mq, mu, trials=3)


def count_calls(monkeypatch):
    """Counts of induced_map, connecting and matrix products from here on."""
    counts = Counter()
    for owner, name in ((duality, "induced_map"), (ShortExactSequence, "connecting"),
                        (RationalMatrix, "__matmul__")):
        def counted(*args, _real=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    return counts


def test_ladder_records_are_kept_per_model_pair(monkeypatch):
    D, forms, mp, mq = models_for("x2-cone-torus")
    records = [ladder_check(mp, mq, r, forms) for r in range(D.n + 1)]
    counts = count_calls(monkeypatch)
    for r in range(D.n + 1):
        assert ladder_check(mp, mq, r, forms) is records[r]
    assert counts == Counter()
    # With new forms a call builds anew; no two reports share a dict.
    fresh = ladder_check(mp, mq, 2, PairingForms(forms.pair, forms.mu))
    assert fresh is not records[2]
    assert fresh.to_jsonable() == records[2].to_jsonable()
    assert records[2].to_jsonable() is not records[2].to_jsonable()
    assert counts["induced_map"] == 4 and counts["connecting"] == 2
    # A corrupted copy of mp is another key, so its squares are checked.
    bad = copy.copy(mp)
    bad.iota = mp.iota[:2] + (mp.iota[2].scaled(2),) + mp.iota[3:]
    assert not ladder_check(bad, mq, 2, forms).passed
    assert ladder_check(mp, mq, 2, forms) is records[2]


def test_well_definedness_verdict_is_kept_per_model_pair(monkeypatch):
    # As in the corrupted-iota test: one subdivision gives the coboundary
    # terms columns, so a corrupted iota is seen.
    D, forms, mp, mq = subdivided_models()
    assert well_definedness_identity(mp, mq, forms)
    counts = count_calls(monkeypatch)
    assert well_definedness_identity(mp, mq, forms)
    assert counts == Counter()
    bad = copy.copy(mp)
    iota = mp.iota[2]
    shifted = iota + RationalMatrix(iota.rows, iota.cols, {(0, j): 1 for j in range(iota.cols)})
    bad.iota = mp.iota[:2] + (shifted,) + mp.iota[3:]
    assert not well_definedness_identity(bad, mq, forms)
    assert counts["__matmul__"] > 0
    assert well_definedness_identity(mp, mq, forms)


def test_stokes_vanishing_probe():
    for name in ("octahedron-marked", "x2-cone-torus"):
        D, forms, mp, mq = models_for(name)
        assert stokes_vanishing_probe(mp, mq, trials=50, seed=3)


def test_ladder_x2_all_degrees():
    D, forms, mp, mq = models_for("x2-cone-torus")
    for r in range(D.n + 1):
        rec = ladder_check(mp, mq, r, forms)
        assert rec.ts_commutes, r
        assert rec.ms_commutes, r
        assert rec.bs_commutes, r
        assert rec.five_lemma_consistent, r
    # The one degree with a genuinely nonzero bottom square carries the
    # Leibniz sign (-1)^r.
    assert ladder_check(mp, mq, 1, forms).bs_sign == -1


def test_ladder_bottom_square_fails_on_a_doubled_kappa(monkeypatch):
    # At r = 1 the bottom square of x2-cone-torus is nonzero, so doubling
    # H(kappa_p) matches neither side nor its negative.
    D, forms, mp, mq = models_for("x2-cone-torus")
    real = duality.induced_map

    def doubled_kappa(f, source, target, r):
        value = real(f, source, target, r)
        return value.scaled(2) if f is mp.kappa else value

    monkeypatch.setattr(duality, "induced_map", doubled_kappa)
    rec = ladder_check(mp, mq, 1, forms)
    assert rec.ts_commutes and rec.ms_commutes
    assert rec.bs_commutes is False
    assert rec.bs_sign == 0
    assert rec.passed is False


def test_ladder_octahedron_all_degrees():
    D, forms, mp, mq = models_for("octahedron-marked")
    for r in range(D.n + 1):
        rec = ladder_check(mp, mq, r, forms)
        assert rec.passed, r


def test_ladder_vacuous_degrees_pass():
    D, forms, mp, mq = models_for("disk-cone-s1")
    for r in range(D.n + 1):
        rec = ladder_check(mp, mq, r, forms)
        assert rec.passed


def test_ladder_with_reverse_lex_complements():
    # A different complement D changes the quotient bases; the squares must
    # still close.
    for k in (1, 2):
        D, forms, mp, mq = models_for("x2-cone-torus", k, "reverse-lex")
        assert main_pairing(mp, mq, forms).passed
        for r in range(D.n + 1):
            assert ladder_check(mp, mq, r, forms).passed


def test_octahedron_any_marked_vertex():
    document = examples.get_document("octahedron-marked")
    for v in range(6):
        marked = dict(document, name=f"oct-{v}", singular_vertex=v)
        m = Workspace(marked).model(1, "lex")
        assert m.betti() == (0, 0, 0)


def test_boundary_link_chain_is_link_cycle():
    D, forms, mp, mq = models_for("x2-cone-torus")
    lam = boundary_link_chain(forms.pair, forms.mu)
    assert len(lam) == D.L.n_simplices(D.n - 1)
    boundary = D.L.boundary_matrix(D.n - 1).apply(lam)
    assert all(v == 0 for v in boundary)
    assert any(v != 0 for v in lam)


def test_pairing_strings_are_made_once_and_handed_out_fresh(monkeypatch):
    matrix = RationalMatrix.from_rows([[Fraction(1, 2), 0], [3, Fraction(-2, 3)]])
    entries = [["1/2", "0/1"], ["3/1", "-2/3"]]
    pairing = PairingMatrix(1, matrix)
    made = Counter()
    real = reports.fraction_str
    monkeypatch.setattr(reports, "fraction_str", lambda x: made.update([x]) or real(x))
    first = pairing.to_jsonable()
    assert first["matrix"] == {"rows": 2, "cols": 2, "entries": entries}
    assert sum(made.values()) == 4
    # A caller that mutates its report leaves the next render as it was.
    first["matrix"]["entries"][0][0] = "9/1"
    first["matrix"]["entries"].append([])
    second = pairing.to_jsonable()
    assert second["matrix"]["entries"] == entries
    assert sum(made.values()) == 4
    assert second == PairingMatrix(1, matrix).to_jsonable()
