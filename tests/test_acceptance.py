"""Acceptance suite: every criterion exact (tolerance 0), one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import random
from fractions import Fraction

from stratdual import examples
from stratdual.cli import render_report, run_verification
from stratdual.cochains import (
    PairComplexes,
    integrate,
    pair_against_chain,
    simplicial_cochains,
)
from stratdual.cone import compare
from stratdual.cotruncation import (
    check_product_vanishing,
    cotruncate,
    truncate_below,
    truncated_duality,
)
from stratdual.duality import (
    PairingForms,
    ladder_check,
    lefschetz_pairing,
    main_pairing,
    well_definedness_probe,
)
from stratdual.rational import RationalMatrix
from stratdual.simplicial import SimplicialComplex, orient_top_chain
from stratdual.workspace import Workspace

from helpers import get_complex, get_decomposition, pairing

MAIN_EXAMPLES = ("octahedron-marked", "x2-cone-torus")
ALL_EXAMPLES = ("disk-cone-s1", "octahedron-marked", "x2-cone-torus")


def _verdict(number, description, ok):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def _cutoff_pairs(n):
    """The complementary cutoffs (k, n - k), the zero perversity's first."""
    return [(k, n - k) for k in range(n - 1, 0, -1)]


def _models(name, k, l, strategy="lex"):
    ws = Workspace(examples.get_document(name))
    return ws.forms(), ws.model(k, strategy), ws.model(l, strategy)


def test_criterion_1_duality_reproduction():
    ok = True
    for name in MAIN_EXAMPLES:
        n = examples.get_document(name)["dimension"]
        for k, l in _cutoff_pairs(n):
            forms, mp, mq = _models(name, k, l)
            report = main_pairing(mp, mq, forms)
            ok = ok and report.passed
            if name == "x2-cone-torus" and k == 2:
                p2 = pairing(report, 2)
                ok = ok and (p2.matrix.rows, p2.matrix.cols) == (1, 1)
                ok = ok and p2.matrix.entry(0, 0) != 0
                ok = ok and all(
                    (pairing(report, r).matrix.rows, pairing(report, r).matrix.cols) == (0, 0)
                    for r in (0, 1, 3))
    _verdict(1, "main pairing square and full-rank in every degree, "
                "expected dims on x2-cone-torus", ok)


def test_criterion_2_oracle_agreement():
    expected_x2 = {2: (0, 0, 1, 0), 1: (0, 1, 0, 0)}
    ok = True
    for name in ALL_EXAMPLES:
        ws = Workspace(examples.get_document(name))
        for k in range(1, ws.decomposition().n):
            match, model_b, cone_b = compare(ws.model(k, "lex"), ws.cone(k, "lex"))
            ok = ok and match
            if name == "x2-cone-torus":
                ok = ok and model_b == expected_x2[k]
    _verdict(2, "model Betti vectors equal reduced mapping-cone Betti vectors "
                "for every example x cutoff", ok)


def test_criterion_3_choice_independence():
    ok = True
    for name in ALL_EXAMPLES:
        n = examples.get_document(name)["dimension"]
        for k, l in _cutoff_pairs(n):
            results = {}
            for strategy in ("lex", "reverse-lex"):
                forms, mp, mq = _models(name, k, l, strategy)
                report = main_pairing(mp, mq, forms)
                results[strategy] = (
                    mp.betti(), mq.betti(),
                    tuple(pm.nondegenerate for pm in report.pairings),
                    report.passed)
            ok = ok and results["lex"] == results["reverse-lex"]
    _verdict(3, "lex and reverse-lex give identical model Betti vectors and "
                "duality verdicts on all bundled runs", ok)


def test_criterion_4_lefschetz():
    fixtures = {
        "disk": [[0, 1], [1, 2], [0, 2]],
        "annulus": [[0, 1], [1, 2], [2, 3], [0, 3],
                    [4, 5], [5, 6], [6, 7], [4, 7]],
        "solid-torus": None,
    }
    ok = True
    for name, boundary in fixtures.items():
        if name == "solid-torus":
            forms = Workspace(examples.get_document("x2-cone-torus")).forms()
        else:
            K = get_complex(name)
            A = SimplicialComplex.from_facets(boundary, name=f"bd({name})")
            forms = PairingForms(PairComplexes(K, A), orient_top_chain(K))
        report = lefschetz_pairing(forms)
        ok = ok and report.passed
        if name == "annulus":
            ok = ok and pairing(report, 1).matrix.entry(0, 0) != 0
    _verdict(4, "Lefschetz pairing nondegenerate for disk, annulus, solid "
                "torus; annulus degree-1 entry nonzero", ok)


def test_criterion_5_truncated_duality():
    ok = True
    for name, windows in (("s1-triangle", ((1, 1),)),
                          ("t2-7", ((1, 2), (2, 1)))):
        L = get_complex(name)
        cochains = simplicial_cochains(L)
        for (k, l) in windows:
            report = truncated_duality(L, k, l, cochains)
            ok = ok and report.passed
            if name == "t2-7" and (k, l) == (2, 1):
                m = pairing(report, 1).matrix
                det = m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)
                ok = ok and det != 0
    # Windowed pairing between truncation and cotruncation cohomologies: for
    # k + l > c the block at degree r pairs H^r(C) with H^{c-r}(C) whenever r
    # is inside the window (r < k and r <= c - l), and must then be square
    # and invertible; at r >= k both sides vanish.  For k + l = c + 1 (the
    # case the duality proof consumes) the window covers every degree.
    for name in ("s1-triangle", "t2-7"):
        L = get_complex(name)
        C, cup = simplicial_cochains(L)
        lam = orient_top_chain(L)
        c = L.dimension
        for k in range(1, c + 2):
            for l in range(1, c + 2):
                if k + l <= c:
                    continue
                trunc = truncate_below(C, k)
                cotr = cotruncate(C, l)
                for r in range(c + 1):
                    left = trunc.complex.cohomology(r)
                    right = cotr.complex.cohomology(c - r)
                    if r >= k:
                        ok = ok and left.dimension == 0 and right.dimension == 0
                        continue
                    if r > c - l:
                        continue  # outside the window; right side is cut off
                    entries = {}
                    for i, x in enumerate(left.representatives):
                        a = trunc.inclusion[r].apply(x)
                        for j, y in enumerate(right.representatives):
                            b = cotr.inclusion[c - r].apply(y)
                            v = pair_against_chain(c, cup.cup(r, a, c - r, b),
                                                   lam.coefficients)
                            if v != 0:
                                entries[(i, j)] = v
                    m = RationalMatrix(left.dimension, right.dimension, entries)
                    ok = ok and left.dimension == right.dimension == m.rank()
    _verdict(5, "truncated duality full rank on S^1 and T^2 for all "
                "k + l = c + 1 (torus middle determinant nonzero), and the "
                "windowed truncation pairing is invertible", ok)


def test_criterion_6_stokes():
    rng = random.Random(2024)
    complexes = [get_complex(n) for n in
                 ("s1-triangle", "s1-square", "t2-7", "disk", "annulus", "solid-torus")]
    complexes += [get_decomposition(n).X for n in ALL_EXAMPLES]
    failures = 0
    for K in complexes:
        C, _ = simplicial_cochains(K)
        for _ in range(1000):
            r = rng.randint(0, max(C.top - 1, 0))
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(C.dim(r)))
            xi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(C.dim(r + 1)))
            lhs = integrate(C.diff(r).apply(x), xi)
            rhs = integrate(x, K.boundary_matrix(r + 1).apply(xi))
            if lhs != -((-1) ** r) * rhs:
                failures += 1
    _verdict(6, f"Stokes identity holds on {len(complexes) * 1000} randomized "
                f"trials across bundled complexes ({failures} failures)",
             failures == 0)


def test_criterion_7_product_vanishing():
    L = get_complex("t2-7")
    C, cup = simplicial_cochains(L)
    cts = {k: cotruncate(C, k) for k in (1, 2, 3)}
    nonzero = 0
    windows = 0
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            for r in (1, 2):
                for s in (1, 2):
                    if k + l > r + s:
                        windows += 1
                        if not check_product_vanishing(cup, cts[k], cts[l], r, s):
                            nonzero += 1
    _verdict(7, f"exhaustive cotruncation products vanish on T^2 in all "
                f"{windows} in-window degree combinations", nonzero == 0)


def test_criterion_8_ladder():
    ok = True
    for name in MAIN_EXAMPLES:
        n = examples.get_document(name)["dimension"]
        for k, l in _cutoff_pairs(n):
            forms, mp, mq = _models(name, k, l)
            for r in range(n + 1):
                rec = ladder_check(mp, mq, r, forms)
                ok = ok and rec.ts_commutes and rec.ms_commutes
                ok = ok and rec.bs_commutes and rec.bs_sign in (1, -1)
                ok = ok and rec.five_lemma_consistent
    _verdict(8, "ladder: TS and MS commute exactly, BS commutes up to one "
                "global sign per degree, on both main examples in all degrees", ok)


def test_criterion_9_well_definedness():
    ok = True
    for name in MAIN_EXAMPLES:
        n = examples.get_document(name)["dimension"]
        forms, mp, mq = _models(name, *_cutoff_pairs(n)[0])
        ok = ok and well_definedness_probe(mp, mq, forms.mu, trials=100, seed=1729)
    _verdict(9, "100 random coboundary perturbations leave every main-pairing "
                "entry bit-identical per example", ok)


def test_criterion_10_determinism():
    first, status1 = run_verification("x2-cone-torus", "zero", seed=77)
    second, status2 = run_verification("x2-cone-torus", "zero", seed=77)
    same = (render_report(first, "json") == render_report(second, "json")
            and status1 == status2 == 0)
    _verdict(10, "two runs with identical config produce byte-identical "
                 "JSON reports", same)
