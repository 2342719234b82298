from fractions import Fraction

import pytest

from stratdual import examples
from stratdual.cochains import induced_map, simplicial_cochains
from stratdual.cotruncation import (
    check_product_vanishing,
    cotruncate,
    quotient_by_cotruncation,
    truncate_below,
    truncated_duality,
)
from stratdual.rational import Echelon, RationalMatrix, Solver
from stratdual.simplicial import decompose, orient_top_chain, parse_complex

from helpers import pairing
from test_dimension_four import DOCUMENTS as DIMENSION_FOUR


def torus():
    return examples.get_complex("t2-7")


def circle():
    return examples.get_complex("s1-triangle")


def test_truncate_whole_complex_when_k_large():
    C, _ = simplicial_cochains(circle())
    t = truncate_below(C, C.top + 1)
    assert t.complex.betti() == C.betti()
    for r in range(C.top + 1):
        h = induced_map(t.inclusion, t.complex, C, r)
        assert h.rank() == C.cohomology(r).dimension == t.complex.cohomology(r).dimension


def test_truncate_circle_at_one():
    C, _ = simplicial_cochains(circle())
    t = truncate_below(C, 1)
    assert t.complex.betti() == (1, 0)


def test_truncate_torus_at_two():
    C, _ = simplicial_cochains(torus())
    t = truncate_below(C, 2)
    assert t.complex.betti() == (1, 2, 0)


def test_truncation_inclusion_iso_below_cutoff():
    C, _ = simplicial_cochains(torus())
    for k in (1, 2, 3):
        t = truncate_below(C, k)
        for r in range(C.top + 1):
            h = induced_map(t.inclusion, t.complex, C, r)
            if r < k:
                assert h.rank() == C.cohomology(r).dimension
                assert t.complex.cohomology(r).dimension == C.cohomology(r).dimension
            else:
                assert t.complex.cohomology(r).dimension == 0


def bundled_links():
    for name in examples.decomposition_names():
        for level in (0, 1):
            document = examples.subdivide(examples.get_document(name), level)
            yield decompose(parse_complex(document), document["singular_vertex"]).L


@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
def test_truncation_and_cotruncation_differentials_and_inclusions(strategy):
    # The differentials are the restrictions of d (the truncation reads
    # degree k - 1 in the image basis), and each inclusion commutes with d.
    for L in bundled_links():
        C, _ = simplicial_cochains(L)
        c = C.top
        for k in range(1, c + 2):
            t = truncate_below(C, k)
            ct = cotruncate(C, k, strategy)
            for r in range(c + 1):
                zero_t = RationalMatrix.zeros(t.complex.dim(r + 1), t.complex.dim(r))
                zero_ct = RationalMatrix.zeros(ct.complex.dim(r + 1), ct.complex.dim(r))
                want_t = (C.diff(r) if r + 1 < k
                          else C.image(k - 1).coordinates(C.diff(k - 1)) if r + 1 == k <= c
                          else zero_t)
                want_ct = (zero_ct if r < k
                           else C.diff(k) @ ct.D.matrix() if r == k
                           else C.diff(r))
                assert t.complex.diff(r) == want_t, (L.name, k, r)
                assert ct.complex.diff(r) == want_ct, (L.name, k, r, strategy)
                for sub, theta in ((t.complex, t.inclusion), (ct.complex, ct.inclusion)):
                    above = (theta[r + 1] if r + 1 <= c
                             else RationalMatrix.zeros(0, sub.dim(r + 1)))
                    assert above @ sub.diff(r) == C.diff(r) @ theta[r], (L.name, k, r)


def reference_projection(img, D):
    """pi_k by elimination: the image coordinates from solving [im | D] X = I."""
    split = Solver(img.matrix().hstack(D.matrix()))
    return split.solve_matrix(RationalMatrix.identity(img.ambient_dim)).rows_at(range(img.count))


def projection_links():
    """The bundled links, their sd¹ (x2-cone-torus and octahedron-marked
    among them) and the links of both n = 4 documents."""
    yield from bundled_links()
    for document in DIMENSION_FOUR.values():
        yield decompose(parse_complex(document), document["singular_vertex"]).L


@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
def test_projection_matches_the_solved_split(strategy):
    links = 0
    for L in projection_links():
        links += 1
        C, _ = simplicial_cochains(L)
        for k in range(1, C.top + 2):
            ct = cotruncate(C, k, strategy)
            if k > C.top:
                assert ct.projection is None, (L.name, k)
                continue
            img = C.image(k - 1)
            assert ct.projection == reference_projection(img, ct.D), (L.name, k)
            if strategy == "lex":
                # D is the unit cochains off the image's pivot rows.
                units = RationalMatrix.identity(C.dim(k)).rows_at(img.pivot_rows)
                assert ct.projection == units, (L.name, k)
    assert links == 2 * len(examples.decomposition_names()) + len(DIMENSION_FOUR)


@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
def test_a_complement_and_its_cotruncation_share_one_pass(strategy, monkeypatch):
    # A lex complement reads the image basis's pivot rows and runs no pass.
    # A reverse-lex complement runs one, which its cotruncation takes for
    # pi_k and runs none anew; once pi_k is built, D holds no pass.
    passes = []
    init = Echelon.__init__

    def counted(self, m, *args, **kwargs):
        passes.append(m)
        init(self, m, *args, **kwargs)

    for L in bundled_links():
        C, _ = simplicial_cochains(L)
        for k in range(1, C.top + 1):
            img = C.image(k - 1)
            with monkeypatch.context() as patch:
                patch.setattr(Echelon, "__init__", counted)
                D = C.complement(k, strategy)
                ct = cotruncate(C, k, strategy)
            over_image = [m for m in passes if m == img.matrix().transpose()]
            assert len(over_image) == (strategy == "reverse-lex"), (L.name, k)
            assert ct.D is D and D.take_pass() is None, (L.name, k)
            passes.clear()


def test_cotruncate_full_complement_when_image_zero():
    # Degrees >= k already: a complex concentrated in top degrees.
    C, _ = simplicial_cochains(torus())
    ct = cotruncate(C, 1)
    # d^0 has rank 6, so D has dimension 21 - 6 = 15.
    assert ct.D.count == C.dim(1) - C.diff(0).rank()
    assert ct.complex.betti() == (0, 2, 1)


def test_cotruncate_torus_at_two():
    C, _ = simplicial_cochains(torus())
    ct = cotruncate(C, 2)
    assert ct.complex.betti() == (0, 0, 1)
    h = induced_map(ct.inclusion, ct.complex, C, 2)
    assert h.rank() == 1


def test_cotruncate_inclusion_iso_at_and_above_cutoff():
    C, _ = simplicial_cochains(torus())
    for k in (1, 2, 3):
        ct = cotruncate(C, k)
        for r in range(C.top + 1):
            dim_sub = ct.complex.cohomology(r).dimension
            if 0 < r < k or (r == 0 and k > 0):
                assert dim_sub == 0
            if r >= k:
                assert dim_sub == C.cohomology(r).dimension
                h = induced_map(ct.inclusion, ct.complex, C, r)
                assert h.rank() == dim_sub


def test_truncation_plus_cotruncation_betti():
    C, _ = simplicial_cochains(torus())
    for k in (1, 2, 3):
        t = truncate_below(C, k)
        ct = cotruncate(C, k)
        for r in range(C.top + 1):
            assert (t.complex.cohomology(r).dimension
                    + ct.complex.cohomology(r).dimension) == C.cohomology(r).dimension


def test_strategies_agree_on_betti_and_image():
    C, _ = simplicial_cochains(torus())
    for k in (1, 2):
        lex = cotruncate(C, k, "lex")
        rev = cotruncate(C, k, "reverse-lex")
        assert lex.complex.betti() == rev.complex.betti()
        for r in range(k, C.top + 1):
            h_lex = induced_map(lex.inclusion, lex.complex, C, r)
            h_rev = induced_map(rev.inclusion, rev.complex, C, r)
            # Same image inside H^r(C): compare column spaces.
            from stratdual.rational import image_basis
            assert image_basis(h_lex) == image_basis(h_rev)


def test_quotient_large_k_and_betti():
    C, _ = simplicial_cochains(torus())
    ct = cotruncate(C, C.top + 1)
    q, pi, section = quotient_by_cotruncation(C, ct, truncate_below(C, C.top + 1))
    assert q.betti() == C.betti()
    ct2 = cotruncate(C, 2)
    q2, _, _ = quotient_by_cotruncation(C, ct2, truncate_below(C, 2))
    assert q2.betti() == (1, 2, 0)
    Cs, _ = simplicial_cochains(circle())
    q3, _, _ = quotient_by_cotruncation(Cs, cotruncate(Cs, 1), truncate_below(Cs, 1))
    assert q3.betti() == (1, 0)


def test_product_vanishing_window_on_torus():
    C, cup = simplicial_cochains(torus())
    cts = {k: cotruncate(C, k) for k in (1, 2, 3)}
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            for r in (1, 2):
                for s in (1, 2):
                    if k + l > r + s:
                        assert check_product_vanishing(cup, cts[k], cts[l], r, s)


def test_product_vanishing_precondition():
    C, cup = simplicial_cochains(torus())
    ct1 = cotruncate(C, 1)
    with pytest.raises(ValueError):
        check_product_vanishing(cup, ct1, ct1, 1, 1)  # 1 + 1 = 2 not > 2
    with pytest.raises(ValueError):
        check_product_vanishing(cup, ct1, ct1, 0, 1)


def test_truncated_duality_circle():
    L = circle()
    report = truncated_duality(L, 1, 1, simplicial_cochains(L))
    assert report.passed
    p0 = pairing(report, 0)
    assert (p0.matrix.rows, p0.matrix.cols) == (1, 1)
    assert p0.matrix.entry(0, 0) != 0


def test_truncated_duality_torus():
    L = torus()
    cochains = simplicial_cochains(L)
    for (k, l) in ((1, 2), (2, 1)):
        report = truncated_duality(L, k, l, cochains)
        assert report.passed
    report = truncated_duality(L, 2, 1, cochains)
    p0, p1 = pairing(report, 0), pairing(report, 1)
    assert (p0.matrix.rows, p0.matrix.cols) == (1, 1)
    assert (p1.matrix.rows, p1.matrix.cols) == (2, 2)
    det = (p1.matrix.entry(0, 0) * p1.matrix.entry(1, 1)
           - p1.matrix.entry(0, 1) * p1.matrix.entry(1, 0))
    assert det != 0


def test_truncated_duality_bad_window():
    L = torus()
    cochains = simplicial_cochains(L)
    with pytest.raises(ValueError):
        truncated_duality(L, 3, 0, cochains)
    with pytest.raises(ValueError):
        truncated_duality(L, 1, 1, cochains)


def test_truncated_duality_open_lambda_rejected():
    # The annulus top chain is not closed, so it is not a fundamental cycle.
    annulus = examples.get_complex("annulus")
    lam = orient_top_chain(annulus)
    cochains = simplicial_cochains(annulus)
    with pytest.raises(ValueError):
        truncated_duality(annulus, 1, 2, cochains, lam=lam)


def test_truncated_duality_well_defined_under_perturbations():
    # Entries are unchanged by alpha += d(eta) + theta_{>=k}(xi), beta += d(omega).
    import random

    from stratdual.cochains import pair_against_chain

    L = torus()
    C, cup = simplicial_cochains(L)
    lam = orient_top_chain(L)
    k, l = 2, 1
    ct_k = cotruncate(C, k)
    ct_l = cotruncate(C, l)
    quotient, pi, section = quotient_by_cotruncation(C, ct_k, truncate_below(C, k))
    rng = random.Random(17)
    c = L.dimension
    for r in range(c + 1):
        left = quotient.cohomology(r)
        right = ct_l.complex.cohomology(c - r)
        for u in left.representatives:
            alpha = section[r].apply(u)
            for t in right.representatives:
                beta = ct_l.inclusion[c - r].apply(t)
                base = pair_against_chain(c, cup.cup(r, alpha, c - r, beta), lam.coefficients)
                for _ in range(5):
                    eta = tuple(Fraction(rng.randint(-2, 2)) for _ in range(C.dim(r - 1))) \
                        if r > 0 else ()
                    d_eta = C.diff(r - 1).apply(eta) if r > 0 else (Fraction(0),) * C.dim(0)
                    xi = tuple(Fraction(rng.randint(-2, 2))
                               for _ in range(ct_k.complex.dim(r)))
                    theta_xi = ct_k.inclusion[r].apply(xi)
                    alpha2 = tuple(a + b + cxt for a, b, cxt in zip(alpha, d_eta, theta_xi))
                    omega = tuple(Fraction(rng.randint(-2, 2))
                                  for _ in range(ct_l.complex.dim(c - r - 1)))
                    d_omega = ct_l.inclusion[c - r].apply(
                        ct_l.complex.diff(c - r - 1).apply(omega))
                    beta2 = tuple(b + x for b, x in zip(beta, d_omega))
                    value = pair_against_chain(
                        c, cup.cup(r, alpha2, c - r, beta2), lam.coefficients)
                    assert value == base


@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
def test_cotruncate_runs_one_pass_over_the_image(monkeypatch, strategy):
    # The pass that picks D also gives pi_k: lex runs none, reverse-lex one.
    C, _ = simplicial_cochains(torus())
    init = Echelon.__init__
    for k in range(1, C.top + 1):
        C.image(k - 1)  # the image basis and the pass on d^{k-1} behind it
        passes = []

        def counted(self, m, *args, **kwargs):
            passes.append((m.rows, m.cols))
            init(self, m, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Echelon, "__init__", counted)
            cotruncate(C, k, strategy)
        want = [(C.image(k - 1).count, C.dim(k))] if strategy == "reverse-lex" else []
        assert passes == want, k
