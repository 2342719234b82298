import pytest

from stratdual import examples
from stratdual.cochains import CochainComplex, induced_map
from stratdual.errors import BadPerversityError
from stratdual.model import (
    Perversity,
    build_model,
    complementary,
    cutoff_degree,
    model_les,
    named_perversity,
    validate_perversity,
)


def test_zero_and_top_perversities_accepted():
    zero = validate_perversity({2: 0, 3: 0, 4: 0})
    top = validate_perversity({2: 0, 3: 1, 4: 2})
    assert zero(4) == 0 and top(4) == 2


def test_perversity_rejections():
    with pytest.raises(BadPerversityError):
        validate_perversity({2: 1, 3: 1})
    with pytest.raises(BadPerversityError):
        validate_perversity({2: 0, 3: 2})  # jump 2
    with pytest.raises(BadPerversityError):
        validate_perversity({2: 0, 3: 1, 4: 0})  # decrease
    with pytest.raises(BadPerversityError):
        validate_perversity({3: 0})  # missing codimension 2


def test_perversity_values_must_be_ints():
    # A float, bool or string value would otherwise be coerced into some
    # other perversity, and build_model would quietly build its model.
    for values in ({2: 0, 3: 0.9}, [0, True], {2: False, 3: 0}, {2: 0, 3: "1"}):
        with pytest.raises(BadPerversityError):
            validate_perversity(values)
    with pytest.raises(BadPerversityError):
        build_model(examples.get_decomposition("x2-cone-torus"), {2: 0, 3: 0.9})
    # Keys may be strings, as JSON object keys are.
    assert validate_perversity({"2": 0, "3": 1}) == Perversity({2: 0, 3: 1})


def test_named_perversities():
    n = 6
    zero = named_perversity("zero", n)
    top = named_perversity("top", n)
    lower = named_perversity("lower-middle", n)
    upper = named_perversity("upper-middle", n)
    assert [top(s) for s in range(2, 7)] == [0, 1, 2, 3, 4]
    assert [lower(s) for s in range(2, 7)] == [0, 0, 1, 1, 2]
    assert [upper(s) for s in range(2, 7)] == [0, 1, 1, 2, 2]
    assert complementary(zero) == top
    assert complementary(top) == zero
    assert complementary(lower) == upper


def test_cutoff_degree():
    zero3 = named_perversity("zero", 3)
    top3 = named_perversity("top", 3)
    assert cutoff_degree(zero3, 3) == 2
    assert cutoff_degree(top3, 3) == 1
    assert cutoff_degree(named_perversity("zero", 2), 2) == 1


def test_model_x2_zero_perversity():
    D = examples.get_decomposition("x2-cone-torus")
    m = build_model(D, named_perversity("zero", 3))
    assert m.k == 2
    assert m.betti() == (0, 0, 1, 0)


def test_model_iota_is_not_checked_again_by_induced_map(monkeypatch):
    # build_model reads d through the subcomplex constructor, whose products
    # already prove iota a cochain map; induced_map reads the model's d only
    # to check that again.
    D = examples.get_decomposition("x2-cone-torus")
    m = build_model(D, named_perversity("zero", 3))
    for r in range(D.n + 1):
        m.complex.representative_matrix(r)
    reads = []
    diff = CochainComplex.diff

    def counted(self, r):
        if self is m.complex:
            reads.append(r)
        return diff(self, r)

    monkeypatch.setattr(CochainComplex, "diff", counted)
    for r in range(D.n + 1):
        induced_map(m.iota, m.complex, m.pair.full, r)
    assert reads == []


def test_model_x2_top_perversity():
    D = examples.get_decomposition("x2-cone-torus")
    m = build_model(D, named_perversity("top", 3))
    assert m.k == 1
    assert m.betti() == (0, 1, 0, 0)


def test_model_octahedron():
    D = examples.get_decomposition("octahedron-marked")
    m = build_model(D, named_perversity("zero", 2))
    assert m.k == 1
    # The connecting map H^1(tau_{>=1}) -> H^2(M, ∂M) is an isomorphism, so
    # the model is acyclic; the oracle module confirms this independently.
    assert m.betti() == (0, 0, 0)


def test_model_disk_cone():
    D = examples.get_decomposition("disk-cone-s1")
    m = build_model(D, named_perversity("zero", 2))
    assert m.betti() == (0, 0, 0)


def test_model_h0_vanishes():
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        D = examples.get_decomposition(name)
        for pname in ("zero", "top"):
            m = build_model(D, named_perversity(pname, D.n))
            assert m.betti()[0] == 0


def test_model_dimension_count_fiber_product():
    # dim A^r = dim ker(i*) + dim tau_{>=k}^r, each degree.
    from stratdual.rational import kernel_basis
    D = examples.get_decomposition("x2-cone-torus")
    m = build_model(D, named_perversity("zero", 3))
    for r in range(D.n + 1):
        expected = kernel_basis(m.pair.restrict[r]).count + m.cotruncation.complex.dim(r)
        assert m.complex.dim(r) == expected


def test_model_strategy_independence():
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        D = examples.get_decomposition(name)
        for pname in ("zero", "top"):
            p = named_perversity(pname, D.n)
            lex = build_model(D, p, "lex")
            rev = build_model(D, p, "reverse-lex")
            assert lex.betti() == rev.betti()


def test_model_complementarity_symmetry():
    D = examples.get_decomposition("x2-cone-torus")
    p = named_perversity("zero", 3)
    q = complementary(p)
    bp = build_model(D, p).betti()
    bq = build_model(D, q).betti()
    for r in range(D.n + 1):
        assert bp[r] == bq[D.n - r]


def test_model_les_eta_rho_connecting():
    D = examples.get_decomposition("x2-cone-torus")
    m = build_model(D, named_perversity("zero", 3))
    les = model_les(m, "ses-eta-rho")
    assert les["exact"]
    # Connecting H^2(tau_{>=2}) -> H^3(M, ∂M) is 1x1 invertible.
    delta2 = les["connecting"][2]
    assert (delta2.rows, delta2.cols) == (1, 1)
    assert delta2.rank() == 1


def test_model_les_top_perversity_surjective_connecting():
    D = examples.get_decomposition("x2-cone-torus")
    m = build_model(D, named_perversity("top", 3))
    les = model_les(m, "ses-eta-rho")
    delta1 = les["connecting"][1]
    assert (delta1.rows, delta1.cols) == (1, 2)
    assert delta1.rank() == 1


def test_model_les_iota_kappa_exact():
    for name in ("octahedron-marked", "x2-cone-torus"):
        D = examples.get_decomposition(name)
        for pname in ("zero", "top"):
            m = build_model(D, named_perversity(pname, D.n))
            les = model_les(m, "ses-iota-kappa")
            assert les["exact"]


def test_model_les_unknown_sequence():
    D = examples.get_decomposition("disk-cone-s1")
    m = build_model(D, named_perversity("zero", 2))
    with pytest.raises(ValueError):
        model_les(m, "ses-bogus")
