import pytest

from stratdual import examples
from stratdual.cochains import CochainComplex, induced_map
from stratdual.errors import BadPerversityError
from stratdual.model import (
    build_model,
    complementary,
    cutoff_degree,
    model_les,
    named_perversity,
    validate_perversity,
)
from stratdual.workspace import Workspace


def workspace(name):
    return Workspace(examples.get_document(name))


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
    # other perversity, whose cutoff would quietly pick another model.
    for values in ({2: 0, 3: 0.9}, [0, True], {2: False, 3: 0}, {2: 0, 3: "1"}):
        with pytest.raises(BadPerversityError):
            validate_perversity(values)
    # Keys may be strings, as JSON object keys are.
    assert validate_perversity({"2": 0, "3": 1}).values == {2: 0, 3: 1}


def test_model_cutoff_must_be_an_int_in_range():
    # A model takes its cutoff 1 <= k <= n - 1 and nothing else: not a
    # perversity, and no bool, float or string standing for an int.
    ws = workspace("x2-cone-torus")
    D = ws.decomposition()
    built = (ws.pair(), ws.cotruncation(1, "lex"), ws.quotient(1, "lex"), ws.cutoff_pass(1, "lex"))
    for k in (0, D.n, True, 1.0, "2", named_perversity("zero", D.n)):
        with pytest.raises(ValueError, match="^model cutoff must be an int in 1..2, got "):
            build_model(D, k, "lex", *built)


def test_perversity_keys_must_name_codimensions_once():
    # Only ints and strings of decimal digits name a codimension; nothing
    # else is coerced, and no codimension may be named twice.
    for values in ({2: 0, 3.9: 1}, {2: 0, 3.0: 1}, {True: 0}, {"two": 0}, {" 2": 0},
                   {"": 0}, {"-2": 0}, {"2.0": 0}, {"²": 0}, {(2,): 0},
                   {2: 0, "2": 0, 3: 1}, {"2": 0, "02": 0, 3: 1}):
        with pytest.raises(BadPerversityError):
            validate_perversity(values)
    assert validate_perversity({2: 0, "3": 1}).values == {2: 0, 3: 1}


def test_named_perversities():
    n = 6
    zero = named_perversity("zero", n)
    top = named_perversity("top", n)
    lower = named_perversity("lower-middle", n)
    upper = named_perversity("upper-middle", n)
    assert [top(s) for s in range(2, 7)] == [0, 1, 2, 3, 4]
    assert [lower(s) for s in range(2, 7)] == [0, 0, 1, 1, 2]
    assert [upper(s) for s in range(2, 7)] == [0, 1, 1, 2, 2]
    assert complementary(zero).values == top.values
    assert complementary(top).values == zero.values
    assert complementary(lower).values == upper.values


def test_cutoff_degree():
    zero3 = named_perversity("zero", 3)
    top3 = named_perversity("top", 3)
    assert cutoff_degree(zero3, 3) == 2
    assert cutoff_degree(top3, 3) == 1
    assert cutoff_degree(named_perversity("zero", 2), 2) == 1


def test_model_x2_zero_perversity():
    m = workspace("x2-cone-torus").model(cutoff_degree(named_perversity("zero", 3), 3), "lex")
    assert m.betti() == (0, 0, 1, 0)


def test_model_iota_is_not_checked_again_by_induced_map(monkeypatch):
    # Each structure map is proved a cochain map where it is made: iota by
    # the subcomplex constructor's reads, kappa as pi ∘ i*, and rho and eta
    # by their certified squares with injective theta and iota.  So once
    # the cohomology bases are built, induced_map reads no differential.
    ws = workspace("x2-cone-torus")
    D, m = ws.decomposition(), ws.model(2, "lex")
    maps = [(m.iota, m.complex, m.pair.full), (m.kappa, m.pair.full, m.quotient),
            (m.rho, m.complex, m.cotruncation.complex), (m.eta, m.pair.rel, m.complex)]
    for _, source, target in maps:
        for r in range(D.n + 1):
            source.representative_matrix(r)
            target.cohomology(r)
    reads = []
    diff = CochainComplex.diff

    def counted(self, r):
        reads.append((self.name, r))
        return diff(self, r)

    monkeypatch.setattr(CochainComplex, "diff", counted)
    for f, source, target in maps:
        for r in range(D.n + 1):
            induced_map(f, source, target, r)
    assert reads == []


def test_model_x2_top_perversity():
    m = workspace("x2-cone-torus").model(cutoff_degree(named_perversity("top", 3), 3), "lex")
    assert m.betti() == (0, 1, 0, 0)


def test_model_octahedron():
    m = workspace("octahedron-marked").model(1, "lex")
    # The connecting map H^1(tau_{>=1}) -> H^2(M, ∂M) is an isomorphism, so
    # the model is acyclic; the oracle module confirms this independently.
    assert m.betti() == (0, 0, 0)


def test_model_disk_cone():
    m = workspace("disk-cone-s1").model(1, "lex")
    assert m.betti() == (0, 0, 0)


def test_model_h0_vanishes():
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        ws = workspace(name)
        for k in range(1, ws.decomposition().n):
            assert ws.model(k, "lex").betti()[0] == 0


def test_model_dimension_count_fiber_product():
    # dim A^r = dim ker(i*) + dim tau_{>=k}^r, each degree.
    from stratdual.rational import kernel_basis
    ws = workspace("x2-cone-torus")
    D, m = ws.decomposition(), ws.model(2, "lex")
    for r in range(D.n + 1):
        expected = kernel_basis(m.pair.restrict[r]).count + m.cotruncation.complex.dim(r)
        assert m.complex.dim(r) == expected


def test_model_strategy_independence():
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        ws = workspace(name)
        for k in range(1, ws.decomposition().n):
            assert ws.model(k, "lex").betti() == ws.model(k, "reverse-lex").betti()


def test_model_complementarity_symmetry():
    ws = workspace("x2-cone-torus")
    D = ws.decomposition()
    betti = {k: ws.model(k, "lex").betti() for k in range(1, D.n)}
    for k in betti:
        for r in range(D.n + 1):
            assert betti[k][r] == betti[D.n - k][D.n - r]


def test_model_les_eta_rho_connecting():
    m = workspace("x2-cone-torus").model(2, "lex")
    les = model_les(m, "ses-eta-rho")
    assert les["exact"]
    # Connecting H^2(tau_{>=2}) -> H^3(M, ∂M) is 1x1 invertible.
    delta2 = les["connecting"][2]
    assert (delta2.rows, delta2.cols) == (1, 1)
    assert delta2.rank() == 1


def test_model_les_top_perversity_surjective_connecting():
    m = workspace("x2-cone-torus").model(1, "lex")
    les = model_les(m, "ses-eta-rho")
    delta1 = les["connecting"][1]
    assert (delta1.rows, delta1.cols) == (1, 2)
    assert delta1.rank() == 1


def test_model_les_iota_kappa_exact():
    for name in ("octahedron-marked", "x2-cone-torus"):
        ws = workspace(name)
        for k in range(1, ws.decomposition().n):
            assert model_les(ws.model(k, "lex"), "ses-iota-kappa")["exact"]


def test_model_les_unknown_sequence():
    m = workspace("disk-cone-s1").model(1, "lex")
    with pytest.raises(ValueError):
        model_les(m, "ses-bogus")
