from fractions import Fraction

import pytest

from stratdual import cone as cone_module
from stratdual import examples, rational
from stratdual.cone import (
    SimplicialChains,
    chain_truncate,
    compare,
    intersection_space_cone,
    mapping_cone,
)
from stratdual.errors import InternalExactnessError
from stratdual.rational import RationalMatrix, SubspaceBasis, complement_basis, kernel_basis
from stratdual.workspace import Workspace

from helpers import get_complex, get_decomposition


def workspace(name):
    return Workspace(examples.get_document(name))


def test_chain_homology_of_fixtures():
    assert SimplicialChains(get_complex("s1-triangle")).homology_dims() == (1, 1)
    assert SimplicialChains(get_complex("t2-7")).homology_dims() == (1, 2, 1)
    assert SimplicialChains(get_complex("solid-torus")).homology_dims() == (1, 1, 0, 0)


def test_chain_truncate_circle():
    L = get_complex("s1-triangle")
    t = chain_truncate(L, 1, "lex", SimplicialChains(L))
    assert t.complex.homology_dims() == (1, 0)


def test_chain_truncate_torus():
    L = get_complex("t2-7")
    chains = SimplicialChains(L)
    t = chain_truncate(L, 2, "lex", chains)
    assert t.complex.homology_dims() == (1, 2, 0)
    t1 = chain_truncate(L, 1, "lex", chains)
    assert t1.complex.homology_dims() == (1, 0, 0)


def test_chain_truncate_above_dimension_keeps_everything():
    L = get_complex("t2-7")
    t = chain_truncate(L, L.dimension + 1, "lex", SimplicialChains(L))
    assert t.complex.homology_dims() == (1, 2, 1)


def test_chain_truncate_signature_all_cutoffs():
    for name in ("s1-triangle", "s1-square", "t2-7"):
        L = get_complex(name)
        chains = SimplicialChains(L)
        ambient = chains.homology_dims()
        for k in range(1, L.dimension + 2):
            t = chain_truncate(L, k, "lex", chains)
            h = t.complex.homology_dims()
            for r in range(L.dimension + 1):
                assert h[r] == (ambient[r] if r < k else 0)


def test_cone_of_identity_is_acyclic():
    L = get_complex("t2-7")
    chains = SimplicialChains(L)
    t = chain_truncate(L, L.dimension + 1, "lex", chains)
    g = [t.inclusion[r] for r in range(L.dimension + 1)]
    cone = mapping_cone(t, g, chains)
    assert all(h == 0 for h in cone.homology_dims())


def test_cone_x2_cutoff_two():
    cone = workspace("x2-cone-torus").cone(2, "lex")
    assert cone.homology_dims() == (0, 0, 1, 0)


def test_cone_x2_cutoff_one():
    cone = workspace("x2-cone-torus").cone(1, "lex")
    assert cone.homology_dims() == (0, 1, 0, 0)


def test_compare_x2_both_perversities():
    ws = workspace("x2-cone-torus")
    # The cutoffs of the zero and top perversities.
    for k, expected in ((2, (0, 0, 1, 0)), (1, (0, 1, 0, 0))):
        m = ws.model(k, "lex")
        cone = ws.cone(k, "lex")
        ok, model_b, cone_b = compare(m, cone)
        assert ok
        assert model_b == cone_b == expected


def test_compare_octahedron_and_disk():
    for name in ("octahedron-marked", "disk-cone-s1"):
        ws = workspace(name)
        m = ws.model(1, "lex")
        cone = ws.cone(1, "lex")
        ok, model_b, cone_b = compare(m, cone)
        assert ok


def test_compare_every_example_every_perversity_both_strategies():
    # The repository-level regression wall: a perversity's model is its
    # cutoff's, and every cutoff is some named perversity's.
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        ws = workspace(name)
        for k in range(1, ws.decomposition().n):
            for strategy in ("lex", "reverse-lex"):
                m = ws.model(k, strategy)
                cone = ws.cone(k, strategy)
                ok, model_b, cone_b = compare(m, cone)
                assert ok, (name, k, strategy, model_b, cone_b)


def test_cone_les_rank_identities():
    # Exactness of the cone LES: dim H_r(cone) = dim coker(H_r g) + dim ker(H_{r-1} g).
    ws = workspace("x2-cone-torus")
    D = ws.decomposition()
    for k in (1, 2):
        t = chain_truncate(D.L, k, "lex", ws.chains("L"))
        m_chains = ws.chains("M")
        cone = ws.cone(k, "lex")
        t_h = t.complex.homology_dims()
        m_h = m_chains.homology_dims()
        # Induced map on homology via representatives.
        include = []
        for r in range(D.M.dimension + 1):
            entries = {}
            for j, s in enumerate(D.L.simplices(r)):
                entries[(D.M.index[s], j)] = 1
            include.append(RationalMatrix(D.M.n_simplices(r), D.L.n_simplices(r), entries))
        # rank H_r(g) = rank [g Z_r(t) | ∂^M_{r+1}] - rank ∂^M_{r+1}.
        ranks = {}
        for r in range(t.complex.top + 1):
            cycles = kernel_basis(t.complex.bnd(r)).matrix()
            boundaries = m_chains.bnd(r + 1)
            image = (include[r] @ t.inclusion[r] @ cycles).hstack(boundaries)
            ranks[r] = image.rank() - boundaries.rank()
        cone_h = cone.homology_dims()
        for r in range(len(cone_h)):
            hr_t = t_h[r] if r < len(t_h) else 0
            hr_m = m_h[r] if r < len(m_h) else 0
            rk = ranks.get(r, 0)
            rk_prev = ranks.get(r - 1, 0)
            coker = hr_m - rk
            ker_prev = (t_h[r - 1] if r - 1 >= 0 and r - 1 < len(t_h) else 0) - rk_prev
            assert cone_h[r] == coker + ker_prev


def test_cone_of_half_scaled_map_matches_fraction_blocks():
    # Every bundled comparison map has ±1 entries; g/2 is still a chain map,
    # and its cone joins blocks over the denominators 1 and 2.
    D = get_decomposition("x2-cone-torus")
    m_chains = SimplicialChains(D.M)
    for k in (1, 2):
        t = chain_truncate(D.L, k, "lex", SimplicialChains(D.L))
        tc = t.complex
        g = []
        for r in range(D.M.dimension + 1):
            include = RationalMatrix(D.M.n_simplices(r), D.L.n_simplices(r), {
                (D.M.index[s], j): 1 for j, s in enumerate(D.L.simplices(r))})
            t_part = t.inclusion[r] if r <= tc.top else RationalMatrix.zeros(
                D.L.n_simplices(r), 0)
            g.append(include @ t_part)
        half = [m.scaled(Fraction(1, 2)) for m in g]
        cone = mapping_cone(t, half, m_chains)
        for r in range(1, cone.top + 1):
            # [[-∂, 0], [g/2, ∂]] from Fraction entries; Cone_r = t_{r-1} ⊕ M_r.
            shift, width = tc.dim(r - 2), tc.dim(r - 1)
            blocks = [(tc.bnd(r - 1), 0, 0, -1), (m_chains.bnd(r), shift, width, 1)]
            if r - 1 < len(half):
                blocks.append((half[r - 1], shift, 0, 1))
            want = {}
            for block, top, left, sign in blocks:
                for i in range(block.rows):
                    for j, v in enumerate(block.row(i)):
                        if v:
                            want[(top + i, left + j)] = sign * v
            assert cone.bnd(r) == RationalMatrix(cone.dims[r - 1], cone.dims[r], want)
        assert any(cone.bnd(r).den == 2 for r in range(1, cone.top + 1))
        assert cone.homology_dims() == mapping_cone(t, g, m_chains).homology_dims()


def test_chain_truncate_rejects_bad_cutoff():
    L = get_complex("t2-7")
    with pytest.raises(ValueError):
        chain_truncate(L, 0, "lex", SimplicialChains(L))


def _corrupted_complement(kind):
    """complement_basis with its last column swapped for a cycle, dropped, or
    followed by a cycle."""
    def corrupted(cycles, strategy="lex"):
        b = complement_basis(cycles, strategy).matrix()
        head = b.columns_at(range(b.cols - 1))
        cycle = cycles.matrix().columns_at([0])
        b = {"swap": head.hstack(cycle), "drop": head, "append": b.hstack(cycle)}[kind]
        return SubspaceBasis(b, ())
    return corrupted


@pytest.mark.parametrize("kind", ["swap", "drop", "append"])
@pytest.mark.parametrize("name,k", [("t2-7", 1), ("t2-7", 2), ("s1-triangle", 1)])
def test_corrupted_truncation_raises_at_its_degree(monkeypatch, kind, name, k):
    # Swapping or dropping a complement vector loses a boundary of degree
    # k - 1; an extra cycle leaves a class in degree k.
    if kind == "append":
        message = f"truncation leaves H_{k} != 0 on {name}"
    else:
        message = f"truncation changes H_{k - 1} of {name}"
    L = get_complex(name)
    chains = SimplicialChains(L)
    monkeypatch.setattr(cone_module, "complement_basis", _corrupted_complement(kind))
    with pytest.raises(InternalExactnessError) as err:
        chain_truncate(L, k, "lex", chains)
    assert str(err.value) == message


def _comparison_map(D, t):
    g = []
    for r in range(D.M.dimension + 1):
        include = RationalMatrix(D.M.n_simplices(r), D.L.n_simplices(r), {
            (D.M.index[s], j): 1 for j, s in enumerate(D.L.simplices(r))})
        t_part = t.inclusion[r] if r <= t.complex.top else RationalMatrix.zeros(
            D.L.n_simplices(r), 0)
        g.append(include @ t_part)
    return g


def test_cone_rejects_a_map_that_is_not_a_chain_map():
    # Doubling g in one degree breaks ∂g = g∂ there, which the cone's ∂∘∂
    # check reports.
    D = get_decomposition("x2-cone-torus")
    m_chains = SimplicialChains(D.M)
    l_chains = SimplicialChains(D.L)
    doubled = 0
    for k in (1, 2):
        t = chain_truncate(D.L, k, "lex", l_chains)
        g = _comparison_map(D, t)
        for r, g_r in enumerate(g):
            if g_r.is_zero():
                continue
            bad = [m.scaled(2) if s == r else m for s, m in enumerate(g)]
            with pytest.raises(InternalExactnessError) as err:
                mapping_cone(t, bad, m_chains)
            assert err.value.code == "INTERNAL_EXACTNESS"
            doubled += 1
    # g is nonzero in degrees 0-1 at k = 1 and in degrees 0-2 at k = 2.
    assert doubled == 5


def test_cone_rejects_a_map_zeroed_in_one_degree():
    # Zeroing g_r leaves ∂ g_r zero, which the square reads with no product,
    # while g_{r-1} ∂ does not vanish where t's r-cells have boundaries.
    D = get_decomposition("x2-cone-torus")
    m_chains = SimplicialChains(D.M)
    l_chains = SimplicialChains(D.L)
    zeroed = 0
    for k in (1, 2):
        t = chain_truncate(D.L, k, "lex", l_chains)
        g = _comparison_map(D, t)
        for r in range(1, max(t.complex.top + 1, m_chains.top)):
            if (g[r - 1] @ t.complex.bnd(r)).is_zero():
                continue
            bad = [RationalMatrix.zeros(m.rows, m.cols) if s == r else m for s, m in enumerate(g)]
            with pytest.raises(InternalExactnessError):
                mapping_cone(t, bad, m_chains)
            zeroed += 1
    assert zeroed == 3


def _forbidden(*args, **kwargs):
    raise AssertionError("the cone oracle ran an elimination beyond the forward pass")


def test_cone_runs_no_rref_and_no_solver(monkeypatch):
    monkeypatch.setattr(rational, "rref", _forbidden)
    monkeypatch.setattr(rational, "Solver", _forbidden)
    for name in examples.decomposition_names():
        ws = workspace(name)
        D, m_chains, l_chains = ws.decomposition(), ws.chains("M"), ws.chains("L")
        for k in range(1, D.n):
            for strategy in ("lex", "reverse-lex"):
                intersection_space_cone(D, k, strategy, m_chains, l_chains)


@pytest.mark.parametrize("strategy", ["lex", "reverse-lex"])
@pytest.mark.parametrize("name", examples.decomposition_names())
def test_cones_build_no_boundary_of_m_and_no_pass_of_l(name, strategy):
    # The chain-map certificates read ∂_M's columns at the simplices that g
    # reaches off C*(M)'s coboundary rows, and the truncation's signature
    # reads rank ∂_k off Z_k(L): neither builds ∂_M or runs C_*(L)'s passes.
    ws = workspace(name)
    for k in range(1, ws.decomposition().n):
        ws.cone(k, strategy)
    assert ws.chains("M")._boundary == {}
    assert ws.chains("L")._echelon_cache == {}
