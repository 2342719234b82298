from fractions import Fraction

import pytest

from stratdual import examples
from stratdual.cone import (
    chain_truncate,
    compare,
    intersection_space_cone,
    mapping_cone,
    simplicial_chains,
)
from stratdual.model import build_model, named_perversity
from stratdual.rational import RationalMatrix


def test_chain_homology_of_fixtures():
    assert simplicial_chains(examples.get_complex("s1-triangle")).homology_dims() == (1, 1)
    assert simplicial_chains(examples.get_complex("t2-7")).homology_dims() == (1, 2, 1)
    assert simplicial_chains(examples.get_complex("solid-torus")).homology_dims() == (1, 1, 0, 0)


def test_chain_truncate_circle():
    t = chain_truncate(examples.get_complex("s1-triangle"), 1)
    assert t.complex.homology_dims() == (1, 0)


def test_chain_truncate_torus():
    t = chain_truncate(examples.get_complex("t2-7"), 2)
    assert t.complex.homology_dims() == (1, 2, 0)
    t1 = chain_truncate(examples.get_complex("t2-7"), 1)
    assert t1.complex.homology_dims() == (1, 0, 0)


def test_chain_truncate_above_dimension_keeps_everything():
    L = examples.get_complex("t2-7")
    t = chain_truncate(L, L.dimension + 1)
    assert t.complex.homology_dims() == (1, 2, 1)


def test_chain_truncate_signature_all_cutoffs():
    for name in ("s1-triangle", "s1-square", "t2-7"):
        L = examples.get_complex(name)
        ambient = simplicial_chains(L).homology_dims()
        for k in range(1, L.dimension + 2):
            t = chain_truncate(L, k)
            h = t.complex.homology_dims()
            for r in range(L.dimension + 1):
                assert h[r] == (ambient[r] if r < k else 0)


def test_cone_of_identity_is_acyclic():
    L = examples.get_complex("t2-7")
    chains = simplicial_chains(L)
    t = chain_truncate(L, L.dimension + 1)
    g = [t.inclusion[r] for r in range(L.dimension + 1)]
    cone = mapping_cone(t, g, chains)
    assert all(h == 0 for h in cone.homology_dims())


def test_cone_x2_cutoff_two():
    D = examples.get_decomposition("x2-cone-torus")
    cone = intersection_space_cone(D, 2)
    assert cone.homology_dims() == (0, 0, 1, 0)


def test_cone_x2_cutoff_one():
    D = examples.get_decomposition("x2-cone-torus")
    cone = intersection_space_cone(D, 1)
    assert cone.homology_dims() == (0, 1, 0, 0)


def test_compare_x2_both_perversities():
    D = examples.get_decomposition("x2-cone-torus")
    for pname, expected in (("zero", (0, 0, 1, 0)), ("top", (0, 1, 0, 0))):
        p = named_perversity(pname, 3)
        m = build_model(D, p)
        cone = intersection_space_cone(D, m.k)
        ok, model_b, cone_b = compare(m, cone)
        assert ok
        assert model_b == cone_b == expected


def test_compare_octahedron_and_disk():
    for name in ("octahedron-marked", "disk-cone-s1"):
        D = examples.get_decomposition(name)
        m = build_model(D, named_perversity("zero", 2))
        cone = intersection_space_cone(D, m.k)
        ok, model_b, cone_b = compare(m, cone)
        assert ok


def test_compare_every_example_every_perversity_both_strategies():
    # The repository-level regression wall.
    for name in ("disk-cone-s1", "octahedron-marked", "x2-cone-torus"):
        D = examples.get_decomposition(name)
        perversities = {named_perversity(nm, D.n) for nm in
                        ("zero", "top", "lower-middle", "upper-middle")}
        for p in perversities:
            for strategy in ("lex", "reverse-lex"):
                m = build_model(D, p, strategy)
                cone = intersection_space_cone(D, m.k, strategy)
                ok, model_b, cone_b = compare(m, cone)
                assert ok, (name, p, strategy, model_b, cone_b)


def test_cone_les_rank_identities():
    # Exactness of the cone LES: dim H_r(cone) = dim coker(H_r g) + dim ker(H_{r-1} g).
    D = examples.get_decomposition("x2-cone-torus")
    for k in (1, 2):
        t = chain_truncate(D.L, k)
        m_chains = simplicial_chains(D.M)
        cone = intersection_space_cone(D, k)
        t_h = t.complex.homology_dims()
        m_h = m_chains.homology_dims()
        # Induced map on homology via representatives.
        include = []
        for r in range(D.M.dimension + 1):
            entries = {}
            for j, s in enumerate(D.L.simplices(r)):
                entries[(D.M.index[s], j)] = 1
            include.append(RationalMatrix(D.M.n_simplices(r), D.L.n_simplices(r), entries))
        ranks = {}
        for r in range(t.complex.top + 1):
            reps = t.complex.homology_basis(r)
            ranks[r] = m_chains.express_class(include[r] @ t.inclusion[r] @ reps, r).rank()
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
    D = examples.get_decomposition("x2-cone-torus")
    m_chains = simplicial_chains(D.M)
    for k in (1, 2):
        t = chain_truncate(D.L, k)
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
        dims = cone.complex.dims
        for r in range(1, cone.complex.top + 1):
            # [[-∂, 0], [g/2, ∂]] from Fraction entries.
            shift, width = cone.t_dims[r - 1], cone.t_dims[r]
            blocks = [(tc.bnd(r - 1), 0, 0, -1), (m_chains.bnd(r), shift, width, 1)]
            if r - 1 < len(half):
                blocks.append((half[r - 1], shift, 0, 1))
            want = {}
            for block, top, left, sign in blocks:
                for i, row in enumerate(block.dense()):
                    for j, v in enumerate(row):
                        if v:
                            want[(top + i, left + j)] = sign * v
            assert cone.complex.bnd(r) == RationalMatrix(dims[r - 1], dims[r], want)
        assert any(cone.complex.bnd(r).den == 2 for r in range(1, cone.complex.top + 1))
        assert cone.homology_dims() == mapping_cone(t, g, m_chains).homology_dims()


def test_chain_truncate_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        chain_truncate(examples.get_complex("t2-7"), 0)
