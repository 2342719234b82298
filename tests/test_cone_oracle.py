from fractions import Fraction

import pytest

from stratdual import cone as cone_module
from stratdual import examples, rational
from stratdual.cone import (
    chain_truncate,
    compare,
    intersection_space_cone,
    mapping_cone,
    simplicial_chains,
)
from stratdual.errors import InternalExactnessError
from stratdual.model import build_model, named_perversity
from stratdual.rational import RationalMatrix, SubspaceBasis, complement_basis, kernel_basis


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
    monkeypatch.setattr(cone_module, "complement_basis", _corrupted_complement(kind))
    with pytest.raises(InternalExactnessError) as err:
        chain_truncate(examples.get_complex(name), k)
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
    D = examples.get_decomposition("x2-cone-torus")
    m_chains = simplicial_chains(D.M)
    doubled = 0
    for k in (1, 2):
        t = chain_truncate(D.L, k)
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


def _forbidden(*args, **kwargs):
    raise AssertionError("the cone oracle ran an elimination beyond the forward pass")


def test_cone_runs_no_rref_and_no_solver(monkeypatch):
    monkeypatch.setattr(rational, "rref", _forbidden)
    monkeypatch.setattr(rational, "Solver", _forbidden)
    for name in examples.decomposition_names():
        D = examples.get_decomposition(name)
        for k in range(1, D.n):
            for strategy in ("lex", "reverse-lex"):
                intersection_space_cone(D, k, strategy)
