"""Independent Betti oracle: chain truncation and the mapping cone.

Works entirely on chain level (degree -1 differentials) over Q, so it shares
no code path with the cochain model it cross-checks.  The cone of the
composite L_{<k} -> L -> M computes the reduced homology of the intersection
space; over a field those Betti numbers must equal the model's.
"""

from __future__ import annotations

from .errors import InternalExactnessError
from .rational import (
    Echelon,
    QuotientBasis,
    RationalMatrix,
    complement_basis,
    kernel_basis,
    quotient_basis,
)
from .simplicial import PseudomanifoldDecomposition, SimplicialComplex


class ChainComplex:
    """Rational chain complex in degrees 0..top; boundary[r]: C_r -> C_{r-1}."""

    __slots__ = ("name", "dims", "boundary", "_echelon_cache", "_homology_cache")

    def __init__(self, name, dims, boundary):
        self.name = name
        self.dims = tuple(dims)
        self.boundary = tuple(boundary)
        self._echelon_cache = {}
        self._homology_cache = {}
        for r in range(1, self.top):
            if not (self.boundary[r] @ self.boundary[r + 1]).is_zero():
                raise InternalExactnessError(f"{name}: ∂∘∂ != 0 at degree {r + 1}")

    @property
    def top(self):
        return len(self.dims) - 1

    def dim(self, r):
        return self.dims[r] if 0 <= r <= self.top else 0

    def bnd(self, r):
        """Boundary out of degree r (zero matrix at the edges)."""
        if 1 <= r <= self.top:
            return self.boundary[r]
        return RationalMatrix.zeros(self.dim(r - 1), self.dim(r))

    def echelon(self, r) -> Echelon:
        """The forward pass on the transpose of ∂_r, last r-cell first, with
        the twist; built once per degree, after the pass on ∂_{r+1}.

        Its rank is rank ∂_r and its pivots are the pivot rows of the
        boundaries im ∂_r in degree r - 1.  The r-cells that are not pivot
        rows are the lead positions of the cycles.  The r-cells at the
        pivots of the pass on ∂_{r+1} are left out: for such an i some
        boundary b has b_i != 0 and b_j = 0 for j < i, so ∂b = 0 puts ∂ of
        cell i in the span of the later cells' boundaries, and its row would
        reduce to zero.
        """
        if r not in self._echelon_cache:
            skipped = set(self.echelon(r + 1).pivots) if r <= self.top else ()
            order = [i for i in range(self.dim(r) - 1, -1, -1) if i not in skipped]
            self._echelon_cache[r] = Echelon(self.bnd(r).transpose(), order=order)
        return self._echelon_cache[r]

    def homology_dims(self):
        return tuple(self.dim(r) - self.echelon(r).rank - self.echelon(r + 1).rank
                     for r in range(self.top + 1))

    def homology(self, r) -> QuotientBasis:
        if r not in self._homology_cache:
            self._homology_cache[r] = _homology(self, r)
        return self._homology_cache[r]

    def homology_basis(self, r) -> RationalMatrix:
        """Canonical cycle representatives of H_r, as columns."""
        return self.homology(r).matrix

    def express_class(self, z: RationalMatrix, r) -> RationalMatrix:
        """Coordinates of the cycle columns of z in the H_r basis."""
        if not (self.bnd(r) @ z).is_zero():
            raise InternalExactnessError(f"{self.name}: vector is not a cycle in degree {r}")
        return self.homology(r).coordinates(z)


def _homology(C: ChainComplex, r) -> QuotientBasis:
    """Representatives of ker ∂_r / im ∂_{r+1}: the lead positions of the
    cycles from the pass on ∂_r, and the cycles that vanish at the pivot
    rows P of the boundaries, by back-substitution on one pass on ∂_r led
    by its highest column with the columns at P cleared."""
    dim = C.dim(r)
    b = dim - C.echelon(r).rank - C.echelon(r + 1).rank
    if b == 0:
        return QuotientBasis(RationalMatrix.zeros(dim, 0))
    independent = set(C.echelon(r).pivot_rows)
    lead = [j for j in range(dim) if j not in independent]
    cycles = Echelon(C.bnd(r), max, cleared=frozenset(C.echelon(r + 1).pivots))
    h = quotient_basis(cycles.kernel(), C.bnd(r + 1), lead, C.echelon(r + 1).pivot_rows)
    if h is None or h.dimension != b:
        raise InternalExactnessError(f"{C.name}: homology split fails in degree {r}")
    return h


def simplicial_chains(K: SimplicialComplex) -> ChainComplex:
    dims = [K.n_simplices(r) for r in range(K.dimension + 1)]
    boundary = [RationalMatrix.zeros(0, dims[0])]
    boundary += [K.boundary_matrix(r) for r in range(1, K.dimension + 1)]
    return ChainComplex(f"C_*({K.name})", dims, boundary)


class ChainTruncation:
    """t_{<k}: full below k, a complement of the k-cycles in degree k, zero above."""

    __slots__ = ("k", "complex", "inclusion", "ambient")

    def __init__(self, k, complex_, inclusion, ambient):
        self.k = k
        self.complex = complex_
        self.inclusion = inclusion
        self.ambient = ambient


def chain_truncate(L: SimplicialComplex, k: int, strategy: str = "lex",
                   chains: ChainComplex | None = None) -> ChainTruncation:
    """Moore-style truncation: H_r iso below k, zero at and above k.

    ``chains`` is simplicial_chains(L), built here when not given.
    """
    if k <= 0:
        raise ValueError("truncation cutoff must be positive")
    C = simplicial_chains(L) if chains is None else chains
    top = C.top
    if k <= top:
        cycles = kernel_basis(C.bnd(k))
        B = complement_basis(cycles, strategy)
    else:
        B = None
    dims = []
    for r in range(top + 1):
        if r < k:
            dims.append(C.dim(r))
        elif r == k:
            dims.append(B.count)
        else:
            dims.append(0)
    boundary = []
    inclusion = []
    for r in range(top + 1):
        if r == 0:
            boundary.append(RationalMatrix.zeros(0, dims[0]))
        elif r < k:
            boundary.append(C.bnd(r))
        elif r == k:
            boundary.append(C.bnd(k) @ B.matrix())
        else:
            boundary.append(RationalMatrix.zeros(dims[r - 1], 0))
    for r in range(top + 1):
        if r < k:
            inclusion.append(RationalMatrix.identity(C.dim(r)))
        elif r == k:
            inclusion.append(B.matrix())
        else:
            inclusion.append(RationalMatrix.zeros(C.dim(r), 0))
    truncated = ChainComplex(f"t_<{k}({L.name})", dims, boundary)
    t = ChainTruncation(k, truncated, tuple(inclusion), C)
    _verify_truncation_signature(t, L)
    return t


def _verify_truncation_signature(t: ChainTruncation, L: SimplicialComplex):
    ambient_h = t.ambient.homology_dims()
    trunc_h = t.complex.homology_dims()
    for r in range(t.complex.top + 1):
        if r < t.k:
            if trunc_h[r] != ambient_h[r]:
                raise InternalExactnessError(
                    f"truncation changes H_{r} of {L.name}")
            # The inclusion must induce an isomorphism, not just equal dims.
            mat = t.ambient.express_class(t.inclusion[r] @ t.complex.homology_basis(r), r)
            if mat.rank() != ambient_h[r]:
                raise InternalExactnessError(
                    f"truncation inclusion not iso on H_{r} of {L.name}")
        else:
            if trunc_h[r] != 0:
                raise InternalExactnessError(
                    f"truncation leaves H_{r} != 0 on {L.name}")


class ConeComplex:
    """Mapping cone of g: t -> C_*(M); Cone_r = t_{r-1} ⊕ C_r(M).

    Differential (x, m) -> (-∂x, g(x) + ∂m).
    """

    __slots__ = ("complex", "t_dims")

    def __init__(self, complex_, t_dims):
        self.complex = complex_
        self.t_dims = t_dims

    def homology_dims(self):
        return self.complex.homology_dims()


def mapping_cone(t: ChainTruncation, g, target: ChainComplex) -> ConeComplex:
    """Cone of the chain map g[r]: t_r -> target_r.

    Verifies that g is a chain map first; the cone differential then squares
    to zero automatically (and is checked again by ChainComplex).
    """
    tc = t.complex
    top = max(tc.top + 1, target.top)
    for r in range(1, top + 1):
        g_lower = g[r - 1] if r - 1 < len(g) else RationalMatrix.zeros(target.dim(r - 1), 0)
        g_here = g[r] if r < len(g) else RationalMatrix.zeros(target.dim(r), tc.dim(r))
        if g_lower @ tc.bnd(r) != target.bnd(r) @ g_here:
            raise InternalExactnessError("cone comparison map is not a chain map")
    t_dims = [tc.dim(r - 1) for r in range(top + 1)]
    m_dims = [target.dim(r) for r in range(top + 1)]
    dims = [t_dims[r] + m_dims[r] for r in range(top + 1)]
    boundary = [RationalMatrix.zeros(0, dims[0])]
    for r in range(1, top + 1):
        # [[-∂, 0], [g, ∂]]: -∂ on the shifted truncation block, g into the
        # target block and ∂ on it.
        g_lower = g[r - 1] if r - 1 < len(g) else RationalMatrix.zeros(m_dims[r - 1], t_dims[r])
        upper = (-tc.bnd(r - 1)).hstack(RationalMatrix.zeros(t_dims[r - 1], m_dims[r]))
        lower = g_lower.hstack(target.bnd(r))
        boundary.append(upper.vstack(lower))
    cone = ChainComplex(f"cone({tc.name} -> {target.name})", dims, boundary)
    return ConeComplex(cone, tuple(t_dims))


def intersection_space_cone(D: PseudomanifoldDecomposition, k: int,
                            strategy: str = "lex", m_chains: ChainComplex | None = None,
                            l_chains: ChainComplex | None = None) -> ConeComplex:
    """Cone over L_{<k} -> L = ∂M -> M for a decomposition.

    ``m_chains`` and ``l_chains`` are simplicial_chains of M and of L, built
    here when not given.
    """
    t = chain_truncate(D.L, k, strategy, l_chains)
    if m_chains is None:
        m_chains = simplicial_chains(D.M)
    include = []
    for r in range(D.M.dimension + 1):
        entries = {}
        for j, s in enumerate(D.L.simplices(r)):
            entries[(D.M.index[s], j)] = 1
        include.append(RationalMatrix(D.M.n_simplices(r), D.L.n_simplices(r), entries))
    g = []
    for r in range(D.M.dimension + 1):
        t_part = t.inclusion[r] if r <= t.complex.top else RationalMatrix.zeros(
            D.L.n_simplices(r), 0)
        g.append(include[r] @ t_part)
    return mapping_cone(t, g, m_chains)


def compare(model, cone: ConeComplex):
    """Model Betti vector against reduced cone homology; the headline check.

    Returns (verdict, model_betti, cone_betti) with vectors padded to a
    common length.
    """
    model_b = list(model.betti())
    cone_b = list(cone.homology_dims())
    length = max(len(model_b), len(cone_b))
    model_b += [0] * (length - len(model_b))
    cone_b += [0] * (length - len(cone_b))
    return model_b == cone_b, tuple(model_b), tuple(cone_b)
