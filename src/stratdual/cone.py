"""Independent Betti oracle: chain truncation and the mapping cone.

Works on chain level (degree -1 differentials) over Q and computes ranks
only.  The cone of the composite L_{<k} -> L -> M computes the reduced
homology of the intersection space; over a field those Betti numbers must
equal the model's.  With the cochain model it cross-checks it shares the
matrix layer alone: ``RationalMatrix``, the forward pass ``Echelon``,
``kernel_basis`` and ``complement_basis``.  It uses no ``quotient_basis``,
no ``Solver`` and no ``rref``.
"""

from __future__ import annotations

from .errors import InternalExactnessError
from .rational import Echelon, RationalMatrix, complement_basis, kernel_basis
from .simplicial import PseudomanifoldDecomposition, SimplicialComplex


class ChainComplex:
    """Rational chain complex in degrees 0..top; boundary[r]: C_r -> C_{r-1}."""

    __slots__ = ("name", "dims", "boundary", "_echelon_cache")

    def __init__(self, name, dims, boundary):
        self.name = name
        self.dims = tuple(dims)
        self.boundary = tuple(boundary)
        self._echelon_cache = {}
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
    """H_r(t) = H_r(L) below k by the inclusion, and H_r(t) = 0 from k on.

    t equals C_*(L) below k and has no cells above k, so only H_{k-1} and
    H_k can differ.  H_{k-1}(t) = Z_{k-1} / im ∂_k B maps onto
    H_{k-1}(L) = Z_{k-1} / im ∂_k, isomorphically exactly when
    rank ∂_k B = rank ∂_k; H_k(t) = ker ∂_k B is zero exactly when
    rank ∂_k B = dim B.
    """
    k = t.k
    if k > t.ambient.top:
        return
    rank = t.complex.bnd(k).rank()
    if rank != t.ambient.echelon(k).rank:
        raise InternalExactnessError(f"truncation changes H_{k - 1} of {L.name}")
    if rank != t.complex.dim(k):
        raise InternalExactnessError(f"truncation leaves H_{k} != 0 on {L.name}")


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

    The lower-left block of ∂∘∂ on the cone is ∂g - g∂, so the ∂∘∂ check of
    ChainComplex proves that g is a chain map below the top degree; t has
    no cells in the top degree, where the condition holds trivially.
    """
    tc = t.complex
    top = max(tc.top + 1, target.top)
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
