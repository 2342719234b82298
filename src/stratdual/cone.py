"""Independent Betti oracle: chain truncation and the mapping cone.

Works on chain level (degree -1 differentials) over Q and computes ranks
only.  The cone of the composite L_{<k} -> L -> M computes the reduced
homology of the intersection space; over a field those Betti numbers must
equal the model's.  With the cochain model it cross-checks it shares the
matrix layer alone: ``RationalMatrix``, the forward pass ``Echelon``,
``kernel_basis`` and ``complement_basis``.  It uses no ``quotient_basis``,
no ``Solver`` and no ``rref``, and it multiplies no ∂∘∂: ``mapping_cone``
proves the comparison map a chain map, which is all the cone's ∂∘∂ adds to
the ∂∘∂ of its two ends.

The cones of one run share what they read of M and L: C_*(M)'s pass in
each degree, which every cone's pass extends by the truncation's rows alone
(see ``MappingCone``), the cycles Z_k(L) of each cutoff, which both
strategies' truncations complement, and the decomposition's inclusion
L -> M.  A cone keeps its blocks and stacks ∂_r only when ``bnd`` is
asked.  The passes of C_*(M) and C_*(L) read the coboundary rows that
C*(M) and C*(L) hold (see ``SimplicialChains``).
"""

from __future__ import annotations

from itertools import chain
from math import lcm

from .errors import InternalExactnessError
from .rational import Echelon, RationalMatrix, SubspaceBasis, complement_basis, kernel_basis
from .simplicial import PseudomanifoldDecomposition, SimplicialComplex


class ChainComplex:
    """Rational chain complex in degrees 0..top; ``bnd(r)``: C_r -> C_{r-1}.

    Only shapes are checked here: ∂∘∂ = 0 is proved where the boundary is
    made, and the oracle's complexes multiply none.  Readers take ∂_r from
    ``bnd(r)``, and ``boundary`` lists them all: a ``MappingCone`` stacks
    ∂_r from its blocks only when asked, and a complex made without
    ``boundary`` (``SimplicialChains``) builds ∂_r on its first read.
    """

    __slots__ = ("name", "dims", "_boundary", "_echelon_cache", "_cycles_cache", "_units")

    def __init__(self, name, dims, boundary=None):
        self.name = name
        self.dims = tuple(dims)
        self._boundary = {}
        self._echelon_cache = {}
        self._cycles_cache = {}
        self._units = {}
        if boundary is None:
            return
        if len(boundary) != len(self.dims):
            raise ValueError("need one boundary per degree (degree 0 maps to 0)")
        for r, mat in enumerate(boundary):
            if (mat.rows, mat.cols) != (self.dim(r - 1), self.dims[r]):
                raise ValueError(f"{name}: boundary[{r}] has shape {mat.rows}x{mat.cols}, "
                                 f"expected {self.dim(r - 1)}x{self.dims[r]}")
            self._boundary[r] = mat

    @property
    def top(self):
        return len(self.dims) - 1

    def dim(self, r):
        return self.dims[r] if 0 <= r <= self.top else 0

    @property
    def boundary(self):
        """∂_r for r = 0..top, each as ``bnd(r)`` returns it."""
        return tuple(self.bnd(r) for r in range(self.top + 1))

    def bnd(self, r):
        """Boundary out of degree r (zero matrix at the edges)."""
        if not 1 <= r <= self.top:
            return RationalMatrix.zeros(self.dim(r - 1), self.dim(r))
        if r not in self._boundary:
            self._boundary[r] = self._build_boundary(r)
        return self._boundary[r]

    def _build_boundary(self, r):
        raise ValueError(f"{self.name}: no boundary in degree {r}")

    def _pass_rows(self, r) -> RationalMatrix:
        """The matrix whose rows the pass in degree r enters, one per r-cell:
        the transpose of ∂_r, or any rescaling of its rows by ±1."""
        return self.bnd(r).transpose()

    def echelon(self, r) -> Echelon:
        """The forward pass on the transpose of ∂_r, last r-cell first, with
        the twist; built once per degree, after the pass on ∂_{r+1}.

        Its rank is rank ∂_r and its pivots are the pivot rows of the
        boundaries im ∂_r in degree r - 1.  The r-cells that are not pivot
        rows are the lead positions of the cycles.  The r-cells at the
        pivots of the pass on ∂_{r+1} are left out: for such an i some
        boundary b has b_i != 0 and b_j = 0 for j < i, so ∂b = 0 puts ∂ of
        cell i in the span of the later cells' boundaries, and its row would
        reduce to zero.  A row scaled by ±1 changes no pivot, no rank and no
        pivot row, so the rows may come with either sign (see
        ``SimplicialChains``).
        """
        if r not in self._echelon_cache:
            order = self._entering(r, self.dim(r))
            self._echelon_cache[r] = Echelon(self._pass_rows(r), order=order)
        return self._echelon_cache[r]

    def _entering(self, r, cells):
        """The r-cells below ``cells`` that the pass in degree r enters, last
        first: all but those at the pivots of the pass on ∂_{r+1}."""
        skipped = set(self.echelon(r + 1).pivots) if r <= self.top else ()
        return [i for i in range(cells - 1, -1, -1) if i not in skipped]

    def identity(self, r) -> RationalMatrix:
        """The identity of C_r, built once per degree: every truncation of
        this complex includes its degrees below the cutoff by this one."""
        if r not in self._units:
            self._units[r] = RationalMatrix.identity(self.dim(r))
        return self._units[r]

    def cycles(self, r) -> SubspaceBasis:
        """Z_r = ker ∂_r, built once per degree."""
        if r not in self._cycles_cache:
            self._cycles_cache[r] = kernel_basis(self.bnd(r))
        return self._cycles_cache[r]

    def columns(self, r, cells) -> RationalMatrix:
        """The columns of ∂_r at the r-cells ``cells``, in that order."""
        return self.bnd(r).columns_at(cells)

    def commutes(self, r, f, f_below, source_bnd) -> bool:
        """∂_r f == f_below ∂'_r, the square of a map f into this complex at
        degree r, with ∂'_r = ``source_bnd`` the source's boundary.

        ∂_r f reads only the columns of ∂_r at the r-cells where f has a
        nonzero row, times those rows, and is zero with no product where f
        has none.
        """
        right = f_below @ source_bnd
        reached = [i for i, row in enumerate(f.data) if row]
        if reached:
            return self.columns(r, reached) @ f.rows_at(reached) == right
        return right.is_zero()

    def homology_dims(self):
        return tuple(self.dim(r) - self.echelon(r).rank - self.echelon(r + 1).rank
                     for r in range(self.top + 1))


class SimplicialChains(ChainComplex):
    """C_*(K) on K's own incidence matrices.

    The pass in degree r enters the rows of K's coboundary
    d^{r-1} = -(-1)^{r-1} transpose(∂_r), the matrix C*(K) holds, so no
    transpose is built: the sign scales every row alike.  ∂_r itself is
    built by ``SimplicialComplex.boundary_matrix`` on the first ``bnd(r)``,
    which only the truncations and the cycles read, and kept.  The cones' certificates
    read the columns of ∂_r at the cells that g reaches off the same rows
    (``columns``), so a structural run builds no ∂_r of M.  Nothing is
    multiplied: its ∂∘∂ is the transpose of the d∘d of C*(K) that
    ``cochains.simplicial_cochains`` checks.
    """

    __slots__ = ("complex",)

    def __init__(self, K: SimplicialComplex):
        self.complex = K
        super().__init__(f"C_*({K.name})", [K.n_simplices(r) for r in range(K.dimension + 1)])

    def _build_boundary(self, r):
        return self.complex.boundary_matrix(r)

    def _pass_rows(self, r) -> RationalMatrix:
        return self.complex.coboundary_matrix(r - 1)

    def columns(self, r, cells) -> RationalMatrix:
        """The columns of ∂_r at ``cells``: the rows of d^{r-1} = (-1)^r ∂_rᵀ
        there, transposed, with the sign undone."""
        rows = self._pass_rows(r).rows_at(cells)
        return (rows if r % 2 == 0 else -rows).transpose()


class ChainTruncation:
    """t_{<k}: full below k, a complement of the k-cycles in degree k, zero above."""

    __slots__ = ("k", "complex", "inclusion", "ambient")

    def __init__(self, k, complex_, inclusion, ambient):
        self.k = k
        self.complex = complex_
        self.inclusion = inclusion
        self.ambient = ambient


def chain_truncate(L: SimplicialComplex, k: int, strategy: str,
                   chains: ChainComplex) -> ChainTruncation:
    """Moore-style truncation: H_r iso below k, zero at and above k.

    ``chains`` is SimplicialChains(L).  Nothing is multiplied for ∂∘∂:
    below k it is L's, and at k it is ∂_{k-1} ∂_k B = 0.
    """
    if k <= 0:
        raise ValueError("truncation cutoff must be positive")
    C = chains
    dims = []
    boundary = []
    inclusion = []
    for r in range(C.top + 1):
        if r < k:
            dims.append(C.dim(r))
            boundary.append(C.bnd(r))
            inclusion.append(C.identity(r))
        elif r == k:
            B = complement_basis(C.cycles(k), strategy).matrix()
            dims.append(B.cols)
            boundary.append(C.bnd(k) @ B)
            inclusion.append(B)
        else:
            dims.append(0)
            boundary.append(RationalMatrix.zeros(dims[r - 1], 0))
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
    rank ∂_k B = dim B.  rank ∂_k is dim C_k - dim Z_k, read off the cycles
    Z_k(L) that B complements, so no pass of C_*(L) runs for it.
    """
    k = t.k
    if k > t.ambient.top:
        return
    rank = t.complex.bnd(k).rank()
    if rank != t.ambient.dim(k) - t.ambient.cycles(k).count:
        raise InternalExactnessError(f"truncation changes H_{k - 1} of {L.name}")
    if rank != t.complex.dim(k):
        raise InternalExactnessError(f"truncation leaves H_{k} != 0 on {L.name}")


class ConePass:
    """What the readers of a cone's pass take from it, as ``Echelon`` gives
    them: the pivot columns, the pivot rows and the rank.  The pivot rows'
    entries are not kept."""

    __slots__ = ("pivots", "pivot_rows")

    def __init__(self, pivots, pivot_rows):
        self.pivots = tuple(pivots)
        self.pivot_rows = tuple(pivot_rows)

    @property
    def rank(self) -> int:
        return len(self.pivots)


class MappingCone(ChainComplex):
    """Cone of a chain map g[r]: t_r -> target_r, as ``mapping_cone`` makes it.

    Cone_r = t_{r-1} ⊕ target_r, t's cells first, and ∂_r is the block
    matrix [[-∂t, 0], [g, ∂]].  ``bnd`` stacks it anew when asked; no pass
    does.  The pass in degree r is the target's own pass in degree r, read
    in place, extended by the rows of t's cells alone.  Why that is the
    pass ``ChainComplex.echelon`` would run on the stacked ∂_r:
    - Order.  The r-cells enter last first, so the target's rows [0 | ∂^T]
      enter before any t row, and they have entries in the target's columns
      only.  t's columns are keyed below the target's, by a constant shift
      that keeps their order, so ``lead=min`` picks the lead of the block
      layout and the target's pivot rows serve with their own keys.
    - Twist.  The cone leaves out the target cells at the pivots of its
      pass in degree r + 1, which can be more than the target's own twist
      leaves out.  For such a cell i some boundary b of the cone has
      b_i != 0 and b_j = 0 for j < i, and every cell after i is the
      target's, so ∂ of cell i lies in the span of the later target cells'
      boundaries: its row reduces to zero in the target's pass as well.  So
      up to its first t row the cone's pass has the target's pivots, rank
      and pivot rows.
    - Rows.  Each t row, [-∂t^T | g^T], is built for a t cell that enters,
      from the columns of ∂t and g, and meets the target's pivot rows only
      once its t part is gone.
    """

    __slots__ = ("truncation", "g", "target")

    def __init__(self, t: ChainTruncation, g, target: ChainComplex):
        tc = t.complex
        self.name = f"cone({tc.name} -> {target.name})"
        self.dims = tuple(tc.dim(r - 1) + target.dim(r) for r in range(len(g) + 1))
        self.truncation = t
        self.g = tuple(g)
        self.target = target
        self._echelon_cache = {}
        self._cycles_cache = {}

    def bnd(self, r):
        """∂_r, the block matrix [[-∂t, 0], [g, ∂]] (zero at the edges)."""
        if not 1 <= r <= self.top:
            return RationalMatrix.zeros(self.dim(r - 1), self.dim(r))
        tc, target = self.truncation.complex, self.target
        # -∂ on the shifted truncation block, g into the target block and ∂ on it.
        upper = (-tc.bnd(r - 1)).hstack(RationalMatrix.zeros(tc.dim(r - 2), target.dim(r)))
        lower = self.g[r - 1].hstack(target.bnd(r))
        return upper.vstack(lower)

    def echelon(self, r) -> ConePass:
        """The pass on the transpose of ∂_r, with the twist, as the target's
        pass in degree r extended by t's rows; built once per degree."""
        if r not in self._echelon_cache:
            tc = self.truncation.complex
            base = self.target.echelon(r)
            width, shift = tc.dim(r - 1), tc.dim(r - 2)
            order = self._entering(r, width)
            rows = _truncation_rows(tc.bnd(r - 1), self.g[r - 1], order, shift) if order else []
            added = base.extend(rows)
            pivots = sorted(c + shift for c in chain(base.pivots, added))
            pivot_rows = sorted(i for i, row in zip(order, rows) if row)
            pivot_rows += [width + i for i in base.pivot_rows]
            self._echelon_cache[r] = ConePass(pivots, pivot_rows)
        return self._echelon_cache[r]


def _truncation_rows(boundary: RationalMatrix, g: RationalMatrix, order, shift: int) -> list:
    """The rows [-∂^T | g^T] of the truncation cells in ``order``, as integer
    rows over one positive scale: the truncation's columns keyed from
    -``shift``, the target's from 0.  Each is read off the columns of ∂ and
    g, in one scan of each matrix."""
    den = lcm(boundary.den, g.den)
    a, b = den // boundary.den, den // g.den
    rows = {i: {} for i in order}
    for j, entries in enumerate(boundary.data):
        for i, v in entries.items():
            if i in rows:
                rows[i][j - shift] = -a * v
    for j, entries in enumerate(g.data):
        for i, v in entries.items():
            if i in rows:
                rows[i][j] = b * v
    return list(rows.values())


def mapping_cone(t: ChainTruncation, g, target: ChainComplex) -> MappingCone:
    """Cone of the chain map g[r]: t_r -> target_r; Cone_r = t_{r-1} ⊕ target_r
    with differential (x, m) -> (-∂x, g(x) + ∂m).

    ∂∘∂ on the cone is [[∂∂, 0], [∂g - g∂, ∂∂]], so it is zero once g is a
    chain map: the diagonal blocks are ∂∘∂ of t and of the target, the
    transposes of d∘d products already checked, and the lower-left block is
    proved zero here, one identity ∂ g_r == g_{r-1} ∂ per degree below the
    top; t has no cells in the top degree, where it holds trivially.  Each
    identity is decided by ``ChainComplex.commutes``.  A failure names the
    cone and the degree of the cone's ∂∘∂ it breaks.  ``target``'s passes
    are the ones the cone's extend (see ``MappingCone``).
    """
    tc = t.complex
    top = max(tc.top + 1, target.top)
    g = [g[r] if r < len(g) else RationalMatrix.zeros(target.dim(r), tc.dim(r))
         for r in range(top)]
    for r, g_r in enumerate(g):
        if (g_r.rows, g_r.cols) != (target.dim(r), tc.dim(r)):
            raise ValueError(f"g[{r}] has shape {g_r.rows}x{g_r.cols}, "
                             f"expected {target.dim(r)}x{tc.dim(r)}")
    cone = MappingCone(t, g, target)
    for r in range(1, top):
        if not target.commutes(r, g[r], g[r - 1], tc.bnd(r)):
            raise InternalExactnessError(f"{cone.name}: ∂∘∂ != 0 at degree {r + 1}")
    return cone


def intersection_space_cone(D: PseudomanifoldDecomposition, k: int, strategy: str,
                            m_chains: ChainComplex, l_chains: ChainComplex) -> MappingCone:
    """Cone over L_{<k} -> L = ∂M -> M for a decomposition.

    ``m_chains`` and ``l_chains`` are the ``SimplicialChains`` of M and of
    L, as ``workspace.Workspace.cone`` passes them.  The cones over them
    share their passes and cycles, and D's inclusion L -> M.
    """
    t = chain_truncate(D.L, k, strategy, l_chains)
    # g_r is the inclusion after t's, which is the identity below k.
    g = [D.inclusion(r) if r < k else D.inclusion(r) @ t.inclusion[r]
         for r in range(t.complex.top + 1)]
    return mapping_cone(t, g, m_chains)


def compare(model, cone: ChainComplex):
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
