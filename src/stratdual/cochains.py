"""Simplicial cochain complexes with cup product.

Conventions, fixed once for the whole engine:

* The coboundary is the dual of the simplicial boundary with the sign rule
  d(phi) = -(-1)^{deg phi} (phi ∘ ∂), i.e. d = -(-1)^r * transpose(∂_{r+1})
  on degree r.
* The cup product of dual-basis cochains is front-face/back-face with the
  Koszul sign: (sigma* ∪ tau*) picks up (-1)^{rs} on the gluable pairs.
  With these two choices the Leibniz rule d(ab) = (da)b + (-1)^{deg a} a(db)
  holds exactly on cochains, and the product is strictly associative.
* ``integrate`` is plain bilinear evaluation of a cochain on a chain, so the
  Stokes identity carries the induced sign:
  integrate(dx, xi) = -(-1)^{deg x} integrate(x, ∂xi).
* Every duality pairing is one intersection form on cochains,
  CupStructure.evaluation_form: (a, b) -> pair_against_chain(n, a ∪ b, chain)
  as a matrix G read off the n-simplices; pairing_matrix returns A^T G B.

Cohomology representatives are canonical, so reports are reproducible bit
for bit: in degree r they are the cocycles that vanish at the pivot rows P of
the coboundaries and whose class coordinates are unit vectors.  One forward
pass per degree on d^r, led by its highest column and cleared of the columns
at P, gives rank d^r (so the Betti numbers), the lead positions of the
cocycles, the pivot rows of im d^r in degree r + 1, and, by back-substitution
on its pivot rows, the cocycles that vanish at P.  A class's coordinates are
its cocycle's normal form modulo the coboundaries, read at the lead
positions.
Representatives are kept as the columns of one sparse matrix per degree;
induced maps and connecting homomorphisms are matrix products on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InternalExactnessError, ParseError
from .rational import (
    ZERO,
    Echelon,
    QuotientBasis,
    RationalMatrix,
    SubspaceBasis,
    complement_basis,
    image_basis,
    quotient_basis,
    vec,
)
from .simplicial import SimplicialComplex


class CochainComplex:
    """Finite rational cochain complex in degrees 0..top.

    d∘d = 0 is checked by one product per degree, unless ``ambient`` is
    given: ``subcomplex`` passes the complex it reads d from, whose d∘d
    proves this one's, and whose identity lends this one its first rows.
    ``shared`` is ``subcomplex``'s table of the degrees whose pass and
    classes other complexes already hold.

    ``maps`` keeps the induced maps read off this complex (see
    ``induced_map``).  A subcomplex shares its ambient's, so every complex
    read off C*(M) in a run, its models and C*(M, L) among them, keeps them
    in one place.
    """

    __slots__ = ("name", "dims", "d", "maps", "_ambient", "_shared", "_cohomology_cache",
                 "_echelon_cache", "_image_cache", "_complement_cache", "_identities",
                 "_wholes")

    def __init__(self, name, dims, d, *, ambient=None, shared=None):
        self.name = name
        self.dims = tuple(dims)
        self.d = tuple(d)
        self.maps = {} if ambient is None else ambient.maps
        self._ambient = ambient
        self._shared = shared or {}
        self._cohomology_cache = {}
        self._echelon_cache = {}
        self._image_cache = {}
        self._complement_cache = {}
        self._identities = {}
        self._wholes = {}
        if len(self.d) != len(self.dims):
            raise ValueError("need one differential per degree (top maps to 0)")
        for r, mat in enumerate(self.d):
            target = self.dims[r + 1] if r + 1 <= self.top else 0
            if (mat.rows, mat.cols) != (target, self.dims[r]):
                raise ValueError(f"{name}: d[{r}] has shape {mat.rows}x{mat.cols}, "
                                 f"expected {target}x{self.dims[r]}")
        if ambient is None:
            for r in range(self.top):
                if not (self.d[r + 1] @ self.d[r]).is_zero():
                    raise InternalExactnessError(f"{name}: d∘d != 0 at degree {r}")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def dim(self, r: int) -> int:
        return self.dims[r] if 0 <= r <= self.top else 0

    def diff(self, r: int) -> RationalMatrix:
        if 0 <= r <= self.top:
            return self.d[r]
        return RationalMatrix.zeros(self.dim(r + 1), self.dim(r))

    def echelon(self, r: int) -> Echelon:
        """The one forward pass on d^r, led by its highest column, with
        clearing; built once per degree, after the pass on d^{r-1}.

        The columns at the pivot rows P of im d^{r-1} are dropped: for i in
        P some coboundary b has b_i != 0 and b_j = 0 for j < i, so d b = 0
        puts column i in the span of the columns above it.  Its rank is
        rank d^r; its non-pivot columns are the lead positions of the
        kernel's reduced echelon basis; its pivot rows are the pivot rows
        of im d^r in degree r + 1; its kernel is ker d^r ∩ {x_P = 0}.  A
        degree in the ``shared`` table takes the pass it names instead.
        """
        if r not in self._echelon_cache:
            entry = self._shared.get(r)
            if entry is None:
                cleared = frozenset(self.echelon(r - 1).pivot_rows) if r > 0 else frozenset()
                entry = Echelon(self.diff(r), max, cleared=cleared)
            elif type(entry) is tuple:
                S, placed = entry
                entry = S.echelon(r) if placed is None else S.echelon(r).with_pivot_rows(
                    [placed[i] for i in S.echelon(r).pivot_rows])
            self._echelon_cache[r] = entry
        return self._echelon_cache[r]

    def image(self, r: int) -> SubspaceBasis:
        """Canonical basis of im d^r, from d^r's columns at ``echelon(r)``'s pivots."""
        if r not in self._image_cache:
            self._image_cache[r] = image_basis(self.diff(r).columns_at(self.echelon(r).pivots))
        return self._image_cache[r]

    def complement(self, r: int, strategy: str) -> SubspaceBasis:
        """The standard-basis complement of im d^{r-1} in C^r that
        ``complement_basis`` picks for the strategy, built once per degree and
        strategy: a cotruncation and a model's cutoff pass read one D, and the
        cotruncation takes the pass that D holds (see ``cotruncate``)."""
        key = (r, strategy)
        if key not in self._complement_cache:
            self._complement_cache[key] = complement_basis(self.image(r - 1), strategy)
        return self._complement_cache[key]

    def identity(self, r: int) -> RationalMatrix:
        """The identity of C^r, built once per degree; a subcomplex's is the
        first rows of its ambient's, so the complexes read off one share it."""
        if r not in self._identities:
            if self._ambient is None:
                self._identities[r] = RationalMatrix.identity(self.dim(r))
            else:
                self._identities[r] = RationalMatrix.from_integer_rows(
                    self.dim(r), self._ambient.identity(r).data[:self.dim(r)])
        return self._identities[r]

    def whole(self, r: int) -> SubspaceBasis:
        """C^r as a basis of itself: the identity, pivoted at every row,
        built once per degree for every truncation and cotruncation."""
        if r not in self._wholes:
            self._wholes[r] = SubspaceBasis(self.identity(r), range(self.dim(r)))
        return self._wholes[r]

    def cohomology(self, r: int) -> QuotientBasis:
        if r not in self._cohomology_cache:
            entry = self._shared.get(r)
            self._cohomology_cache[r] = (entry[0].cohomology(r) if type(entry) is tuple
                                         else _cohomology_basis(self, r))
        return self._cohomology_cache[r]

    def betti_number(self, r: int) -> int:
        """dim H^r = dim C^r - rank d^r - rank d^{r-1}."""
        return self.dim(r) - self.echelon(r).rank - self.echelon(r - 1).rank

    def betti(self):
        return tuple(self.betti_number(r) for r in range(self.top + 1))

    def representative_matrix(self, r: int) -> RationalMatrix:
        """The degree-r cohomology representatives as columns (dim(r) x b_r)."""
        return self.cohomology(r).matrix

    def express_class(self, z: RationalMatrix, r: int) -> RationalMatrix:
        """Coordinates of the cocycle columns of z in the degree-r cohomology
        basis; that z is a cocycle is the caller's to know and is not checked."""
        basis = self.cohomology(r)
        if not z.cols:
            return RationalMatrix.zeros(basis.dimension, 0)
        return basis.coordinates(z)

    def __repr__(self):
        return f"CochainComplex({self.name!r}, dims={self.dims})"


def _cohomology_basis(C: CochainComplex, r: int) -> QuotientBasis:
    """Representatives of ker d^r / im d^{r-1} from the cleared forward pass
    on d^r: the lead positions of the cocycles, and the cocycles that vanish
    at the pivot rows P of the coboundaries."""
    if r < 0 or r > C.top:
        return QuotientBasis(RationalMatrix.zeros(0, 0))
    dim = C.dim(r)
    b = C.betti_number(r)
    if b == 0:
        return QuotientBasis(RationalMatrix.zeros(dim, 0))
    cycles = C.echelon(r)
    pivots = set(cycles.pivots)
    lead = [j for j in range(dim) if j not in pivots]
    basis = quotient_basis(cycles.kernel(), C.diff(r - 1), lead, C.echelon(r - 1).pivots)
    if basis is None or basis.dimension != b:
        raise InternalExactnessError(f"{C.name}: cohomology split fails in degree {r}")
    return basis


class CupStructure:
    """Alexander-Whitney cup product of C*(K), read off the simplices of K.

    The value of a ∪ b on an (r+s)-simplex w is (-1)^{rs} a[front] b[back],
    with front = w[:r+1] and back = w[r:]; the two faces determine w.
    """

    __slots__ = ("K",)

    def __init__(self, K: SimplicialComplex):
        self.K = K

    def _faces(self, r: int, s: int):
        """(front r-face, back s-face) positions of each (r+s)-simplex, in order."""
        index = self.K.index
        return ((index[w[:r + 1]], index[w[r:]]) for w in self.K.simplices(r + s))

    def cup(self, r: int, a, s: int, b):
        """Product of a cochain of degree r with one of degree s."""
        koszul = Fraction(-1) ** (r * s)
        return tuple(koszul * a[i] * b[j] if a[i] and b[j] else ZERO
                     for i, j in self._faces(r, s))

    def products_vanish(self, r: int, left: RationalMatrix, s: int,
                        right: RationalMatrix) -> bool:
        """Whether a ∪ b = 0 for every column a of left (degree r) and b of
        right (degree s): exactly when no (r+s)-simplex has a nonzero row of
        left at its front face and a nonzero row of right at its back face."""
        if left.rows != self.K.n_simplices(r) or right.rows != self.K.n_simplices(s):
            raise ValueError(f"need {self.K.n_simplices(r)} and {self.K.n_simplices(s)} rows, "
                             f"got {left.rows} and {right.rows}")
        fronts = {i for i, row in enumerate(left.data) if row}
        backs = {j for j, row in enumerate(right.data) if row}
        if not fronts or not backs:
            return True
        return not any(i in fronts and j in backs for i, j in self._faces(r, s))

    def evaluation_form(self, n: int, r: int, chain) -> RationalMatrix:
        """Gram matrix of (a, b) -> pair_against_chain(n, a ∪ b, chain).

        Shape dim C^r x dim C^{n-r}; each n-simplex w puts
        (-1)^{n(n+1)/2} (-1)^{r(n-r)} chain[w] at (front, back), written
        straight into the kernel's integer rows: the chain's numerators over
        the lcm of its denominators.  Every duality pairing is a product
        A^T G B of this one form.
        """
        sign = int(koszul_evaluation_sign(n)) * (-1) ** (r * (n - r))
        values = vec(chain)
        den = lcm(*(value.denominator for value in values if value))
        rows = [{} for _ in range(self.K.n_simplices(r))]
        for (i, j), value in zip(self._faces(r, n - r), values, strict=True):
            if value:
                rows[i][j] = sign * value.numerator * (den // value.denominator)
        return RationalMatrix.from_integer_rows(self.K.n_simplices(n - r), rows, den)


def pairing_matrix(form, left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    """left^T G right for the evaluation form G = form().

    ``form`` returns a ``CupStructure.evaluation_form(n, r, chain)``; the
    columns of ``left`` are degree-r cochains and those of ``right``
    degree-(n-r) cochains of the cup's complex.  A side without columns
    gives the zero matrix without building the form or reading the other
    side's shape.
    """
    if left.cols == 0 or right.cols == 0:
        return RationalMatrix.zeros(left.cols, right.cols)
    return left.transpose() @ form() @ right


def mapped_representatives(maps, complex_: "CochainComplex", r: int) -> RationalMatrix:
    """maps[r] applied to the degree-r cohomology representatives, as columns.

    Without classes the result has no columns and maps[r] is not read, so r
    may lie outside the complex and past the end of maps.
    """
    reps = complex_.representative_matrix(r)
    return maps[r] @ reps if reps.cols else reps


def simplicial_cochains(K: SimplicialComplex):
    """Cochain complex plus cup structure of a pure simplicial complex.

    d^r = -(-1)^r transpose(∂_{r+1}) is K's
    ``SimplicialComplex.coboundary_matrix``, written from the face index, row
    j holding the signed r-faces of the (r+1)-simplex j, once per degree and
    complex: the passes of ``cone.SimplicialChains`` read the same rows.
    The complex proves d∘d = 0 on them.
    """
    top = K.dimension
    dims = [K.n_simplices(r) for r in range(top + 1)]
    d = [K.coboundary_matrix(r) for r in range(top + 1)]
    return CochainComplex(f"C*({K.name})", dims, d), CupStructure(K)


def subcomplex(name, C: CochainComplex, bases, shared=None):
    """The subcomplex of C spanned by ``bases``, one SubspaceBasis of C^r per
    degree, with its inclusion theta (the basis matrices) into C.

    The differential is read as d_sub^r = coordinates of d^r theta^r in the
    basis of degree r + 1, the zero basis of Q^0 past the top; the product
    that checks each read is theta^{r+1} d_sub^r == d^r theta^r, which
    proves the inclusion a cochain map.  Two kinds of degree read nothing,
    because that product has an empty or an identity factor there:
    - a degree whose basis has no vectors, where d_sub^r is the empty map;
    - a degree whose basis and the basis above are both the whole space,
      which in reduced column echelon form is the identity, where d_sub^r
      is C's own d^r.
    A nonempty basis under an empty one is still read and checked, since
    there the check is the real statement d^r theta^r = 0.  A degree in
    ``shared`` reads nothing either: its d_sub^r is S's d^r, placed.
    In every degree, then, theta^{r+1} d_sub^r = d^r theta^r, and this
    proves d_sub∘d_sub = 0: theta^{r+2} d_sub^{r+1} d_sub^r
    = d^{r+1} d^r theta^r = 0 by C's d∘d, and theta is injective (the
    identity at its pivot rows), so the complex does not multiply it again.

    ``shared`` is a table, degree -> entry, of the degrees whose pass and
    classes a complex S already holds; a degree it leaves out is the
    complex's own.  An entry is (S, None): d_sub^r, the pass and the classes
    are S's objects; or (S, placed): d_sub^r is S's d^r with its row i at
    row ``placed[i]``, for each i in ``placed``, and zero rows elsewhere,
    the pass is S's with its pivot rows renamed the same way
    (``Echelon.with_pivot_rows``), and the classes are S's; or an Echelon:
    the pass on d_sub^r, run by the table's maker.  The table covers
    degrees -1 and top + 1 too.
    Its maker proves, for an S entry at r, that this d_sub^r satisfies
    theta^{r+1} d_sub^r = d^r theta^r, that ``placed`` keeps the order of
    S's rows, that every row of S it leaves out lies in the span of the
    rows before it, and that d_sub^{r-1} has S's image.  That makes the
    entry right.  The pass on d^r drops the columns at the pivot rows of
    the pass on d^{r-1}, the row-rank profile of im d^{r-1}, which the
    image alone fixes: S's.  It enters the rows in order, and a zero row,
    or a row in the span of the rows before it, enters nothing, so S's
    pivot rows enter in the same order and reduce alike: the pass has S's
    pivot entries, pivots and rank, and S's pivot rows under their new
    names, which keep their order.  The classes are the cocycles that
    vanish at the pivot rows of im d^{r-1}, with unit coordinates at the
    kernel's lead positions, and a class's coordinates are its normal form
    modulo im d^{r-1}: they depend on ker d^r and im d^{r-1} alone, which
    are S's.
    Returns (complex, inclusion).
    """
    if len(bases) != C.top + 1:
        raise ValueError(f"{name}: need one basis per degree 0..{C.top}")
    zero = SubspaceBasis(RationalMatrix.zeros(0, 0), ())
    inclusion = tuple(basis.matrix() for basis in bases)
    d = []
    for r, (basis, theta) in enumerate(zip(bases, inclusion)):
        above = bases[r + 1] if r + 1 < len(bases) else zero
        entry = shared.get(r) if shared else None
        if type(entry) is tuple:
            S, placed = entry
            d.append(S.d[r] if placed is None else _placed_rows(S.d[r], placed, above.count))
        elif not basis.count:
            d.append(RationalMatrix.zeros(above.count, 0))
        elif basis.count == basis.ambient_dim and above.count == above.ambient_dim:
            d.append(C.diff(r))
        else:
            coords = above.coordinates(C.diff(r) @ theta)
            if coords is None:
                raise InternalExactnessError(
                    f"{name}: inclusion fails to commute with d at {r}")
            d.append(coords)
    return (CochainComplex(name, [basis.count for basis in bases], d, ambient=C, shared=shared),
            inclusion)


def _placed_rows(m: RationalMatrix, placed: dict, rows: int) -> RationalMatrix:
    """The ``rows``-row matrix with m's row i at row ``placed[i]``, for each
    i in ``placed``, and zero rows elsewhere, sharing m's rows."""
    data = [{}] * rows
    for i, j in placed.items():
        data[j] = m.data[i]
    return RationalMatrix.from_integer_rows(m.cols, data, m.den)


def restriction_map(K: SimplicialComplex, A: SimplicialComplex):
    """Per-degree matrices C^r(K) -> C^r(A) restricting dual-basis cochains,
    written as integer rows: row i is the unit at the position in K of A's
    r-simplex i."""
    if not K.contains_complex(A):
        raise ParseError(f"{A.name!r} is not a subcomplex of {K.name!r}")
    index = K.index
    return tuple(RationalMatrix.from_integer_rows(
        K.n_simplices(r), [{index[s]: 1} for s in A.simplices(r)])
        for r in range(K.dimension + 1))


class PairComplexes:
    """All cochain data of a pair (K, A): full, sub, relative, and the maps.

    The short exact sequence 0 -> C*(K,A) -> C*(K) -> C*(A) -> 0 is checked
    degreewise at construction time, and the restriction i* is proved a
    cochain map here, by one product per degree below the top.

    It keeps what every model of the pair reads outside its cutoff (see
    ``model.build_model``): the unit bases of C*(K, A) (``rel_bases``),
    whose matrices are j; their transposes jᵀ (``project_rel``), the left
    inverse of j, on the rows of C^r(K)'s one identity; and the extension
    by zero i*ᵀ (``extend``), the right inverse of i* that the surjectivity
    check builds.
    """

    __slots__ = ("K", "A", "full", "cup", "sub", "sub_cup", "rel", "restrict",
                 "include_rel", "rel_bases", "project_rel", "extend")

    def __init__(self, K: SimplicialComplex, A: SimplicialComplex):
        self.K = K
        self.A = A
        self.full, self.cup = simplicial_cochains(K)
        self.sub, self.sub_cup = simplicial_cochains(A)
        self.restrict = restriction_map(K, A)
        # C*(K, A) is spanned by the unit cochains at the simplices outside A.
        project = []
        bases = []
        for r in range(K.dimension + 1):
            kept = [i for i, s in enumerate(K.simplices(r)) if not A.has_simplex(s)]
            project.append(self.full.identity(r).rows_at(kept))
            bases.append(SubspaceBasis(project[r].transpose(), kept))
        self.project_rel = tuple(project)
        self.rel_bases = tuple(bases)
        self.rel, self.include_rel = subcomplex(f"C*({K.name},{A.name})", self.full, bases)
        self.extend = tuple(rest.transpose() for rest in self.restrict)
        for r, rest in enumerate(self.restrict):
            # Extension by zero is a right inverse of a surjective restriction.
            if rest @ self.extend[r] != self.sub.identity(r):
                raise InternalExactnessError(f"restriction not surjective in degree {r}")
            if not (rest @ self.include_rel[r]).is_zero():
                raise InternalExactnessError(f"pair sequence not a complex in degree {r}")
            if self.rel.dim(r) + self.sub.dim(r) != self.full.dim(r):
                raise InternalExactnessError(f"pair sequence not exact in degree {r}")
        for r in range(K.dimension):
            if self.restrict[r + 1] @ self.full.diff(r) != self.sub.diff(r) @ self.restrict[r]:
                raise InternalExactnessError(f"restriction not a cochain map at degree {r}")


def induced_map(f, source: CochainComplex, target: CochainComplex, r: int) -> RationalMatrix:
    """Matrix of H^r(f) in the chosen cohomology bases.

    ``f`` is the per-degree sequence of matrices of a cochain map, proved
    where it is made and not checked here: the inclusions theta, iota and j
    by ``subcomplex``'s table, i* by ``PairComplexes``, pi by the truncation's
    rows and the split's pi_k @ img == I (derived in
    ``quotient_by_cotruncation``, which multiplies nothing), and kappa, rho
    and eta in ``build_model``.

    The matrix is a function of f^r and of the two complexes' classes in
    degree r, so it is kept in ``source.maps``, keyed on those three objects
    and held with them, so that no other object takes their ids.  Outside
    their cutoffs the models of a run share their maps and classes with
    the pair (see ``model.build_model``), so every model and strategy of
    the run reads one matrix there.  A target without classes in degree r
    gets the empty map, kept the same way, with no product: its rows are
    the coordinates in H^r of the target, which has none.
    """
    if r >= len(f):
        fr = RationalMatrix.zeros(target.dim(r), source.dim(r))
        return target.express_class(fr @ source.representative_matrix(r), r)
    fr, classes, image = f[r], source.cohomology(r), target.cohomology(r)
    key = ("induced", id(fr), id(classes), id(image))
    if key not in source.maps:
        if image.dimension:
            value = target.express_class(fr @ classes.matrix, r)
        else:
            value = RationalMatrix.zeros(0, classes.dimension)
        source.maps[key] = (value, fr, classes, image)
    return source.maps[key][0]


class ShortExactSequence:
    """0 -> U -> V -> W -> 0 of cochain complexes, made exact by its maker.

    ``left`` and ``right`` give, per degree 0..top, a left inverse of alpha
    and a right inverse of beta, which ``connecting`` lifts through and pulls
    back through.  That left @ alpha == I, beta @ right == I and
    beta ∘ alpha = 0 is the maker's to prove, from certificates it already
    holds (``build_model`` derives all six statements for the model's two
    sequences), and alpha and beta are cochain maps by construction (see
    ``induced_map``).  The one check here is the dimension count
    dim U + dim W == dim V per degree: with alpha injective, beta surjective
    and beta ∘ alpha = 0 it makes im alpha = ker beta.  A failed count is an
    engine bug and raises.
    """

    __slots__ = ("U", "V", "W", "alpha", "beta", "left", "right")

    def __init__(self, U, V, W, alpha, beta, left, right):
        self.U = U
        self.V = V
        self.W = W
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self.left = tuple(left)
        self.right = tuple(right)
        for r in range(max(U.top, V.top, W.top) + 1):
            if U.dim(r) + W.dim(r) != V.dim(r):
                raise InternalExactnessError(f"SES: exactness fails in degree {r}")

    @staticmethod
    def _mat(f, r, source, target):
        if 0 <= r < len(f):
            return f[r]
        return RationalMatrix.zeros(target.dim(r), source.dim(r))

    def alpha_mat(self, r):
        return self._mat(self.alpha, r, self.U, self.V)

    def connecting(self, r: int) -> RationalMatrix:
        """Connecting homomorphism H^r(W) -> H^{r+1}(U).

        Lift each representative through beta, apply d, pull back through
        alpha; the class of the result is independent of the lift.  The
        certificate ``alpha @ u == dv`` runs before any class of U is read.
        The map is made where it is asked and kept by no one.
        """
        classes = self.W.cohomology(r)
        if not classes.dimension:
            return RationalMatrix.zeros(self.U.cohomology(r + 1).dimension, 0)
        dv = self.V.diff(r) @ (self.right[r] @ classes.matrix)
        # left ∘ alpha = I, so u is the preimage of dv iff dv has one.  Then
        # alpha d u = d d v = 0 with alpha injective, so u is a cocycle.
        u = self._mat(self.left, r + 1, self.V, self.U) @ dv
        if self.alpha_mat(r + 1) @ u != dv:
            raise InternalExactnessError("SES: boundary not in the subcomplex")
        return self.U.express_class(u, r + 1)


def integrate(phi, xi) -> Fraction:
    """Bilinear evaluation of a cochain on a chain of the same degree."""
    if len(phi) != len(xi):
        raise ParseError("integrate: degree mismatch between cochain and chain")
    total = Fraction(0)
    for a, b in zip(phi, xi):
        if a != 0 and b != 0:
            total += a * b
    return total


def koszul_evaluation_sign(r: int) -> Fraction:
    """Sign reconciling the dual-of-boundary coboundary with evaluation.

    Twisting evaluation by (-1)^{r(r+1)/2} turns the signed Stokes identity
    of ``integrate`` into the sign-free one, pair_against_chain(dx, xi) =
    pair_against_chain(x, ∂xi); the duality pairings are built on this so the
    ladder squares commute with the signs the proofs predict.
    """
    return Fraction(-1) ** (r * (r + 1) // 2)


def pair_against_chain(r: int, phi, xi) -> Fraction:
    """Evaluation used by all duality pairings; see koszul_evaluation_sign."""
    return koszul_evaluation_sign(r) * integrate(phi, xi)


def chain_vector(K: SimplicialComplex, r: int, coefficients: dict):
    """Coefficient dict {simplex: value} -> vector in the degree-r basis."""
    out = [Fraction(0)] * K.n_simplices(r)
    for s, c in coefficients.items():
        key = tuple(sorted(s))
        if key not in K.index or len(key) != r + 1:
            raise ParseError(f"chain touches unknown {r}-simplex {s}")
        out[K.index[key]] += Fraction(c)
    return tuple(out)
