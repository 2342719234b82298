"""Perversities and the intersection-space cochain model.

The model A for a decomposition (M, L) at cutoff k is the preimage subcomplex

    A^r = { w in C^r(M) : restriction of w to L lies in theta(tau_{>=k}^r) },

which realizes the reduced fiber product of C*(M) and the standard
cotruncation over C*(L) (legitimate because theta is injective).  Four
structure maps come with it:

    iota : A -> C*(M)            (inclusion)
    rho  : A -> tau_{>=k}C*(L)   (corestricted restriction)
    eta  : C*(M, L) -> A         (relative cochains land in the model)
    kappa: C*(M) -> C*(L)/theta(tau_{>=k})   (kappa = pi_{>=k} ∘ i*)

and two short exact sequences

    0 -> C*(M,L) --eta--> A --rho--> tau_{>=k} -> 0
    0 -> A --iota--> C*(M) --kappa--> C*(L)/theta(tau_{>=k}) -> 0

exact by construction, as A is a reduced fiber product.  A perversity p
enters only through its cutoff k = n - 1 - p(n), so the model is a function
of k and the complement strategy alone: perversities with equal cutoffs
share it.  Both complement strategies pick unit cochains, so A^r is spanned
by unit cochains: those of the simplices outside L and the cotruncation's
columns placed on L.  The model basis is read off them with no
elimination, and each exactness statement follows from certificates checked
where the maps are made (see ``build_model``), with no rank behind them.  A
failed certificate is an engine bug and raises InternalExactnessError.
Outside degree k the model's differentials, passes and cohomology classes
are those of C*(M, L) and C*(M), which it shares (see ``_PairPasses``), and
so are its structure maps and their one-sided inverses (see
``build_model``), so the induced and connecting maps read off them are kept
once per run.
"""

from __future__ import annotations

from .cochains import PairComplexes, ShortExactSequence, induced_map, subcomplex
from .errors import BadPerversityError, InternalExactnessError
from .rational import Echelon, RationalMatrix, SubspaceBasis
from .simplicial import PseudomanifoldDecomposition

NAMED_PERVERSITIES = ("zero", "top", "lower-middle", "upper-middle")


class Perversity:
    """Goresky-MacPherson perversity on codimensions 2..n."""

    __slots__ = ("values",)

    def __init__(self, values: dict):
        self.values = dict(sorted(values.items()))

    def __call__(self, s: int) -> int:
        return self.values[s]

    def __repr__(self):
        vals = ",".join(str(self.values[s]) for s in sorted(self.values))
        return f"Perversity({vals})"


def validate_perversity(values) -> Perversity:
    """Accept a codimension -> value map iff the growth conditions hold."""
    if isinstance(values, (list, tuple)):
        values = {s + 2: v for s, v in enumerate(values)}
    # Keys are ints or strings of decimal digits, as JSON writes int keys;
    # values must be ints.  Bools and other numbers are not coerced, so no
    # map is read as another perversity.
    codims = {}
    for s, v in values.items():
        if type(s) is int:
            c = s
        elif type(s) is str and s.isascii() and s.isdigit():
            c = int(s)
        else:
            raise BadPerversityError(f"perversity codimension is not an int: {s!r}")
        if type(v) is not int:
            raise BadPerversityError(f"perversity value at codimension {s} is not an int: {v!r}")
        if c in codims:
            raise BadPerversityError(f"perversity gives codimension {c} twice")
        codims[c] = v
    values = codims
    if not values:
        raise BadPerversityError("empty perversity")
    top = max(values)
    if sorted(values) != list(range(2, top + 1)):
        raise BadPerversityError("perversity must cover codimensions 2..n contiguously")
    if values[2] != 0:
        raise BadPerversityError(f"perversity must vanish at codimension 2, got {values[2]}")
    for s in range(2, top):
        step = values[s + 1] - values[s]
        if step < 0:
            raise BadPerversityError(f"perversity decreases at codimension {s + 1}")
        if step > 1:
            raise BadPerversityError(f"perversity jumps by {step} at codimension {s + 1}")
    return Perversity(values)


def named_perversity(name: str, n: int) -> Perversity:
    """One of the four standard perversities, on codimensions 2..n."""
    formulas = {
        "zero": lambda s: 0,
        "top": lambda s: s - 2,
        "lower-middle": lambda s: (s - 2) // 2,
        "upper-middle": lambda s: (s - 1) // 2,
    }
    if name not in formulas:
        raise BadPerversityError(f"unknown perversity name {name!r}")
    return Perversity({s: formulas[name](s) for s in range(2, n + 1)})


def complementary(p: Perversity) -> Perversity:
    """q(s) = s - 2 - p(s); complementary to p degreewise."""
    q = validate_perversity({s: s - 2 - v for s, v in p.values.items()})
    return q


def cutoff_degree(p: Perversity, n: int) -> int:
    """k(p) = n - 1 - p(n), always positive by the growth conditions."""
    if n not in p.values:
        raise BadPerversityError(f"perversity not defined at codimension {n}")
    k = n - 1 - p.values[n]
    if k <= 0:
        raise BadPerversityError(f"cutoff degree {k} is not positive")
    return k


class IntersectionModel:
    """The model complex with its structure maps and both sequences."""

    __slots__ = ("decomposition", "k", "strategy", "pair", "cotruncation",
                 "complex", "iota", "rho", "eta", "kappa", "quotient", "section",
                 "ses_eta_rho", "ses_iota_kappa")

    def __init__(self, decomposition, k, strategy, pair, cotruncation, complex_,
                 iota, rho, eta, kappa, quotient, section, ses_eta_rho, ses_iota_kappa):
        self.decomposition = decomposition
        self.k = k
        self.strategy = strategy
        self.pair = pair
        self.cotruncation = cotruncation
        self.complex = complex_
        self.iota = iota
        self.rho = rho
        self.eta = eta
        self.kappa = kappa
        self.quotient = quotient
        self.section = section
        self.ses_eta_rho = ses_eta_rho
        self.ses_iota_kappa = ses_iota_kappa

    def betti(self):
        return self.complex.betti()

    def __repr__(self):
        return f"IntersectionModel({self.decomposition.name!r}, k={self.k}, {self.strategy})"


def cutoff_pass(pair: PairComplexes, k: int, theta: RationalMatrix) -> Echelon:
    """The forward pass on d^k of the model at cutoff k, the one degree whose
    differential depends on the complement D, read off D's unit columns
    ``theta`` in C^k(L) alone.

    A^k is spanned by the unit cochains at ``_basis_rows``, so d^k is the
    columns of d_M^k at those rows.  The pass is led by the highest column,
    as ``CochainComplex.echelon`` leads, and clears the columns at the pivot
    rows of the relative pass on d^{k-1}, re-indexed into A^k: those are the
    pivot rows of d_A^{k-1}, which is d_rel^{k-1} with zero rows at D's
    places (see ``_PairPasses``).  ``cols`` is dim A^k and ``rank`` is
    rank d_A^k.
    """
    relative, rows = _basis_rows(pair, theta, k)
    position = {row: i for i, row in enumerate(rows)}
    cleared = frozenset(position[relative[i]] for i in pair.rel.echelon(k - 1).pivot_rows)
    return Echelon(pair.full.diff(k).columns_at(rows), max, cleared=cleared)


class _PairPasses:
    """The differentials, passes and cohomology classes that a model at
    cutoff k reads off its pair C*(M, L) -> C*(M), and its cutoff pass.

    Why they are the model's own:
    - Bases.  The cotruncation is zero below k, so for r <= k - 1 A^r has the
      unit basis of C^r(M, L), in the same order.  It is all of C^r(L) above
      k, and C^n(L) = 0, so for r >= k + 1 A^r has the unit basis of C^r(M).
    - Differentials.  Read in those bases, d_A^r is d_rel^r for r <= k - 2
      and d_M^r for r >= k + 1.  d_A^{k-1} is d_rel^{k-1} with zero rows at
      the placed rows of A^k, because the coboundary of a relative cochain
      is relative.  d_A^k has the image of d_M^k: for x in C^k(M), split
      i*x = d_L y + z with z in D, and extend y by zero to y' in C^{k-1}(M);
      then x - d y' restricts to z, so it lies in A^k, and d x = d(x - d y').
      ``differential`` hands ``subcomplex`` the pair's own d^r objects in
      the degrees where they are the model's: for r <= k - 2 the model's
      bases are C*(M, L)'s objects, so its read there would be C*(M, L)'s
      own read, already checked, and from k + 1 on both bases are whole.
    - Passes.  The pass on d^r reads d^r and the clearing set, the pivot
      rows of the pass on d^{r-1}.  ``pivot_rows`` are the row-rank profile,
      the rows independent of the rows before them, which depends on the
      column space of d^{r-1} alone and not on its clearing; ``pivots`` and
      ``rank`` do not depend on the clearing either.
      * r <= k - 2: d^r agrees, and so does the clearing set, by induction
        from the empty set at r = 0.  So the pass is the relative one.
      * r = k - 1: the same nonzero rows enter in the same order, and the
        zero rows enter nothing and are never pivot rows.  So the pass is the
        relative one, with its pivot rows renamed into A^k's positions: the
        cutoff pass's cleared columns.
      * r = k: the cutoff pass, which is this pass by definition.
      * r >= k + 1: d^r is d_M^r, and the clearing set is the row-rank
        profile of im d^{r-1}, which is im d_M^{r-1} at r = k + 1 too.  So
        the pass is C*(M)'s.
    - Classes.  The representatives in degree r are the cocycles that vanish
      at the pivot rows of im d^{r-1}, with unit class coordinates at the
      kernel's lead positions, and a class's coordinates are its cocycle's
      normal form modulo im d^{r-1}.  So they depend on ker d^r and
      im d^{r-1} alone.  For r <= k - 1 those are C*(M, L)'s, as the zero
      rows of d_A^{k-1} do not change its kernel.  For r >= k + 1 they are
      C*(M)'s.  Only degree k computes its own.
    """

    __slots__ = ("pair", "k", "cutoff")

    def __init__(self, pair: PairComplexes, k: int, cutoff: Echelon):
        self.pair = pair
        self.k = k
        self.cutoff = cutoff

    def differential(self, r: int):
        if r <= self.k - 2:
            return self.pair.rel.d[r]
        if r >= self.k + 1:
            return self.pair.full.d[r]
        return None

    def echelon(self, r: int):
        k = self.k
        if r <= k - 2:
            return self.pair.rel.echelon(r)
        if r == k - 1:
            return self.pair.rel.echelon(r).with_pivot_rows(sorted(self.cutoff.cleared))
        if r == k:
            return self.cutoff
        return self.pair.full.echelon(r)

    def cohomology(self, r: int):
        if r == self.k:
            return None
        return (self.pair.rel if r < self.k else self.pair.full).cohomology(r)


def build_model(D: PseudomanifoldDecomposition, k: int, strategy: str, pair: PairComplexes,
                cotruncation, quotient, cutoff: Echelon) -> IntersectionModel:
    """Construct the intersection model at cutoff k, 1 <= k <= n - 1, verified.

    The basis of A^r is the unit cochains at the rows of the simplices
    outside L and of the cotruncation's columns placed in M, in increasing
    order, which is the reduced column echelon basis of ker kappa^r.  rho is
    read at theta's pivot rows and checked by the fiber square
    theta rho = i* iota, and eta is read at the basis's rows and checked by
    iota eta = j.  So each structure map is a cochain map by construction:
    iota by ``subcomplex``'s reads, kappa = pi i* as a composite of two
    proved maps, and rho and eta by those squares, theta and iota injective.

    Outside the cutoff the model is its pair, and takes the pair's blocks
    (see ``_PairPasses``):
    - r < k.  A^r is C^r(M, L), with the pair's basis object, so iota = j;
      pi is the identity, so kappa = i* and the lift is the extension by
      zero; theta has no columns, so rho and the placed columns are empty,
      and eta, read at the basis's rows, is the identity.
    - r > k.  A^r is all of C^r(M), so iota is the pair's identity; pi has
      no rows, so kappa is empty, and the section no columns, so neither
      has the lift; theta is the identity, so rho = i* and the placed
      columns are the extension by zero; eta = j.
    Every product this skips has an identity or an empty factor, or is one
    the pair makes on the same objects: the fiber square below k is the
    pair's i* j = 0, and the reads of d below k - 1 are C*(M, L)'s.  Only
    degree k, and the read of d at k - 1, read, multiply and check.

    Both sequences are exact by construction, so ``ShortExactSequence``
    checks only their dimension counts.  The rest follows from the fiber
    square (read at theta's pivot rows, it forces theta's columns to be unit
    cochains), the pair's i* i*ᵀ = I and i* j = 0, and the split's
    pi_k @ D == 0:
    - ses_iota_kappa.  iota has unit columns at distinct rows, so iotaᵀ is
      its left inverse.  kappa's right inverse is the extended section:
      pi i* i*ᵀ section = pi section = I.  kappa iota = pi theta rho = 0, as
      theta has no columns below k, pi_k kills D at k and pi has no rows
      above k.
    - ses_eta_rho.  jᵀ iota eta = jᵀ j = I.  rho's right inverse is the
      placed columns in A's coordinates: theta rho right = i* i*ᵀ theta =
      theta.  theta rho eta = i* j = 0.  Both cancel theta, which is injective.

    The model eliminates only at its cutoff: ``cutoff`` is its pass on d^k,
    and every other degree's pass and classes are the pair's (see
    ``_PairPasses``), which Lefschetz reads anyway.

    ``pair`` is C*(M, L) -> C*(M) of D, and ``cotruncation``, ``quotient``
    and ``cutoff`` are its cotruncation, quotient and cutoff pass at the
    model's cutoff and strategy, as ``cotruncate``,
    ``quotient_by_cotruncation`` and ``cutoff_pass`` return them;
    ``workspace.Workspace.model`` wires them.  Only the cotruncation's cutoff
    and strategy are checked against the model's: nothing checks a pi or a
    pass made elsewhere, and outside degree k neither pi, the section nor
    theta is read.  In degree n the link has no cochains, so every map
    there is the empty matrix.
    """
    n = D.n
    if type(k) is not int or not 1 <= k <= n - 1:
        raise ValueError(f"model cutoff must be an int in 1..{n - 1}, got {k!r}")
    ct = cotruncation
    if (ct.k, ct.strategy) != (k, strategy):
        raise ValueError(f"cotruncation at cutoff {ct.k} ({ct.strategy}) given for a "
                         f"model at cutoff {k} ({strategy})")
    quotient, pi, section = quotient

    # A^k is spanned by unit cochains: those of the simplices outside L and
    # the cotruncation's columns placed on L.  Ordered by their pivot rows
    # they are the reduced column echelon basis of ker kappa^k, the basis an
    # elimination of kappa^k would give.
    theta = ct.inclusion[k]
    extend = pair.extend[k]
    _, rows = _basis_rows(pair, theta, k)
    basis = SubspaceBasis(pair.unit_rows(k, rows).transpose(), rows)
    bases = (pair.rel_bases[:k] + (basis,)
             + tuple(pair.full.whole(r) for r in range(k + 1, n + 1)))
    # d is read at k - 1 and k, and checked by multiplying back, so no basis
    # is eliminated again; the same products prove iota a cochain map there.
    complex_, iota = subcomplex(f"model[k={k}]({D.name})", pair.full, bases,
                                shared=_PairPasses(pair, k, cutoff))

    # Square of the reduced fiber product: i* ∘ iota = theta ∘ rho.  The
    # columns of theta are unit cochains at distinct rows, so rho is read at
    # those rows and the product checks the square.
    rho_k = SubspaceBasis(theta, _pivot_rows(theta)).coordinates(pair.restrict[k] @ iota[k])
    if rho_k is None:
        raise InternalExactnessError(f"restriction escapes the cotruncation at degree {k}")
    # iota ∘ eta = j*, checked by coordinates.
    eta_k = basis.coordinates(pair.include_rel[k])
    if eta_k is None:
        raise InternalExactnessError(f"relative cochains escape the model at degree {k}")
    placed_k = extend @ theta

    def by_degree(below, at_k, above):
        return tuple(below(r) for r in range(k)) + (at_k,) + tuple(
            above(r) for r in range(k + 1, n + 1))

    kappa = by_degree(lambda r: pair.restrict[r], pi[k] @ pair.restrict[k],
                      lambda r: RationalMatrix.zeros(0, pair.full.dim(r)))
    rho = by_degree(lambda r: RationalMatrix.zeros(0, pair.rel.dim(r)), rho_k,
                    lambda r: pair.restrict[r])
    eta = by_degree(pair.relative_identity, eta_k, lambda r: pair.include_rel[r])

    # The one-sided inverses the docstring proves: iotaᵀ and jᵀ iota read
    # rows already held, and rho and kappa are split by the placed columns
    # and the extended section.
    ses_eta_rho = ShortExactSequence(
        pair.rel, complex_, ct.complex, eta, rho,
        left=by_degree(pair.relative_identity, pair.project_rel[k] @ iota[k],
                       lambda r: pair.project_rel[r]),
        right=by_degree(lambda r: RationalMatrix.zeros(pair.rel.dim(r), 0),
                        placed_k.rows_at(rows), lambda r: pair.extend[r]))
    ses_iota_kappa = ShortExactSequence(
        complex_, pair.full, quotient, iota, kappa,
        left=by_degree(lambda r: pair.project_rel[r], pair.unit_rows(k, rows), pair.identity),
        right=by_degree(lambda r: pair.extend[r], extend @ section[k],
                        lambda r: RationalMatrix.zeros(pair.full.dim(r), 0)))

    return IntersectionModel(
        decomposition=D, k=k, strategy=strategy, pair=pair,
        cotruncation=ct, complex_=complex_, iota=iota, rho=rho, eta=eta,
        kappa=kappa, quotient=quotient, section=section,
        ses_eta_rho=ses_eta_rho, ses_iota_kappa=ses_iota_kappa)


def _basis_rows(pair: PairComplexes, theta: RationalMatrix, r: int):
    """The rows of C^r(M, L)'s unit basis in C^r(M), and the rows of A^r's:
    those and the rows where theta's columns, unit cochains of the link, are
    placed in M, each read off i* by index with no product; both sorted."""
    relative = list(pair.rel_bases[r].pivot_rows)
    placed = [next(iter(pair.restrict[r].data[i])) for i in _pivot_rows(theta)]
    return relative, sorted(relative + placed)


def _pivot_rows(m: RationalMatrix):
    """The first nonzero row of each column of m, which has no zero column."""
    return [min(column) for column in m.transpose().data]


def _nullity(m: RationalMatrix) -> int:
    return m.cols - m.rank()


def model_les(m: IntersectionModel, which: str):
    """Long exact sequence record for one of the two model sequences.

    Returns a dict with the induced maps, connecting homomorphisms, and a
    per-degree exactness verdict (rank of the incoming map equals the kernel
    dimension of the outgoing one, at all three spots).
    """
    if which == "ses-eta-rho":
        ses = m.ses_eta_rho
        names = ("relative", "model", "cotruncation")
    elif which == "ses-iota-kappa":
        ses = m.ses_iota_kappa
        names = ("model", "exterior", "quotient")
    else:
        raise ValueError(f"unknown sequence {which!r}")
    U, V, W = ses.U, ses.V, ses.W
    top = max(U.top, V.top, W.top)
    maps_uv = {}
    maps_vw = {}
    connecting = {}
    for r in range(top + 1):
        maps_uv[r] = induced_map(ses.alpha, U, V, r)
        maps_vw[r] = induced_map(ses.beta, V, W, r)
        connecting[r] = ses.connecting(r)
    exact = True
    for r in range(top + 1):
        incoming_v = maps_uv[r]
        outgoing_v = maps_vw[r]
        if incoming_v.rank() != _nullity(outgoing_v):
            exact = False
        incoming_w = maps_vw[r]
        if incoming_w.rank() != _nullity(connecting[r]):
            exact = False
        delta_in = connecting[r]
        next_uv = maps_uv.get(r + 1, RationalMatrix.zeros(0, U.cohomology(r + 1).dimension))
        if delta_in.rank() != _nullity(next_uv):
            exact = False
    if not exact:
        raise InternalExactnessError(f"long exact sequence of {which} fails exactness")
    return {
        "which": which,
        "names": names,
        "maps_first_to_middle": maps_uv,
        "maps_middle_to_third": maps_vw,
        "connecting": connecting,
        "exact": True,
    }
