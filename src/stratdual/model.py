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
are those of C*(M, L) and C*(M), which it shares, and so are its structure
maps and their one-sided inverses (see ``build_model``), so the induced
maps read off them are kept once per run.
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
    places (see ``build_model``).  ``cols`` is dim A^k and ``rank`` is
    rank d_A^k.

    It enters only the rows at the pivot rows of C*(M)'s pass on d_M^k.
    im d_A^k = im d_M^k (see ``build_model``), and the pivot rows of a pass,
    with or without cleared columns, are the row-rank profile of its
    matrix's image, so d_A^k and d_M^k have the same ones.  Every other row
    of d_A^k lies in the span of the rows before it, so it would reduce to
    zero and become no pivot: leaving it out keeps the pivots, the rank,
    the pivot rows and their entries of the pass over all rows.
    """
    rows, relative = _basis_rows(pair, theta, k)
    cleared = frozenset(relative[i] for i in pair.rel.echelon(k - 1).pivot_rows)
    return Echelon(pair.full.diff(k).columns_at(rows), max,
                   order=pair.full.echelon(k).pivot_rows, cleared=cleared)


def build_model(D: PseudomanifoldDecomposition, k: int, strategy: str, pair: PairComplexes,
                cotruncation, quotient, cutoff: Echelon) -> IntersectionModel:
    """Construct the intersection model at cutoff k, 1 <= k <= n - 1, verified.

    The basis of A^r is the unit cochains at the rows of the simplices
    outside L and of the cotruncation's columns placed in M, in increasing
    order, which is the reduced column echelon basis of ker kappa^r.  rho is
    read at theta's pivot rows and checked by the fiber square
    theta rho = i* iota, and eta is read at the basis's rows and checked by
    iota eta = j.  So each structure map is a cochain map by construction:
    iota by ``subcomplex``'s table, kappa = pi i* as a composite of two
    proved maps, and rho and eta by those squares, theta and iota injective.

    Outside the cutoff the model is its pair.  The cotruncation is zero
    below k, so A^r is C^r(M, L), with the pair's basis object; it is all
    of C^r(L) above k, and C^n(L) = 0, so A^r is all of C^r(M).  Hence:
    - The table of ``subcomplex`` takes C*(M, L)'s d^r, pass and classes for
      r <= k - 2 and C*(M)'s for r >= k + 1.  d_A^{k-1} is d_rel^{k-1} with
      its rows at A^k's positions of the relative rows and zero rows at the
      placed rows, with no product: the coboundary of a relative cochain is
      relative, so iota^k d_A^{k-1} = j d_rel^{k-1} = d_M^{k-1} iota^{k-1},
      by C*(M, L)'s own read.  So at k - 1 it takes C*(M, L)'s pass, its
      pivot rows renamed into A^k's positions (the cutoff pass's cleared
      columns), and classes.  At k + 1, d_A^k has the image of
      d_M^k: for x in C^k(M), split i*x = d_L y + z with z in D, and extend
      y by zero to y' in C^{k-1}(M); then x - d y' restricts to z, so it
      lies in A^k, and d x = d(x - d y').  The pass at k is ``cutoff``, so
      the model eliminates only at its cutoff, and every other degree's
      pass and classes are the pair's, which Lefschetz reads anyway.
    - One of the two sequences is the pair's, (j, i*) with the inverses
      (jᵀ, i*ᵀ), and the other is the identity sequence of A^r: below k,
      eta is the identity and ses_iota_kappa the pair's (pi is the identity,
      so kappa = i*, and theta has no columns, so rho is empty); above k,
      iota is the identity and ses_eta_rho the pair's (pi has no rows, so
      kappa is empty, and theta is the identity, so rho = i*).  An identity
      sequence is exact, and ``PairComplexes`` proves the pair's.
    Every product this skips has an identity or an empty factor, or is one
    the pair makes on the same objects.  Only degree k reads, multiplies
    and checks.

    Both sequences are exact by construction, so ``ShortExactSequence``
    checks only their dimension counts.  At k the rest follows from the
    fiber square (read at theta's pivot rows, it forces theta's columns to
    be unit cochains), the pair's i* i*ᵀ = I and i* j = 0, and the split's
    pi_k @ D == 0:
    - ses_iota_kappa.  iota has unit columns at distinct rows, so iotaᵀ is
      its left inverse.  kappa's right inverse is the extended section:
      pi i* i*ᵀ section = pi section = I.  kappa iota = pi theta rho = 0, as
      pi_k kills D.
    - ses_eta_rho.  jᵀ iota eta = jᵀ j = I.  rho's right inverse is the
      placed columns in A's coordinates: theta rho right = i* i*ᵀ theta =
      theta.  theta rho eta = i* j = 0.  Both cancel theta, which is injective.

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
    rows, relative = _basis_rows(pair, theta, k)
    units = pair.full.identity(k).rows_at(rows)
    basis = SubspaceBasis(units.transpose(), rows)
    bases = (pair.rel_bases[:k] + (basis,)
             + tuple(pair.full.whole(r) for r in range(k + 1, n + 1)))
    shared = {r: (pair.rel, None) if r < k - 1 else (pair.rel, relative) if r == k - 1
              else cutoff if r == k else (pair.full, None) for r in range(-1, n + 2)}
    # d is read at k alone, and checked by multiplying back, so no basis is
    # eliminated again; the same product proves iota a cochain map there.
    complex_, inclusion = subcomplex(f"model[k={k}]({D.name})", pair.full, bases, shared)
    iota_k = inclusion[k]

    # Square of the reduced fiber product: i* ∘ iota = theta ∘ rho.  The
    # columns of theta are unit cochains at distinct rows, so rho is read at
    # those rows and the product checks the square.
    rho_k = SubspaceBasis(theta, _pivot_rows(theta)).coordinates(pair.restrict[k] @ iota_k)
    if rho_k is None:
        raise InternalExactnessError(f"restriction escapes the cotruncation at degree {k}")
    # iota ∘ eta = j*, checked by coordinates.
    eta_k = basis.coordinates(pair.include_rel[k])
    if eta_k is None:
        raise InternalExactnessError(f"relative cochains escape the model at degree {k}")

    # Per degree, (alpha, beta, left, right) of ses_eta_rho and of
    # ses_iota_kappa.  At k the inverses the docstring proves: jᵀ iota and
    # iotaᵀ read rows already held, and rho and kappa are split by the
    # placed columns and the extended section.
    at_k = ((eta_k, rho_k, pair.project_rel[k] @ iota_k, (extend @ theta).rows_at(rows)),
            (iota_k, pi[k] @ pair.restrict[k], units, extend @ section[k]))
    blocks = [at_k if r == k else _outside(pair, r, r < k) for r in range(n + 1)]
    eta, rho, *eta_rho_inverses = zip(*(eta_rho for eta_rho, _ in blocks))
    iota, kappa, *iota_kappa_inverses = zip(*(iota_kappa for _, iota_kappa in blocks))
    ses_eta_rho = ShortExactSequence(pair.rel, complex_, ct.complex, eta, rho,
                                     *eta_rho_inverses)
    ses_iota_kappa = ShortExactSequence(complex_, pair.full, quotient, iota, kappa,
                                        *iota_kappa_inverses)

    return IntersectionModel(
        decomposition=D, k=k, strategy=strategy, pair=pair,
        cotruncation=ct, complex_=complex_, iota=iota, rho=rho, eta=eta,
        kappa=kappa, quotient=quotient, section=section,
        ses_eta_rho=ses_eta_rho, ses_iota_kappa=ses_iota_kappa)


def _outside(pair: PairComplexes, r: int, below: bool):
    """(alpha, beta, left, right) of ses_eta_rho and of ses_iota_kappa in a
    degree r outside the cutoff: the pair's sequence and the identity
    sequence of A^r, which is C^r(M, L) below the cutoff and C^r(M) above."""
    A = pair.rel if below else pair.full
    identity = A.identity(r)
    ones = (identity, RationalMatrix.zeros(0, A.dim(r)), identity,
            RationalMatrix.zeros(A.dim(r), 0))
    pairs = (pair.include_rel[r], pair.restrict[r], pair.project_rel[r], pair.extend[r])
    return (ones, pairs) if below else (pairs, ones)


def _basis_rows(pair: PairComplexes, theta: RationalMatrix, r: int):
    """The rows of A^r's unit basis in C^r(M), sorted: the rows of
    C^r(M, L)'s and the rows where theta's columns, unit cochains of the
    link, are placed in M, each read off i* by index with no product.  And
    for each row i of C^r(M, L)'s basis, its position among them."""
    relative = pair.rel_bases[r].pivot_rows
    placed = [next(iter(pair.restrict[r].data[i])) for i in _pivot_rows(theta)]
    rows = sorted([*relative, *placed])
    position = {row: i for i, row in enumerate(rows)}
    return rows, {i: position[row] for i, row in enumerate(relative)}


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
