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
"""

from __future__ import annotations

from .cochains import PairComplexes, ShortExactSequence, induced_map, subcomplex
from .cotruncation import cotruncate, quotient_by_cotruncation
from .errors import BadPerversityError, InternalExactnessError
from .rational import RationalMatrix, SubspaceBasis
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


def build_model(D: PseudomanifoldDecomposition, k: int, strategy: str = "lex",
                pair: PairComplexes | None = None, cotruncation=None,
                quotient=None) -> IntersectionModel:
    """Construct the intersection model at cutoff k, 1 <= k <= n - 1, verified.

    The basis of A^r is the unit cochains at the rows of the simplices
    outside L and of the cotruncation's columns placed in M, in increasing
    order, which is the reduced column echelon basis of ker kappa^r.  rho is
    read at theta's pivot rows and checked by the fiber square
    theta rho = i* iota, and eta is read at the basis's rows and checked by
    iota eta = j.  So each structure map is a cochain map by construction:
    iota by ``subcomplex``'s reads, kappa = pi i* as a composite of two
    proved maps, and rho and eta by those squares, theta and iota injective.

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

    ``cotruncation`` and ``quotient`` are those of ``pair.sub`` at the
    model's cutoff and strategy, as ``cotruncate`` and
    ``quotient_by_cotruncation`` return them (built here when not given);
    nothing checks a pi made elsewhere.  In degree n the link has no
    cochains, so every map there is the empty matrix.
    """
    n = D.n
    if type(k) is not int or not 1 <= k <= n - 1:
        raise ValueError(f"model cutoff must be an int in 1..{n - 1}, got {k!r}")
    if pair is None:
        pair = PairComplexes(D.M, D.L)
    if cotruncation is None:
        cotruncation = cotruncate(pair.sub, k, strategy)
    if quotient is None:
        quotient = quotient_by_cotruncation(pair.sub, cotruncation)
    ct = cotruncation
    if (ct.k, ct.strategy) != (k, strategy):
        raise ValueError(f"cotruncation at cutoff {ct.k} ({ct.strategy}) given for a "
                         f"model at cutoff {k} ({strategy})")
    quotient, pi, section = quotient

    # A^r is spanned by unit cochains: those of the simplices outside L and
    # the cotruncation's columns placed on L.  Ordered by their pivot rows
    # they are the reduced column echelon basis of ker kappa^r, so each
    # degree's basis is the one an elimination of kappa^r would give.
    bases = []
    kappa = []
    placed = []
    lifts = []
    for r in range(n + 1):
        kappa_r = pi[r] @ pair.restrict[r]
        extend = pair.restrict[r].transpose()
        placed_r = extend @ ct.inclusion[r]
        lift = (extend @ section[r] if r < len(section)
                else RationalMatrix.zeros(pair.full.dim(r), 0))
        rows = sorted(_pivot_rows(pair.include_rel[r]) + _pivot_rows(placed_r))
        bases.append(SubspaceBasis(pair.unit_rows(r, rows).transpose(), rows))
        kappa.append(kappa_r)
        placed.append(placed_r)
        lifts.append(lift)
    kappa = tuple(kappa)
    # d is read at the bases' pivot rows and checked by multiplying back, so
    # no basis is eliminated again; the same products prove iota a cochain map.
    complex_, iota = subcomplex(f"model[k={k}]({D.name})", pair.full, bases)

    rho = []
    eta = []
    for r in range(n + 1):
        restricted = pair.restrict[r] @ iota[r]
        # Square of the reduced fiber product: i* ∘ iota = theta ∘ rho.  The
        # columns of theta are unit cochains at distinct rows, so rho is read
        # at those rows and the product checks the square.
        theta = ct.inclusion[r]
        rho_r = SubspaceBasis(theta, _pivot_rows(theta)).coordinates(restricted)
        if rho_r is None:
            raise InternalExactnessError(f"restriction escapes the cotruncation at degree {r}")
        rho.append(rho_r)
        # iota ∘ eta = j*, checked by coordinates.
        eta_r = bases[r].coordinates(pair.include_rel[r])
        if eta_r is None:
            raise InternalExactnessError(f"relative cochains escape the model at degree {r}")
        eta.append(eta_r)
    rho, eta = tuple(rho), tuple(eta)

    # The one-sided inverses the docstring proves: iotaᵀ and jᵀ iota read
    # rows already held, and rho and kappa are split by the placed columns
    # and the extended section.
    ses_eta_rho = ShortExactSequence(
        pair.rel, complex_, ct.complex, eta, rho,
        left=[pair.include_rel[r].transpose() @ iota[r] for r in range(n + 1)],
        right=[placed_r.rows_at(basis.pivot_rows) for placed_r, basis in zip(placed, bases)])
    ses_iota_kappa = ShortExactSequence(
        complex_, pair.full, quotient, iota, kappa,
        left=[pair.unit_rows(r, basis.pivot_rows) for r, basis in enumerate(bases)],
        right=lifts)

    return IntersectionModel(
        decomposition=D, k=k, strategy=strategy, pair=pair,
        cotruncation=ct, complex_=complex_, iota=iota, rho=rho, eta=eta,
        kappa=kappa, quotient=quotient, section=section,
        ses_eta_rho=ses_eta_rho, ses_iota_kappa=ses_iota_kappa)


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
