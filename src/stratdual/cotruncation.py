"""Truncation and standard cotruncation of cochain complexes.

For a cutoff k > 0, the truncation keeps degrees below k and the image of
the last differential in degree k; the standard cotruncation keeps a chosen
complement D of that image in degree k and everything above.  D is selected
by a forward pass over the image's basis, led as the strategy says, so two
strategies ('lex' / 'reverse-lex') give two reproducible but genuinely
different choices, which is what makes choice-independence a runnable test.
The projection pi_k onto the image along D is read off that pass's pivot
rows (see ``cotruncate``), so D read alone (as a model's pass on its cutoff
degree reads it) and the cotruncation's pi_k come from at most one pass per
image and strategy, which D holds until a cotruncation takes it.
"""

from __future__ import annotations

from functools import partial

from .cochains import (
    CochainComplex,
    CupStructure,
    mapped_representatives,
    pair_against_chain,
    pairing_matrix,
    subcomplex,
)
from .errors import InternalExactnessError
from .rational import (
    COMPLEMENT_LEAD,
    Echelon,
    RationalMatrix,
    SubspaceBasis,
    vec_is_zero,
)
from .reports import DualityReport, PairingMatrix
from .simplicial import SimplicialComplex, orient_top_chain


class Truncation:
    """tau_{<k}: degrees < k in full, im d^{k-1} in degree k, zero above."""

    __slots__ = ("k", "complex", "inclusion")

    def __init__(self, k, complex_, inclusion):
        self.k = k
        self.complex = complex_
        self.inclusion = inclusion  # per-degree matrices into the ambient complex


class StandardCotruncation:
    """tau_{>=k}^D: zero below k, the complement D in degree k, full above.

    ``projection`` is pi_k, the coordinates along im d^{k-1} of the split
    C^k = im d^{k-1} ⊕ D (None when k is past the top degree).
    """

    __slots__ = ("k", "D", "complex", "inclusion", "strategy", "projection")

    def __init__(self, k, D, complex_, inclusion, strategy, projection=None):
        self.k = k
        self.D = D
        self.complex = complex_
        self.inclusion = inclusion
        self.strategy = strategy
        self.projection = projection


def truncate_below(C: CochainComplex, k: int) -> Truncation:
    """Truncation subcomplex tau_{<k} with its canonical inclusion.

    Its table (see ``cochains.subcomplex``) takes C's d^r, pass and classes
    for r <= k - 2, where its bases and the bases above are C's unit bases,
    so d_sub^r = d^r.  At k - 1, d_sub^{k-1} is d^{k-1} in the basis of its
    image, placed with no product: the image basis is the identity at its
    pivot rows, which are the pivot rows of C's pass on d^{k-1}, and every
    column of d^{k-1} lies in the image, so its coordinates are d^{k-1}'s
    rows at those pivot rows, and img d_sub^{k-1} = d^{k-1}.  That drops
    only rows in the span of the rows before them, and C's pivot rows
    become its rows 0..rank - 1.  So it takes C's pass there, renamed onto
    them, and C's classes, and reads, multiplies and eliminates nothing
    below its cutoff.
    """
    if k <= 0:
        raise ValueError("truncation cutoff must be positive")
    img = C.image(k - 1)
    bases = [C.whole(r) if r < k
             else img if r == k
             else SubspaceBasis(RationalMatrix.zeros(C.dim(r), 0), ())
             for r in range(C.top + 1)]
    placed = {row: i for i, row in enumerate(img.pivot_rows)}
    shared = {r: (C, None) if r < k - 1 else (C, placed) for r in range(-1, k)}
    return Truncation(k, *subcomplex(f"tau_<{k}({C.name})", C, bases, shared))


def cotruncate(C: CochainComplex, k: int, strategy: str = "lex") -> StandardCotruncation:
    """Standard cotruncation tau_{>=k}^D with D chosen by the strategy.

    Its table (see ``cochains.subcomplex``) takes C's d^r, pass and classes
    for r >= k + 1, where its bases are C's unit bases, so d_sub^r = d^r;
    at k + 1, d_sub^k is d^k on D, which has the image of d^k, as
    C^k = D ⊕ im d^{k-1} and d^k kills im d^{k-1}.  Below k its bases are
    empty, and ``subcomplex`` reads nothing.

    pi_k reads each unit cochain's image part at the image basis's pivot
    rows, which are its coordinates in that basis, the identity there.  For
    'lex' the pass that picks D has those rows as its pivots and eliminates
    nothing (see ``rational.complement_basis``), so a unit cochain's image
    part is itself at a pivot row and 0 elsewhere: pi_k is the rows of C's
    identity at those rows.  For 'reverse-lex' it is ``Echelon.projection``
    of the pass that picked D.  That pi_k inverts the image and kills D,
    which fill C^k by count, is the certificate of D ⊕ im(d^{k-1}) = C^k.
    """
    if k <= 0:
        raise ValueError("cotruncation cutoff must be positive")
    projection = None
    if k <= C.top:
        img = C.image(k - 1)
        D = C.complement(k, strategy)
        lead = COMPLEMENT_LEAD[strategy]
        if lead is min:
            projection = C.identity(k).rows_at(img.pivot_rows)
        else:
            # D holds its pass until here, unless an earlier cotruncation took it.
            picked = D.take_pass() or Echelon(img.matrix().transpose(), lead)
            projection = picked.projection(img.pivot_rows)
        if (D.count + img.count != C.dim(k)
                or projection @ img.matrix() != RationalMatrix.identity(img.count)
                or not (projection @ D.matrix()).is_zero()):
            raise InternalExactnessError("complement does not split the cotruncation degree")
    else:
        D = SubspaceBasis(RationalMatrix.zeros(0, 0), ())
    bases = [SubspaceBasis(RationalMatrix.zeros(C.dim(r), 0), ()) if r < k
             else D if r == k
             else C.whole(r)
             for r in range(C.top + 1)]
    shared = {r: (C, None) for r in range(k + 1, C.top + 2)}
    sub, theta = subcomplex(f"tau_>={k}({C.name})", C, bases, shared)
    # The model lives one degree above the link and reads theta there too.
    return StandardCotruncation(k, D, sub, theta + (RationalMatrix.zeros(0, 0),),
                                strategy, projection)


def quotient_by_cotruncation(C: CochainComplex, ct: StandardCotruncation,
                             truncation: Truncation):
    """Quotient C / theta(tau_{>=k}) with projection and canonical section.

    Realized on the complementary summand, which is the truncation tau_{<k}:
    full below k, im d^{k-1} in degree k, zero above.  Returns
    (quotient, pi, section) with section the truncation's inclusion and pi,
    per degree up to top + 1, the identity below k (the section's own, whose
    bases are whole there), the cotruncation's pi_k in degree k and zero
    above.  ``truncation`` is truncate_below(C, k), as
    ``workspace.Workspace.quotient`` passes it.

    Nothing is multiplied here: both statements about pi follow from the
    certificates of ``cotruncate`` and from how the truncation is read.
    - pi ∘ section = I.  Below k both are the identity.  At k it is
      ``cotruncate``'s pi_k @ img == I on the same matrices, img being the
      basis of im d^{k-1} that the section includes.  Above k the quotient
      has no cochains.
    - pi is a cochain map.  Below k - 1 pi and the section are the identity,
      and d_sub^r = d^r.  At k - 1 the truncation's placed rows give
      img d_sub == d^{k-1} (see ``truncate_below``), so
      pi_k d^{k-1} = pi_k img d_sub = d_sub.  From k on the quotient is zero.
    """
    k = ct.k
    if truncation.k != k:
        raise ValueError(f"truncation at cutoff {truncation.k} given for cutoff {k}")
    pi = tuple(truncation.inclusion[r] if r < k
               else ct.projection if r == k
               else RationalMatrix.zeros(0, C.dim(r))
               for r in range(C.top + 1)) + (RationalMatrix.zeros(0, 0),)
    return truncation.complex, pi, truncation.inclusion


def check_product_vanishing(cup: CupStructure, ct_k: StandardCotruncation,
                            ct_l: StandardCotruncation, r: int, s: int) -> bool:
    """Degree-window vanishing of included cotruncation products.

    Requires k + l > r + s with all four positive; decides, by the faces of
    the (r+s)-simplices, whether every product of a column of one included
    cotruncation with a column of the other is the zero cochain.  For
    standard cotruncations this is true by construction: tau_{>=k} is zero
    below k, so a product needs r >= k and s >= l, hence r + s >= k + l,
    outside the window.
    """
    if min(ct_k.k, ct_l.k, r, s) <= 0:
        raise ValueError("degrees and cutoffs must be positive")
    if ct_k.k + ct_l.k <= r + s:
        raise ValueError("outside the vanishing window: need k + l > r + s")
    return cup.products_vanish(r, ct_k.inclusion[r], s, ct_l.inclusion[s])


def truncated_pairing(form, quotient: CochainComplex, section,
                      ct: StandardCotruncation, r: int) -> RationalMatrix:
    """The truncated pairing H^r(C/theta(tau_{>=k})) x H^{c-r}(tau_{>=l}) -> Q.

    C is the ambient complex of the quotient, of top degree c, and ``form``
    returns C's evaluation form over a closed c-chain lam in degrees
    (r, c - r), built only when both sides have classes.  The section lifts
    the quotient classes into C, theta includes the cotruncation classes,
    and the entries are their evaluation form over lam.  A degree outside
    0..c gives the empty matrix.
    """
    c = quotient.top
    return pairing_matrix(form, mapped_representatives(section, quotient, r),
                          mapped_representatives(ct.inclusion, ct.complex, c - r))


def truncated_duality(L: SimplicialComplex, k: int, l: int, cochains, lam=None,
                      strategy: str = "lex") -> DualityReport:
    """Nondegenerate pairing between H(C/theta(tau_{>=k})) and H(tau_{>=l}).

    Entries are integrals over the fundamental cycle lam of the link:
    ([pi(alpha)], [beta]) -> ∫_lam alpha ∪ theta_{>=l}(beta), with alpha any
    lift of the quotient class (well defined by the vanishing window
    k + l = c + 1 > c); see ``truncated_pairing``.  ``cochains`` is the
    pair (C*(L), its cup structure) that ``simplicial_cochains(L)`` returns.

    lam comes from the caller, so it is checked here: it must be closed and
    pair nonzero with H^c(L), or a bare ValueError (not a StratdualError) is
    raised.  For lam = ∂mu of a mu that ``duality.PairingForms`` accepted,
    neither check can fail: that mu is a nonzero multiple of the relative
    fundamental class, so ∂mu is closed and is the same multiple of the
    fundamental cycle of the connected link, ±1 per facet for the mu of
    ``fundamental_chain``.
    """
    if k <= 0 or l <= 0:
        raise ValueError("cutoffs must be positive (k, l > 0)")
    c = L.dimension
    if k + l != c + 1:
        raise ValueError(f"need k + l = c + 1 = {c + 1}, got {k + l}")
    C, cup = cochains
    if lam is None:
        lam = orient_top_chain(L)
    lam_vec = lam.coefficients if hasattr(lam, "coefficients") else tuple(lam)
    if not vec_is_zero(L.boundary_matrix(c).apply(lam_vec)):
        raise ValueError("fundamental chain of the link is not closed")
    # [lam] must generate top cohomology pairing-wise, or nothing below can work.
    if all(pair_against_chain(c, rep, lam_vec) == 0
           for rep in C.cohomology(c).representatives):
        raise ValueError("chain does not represent a fundamental class")
    ct_k = cotruncate(C, k, strategy)
    ct_l = ct_k if l == k else cotruncate(C, l, strategy)
    quotient, _, section = quotient_by_cotruncation(C, ct_k, truncate_below(C, k))
    pairings = [PairingMatrix(r, truncated_pairing(partial(cup.evaluation_form, c, r, lam_vec),
                                                   quotient, section, ct_l, r))
                for r in range(c + 1)]
    return DualityReport("truncated-duality", pairings,
                         quotient.betti(), ct_l.complex.betti())
