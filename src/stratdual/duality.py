"""Duality pairings and the ladder-diagram verification.

Every pairing comes from one bilinear form on cochains: the evaluation
form G_r(chain)[i, j] = pair_against_chain(n, e_i ∪ e_j, chain) of
CupStructure.evaluation_form.  With the representatives of the two
cohomology bases mapped into the ambient cochains as the columns of A and
B, the pairing matrix is A^T G B (cochains.pairing_matrix).  A PairingForms
object validates mu once and builds each pairing matrix once:

* Lefschetz:  H^r(C*(M)) x H^{n-r}(C*(M,∂M)) -> Q, A = reps, B = j* reps, over mu;
* main:       H^r(A_p)   x H^{n-r}(A_q)     -> Q, A = iota_p reps, B = iota_q reps, over mu;
* truncated:  H^r(C*(L)/theta(tau_{>=k})) x H^{c-r}(tau_{>=l}) -> Q,
  A = section reps, B = theta reps, over ∂mu (cotruncation.truncated_pairing,
  the boundary rows of the ladder and the truncated-duality check).

The form carries the Koszul sign of pair_against_chain, which makes Stokes
sign-free at pairing level; with that convention the top and middle ladder
squares commute exactly and the bottom square commutes up to (-1)^r per
degree.  Dual maps are transposes composed through the stored pairing
matrices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .cochains import (
    chain_vector,
    induced_map,
    integrate,
    mapped_representatives,
    pair_against_chain,
    pairing_matrix,
)
from .cotruncation import truncated_pairing
from .errors import NotComplementaryError, NotPseudomanifoldError
from .model import IntersectionModel
from .rational import RationalMatrix, vec_is_zero
from .reports import DualityReport, PairingMatrix
from .simplicial import FundamentalChain, boundary_of_chain


def _validate_mu(pair, mu: FundamentalChain):
    K, A = pair.K, pair.A
    n = K.dimension
    if mu.degree != n or len(mu.coefficients) != K.n_simplices(n):
        raise NotPseudomanifoldError("fundamental chain has the wrong shape")
    link_faces = set(A.simplices(n - 1))
    for s, c in boundary_of_chain(K, mu).items():
        if s not in link_faces:
            raise NotPseudomanifoldError("∂mu is not supported on the boundary")
    rel_top = pair.rel.cohomology(n)
    if rel_top.dimension != 1:
        raise NotPseudomanifoldError("H^n(M, ∂M) is not one-dimensional")
    generator = pair.include_rel[n].apply(rel_top.representatives[0])
    if pair_against_chain(n, generator, mu.coefficients) == 0:
        raise NotPseudomanifoldError("relative class of mu does not generate")


def boundary_link_chain(pair, mu: FundamentalChain):
    """∂mu rewritten in the link's (n-1)-simplex basis."""
    support = boundary_of_chain(pair.K, mu)
    return chain_vector(pair.A, pair.K.dimension - 1, support)


class PairingForms:
    """The pairings of one pair over mu and over ∂mu, each built on first
    use and kept as a ``PairingMatrix``, whose rank is computed once with it.

    Construction validates mu, once for every pairing built from it.  The
    pairings are keyed on degree and on the complexes they pair (the two
    models, or the link's quotient and cotruncation), so a caller that keeps
    one PairingForms for its pair pays for each matrix once.  So are the
    evaluation forms they are built from: one per chain (mu or ∂mu) and
    degree, shared by every pairing in that degree.  The verdicts read off
    these pairings are kept the same way: ``ladder_check``'s record per
    model pair and degree, and ``well_definedness_identity``'s per model
    pair.  The form pulled back to the models' cochains, iota_p^T G iota_q,
    is read only by that verdict, once per degree, so it is not kept.
    """

    __slots__ = ("pair", "mu", "lam", "_built")

    def __init__(self, pair, mu: FundamentalChain):
        _validate_mu(pair, mu)
        self.pair = pair
        self.mu = mu
        self.lam = boundary_link_chain(pair, mu)
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def _mu_form(self, r: int) -> RationalMatrix:
        """The evaluation form of C*(M) over mu in degrees (r, n - r)."""
        return self._once(("mu form", r), lambda: self.pair.cup.evaluation_form(
            self.pair.K.dimension, r, self.mu.coefficients))

    def _lam_form(self, r: int) -> RationalMatrix:
        """The evaluation form of C*(L) over ∂mu in degrees (r, c - r)."""
        return self._once(("lam form", r), lambda: self.pair.sub_cup.evaluation_form(
            self.pair.sub.top, r, self.lam))

    def _over_mu(self, r: int, left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
        return pairing_matrix(partial(self._mu_form, r), left, right)

    def lefschetz(self, r: int) -> PairingMatrix:
        """H^r(C*(M)) x H^{n-r}(C*(M,∂M)) over mu."""
        pair = self.pair
        n = pair.K.dimension
        return self._once(("lefschetz", r), lambda: PairingMatrix(r, self._over_mu(
            r, pair.full.representative_matrix(r),
            mapped_representatives(pair.include_rel, pair.rel, n - r))))

    def main(self, mp: IntersectionModel, mq: IntersectionModel, r: int) -> PairingMatrix:
        """H^r(A_p) x H^{n-r}(A_q) over mu."""
        n = self.pair.K.dimension
        return self._once(("main", mp, mq, r), lambda: PairingMatrix(r, self._over_mu(
            r, mapped_representatives(mp.iota, mp.complex, r),
            mapped_representatives(mq.iota, mq.complex, n - r))))

    def truncated(self, quotient, section, ct, degree: int) -> PairingMatrix:
        """The link's truncated pairing H^degree(quotient) x H^{c-degree}(ct)
        over ∂mu, as ``cotruncation.truncated_pairing`` builds it."""
        return self._once(("truncated", quotient, ct, degree), lambda: PairingMatrix(
            degree, truncated_pairing(partial(self._lam_form, degree),
                                      quotient, section, ct, degree)))


def lefschetz_pairing(forms: PairingForms) -> DualityReport:
    """Poincare-Lefschetz pairing of the pair (M, ∂M) of ``forms`` against its mu."""
    pair = forms.pair
    n = pair.K.dimension
    pairings = []
    for r in range(n + 1):
        pairings.append(forms.lefschetz(r))
    return DualityReport("lefschetz", pairings, pair.full.betti(), pair.rel.betti())


def _require_compatible(mp: IntersectionModel, mq: IntersectionModel, pair):
    """Models over one decomposition at complementary cutoffs, k + l = n,
    with ``pair``, the pair whose cochains the caller pairs them in, their own.

    A model sees its perversity only through p(n), and for complementary
    perversities p(n) + q(n) = n - 2, which is k_p + k_q = n.  ``verify``
    builds q as ``complementary(p)`` and every object from one ``Workspace``,
    so its models always pass."""
    dp, dq = mp.decomposition, mq.decomposition
    if dp.X.facets != dq.X.facets or dp.singular_vertex != dq.singular_vertex:
        raise ValueError("models built over different decompositions")
    if mp.k + mq.k != dp.n:
        raise NotComplementaryError("cutoffs do not satisfy k + l = n")
    if pair is not mp.pair:
        raise ValueError("pairing forms of another pair or fundamental chain")


def main_pairing(mp: IntersectionModel, mq: IntersectionModel,
                 forms: PairingForms) -> DualityReport:
    """The generalized Poincare duality pairing of the two models over the
    mu of ``forms``."""
    _require_compatible(mp, mq, forms.pair)
    n = mp.decomposition.n
    pairings = []
    for r in range(n + 1):
        pairings.append(forms.main(mp, mq, r))
    return DualityReport("main", pairings, mp.betti(), mq.betti())


def well_definedness_identity(mp: IntersectionModel, mq: IntersectionModel,
                              forms: PairingForms) -> bool:
    """The main pairing is independent of the representatives, exactly.

    With F = iota_p^T G iota_q in degrees (r, n - r), D_p, D_q the model
    differentials into those degrees and R_p, R_q the representatives,
    (R_p + D_p x)^T F (R_q + D_q y) = R_p^T F R_q for all x, y exactly when
    D_p^T F [R_q | D_q] = 0 and R_p^T F D_q = 0.  Checked in every degree
    where both sides have classes, as well_definedness_probe samples it.
    The verdict is kept by ``forms`` per model pair.
    """
    _require_compatible(mp, mq, forms.pair)
    return forms._once(("well defined", mp, mq), partial(_well_defined, forms, mp, mq))


def _well_defined(forms: PairingForms, mp: IntersectionModel, mq: IntersectionModel) -> bool:
    n = mp.decomposition.n
    for r in range(n + 1):
        rp = mp.complex.representative_matrix(r)
        rq = mq.complex.representative_matrix(n - r)
        if rp.cols == 0 or rq.cols == 0:
            continue
        form = forms._over_mu(r, mp.iota[r], mq.iota[n - r])
        dp = mp.complex.diff(r - 1)
        dq = mq.complex.diff(n - r - 1)
        if not (dp.transpose() @ form @ rq.hstack(dq)).is_zero():
            return False
        if not (rp.transpose() @ form @ dq).is_zero():
            return False
    return True


def well_definedness_probe(mp: IntersectionModel, mq: IntersectionModel,
                           mu: FundamentalChain, trials: int = 100,
                           seed: int = 0) -> bool:
    """Random coboundary perturbations must leave every entry bit-identical.

    Each value is a^T G b with G the evaluation form over mu pulled back to
    the two models' cochains, built once per degree.  This samples what
    well_definedness_identity checks exactly; ``verify`` runs the identity.
    """
    _require_compatible(mp, mq, mp.pair)
    n = mp.decomposition.n
    rng = random.Random(seed)
    for r in range(n + 1):
        left = mp.complex.cohomology(r)
        right = mq.complex.cohomology(n - r)
        if left.dimension == 0 or right.dimension == 0:
            continue
        form = pairing_matrix(partial(mp.pair.cup.evaluation_form, n, r, mu.coefficients),
                              mp.iota[r], mq.iota[n - r])
        for a in left.representatives:
            for b in right.representatives:
                base = integrate(a, form.apply(b))
                for _ in range(trials):
                    a2 = _perturb(mp, r, a, rng)
                    b2 = _perturb(mq, n - r, b, rng)
                    if integrate(a2, form.apply(b2)) != base:
                        return False
    return True


def _perturb(model: IntersectionModel, r: int, rep, rng):
    lower = model.complex.dim(r - 1)
    if lower == 0:
        return rep
    eta = tuple(Fraction(rng.randint(-3, 3)) for _ in range(lower))
    d_eta = model.complex.diff(r - 1).apply(eta)
    return tuple(x + y for x, y in zip(rep, d_eta))


class LadderRecord:
    """Commutation verdicts of the three ladder squares at one degree.

    ``to_jsonable`` returns a new dict on every call, so no two reports
    share one, though ``PairingForms`` keeps the record."""

    __slots__ = ("degree", "ts_commutes", "ms_commutes", "bs_commutes",
                 "bs_sign", "five_lemma_consistent")

    def __init__(self, degree, ts, ms, bs, bs_sign, five_lemma):
        self.degree = degree
        self.ts_commutes = ts
        self.ms_commutes = ms
        self.bs_commutes = bs
        self.bs_sign = bs_sign
        self.five_lemma_consistent = five_lemma

    @property
    def passed(self):
        return (self.ts_commutes and self.ms_commutes and self.bs_commutes
                and self.five_lemma_consistent)

    def to_jsonable(self):
        return {
            "degree": self.degree,
            "ts_commutes": self.ts_commutes,
            "ms_commutes": self.ms_commutes,
            "bs_commutes": self.bs_commutes,
            "bs_sign": self.bs_sign,
            "five_lemma_consistent": self.five_lemma_consistent,
            "pass": self.passed,
        }


def _match_up_to_sign(a: RationalMatrix, b: RationalMatrix):
    """(matches, sign): a == sign * b with one global sign, +1 when both zero."""
    if a.is_zero() and b.is_zero():
        return True, 1
    if a == b:
        return True, 1
    if a == -b:
        return True, -1
    return False, 0


def ladder_check(mp: IntersectionModel, mq: IntersectionModel, r: int,
                 forms: PairingForms) -> LadderRecord:
    """Verify the three ladder squares at degree r as exact matrix identities.

    With P_main, P_lef the mu-pairings and P_top, P_bot the ∂mu-pairings:

        TS:  transpose(delta_1) @ P_main == P_top @ H(rho_q)
        MS:  transpose(H(iota_p)) @ P_lef == P_main @ H(eta_q)
        BS:  transpose(H(kappa_p)) @ P_bot == ± P_lef @ delta_2

    where delta_1 is the connecting map of 0 -> A_p -> C*(M) -> quotient -> 0
    at degree r-1 and delta_2 that of 0 -> C*(M,∂M) -> A_q -> tau_{>=l} -> 0
    at degree n-r-1.  The record is kept by ``forms`` per model pair and
    degree.
    """
    _require_compatible(mp, mq, forms.pair)
    return forms._once(("ladder", mp, mq, r), partial(_ladder_record, forms, mp, mq, r))


def _ladder_record(forms: PairingForms, mp: IntersectionModel, mq: IntersectionModel,
                   r: int) -> LadderRecord:
    n = mp.decomposition.n
    p_top = forms.truncated(mp.quotient, mp.section, mq.cotruncation, r - 1)
    p_bot = forms.truncated(mp.quotient, mp.section, mq.cotruncation, r)
    p_main = forms.main(mp, mq, r)
    p_lef = forms.lefschetz(r)

    delta_1 = mp.ses_iota_kappa.connecting(r - 1)
    h_iota = induced_map(mp.iota, mp.complex, mp.pair.full, r)
    h_kappa = induced_map(mp.kappa, mp.pair.full, mp.quotient, r)
    h_rho = induced_map(mq.rho, mq.complex, mq.cotruncation.complex, n - r)
    h_eta = induced_map(mq.eta, mq.pair.rel, mq.complex, n - r)
    delta_2 = mq.ses_eta_rho.connecting(n - r - 1)

    ts = delta_1.transpose() @ p_main.matrix == p_top.matrix @ h_rho
    ms = h_iota.transpose() @ p_lef.matrix == p_main.matrix @ h_eta
    bs, bs_sign = _match_up_to_sign(h_kappa.transpose() @ p_bot.matrix,
                                    p_lef.matrix @ delta_2)

    # Square and of full rank, read off the ranks the forms keep.
    five_lemma = True
    if ts and ms and bs:
        outer_square = (p_top.nondegenerate and p_bot.nondegenerate
                        and p_lef.nondegenerate and forms.lefschetz(r - 1).nondegenerate)
        if outer_square:
            five_lemma = p_main.nondegenerate
    return LadderRecord(r, ts, ms, bs, bs_sign, five_lemma)


def stokes_vanishing_probe(mp: IntersectionModel, mq: IntersectionModel,
                           trials: int = 50, seed: int = 0) -> bool:
    """Boundary products of model elements in the window vanish identically.

    For random eta in A_p and closed beta in A_q with degrees summing to
    n - 1, the restriction i*iota_p(eta) ∪ i*iota_q(beta) is the zero cochain
    of the link (hence every boundary integral of it vanishes).
    """
    _require_compatible(mp, mq, mp.pair)
    n = mp.decomposition.n
    cup = mp.pair.sub_cup
    rng = random.Random(seed)
    for _ in range(trials):
        a = rng.randint(0, n - 1)
        b = n - 1 - a
        if mp.complex.dim(a) == 0 or mq.complex.dim(b) == 0:
            continue
        eta = tuple(Fraction(rng.randint(-3, 3)) for _ in range(mp.complex.dim(a)))
        basis = mq.complex.cohomology(b)
        if basis.dimension == 0:
            continue
        beta = basis.representatives[rng.randrange(basis.dimension)]
        y = mp.pair.restrict[a].apply(mp.iota[a].apply(eta))
        z = mq.pair.restrict[b].apply(mq.iota[b].apply(beta))
        if not vec_is_zero(cup.cup(a, y, b, z)):
            return False
    return True
