"""Everything derived from one input document, each object built once.

A ``Workspace`` holds what the checks of ``verify`` derive from one parsed
document: its decomposition, the fundamental chain, the complex's cochains,
the pair complexes, and per cutoff and strategy the truncations,
cotruncations and quotients of the link's cochains, the models' passes on
their cutoff degree (each from its complement alone), the models, the chain
complexes and cones of the oracle (and C_*(X), whose ∂ the properties check
reads with M's and L's), the pairing forms and the link's truncated
pairings.
No object is keyed on a perversity: a model is a function of its cutoff,
so perversities with equal cutoffs share one.
Shared work lives with the object that owns it, so each piece is done once
per run: C*(L) picks one complement per cutoff and strategy, which the
cotruncation and the cutoff pass of that strategy both read.  A run picks
complements in its own strategy alone (the model check reads its own
cutoff passes), and a reverse-lex complement holds its pass until the
reverse-lex cotruncation that reads it builds pi_k from it.  The
oracle's chain complexes keep C_*(M)'s passes and L's cycles per degree, and
the decomposition its inclusion L -> M, so every cone of a run extends the
one pass of C_*(M) in each degree (see ``cone.MappingCone``), both
strategies' truncations at a cutoff complement one Z_k(L), and no cone
builds the inclusion again.
Outside their cutoffs the truncations, cotruncations and models take their
ambient's passes and classes by one table (see ``cochains.subcomplex``), and
the induced maps of a run are kept with the complexes read off C*(M) (see
``cochains.induced_map``), so every model and strategy shares them.
The library's builders take every object they read as an argument and
build none of those themselves, so this class is the one place that wires
the model's diagram.  Each object is built on first request from the ones
it reads, and kept only once its builder returns: an error leaves nothing
behind, so asking again raises it again, in the same order.  Every
kept object is immutable or fills only caches of its own, so reusing it
gives the same bytes as building it anew.
"""

from __future__ import annotations

import json

from .cochains import PairComplexes, simplicial_cochains
from .cone import SimplicialChains, intersection_space_cone
from .cotruncation import cotruncate, quotient_by_cotruncation, truncate_below
from .duality import PairingForms
from .errors import ParseError
from .model import build_model, cutoff_pass
from .reports import DualityReport
from .simplicial import decompose, fundamental_chain, parse_complex


def document_key(document) -> str:
    """Canonical JSON text of a document: documents with equal content get equal keys."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class Workspace:
    """Lazily built objects derived from one input document."""

    def __init__(self, document, key: str | None = None):
        self.document = document
        self.key = document_key(document) if key is None else key
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def decomposition(self):
        def build():
            X = parse_complex(self.document)
            if "singular_vertex" not in self.document:
                raise ParseError("document missing key: singular_vertex")
            return decompose(X, self.document["singular_vertex"])
        return self._once("D", build)

    def mu(self):
        return self._once("mu", lambda: fundamental_chain(self.decomposition()))

    def cochains(self):
        """C*(X), the cochain complex of the whole complex."""
        return self._once("cochains", lambda: simplicial_cochains(self.decomposition().X)[0])

    def pair(self) -> PairComplexes:
        D = self.decomposition()
        return self._once("pair", lambda: PairComplexes(D.M, D.L))

    def truncation(self, k: int):
        """tau_{<k} of the link's cochains C*(L), which is ``pair().sub``."""
        return self._once(("truncation", k), lambda: truncate_below(self.pair().sub, k))

    def cotruncation(self, k: int, strategy: str):
        return self._once(("cotruncation", k, strategy),
                          lambda: cotruncate(self.pair().sub, k, strategy))

    def quotient(self, k: int, strategy: str):
        return self._once(("quotient", k, strategy), lambda: quotient_by_cotruncation(
            self.pair().sub, self.cotruncation(k, strategy), self.truncation(k)))

    def cutoff_pass(self, k: int, strategy: str):
        """The forward pass on d^k of the model at cutoff k, the one its
        ``model`` eliminates in degree k and that the model check reads for
        ``choice_independent``.  It reads the strategy's complement D, the one
        the cotruncation of that strategy reads, and C*(M)'s pass on d_M^k,
        whose pivot rows are the rows it enters (see ``model.cutoff_pass``)."""
        pair = self.pair()
        return self._once(("cutoff pass", k, strategy), lambda: cutoff_pass(
            pair, k, pair.sub.complement(k, strategy).matrix()))

    def model(self, k: int, strategy: str):
        return self._once(("model", k, strategy), lambda: build_model(
            self.decomposition(), k, strategy, pair=self.pair(),
            cotruncation=self.cotruncation(k, strategy), quotient=self.quotient(k, strategy),
            cutoff=self.cutoff_pass(k, strategy)))

    def chains(self, which: str):
        """C_*(X), C_*(M) or C_*(L), which is "X", "M" or "L": the oracle reads
        M's and L's, and the properties check the ∂ of all three."""
        return self._once(("chains", which), lambda: SimplicialChains(
            getattr(self.decomposition(), which)))

    def cone(self, k: int, strategy: str):
        """The oracle's cone at cutoff k, over this run's C_*(M) and C_*(L)."""
        return self._once(("cone", k, strategy), lambda: intersection_space_cone(
            self.decomposition(), k, strategy, self.chains("M"), self.chains("L")))

    def forms(self) -> PairingForms:
        return self._once("forms", lambda: PairingForms(self.pair(), self.mu()))

    def truncated_duality(self, k: int, strategy: str) -> DualityReport:
        """The link's truncated pairing at cutoffs k and c + 1 - k, over ∂mu,
        with the matrices the ladder reads."""
        def build():
            c = self.decomposition().n - 1
            quotient, _, section = self.quotient(k, strategy)
            ct = self.cotruncation(c + 1 - k, strategy)
            forms = self.forms()
            pairings = [forms.truncated(quotient, section, ct, r) for r in range(c + 1)]
            return DualityReport("truncated-duality", pairings,
                                 quotient.betti(), ct.complex.betti())
        return self._once(("truncated duality", k, strategy), build)
