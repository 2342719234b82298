"""Exact-arithmetic duality verifier for pseudomanifolds with one isolated
singularity: builds the intersection-space cochain model over Q and checks
generalized Poincare duality together with all of its supporting structure
(cotruncation, fiber product, integration, Stokes, ladder diagram)."""

from .cochains import (
    CochainComplex,
    CupStructure,
    PairComplexes,
    ShortExactSequence,
    integrate,
    simplicial_cochains,
)
from .cone import ChainTruncation, chain_truncate, compare, mapping_cone
from .cotruncation import (
    StandardCotruncation,
    Truncation,
    check_product_vanishing,
    cotruncate,
    quotient_by_cotruncation,
    truncate_below,
    truncated_duality,
)
from .duality import (
    PairingForms,
    ladder_check,
    lefschetz_pairing,
    main_pairing,
    well_definedness_identity,
    well_definedness_probe,
)
from .errors import StratdualError
from .model import (
    IntersectionModel,
    Perversity,
    build_model,
    complementary,
    cutoff_degree,
    model_les,
    named_perversity,
    validate_perversity,
)
from .rational import (
    QuotientBasis,
    RationalMatrix,
    SubspaceBasis,
    complement_basis,
    image_basis,
    kernel_basis,
    rref,
)
from .reports import DualityReport, PairingMatrix
from .simplicial import (
    FundamentalChain,
    PseudomanifoldDecomposition,
    SimplicialComplex,
    decompose,
    fundamental_chain,
    link_of_vertex,
    parse_complex,
)

from .workspace import Workspace

__version__ = "0.1.0"
