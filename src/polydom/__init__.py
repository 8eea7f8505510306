"""Certified numerics for commuting operator tuples.

Completely positive map engines, cone membership with defect grids,
truncated weighted-shift models, Berezin kernels and transforms, and
similarity solvers that return checkable certificates.
"""

__version__ = "0.1.0"

from .config import (
    DivergenceError,
    ResourceCapError,
    Tolerances,
    default_tolerances,
)
from .words import (
    IDENTITY,
    NCPolynomial,
    PositiveSymbol,
    Word,
    commutator_polynomial,
    enumerate_words,
    polyball_symbol,
    validate_symbol,
    weight_table,
)
from .cpmap import (
    CommutationError,
    CPMapTuple,
    OperatorTuple,
    SeriesResult,
    hermitize,
    multi_grid,
    unvec,
    vec,
)
from .cone import (
    ConeReport,
    FactorizationResult,
    FlatReport,
    PurityReport,
    RankAmbiguityError,
    Reconstruction,
    factor_through,
    flat_equivalence,
    is_pure_element,
    membership,
    radial_membership,
    reconstruct,
)
from .fock import (
    ModelOperators,
    TruncatedFock,
    VarietySubspace,
    build_model,
    compress,
    domain_check_model,
    variety_subspace,
)
from .berezin import (
    BerezinKernel,
    ConstrainedKernel,
    VNReport,
    constrained_kernel,
    extended_transform_sweep,
    intertwine_check,
    intertwine_check_constrained,
    kernel,
    transform,
    vn_check_model,
    vn_check_polydisc,
)
from .similarity import (
    DefectSolution,
    RadiusReport,
    SimilarityCertificate,
    cpmap_similarity,
    model_embed,
    rota_conjugate,
    similarity_to_variety,
    solve_defect_equation,
    spectral_radius_equivalences,
    sznagy_solve,
)
from .generate import (
    FAMILIES,
    Instance,
    commuting_polynomials,
    conjugated_unitaries,
    generate,
    nilpotent,
    polyball_random,
    random_pd,
    random_psd,
    random_symbol,
    strict_contractions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
