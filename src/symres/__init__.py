"""Exact resultants of symmetric-cubic gradient systems.

The library computes, entirely in exact rational arithmetic, the resultant
of the n quadratic forms dS/dx_i where S = a1*s1^3 + a2*s1*s2 + a3*s3 is a
symmetric cubic in n >= 3 variables: a factored closed form, a
reduction-chain evaluation, and an independent Macaulay-matrix oracle, plus
common-root witnesses and the Finsler-geometry solvability questions the
resultant answers.
"""

from .closedform import (
    ReportFactor,
    ResultantReport,
    closed_form_resultant,
    formula_to_canonical_ratio,
    resultant_via_reduction,
)
from .finsler import (
    DEGENERATE_METRIC_IDENTICALLY_ZERO,
    ConfiguratrixResult,
    MetricFunction,
    Momentum,
    configuratrix_resultant,
    configuratrix_system,
    indicatrix_degenerate,
)
from .oracle import (
    MacaulaySystem,
    MatrixSizeError,
    RootWitness,
    check_macaulay_size,
    det_bareiss,
    det_rational,
    macaulay_resultant,
    root_witness,
    verify_witness,
)
from .polycore import (
    MultiPoly,
    QuadExt,
    Scalar,
    elem_sym,
    grevlex_key,
    monomials_of_degree,
)
from .symcubic import (
    NormalizedCoeffs,
    ReducedParams,
    SymmetricCubic,
    TransformationUndefinedError,
)

__all__ = [
    "ConfiguratrixResult",
    "DEGENERATE_METRIC_IDENTICALLY_ZERO",
    "MacaulaySystem",
    "MatrixSizeError",
    "MetricFunction",
    "Momentum",
    "MultiPoly",
    "NormalizedCoeffs",
    "QuadExt",
    "ReducedParams",
    "ReportFactor",
    "ResultantReport",
    "RootWitness",
    "Scalar",
    "SymmetricCubic",
    "TransformationUndefinedError",
    "check_macaulay_size",
    "closed_form_resultant",
    "configuratrix_resultant",
    "configuratrix_system",
    "det_bareiss",
    "det_rational",
    "elem_sym",
    "grevlex_key",
    "indicatrix_degenerate",
    "macaulay_resultant",
    "monomials_of_degree",
    "formula_to_canonical_ratio",
    "resultant_via_reduction",
    "root_witness",
    "verify_witness",
]

__version__ = "0.1.0"
