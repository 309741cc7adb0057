"""Exact resultants of symmetric-cubic gradient systems.

The library computes, entirely in exact rational arithmetic, the resultant
of the n quadratic forms dS/dx_i where S = a1*s1^3 + a2*s1*s2 + a3*s3 is a
symmetric cubic in n >= 3 variables: a factored closed form, a
reduction-chain evaluation, and an independent Macaulay-matrix oracle, plus
common-root witnesses and the Finsler-geometry solvability questions the
resultant answers.

Importing the package loads no submodule: each public name is imported from
its home module on first use, so a caller of the closed form never loads
the oracle. A submodule itself (``symres.oracle``) is imported explicitly.
"""

import importlib

_HOMES = {
    "closedform": "ReportFactor ResultantReport closed_form_resultant "
                  "formula_to_canonical_ratio resultant_via_reduction",
    "finsler": "DEGENERATE_METRIC_IDENTICALLY_ZERO ConfiguratrixResult MetricFunction Momentum "
               "configuratrix_resultant configuratrix_system indicatrix_degenerate",
    "oracle": "MacaulaySystem RootWitness check_macaulay_size det_bareiss det_rational "
              "macaulay_resultant root_witness verify_witness",
    "polycore": "MatrixSizeError MultiPoly QuadExt Scalar elem_sym grevlex_key monomials_of_degree",
    "symcubic": "NormalizedCoeffs ReducedParams SymmetricCubic TransformationUndefinedError",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
