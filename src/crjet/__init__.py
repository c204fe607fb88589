"""Exact-arithmetic toolkit for 1-infinite-type formal hypersurfaces in C^2.

Computes the formal invariants (m, r, L, K, T), the jet family that governs
finite determination, the exceptional set D(M) and jet order k, and verifies
or reconstructs formal equivalences from their jets — all over the Gaussian
rationals, with explicit truncation certificates.
"""

from .equivalence import (EquivalenceError, FormalMap, JetData,
                          JetRealizationError, ResidualReport, compose_maps,
                          extract_jet, f0_from_jet, finite_determination_check,
                          forced_mu_sq, reconstruct, verify_map)
from .hypersurface import (Hypersurface, InvariantTuple, ValidationError,
                           family_b0, family_mc, family_nb, validate)
from .scalars import ExactComplex, NPoly
from .series import TruncatedSeries
from .upsilon import (JetAnalysis, SYMBOLIC, UpsilonError, UpsilonFamily,
                      build_upsilon, compute_D, dim_Vn, xi_determinants)

__version__ = "0.1.0"

__all__ = [
    "EquivalenceError", "ExactComplex", "FormalMap", "Hypersurface",
    "InvariantTuple", "JetAnalysis", "JetData", "JetRealizationError",
    "NPoly", "ResidualReport", "SYMBOLIC", "TruncatedSeries", "UpsilonError",
    "UpsilonFamily", "ValidationError", "build_upsilon", "compose_maps",
    "compute_D", "dim_Vn", "extract_jet", "f0_from_jet",
    "family_b0", "family_mc", "family_nb", "finite_determination_check",
    "forced_mu_sq",
    "reconstruct", "validate", "verify_map", "xi_determinants",
]
