"""Exact-arithmetic toolkit for 1-infinite-type formal hypersurfaces in C^2.

Computes the formal invariants (m, r, L, K, T), the jet family that governs
finite determination, the exceptional set D(M) and jet order k, and verifies
or reconstructs formal equivalences from their jets — all over the Gaussian
rationals, with explicit truncation certificates.

``import crjet`` loads no submodule.  Each public name is looked up in its
home module on every access (PEP 562), so the first access imports that
module and nothing is cached here.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "errors": ("EquivalenceError", "UpsilonError", "ValidationError"),
    "scalars": ("ExactComplex", "NPoly"),
    "series": ("TruncatedSeries",),
    "hypersurface": ("Hypersurface", "InvariantTuple", "family_b0", "family_mc",
                     "family_nb", "validate"),
    "upsilon": ("JetAnalysis", "SYMBOLIC", "UpsilonFamily", "build_upsilon",
                "compute_D", "dim_Vn", "xi_determinants"),
    "equivalence": ("FormalMap", "JetData", "JetRealizationError",
                    "ResidualReport", "compose_maps", "extract_jet", "f0_from_jet",
                    "finite_determination_check", "forced_mu_sq", "reconstruct",
                    "verify_map"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
