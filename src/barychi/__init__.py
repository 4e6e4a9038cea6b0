"""Exact Euler characteristics of weighted formal barycenter spaces.

Given a space X with known chi_c, singular points with positive rational
weights, and a rational mass bound rho, the package computes
chi_c(B_rho) by three independent exact algorithms (closed-form
alternating sum, locally closed strata, generating-series window), the
associated degree d_rho = 1 - chi_c, a brute-force oracle for finite
spaces, and symbolic homotopy types for up to two singular points.

The names below are the ones README's "Library API" section documents;
everything else lives in the submodules.
"""

from .engine import (
    chi_c_direct,
    chi_c_strata,
    normalize_drop_heavy,
    normalize_drop_unit_weights,
    topological_chi_applicable,
)
from .errors import BarychiError
from .model import ComponentSpec, ProblemInstance, SpaceKind, instance_from_json, validate
from .oracle import FiniteWeightedSpace, oracle_chi
from .series import chen_lin_series, chi_c_series

__version__ = "0.1.0"

__all__ = [
    "BarychiError",
    "ComponentSpec",
    "FiniteWeightedSpace",
    "ProblemInstance",
    "SpaceKind",
    "chen_lin_series",
    "chi_c_direct",
    "chi_c_series",
    "chi_c_strata",
    "classify",
    "instance_from_json",
    "maximal_pieces",
    "normalize_drop_heavy",
    "normalize_drop_unit_weights",
    "oracle_chi",
    "topological_chi_applicable",
    "validate",
]


# The classifier is loaded on the first read of one of its names (PEP 562),
# not at import, since no route uses it; that read binds the name here.
def __getattr__(name: str):
    if name not in ("classify", "maximal_pieces"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import classifier

    value = globals()[name] = getattr(classifier, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
