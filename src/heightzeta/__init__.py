"""Exact calculator for the trivial-lattice-rank-weighted motivic height
zeta function of elliptic surfaces over the projective line."""

from .algebra import (
    DiscSeries,
    L,
    LatticePoly,
    LayoutTooLarge,
    LefschetzPoly,
    MarkVariablePoly,
    motive_pgl2,
    motive_sym_p1,
    series_one_minus_inverse,
)
from .kodaira import (
    CATALOG_NAMES,
    Catalog,
    FiberConfiguration,
    FiberType,
    catalog,
    catalog_to_json,
    enumerate_configurations,
)
from .oracle import configuration_census, oracle_factor_expansion, oracle_z_triv
from .zeta import (
    FactorSpec,
    ZetaResult,
    build_factor,
    cusp_resummed_weight,
    default_prefactor,
    euler_factor,
    geometric_resummation,
    multivariate_H,
    substitutions_for,
    z_triv,
)

__all__ = [
    "CATALOG_NAMES",
    "Catalog",
    "DiscSeries",
    "FactorSpec",
    "FiberConfiguration",
    "FiberType",
    "L",
    "LatticePoly",
    "LayoutTooLarge",
    "LefschetzPoly",
    "MarkVariablePoly",
    "ZetaResult",
    "build_factor",
    "catalog",
    "catalog_to_json",
    "configuration_census",
    "cusp_resummed_weight",
    "default_prefactor",
    "enumerate_configurations",
    "euler_factor",
    "geometric_resummation",
    "motive_pgl2",
    "motive_sym_p1",
    "multivariate_H",
    "oracle_factor_expansion",
    "oracle_z_triv",
    "series_one_minus_inverse",
    "substitutions_for",
    "z_triv",
]
