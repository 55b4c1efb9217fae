"""Independent recomputation of the zeta coefficients.

Everything here avoids geometric inversion: local factors are expanded as
explicit symmetric-power sums sum_N {Sym^N(P^1)} Y^N with Y built by
direct monomial summation, and the census re-derives the combinatorial
invariants from exhaustive fiber-configuration enumeration.  The product
is plain `DiscSeries` convolution, which the main path (`zeta.z_triv`,
sparse recurrences on Kronecker-packed coefficients) does not use: the two
share only the coefficient types and the default prefactor.
"""
from __future__ import annotations

from .algebra import DiscSeries, LatticePoly, motive_sym_p1
from .kodaira import Catalog, FiberType, enumerate_configurations
from .zeta import default_prefactor


def _explicit_local_series(ft: FiberType, order) -> DiscSeries:
    """The local monomial, or for cusp families the explicit finite k-sum
    of A u^(m(k)-1) s^(v(k)) with v(k) <= order."""
    if not ft.is_cusp_family:
        return DiscSeries.monomial(
            order, ft.disc_valuation(),
            LatticePoly.monomial(ft.components_minus_one(), ft.motive))
    total = DiscSeries.zero(order)
    k = 1
    while ft.disc_valuation(k) <= order:
        total = total + DiscSeries.monomial(
            order, ft.disc_valuation(k),
            LatticePoly.monomial(ft.components_minus_one(k), ft.motive))
        k += 1
    return total


def oracle_factor_expansion(ft: FiberType, order) -> DiscSeries:
    """sum_{N=0}^{order} {Sym^N(P^1)} * Y^N by plain convolution.

    Y has positive s-valuation, so powers beyond the order vanish and the
    finite sum agrees with the full projective-line factor."""
    y = _explicit_local_series(ft, order)
    total = DiscSeries.zero(order)
    power = DiscSeries.one(order)
    for n in range(order + 1):
        total = total + motive_sym_p1(n) * power
        power = power * y
        if power.is_zero():
            break
    return total


def oracle_z_triv(cat: Catalog, order, prefactor=None) -> DiscSeries:
    if prefactor is None:
        prefactor = default_prefactor(cat)
    series = DiscSeries.monomial(order, 0, prefactor)
    for ft in cat.types:
        series = series * oracle_factor_expansion(ft, order)
    return series


def configuration_census(cat: Catalog, max_degree):
    """Per-degree report over all configurations with total valuation <= max_degree.

    For each degree: configuration count, distribution of trivial-lattice
    ranks, largest cusp contact order, and the configurations whose rank
    formally exceeds the Lefschetz bound T <= 10n at degree 12n."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    degrees = []
    for d in range(max_degree + 1):
        configs = enumerate_configurations(cat, d)
        t_distribution = {}
        flagged = []
        max_k = 0
        for config in configs:
            t = config.trivial_lattice_rank()
            t_distribution[t] = t_distribution.get(t, 0) + 1
            max_k = max(max_k, config.max_contact_order())
            if config.exceeds_lefschetz_bound():
                flagged.append({
                    "configuration": config.label(),
                    "trivial_lattice_rank": t,
                    "bound": 10 * (d // 12),
                })
        degrees.append({
            "degree": d,
            "count": len(configs),
            "t_distribution": {str(t): n for t, n in sorted(t_distribution.items())},
            "max_contact_order": max_k,
            "flagged": flagged,
        })
    return {
        "catalog": cat.name,
        "max_degree": max_degree,
        "degrees": degrees,
    }
