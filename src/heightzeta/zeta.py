"""The finite Euler product for the trivial-lattice-weighted height zeta
function.

Each catalog row yields one local factor: a monomial in u and s for the
non-cusp types, and a geometric resummation over the contact order for the
two cusp families.  The global series is the product of the full
projective-line factors 1/((1-Y)(1-L*Y)) times a prefactor.

`z_triv` never multiplies series: every denominator 1 - Y is a monomial in
s (a trinomial after clearing 1/(1-us) for the cusp families), so it
divides the Kronecker-packed coefficients in place by O(order) sparse
recurrences.  `euler_factor` keeps the dense series form of one factor as
the reference the tests check the recurrences against.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    DiscSeries,
    KroneckerLayout,
    L,
    LatticePoly,
    LefschetzPoly,
    MarkVariablePoly,
    series_one_minus_inverse,
)
from .kodaira import Catalog, FiberType


@dataclass(frozen=True)
class FactorSpec:
    """One local Euler factor, fully specialized in u and s.

    `y` is the local series (cusp families already resummed over k).  The
    remaining fields record the reduced-denominator display: the monomial
    coefficient, its u- and s-exponents, and the multiplicity of the cusp
    denominator 1/(1-us).
    """

    source: FiberType
    y: DiscSeries
    motive: object
    u_exp: int
    s_exp: int
    cusp_denominator: int


def cusp_resummed_weight(ft: FiberType, order) -> DiscSeries:
    """Total weight of one cusp marking, summed over contact orders k >= 1.

    The multiplicative shape contributes s/(1-us), the additive shape
    u^5 s^7/(1-us); both truncated at `order`.
    """
    if not ft.is_cusp_family:
        raise ValueError(f"{ft.label} is not a cusp family")
    # monomial at k=1 times the geometric series in (u*s)
    u_exp = ft.components_minus_one(1)
    s_exp = ft.disc_valuation(1)
    head = DiscSeries.monomial(order, s_exp, LatticePoly.monomial(u_exp))
    us = DiscSeries.monomial(order, 1, LatticePoly.monomial(1))
    return head * series_one_minus_inverse(us)


def geometric_resummation(a_coef, a, b, c, d, order) -> DiscSeries:
    """Closed form of sum_{k>=1} A u^(a k + b) s^(c k + d):
    A u^(a+b) s^(c+d) / (1 - u^a s^c), truncated at `order`."""
    if a < 1 or c < 1:
        raise ValueError("slopes a, c must be >= 1")
    if b < 0 or d < 0:
        raise ValueError("offsets b, d must be >= 0")
    head = DiscSeries.monomial(order, c + d, LatticePoly.monomial(a + b, a_coef))
    step = DiscSeries.monomial(order, c, LatticePoly.monomial(a))
    return head * series_one_minus_inverse(step)


def _reduced_denominator(ft: FiberType):
    """(motive, u_exp, s_exp, cusp_denominator) of one catalog row: the
    local monomial (for a cusp family its k=1 term) and the multiplicity of
    the cusp denominator 1/(1-us)."""
    return (ft.motive, ft.components_minus_one(1), ft.disc_valuation(1),
            int(ft.is_cusp_family))


def build_factor(ft: FiberType, order) -> FactorSpec:
    """Local factor of one catalog row, with its reduced-display data."""
    if ft.is_cusp_family:
        y = ft.motive * cusp_resummed_weight(ft, order)
    else:
        y = DiscSeries.monomial(
            order, ft.disc_valuation(),
            LatticePoly.monomial(ft.components_minus_one(), ft.motive))
    return FactorSpec(ft, y, *_reduced_denominator(ft))


def euler_factor(fs: FactorSpec) -> DiscSeries:
    """Full projective-line factor 1/((1-Y)(1-L*Y)) of one local type."""
    return series_one_minus_inverse(fs.y) * series_one_minus_inverse(L * fs.y)


def mark_weight(ft: FiberType):
    """Minimal s-valuation contributed by one marking of this type after
    the u/cusp substitutions (0 for non-cusp: their s-power is explicit)."""
    return ft.disc_valuation(1) if ft.is_cusp_family else 0


def multivariate_H(cat: Catalog, order) -> MarkVariablePoly:
    """Product of the full factors with formal marking variables in place
    of the u/cusp specializations.

    Non-cusp types keep their explicit s-power; for the cusp shapes the
    entire k-expansion lives in the variable, so their factor carries no
    explicit s and is bounded through the variable's valuation weight.
    """
    labels = tuple(ft.label for ft in cat.types)
    weights = tuple(mark_weight(ft) for ft in cat.types)
    product = MarkVariablePoly.one(labels, weights, order)
    for i, ft in enumerate(cat.types):
        product = product * _mark_factor(cat, i, ft, labels, weights, order)
    return product


def _mark_factor(cat, index, ft, labels, weights, order):
    # sum_N {Sym^N(P^1)} (A x s^c)^N with c = v(Delta) for non-cusp, 0 for cusp
    from .algebra import motive_sym_p1

    s_exp = 0 if ft.is_cusp_family else ft.disc_valuation()
    step = max(s_exp, weights[index])
    base = DiscSeries.monomial(order, s_exp, ft.motive)
    terms = {}
    power = DiscSeries.one(order)
    n = 0
    while n * step <= order:
        exps = tuple(n if j == index else 0 for j in range(len(labels)))
        terms[exps] = motive_sym_p1(n) * power
        n += 1
        power = power * base
    return MarkVariablePoly(labels, weights, order, terms)


def substitutions_for(cat: Catalog, order):
    """The Euler-product substitutions: u^(m-1) for non-cusp labels, the
    resummed cusp weight for the cusp shapes."""
    subs = {}
    for ft in cat.types:
        if ft.is_cusp_family:
            subs[ft.label] = cusp_resummed_weight(ft, order)
        else:
            subs[ft.label] = DiscSeries.monomial(
                order, 0, LatticePoly.monomial(ft.components_minus_one()))
    return subs


@dataclass(frozen=True)
class ZetaResult:
    """Full s-graded expansion plus its t = s^12 subsequence.

    `residual_degrees` lists the s-degrees not divisible by 12 that carry a
    nonzero coefficient; the Euler product is genuinely finer than the
    t-grading and we report all three views.
    """

    series: DiscSeries
    t_series: tuple
    residual_degrees: tuple


def default_prefactor(cat: Catalog) -> LatticePoly:
    """u^2 * L for the full catalog (the height-zero stratum is the moduli
    of smooth elliptic curves).  The level-structure height-zero classes
    are not pinned down by the source tables, so those catalogs default to
    the bare baseline u^2; pass an explicit prefactor to override."""
    if cat.name == "full":
        return LatticePoly.monomial(2, L)
    return LatticePoly.monomial(2)


def _euler_denominators(motive, u_exp, s_exp, cusp_denominator):
    """The full factor 1/((1-Y)(1-L*Y)) of one row as two sparse factors
    (1 + N) / (1 - D), terms (s_exp, u_exp, LefschetzPoly).

    For a non-cusp row Y = M u^a s^b, so N = 0 and D = M u^a s^b.  For a
    cusp row Y = M u^a s^b / (1-us) and 1/(1-Y) = (1-us) / (1-us-M u^a s^b),
    so N = -us and D = us + M u^a s^b.  Then the same with L*M.
    """
    us = ((1, 1, LefschetzPoly.one()),) if cusp_denominator else ()
    numerator = tuple((d, a, -m) for d, a, m in us)
    return tuple((numerator, us + ((s_exp, u_exp, m),))
                 for m in (motive, L * motive))


def z_triv(cat: Catalog, order, prefactor=None) -> ZetaResult:
    """The finite Euler product: prefactor times the product of all full
    local factors, truncated at `order`.

    The coefficients are Kronecker-packed (`KroneckerLayout`), and each
    full factor is divided in place by its sparse denominators: for a
    non-cusp row f[n] += M u^a f[n-b] for Y and for L*Y; a cusp row first
    multiplies by (1-us), then runs f[n] += u f[n-1] + M u^a f[n-b].  The
    layout is sized from the catalog before any series is built, so an
    oversized order raises LayoutTooLarge at once.  The prefactor needs
    integer coefficients.
    """
    if prefactor is None:
        prefactor = default_prefactor(cat)
    prefactor = LatticePoly.coerce(prefactor)
    layout = KroneckerLayout.fit(
        prefactor, [factor for ft in cat.types
                    for factor in _euler_denominators(*_reduced_denominator(ft))],
        order)
    packed = [layout.pack(prefactor)] + [0] * order
    for ft in cat.types:
        # the recurrence reads the factor's reduced-denominator fields only
        fs = build_factor(ft, order)
        for factor in _euler_denominators(fs.motive, fs.u_exp, fs.s_exp,
                                          fs.cusp_denominator):
            layout.apply(packed, factor)
    series = DiscSeries._make(order, tuple(layout.unpack(v) for v in packed))
    t_series = tuple(series.coeffs[n] for n in range(0, order + 1, 12))
    residual = tuple(n for n in range(order + 1)
                     if n % 12 != 0 and series.coeffs[n])
    return ZetaResult(series=series, t_series=t_series, residual_degrees=residual)
