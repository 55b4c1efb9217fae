import pytest
from hypothesis import given, settings, strategies as st

from heightzeta.algebra import (
    DiscSeries,
    KroneckerLayout,
    L,
    LatticePoly,
    LayoutTooLarge,
    LefschetzPoly,
    series_one_minus_inverse,
)
from heightzeta.kodaira import (
    CATALOG_NAMES,
    Catalog,
    FiberType,
    I0STAR_GENERIC,
    I0STAR_SPECIAL,
    I_CUSP,
    ISTAR_CUSP,
    catalog,
)
from heightzeta.zeta import (
    build_factor,
    cusp_resummed_weight,
    default_prefactor,
    euler_factor,
    geometric_resummation,
    multivariate_H,
    substitutions_for,
    z_triv,
)
from heightzeta.zeta import _euler_denominators, _reduced_denominator


def umono(order, s_exp, u_exp, coef=1):
    return DiscSeries.monomial(order, s_exp, LatticePoly.monomial(u_exp, coef))


class TestCuspResummedWeight:
    def test_multiplicative_shape(self):
        ft = catalog("full").by_label(I_CUSP)
        expected = umono(3, 1, 0) + umono(3, 2, 1) + umono(3, 3, 2)
        assert cusp_resummed_weight(ft, 3) == expected

    def test_additive_shape(self):
        ft = catalog("full").by_label(ISTAR_CUSP)
        expected = umono(8, 7, 5) + umono(8, 8, 6)
        assert cusp_resummed_weight(ft, 8) == expected

    def test_order_zero(self):
        ft = catalog("full").by_label(I_CUSP)
        assert cusp_resummed_weight(ft, 0).is_zero()

    def test_rejects_noncusp(self):
        with pytest.raises(ValueError):
            cusp_resummed_weight(catalog("full").by_label("II"), 4)


class TestGeometricResummation:
    def test_unit_slopes(self):
        assert geometric_resummation(1, 1, 0, 1, 0, 2) == umono(2, 1, 1) + umono(2, 2, 2)

    def test_istar_shift_with_scaling(self):
        assert geometric_resummation(L, 1, 4, 1, 6, 7) == umono(7, 7, 5, L)

    def test_slope_two_three(self):
        assert geometric_resummation(1, 2, 0, 3, 0, 6) == umono(6, 3, 2) + umono(6, 6, 4)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            geometric_resummation(1, 0, 0, 1, 0, 4)
        with pytest.raises(ValueError):
            geometric_resummation(1, 1, -1, 1, 0, 4)

    @pytest.mark.parametrize("a,c", [(1, 1), (1, 2), (2, 1), (3, 3)])
    @pytest.mark.parametrize("b,d", [(0, 0), (2, 5)])
    def test_matches_explicit_sum(self, a, b, c, d):
        order = 14
        explicit = DiscSeries.zero(order)
        k = 1
        while c * k + d <= order:
            explicit = explicit + umono(order, c * k + d, a * k + b)
            k += 1
        assert geometric_resummation(1, a, b, c, d, order) == explicit


# (label, expected motive, u-exponent, s-exponent, cusp denominator flag)
TABLE_ROWS = {
    "full": [
        (I_CUSP, L ** 16, 0, 1, 1),
        ("II", L ** 15, 0, 2, 0),
        ("III", L ** 14, 1, 3, 0),
        ("IV", L ** 13, 2, 4, 0),
        (ISTAR_CUSP, L ** 12 - L ** 11, 5, 7, 1),
        (I0STAR_GENERIC, L ** 12 - L ** 11, 4, 6, 0),
        (I0STAR_SPECIAL, L ** 11, 4, 6, 0),
        ("IV*", L ** 10, 6, 8, 0),
        ("III*", L ** 9, 7, 9, 0),
        ("II*", L ** 8, 8, 10, 0),
    ],
    "gamma1_2": [
        (I_CUSP, L ** 8, 0, 1, 1),
        ("III", L ** 7, 1, 3, 0),
        (ISTAR_CUSP, L ** 6 - L ** 5, 5, 7, 1),
        (I0STAR_GENERIC, L ** 6 - L ** 5, 4, 6, 0),
        (I0STAR_SPECIAL, L ** 5, 4, 6, 0),
        ("III*", L ** 4, 7, 9, 0),
    ],
    "gamma1_3": [
        (I_CUSP, L ** 4, 0, 1, 1),
        ("IV", L ** 3, 2, 4, 0),
        ("IV*", L ** 2, 6, 8, 0),
    ],
    "gamma1_4": [
        (I_CUSP, L ** 2, 0, 1, 1),
        (I0STAR_SPECIAL, L, 4, 6, 0),
    ],
}


class TestBuildFactor:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_reduced_factor_display(self, name):
        cat = catalog(name)
        rows = {r[0]: r[1:] for r in TABLE_ROWS[name]}
        assert {ft.label for ft in cat.types} == set(rows)
        for ft in cat.types:
            motive, u_exp, s_exp, cusp = rows[ft.label]
            fs = build_factor(ft, 12)
            assert fs.motive == motive, ft.label
            assert fs.u_exp == u_exp, ft.label
            assert fs.s_exp == s_exp, ft.label
            assert fs.cusp_denominator == cusp, ft.label

    def test_noncusp_y_is_monomial(self):
        fs = build_factor(catalog("full").by_label("III"), 6)
        assert fs.y == umono(6, 3, 1, L ** 14)

    def test_cusp_y_is_resummed(self):
        ft = catalog("full").by_label(ISTAR_CUSP)
        fs = build_factor(ft, 9)
        assert fs.y == (L ** 12 - L ** 11) * cusp_resummed_weight(ft, 9)

    def test_gamma1_4_I0star(self):
        fs = build_factor(catalog("gamma1_4").by_label(I0STAR_SPECIAL), 8)
        assert fs.y == umono(8, 6, 4, L)


class TestEulerFactor:
    def test_type_II_linear_term(self):
        fs = build_factor(catalog("full").by_label("II"), 4)
        assert euler_factor(fs).coeffs[2] == LatticePoly({0: (1 + L) * L ** 15})

    def test_cusp_linear_term(self):
        fs = build_factor(catalog("full").by_label(I_CUSP), 4)
        assert euler_factor(fs).coeffs[1] == LatticePoly({0: (1 + L) * L ** 16})

    def test_constant_term_is_one(self):
        for ft in catalog("full").types:
            assert euler_factor(build_factor(ft, 5)).coeffs[0] == LatticePoly.one()


class TestZTriv:
    def test_constant_term_full(self):
        for order in (0, 3, 12):
            z = z_triv(catalog("full"), order)
            assert z.series.coeffs[0] == LatticePoly.monomial(2, L)

    def test_s1_coefficient_full(self):
        z = z_triv(catalog("full"), 2)
        assert z.series.coeffs[1] == LatticePoly.monomial(2, L ** 17 + L ** 18)

    def test_s1_coefficient_gamma1_3(self):
        z = z_triv(catalog("gamma1_3"), 2)
        assert z.series.coeffs[1] == LatticePoly.monomial(2, (1 + L) * L ** 4)

    def test_default_prefactors(self):
        assert default_prefactor(catalog("full")) == LatticePoly.monomial(2, L)
        assert default_prefactor(catalog("gamma1_2")) == LatticePoly.monomial(2)

    def test_explicit_prefactor(self):
        z = z_triv(catalog("gamma1_4"), 0, prefactor=LatticePoly.monomial(2, L))
        assert z.series.coeffs[0] == LatticePoly.monomial(2, L)

    def test_t_series_and_residuals(self):
        z = z_triv(catalog("full"), 24)
        assert len(z.t_series) == 3
        assert z.t_series[0] == LatticePoly.monomial(2, L)
        assert 1 in z.residual_degrees

    def test_residuals_order_two(self):
        z = z_triv(catalog("full"), 2)
        assert 1 in z.residual_degrees

    def test_u1_degeneration_commutes(self):
        # substituting u=1 after assembly equals assembling with u folded in
        cat = catalog("full")
        z = z_triv(cat, 10)
        after = z.series.specialize(u_val=1)
        pre = DiscSeries.monomial(10, 0, default_prefactor(cat).substitute(u_val=1))
        for ft in cat.types:
            fs = build_factor(ft, 10)
            y1 = fs.y.specialize(u_val=1)
            pre = pre * (series_one_minus_inverse(y1)
                         * series_one_minus_inverse(L * y1))
        assert after == pre

    def test_point_count_positivity(self):
        values = z_triv(catalog("full"), 12).series.specialize(
            u_val=1, L_val=2).constant_values()
        assert all(v >= 0 and v == int(v) for v in values)


# Synthetic catalogs for pitting the packed recurrence against the dense
# series product: mixed-sign motives with negative L-exponents, and
# coefficients past 2^64 so that the slots grow wide.
big_coefs = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))
synthetic_motives = st.dictionaries(
    st.integers(-4, 6), big_coefs, max_size=3).map(LefschetzPoly)
synthetic_prefactors = st.dictionaries(
    st.integers(0, 3), synthetic_motives, max_size=3).map(
        lambda d: LatticePoly({e: c for e, c in d.items() if c}))


@st.composite
def synthetic_types(draw):
    if draw(st.booleans()):
        # cusp family: u^(k + c) s^(k + d) at contact order k >= 1
        return FiberType("cusp", (0, 0), draw(synthetic_motives),
                         comp_minus_one=draw(st.integers(-1, 3)),
                         disc_val=draw(st.integers(0, 4)), is_cusp_family=True)
    return FiberType("plain", (2, 1), draw(synthetic_motives),
                     comp_minus_one=draw(st.integers(0, 4)),
                     disc_val=draw(st.integers(1, 6)))


synthetic_catalogs = st.lists(synthetic_types(), max_size=4).map(
    lambda types: Catalog("synthetic", tuple(types), ""))


class TestPackedEulerProduct:
    @given(synthetic_catalogs, synthetic_prefactors, st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_product(self, cat, prefactor, order):
        dense = DiscSeries.monomial(order, 0, prefactor)
        for ft in cat.types:
            dense = dense * euler_factor(build_factor(ft, order))
        assert z_triv(cat, order, prefactor).series == dense

    def test_rejects_fraction_prefactor(self):
        from fractions import Fraction
        with pytest.raises(TypeError):
            z_triv(catalog("gamma1_4"), 4, LatticePoly.monomial(0, Fraction(1, 2)))

    def test_order_96_full_fits(self):
        cat = catalog("full")
        factors = [f for ft in cat.types
                   for f in _euler_denominators(*_reduced_denominator(ft))]
        layout = KroneckerLayout.fit(default_prefactor(cat), factors, 96)
        # u^2 L times at most (u s)^96 and (L^17 s)^96
        assert (layout.rows, layout.slots, layout.l_offset) == (99, 1633, 1)

    def test_oversized_order_is_refused_before_any_series(self):
        with pytest.raises(LayoutTooLarge, match="order 100000 is too large"):
            z_triv(catalog("full"), 100000)


class TestMultivariateH:
    def test_gamma1_4_linear_coefficient(self):
        h = multivariate_H(catalog("gamma1_4"), 8)
        idx = [ft.label for ft in catalog("gamma1_4").types].index(I0STAR_SPECIAL)
        exps = tuple(1 if i == idx else 0 for i in range(2))
        coeff = h.coefficient(exps)
        assert coeff.coeffs[6] == LatticePoly({0: (1 + L) * L})

    def test_constant_coefficient_is_one(self):
        for name in CATALOG_NAMES:
            cat = catalog(name)
            h = multivariate_H(cat, 6)
            assert h.coefficient((0,) * len(cat.types)).coeffs[0] == LatticePoly.one()

    @pytest.mark.parametrize("name", ["gamma1_3", "gamma1_4"])
    def test_specialization_ladder_small(self, name):
        cat = catalog(name)
        h = multivariate_H(cat, 12)
        lhs = h.substitute(substitutions_for(cat, 12))
        rhs = z_triv(cat, 12, prefactor=LatticePoly.one()).series
        assert lhs == rhs

    def test_u_free_consistency(self):
        # substituting the u=1 specialization of every marking matches the
        # product of Euler factors at u=1
        cat = catalog("gamma1_2")
        h = multivariate_H(cat, 10)
        subs = {lbl: series.specialize(u_val=1)
                for lbl, series in substitutions_for(cat, 10).items()}
        lhs = h.substitute(subs)
        rhs = DiscSeries.one(10)
        for ft in cat.types:
            rhs = rhs * euler_factor(build_factor(ft, 10)).specialize(u_val=1)
        assert lhs == rhs


def test_table_cross_check_monomial_exponents():
    # the local monomial's u- and s-exponents must agree with the catalog's
    # component and valuation columns
    for name in CATALOG_NAMES:
        for ft in catalog(name).types:
            if ft.is_cusp_family:
                continue
            fs = build_factor(ft, 12)
            assert fs.u_exp == ft.components_minus_one()
            assert fs.s_exp == ft.disc_valuation()
