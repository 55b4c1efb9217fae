from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heightzeta.algebra import (
    DiscSeries,
    KroneckerLayout,
    L,
    LatticePoly,
    LefschetzPoly,
    motive_pgl2,
    motive_sym_p1,
    series_one_minus_inverse,
)

coefs = st.integers(min_value=-9, max_value=9)

lefschetz_polys = st.dictionaries(
    st.integers(min_value=-5, max_value=8), coefs, max_size=5
).map(LefschetzPoly)

lattice_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4), lefschetz_polys, max_size=4
).map(lambda d: LatticePoly({e: c for e, c in d.items() if c}))


def disc_series(order=6):
    return st.lists(lattice_polys, max_size=order + 1).map(
        lambda cs: DiscSeries(order, cs))


def positive_valuation_series(order=6):
    return disc_series(order).map(
        lambda y: DiscSeries(order, [LatticePoly.zero()] + list(y.coeffs[1:])))


class TestLefschetzPoly:
    def test_difference_of_squares(self):
        assert (1 + L) * (1 - L) == 1 - L ** 2

    def test_localization_identity(self):
        assert LefschetzPoly.monomial(-1) * L == LefschetzPoly.one()

    def test_istar_motive_times_one(self):
        a = L ** 12 - L ** 11
        assert a * LefschetzPoly.one() == a

    def test_canonical_form_strips_zeros(self):
        p = LefschetzPoly({3: 2, 1: 0})
        assert p.terms == {3: 2}
        assert (p - p).terms == {}

    def test_evaluate(self):
        assert (L ** 12 - L ** 11).evaluate(3) == 354294
        assert motive_pgl2().evaluate(2) == 6
        assert motive_pgl2().evaluate(1) == 0

    def test_evaluate_at_zero_with_pole(self):
        with pytest.raises(ZeroDivisionError):
            LefschetzPoly.monomial(-1).evaluate(0)

    @given(lefschetz_polys, lefschetz_polys, lefschetz_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == LefschetzPoly.zero()


class TestSymP1:
    def test_empty_power(self):
        assert motive_sym_p1(0) == LefschetzPoly.one()

    def test_p1_itself(self):
        assert motive_sym_p1(1) == 1 + L

    def test_sym2_matches_kapranov_expansion(self):
        # independent oracle: coefficient of Y^2 in 1/((1-Y)(1-L Y)),
        # expanded as (sum Y^i)(sum L^j Y^j)
        expected = sum((L ** j for j in range(3)), LefschetzPoly.zero())
        assert motive_sym_p1(2) == expected
        assert motive_sym_p1(2) == 1 + L + L ** 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            motive_sym_p1(-1)


class TestLatticePoly:
    def test_rejects_negative_u_exponent(self):
        with pytest.raises(ValueError):
            LatticePoly({-1: 1})

    @given(lattice_polys, lattice_polys, lattice_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == LatticePoly.zero()

    def test_substitute_u_and_L(self):
        p = LatticePoly.monomial(2, L)  # u^2 * L
        assert p.substitute(u_val=1, L_val=2).constant() == 2

    def test_substitute_is_identity_without_values(self):
        p = LatticePoly({1: L ** 2, 3: 1 - L})
        assert p.substitute() == p


class TestDiscSeries:
    def test_truncation_to_min_order(self):
        a = DiscSeries.monomial(5, 1)
        b = DiscSeries.monomial(3, 2)
        assert (a * b).order == 3
        assert (a + b).order == 3

    @given(disc_series(), disc_series(), disc_series())
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == DiscSeries.zero(a.order)

    def test_monomial_beyond_order_is_zero(self):
        assert DiscSeries.monomial(3, 5).is_zero()


class TestGeometricInverse:
    def test_empty_series(self):
        assert series_one_minus_inverse(DiscSeries.zero(4)) == DiscSeries.one(4)

    def test_us_geometric_series(self):
        us = DiscSeries.monomial(3, 1, LatticePoly.monomial(1))
        inv = series_one_minus_inverse(us)
        expected = sum(
            (DiscSeries.monomial(3, k, LatticePoly.monomial(k)) for k in range(4)),
            DiscSeries.zero(3))
        assert inv == expected

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(ValueError):
            series_one_minus_inverse(DiscSeries.one(4))

    @given(positive_valuation_series())
    @settings(max_examples=50)
    def test_multiplies_back_to_one(self, y):
        inv = series_one_minus_inverse(y)
        assert (DiscSeries.one(y.order) - y) * inv == DiscSeries.one(y.order)

    @given(positive_valuation_series())
    @settings(max_examples=30)
    def test_kapranov_identity(self, y):
        # sum_N {Sym^N(P^1)} Y^N == 1/((1-Y)(1-L Y)), computed on both
        # sides without sharing the expansion route
        order = y.order
        lhs = DiscSeries.zero(order)
        power = DiscSeries.one(order)
        for n in range(order + 1):
            lhs = lhs + motive_sym_p1(n) * power
            power = power * y
        rhs = series_one_minus_inverse(y) * series_one_minus_inverse(L * y)
        assert lhs == rhs


class TestSpecialize:
    def test_frozen_example(self):
        p = DiscSeries.monomial(6, 6, LatticePoly.monomial(4, L ** 12 - L ** 11))
        out = p.specialize(u_val=1, L_val=3)
        assert out.constant_values()[6] == 354294

    def test_identity_without_substitutions(self):
        p = DiscSeries.monomial(4, 2, LatticePoly.monomial(1, L))
        assert p.specialize() == p

    def test_rational_values(self):
        p = DiscSeries.monomial(2, 0, LatticePoly.monomial(1, LefschetzPoly.monomial(-1)))
        out = p.specialize(u_val=Fraction(1, 2), L_val=Fraction(2, 3))
        assert out.constant_values()[0] == Fraction(3, 4)

    @given(disc_series(order=4), disc_series(order=4))
    @settings(max_examples=40)
    def test_commutes_with_multiplication(self, a, b):
        spec_then_mul = a.specialize(1, 2) * b.specialize(1, 2)
        mul_then_spec = (a * b).specialize(1, 2)
        assert spec_then_mul == mul_then_spec


class TestKroneckerLayout:
    @given(lattice_polys, st.integers(0, 3))
    def test_pack_unpack_roundtrip(self, p, scale):
        p = p * LatticePoly.monomial(0, 10 ** (20 * scale))
        layout = KroneckerLayout.fit(p, (), 0)
        assert layout.unpack(layout.pack(p)) == p

    @given(lattice_polys, lattice_polys)
    def test_packed_sum_is_sum(self, p, q):
        layout = KroneckerLayout.fit(p + q, (), 0)
        wide = KroneckerLayout(layout.rows, layout.slots, layout.l_offset, 8)
        assert wide.unpack(wide.pack(p) + wide.pack(q)) == p + q

    def test_shift_is_monomial_product(self):
        p = LatticePoly({0: LefschetzPoly({0: 3, -2: -1}), 1: -L})
        layout = KroneckerLayout(3, 8, -2, 2)
        shifted = layout.pack(p) << layout.shift(1, 2)
        assert layout.unpack(shifted) == p * LatticePoly.monomial(1, L ** 2)
