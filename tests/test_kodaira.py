import pytest

from heightzeta.algebra import L
from heightzeta.kodaira import (
    CATALOG_NAMES,
    FiberConfiguration,
    I0STAR_GENERIC,
    I0STAR_SPECIAL,
    I_CUSP,
    ISTAR_CUSP,
    catalog,
    catalog_to_json,
    enumerate_configurations,
)


def test_catalog_row_counts():
    assert len(catalog("full").types) == 10
    assert len(catalog("gamma1_2").types) == 6
    assert len(catalog("gamma1_3").types) == 3
    assert len(catalog("gamma1_4").types) == 2


def test_unknown_catalog():
    with pytest.raises(ValueError):
        catalog("gamma1_5")


def test_full_catalog_motives():
    expected = {
        I_CUSP: L ** 16,
        "II": L ** 15,
        "III": L ** 14,
        "IV": L ** 13,
        ISTAR_CUSP: L ** 12 - L ** 11,
        I0STAR_GENERIC: L ** 12 - L ** 11,
        I0STAR_SPECIAL: L ** 11,
        "IV*": L ** 10,
        "III*": L ** 9,
        "II*": L ** 8,
    }
    cat = catalog("full")
    assert {ft.label for ft in cat.types} == set(expected)
    for ft in cat.types:
        assert ft.motive == expected[ft.label], ft.label


def test_full_row_III():
    ft = catalog("full").by_label("III")
    assert ft.stabilizer == (4, 1)
    assert ft.components_minus_one() == 1
    assert ft.motive == L ** 14


def test_gamma1_3_row_IVstar():
    ft = catalog("gamma1_3").by_label("IV*")
    assert ft.stabilizer == (3, 2)
    assert ft.components_minus_one() == 6
    assert ft.motive == L ** 2


def test_gamma1_4_types():
    labels = {ft.label for ft in catalog("gamma1_4").types}
    assert labels == {I_CUSP, I0STAR_SPECIAL}
    assert catalog("gamma1_4").by_label(I0STAR_SPECIAL).motive == L


def test_noncusp_disc_valuations():
    for name in CATALOG_NAMES:
        for ft in catalog(name).types:
            if not ft.is_cusp_family:
                assert ft.disc_valuation() in {2, 3, 4, 6, 8, 9, 10}, ft.label


def test_cusp_families_have_slope_one():
    for ft in (catalog("full").by_label(I_CUSP), catalog("full").by_label(ISTAR_CUSP)):
        for k in (1, 2, 5):
            assert ft.components_minus_one(k + 1) - ft.components_minus_one(k) == 1
            assert ft.disc_valuation(k + 1) - ft.disc_valuation(k) == 1


def test_cusp_offsets():
    i = catalog("full").by_label(I_CUSP)
    istar = catalog("full").by_label(ISTAR_CUSP)
    assert i.components_minus_one(5) == 4 and i.disc_valuation(5) == 5
    assert istar.components_minus_one(1) == 5 and istar.disc_valuation(1) == 7


class TestTrivialLatticeRank:
    def test_empty(self):
        assert FiberConfiguration([]).trivial_lattice_rank() == 2

    def test_single_IIstar(self):
        ft = catalog("full").by_label("II*")
        assert FiberConfiguration([(ft, 1)]).trivial_lattice_rank() == 10

    def test_I5_cusp(self):
        ft = catalog("full").by_label(I_CUSP)
        assert FiberConfiguration([(ft, 5)]).trivial_lattice_rank() == 6


class TestEulerNumber:
    def test_multiplicative_family(self):
        ft = catalog("full").by_label(I_CUSP)
        assert ft.disc_valuation(7) == 7

    def test_additive_family(self):
        ft = catalog("full").by_label(ISTAR_CUSP)
        assert ft.disc_valuation(1) == 7

    def test_IIstar(self):
        assert catalog("full").by_label("II*").disc_valuation() == 10

    def test_equals_disc_valuation_everywhere(self):
        # Euler numbers of the Kodaira fibers, from the classification table
        euler = {I_CUSP: lambda k: k, "II": lambda k: 2, "III": lambda k: 3,
                 "IV": lambda k: 4, ISTAR_CUSP: lambda k: k + 6,
                 I0STAR_GENERIC: lambda k: 6, I0STAR_SPECIAL: lambda k: 6,
                 "IV*": lambda k: 8, "III*": lambda k: 9, "II*": lambda k: 10}
        for name in CATALOG_NAMES:
            for ft in catalog(name).types:
                for k in (1, 2, 3):
                    assert ft.disc_valuation(k) == euler[ft.label](k)


class TestEnumeration:
    def test_degree_zero(self):
        for name in CATALOG_NAMES:
            configs = enumerate_configurations(catalog(name), 0)
            assert configs == [FiberConfiguration([])]

    def test_full_degree_one(self):
        configs = enumerate_configurations(catalog("full"), 1)
        assert [c.label() for c in configs] == ["I_1"]

    def test_full_degree_two(self):
        configs = enumerate_configurations(catalog("full"), 2)
        assert {c.label() for c in configs} == {"I_2", "I_1 + I_1", "II"}

    def test_no_duplicates_and_degree_sums(self):
        for name in CATALOG_NAMES:
            cat = catalog(name)
            for d in range(13):
                configs = enumerate_configurations(cat, d)
                assert len(set(configs)) == len(configs)
                for c in configs:
                    # re-check the degree fiber by fiber
                    assert sum(ft.disc_valuation(k) for ft, k in c.entries) == d

    def test_contact_orders_bounded_by_degree(self):
        for d in range(16):
            for c in enumerate_configurations(catalog("full"), d):
                assert c.max_contact_order() <= d

    def test_deterministic_order(self):
        first = enumerate_configurations(catalog("full"), 8)
        second = enumerate_configurations(catalog("full"), 8)
        assert [c.label() for c in first] == [c.label() for c in second]

    def test_rank_lower_bound_and_flagging(self):
        configs = enumerate_configurations(catalog("full"), 12)
        for c in configs:
            assert c.trivial_lattice_rank() >= 2
        flagged = {c.label() for c in configs if c.exceeds_lefschetz_bound()}
        assert "I_12" in flagged  # T = 13 > 10 at n = 1
        ok = {c.label() for c in configs if not c.exceeds_lefschetz_bound()}
        assert "II* + II" in ok or any("II*" in lbl for lbl in ok)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            enumerate_configurations(catalog("full"), -1)


def test_catalog_json_roundtrip_against_types():
    data = catalog_to_json(catalog("full"))
    assert data["name"] == "full"
    assert len(data["types"]) == 10
    row = next(r for r in data["types"] if r["label"] == "III")
    assert row["stabilizer"] == {"r": 4, "a": 1}
    assert row["components_minus_one"] == 1
    assert row["disc_valuation"] == 3
    assert row["motive"] == {"terms": [{"exp": 14, "coef": "1"}]}
