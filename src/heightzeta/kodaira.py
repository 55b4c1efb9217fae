"""Kodaira fiber-type catalogs and fiber-configuration enumeration.

The four catalogs (full, and the Gamma_1(2), Gamma_1(3), Gamma_1(4) level
structures) are compiled in, one entry per reduction type with its
stabilizer data, component count, discriminant valuation and normalized
motive.  The two cusp families I_k and I*_k are stored as single entries
whose component count and valuation are affine in the contact order k.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import L, LefschetzPoly

CATALOG_NAMES = ("full", "gamma1_2", "gamma1_3", "gamma1_4")

# Canonical labels for the two cusp shapes and the two inertia components
# of I_0* (the j in {0,1728} locus splits off a smaller motive).
I_CUSP = "I_cusp"
ISTAR_CUSP = "I*_cusp"
I0STAR_GENERIC = "I0*_generic_j"
I0STAR_SPECIAL = "I0*_special_j"


@dataclass(frozen=True)
class FiberType:
    """One reduction type with its per-type invariants.

    For cusp families, `comp_minus_one` and `disc_val` are offsets: the
    actual values at contact order k are k + comp_minus_one and
    k + disc_val (slope 1 in k for both).
    """

    label: str
    stabilizer: tuple
    motive: LefschetzPoly
    comp_minus_one: int
    disc_val: int
    is_cusp_family: bool = False

    def components_minus_one(self, k=1):
        """Number of fiber components minus one, at contact order k."""
        if self.is_cusp_family:
            return self.comp_minus_one + k
        return self.comp_minus_one

    def disc_valuation(self, k=1):
        """Valuation of the discriminant, at contact order k; equals the
        Euler number of the fiber away from characteristic 2, 3."""
        if self.is_cusp_family:
            return self.disc_val + k
        return self.disc_val


@dataclass(frozen=True)
class Catalog:
    name: str
    types: tuple
    normalization_note: str

    def by_label(self, label) -> FiberType:
        for ft in self.types:
            if ft.label == label:
                return ft
        raise KeyError(f"no type {label!r} in catalog {self.name!r}")


def _cusp_I(motive):
    return FiberType(I_CUSP, (0, 0), motive, comp_minus_one=-1, disc_val=0,
                     is_cusp_family=True)


def _cusp_Istar(motive):
    return FiberType(ISTAR_CUSP, (2, 1), motive, comp_minus_one=4, disc_val=6,
                     is_cusp_family=True)


_CATALOGS = {
    "full": Catalog(
        name="full",
        normalization_note="motives normalized by {PGL2} * L^(10n-18)",
        types=(
            _cusp_I(L ** 16),
            FiberType("II", (6, 1), L ** 15, 0, 2),
            FiberType("III", (4, 1), L ** 14, 1, 3),
            FiberType("IV", (3, 1), L ** 13, 2, 4),
            _cusp_Istar(L ** 12 - L ** 11),
            FiberType(I0STAR_GENERIC, (2, 1), L ** 12 - L ** 11, 4, 6),
            FiberType(I0STAR_SPECIAL, (2, 1), L ** 11, 4, 6),
            FiberType("IV*", (3, 2), L ** 10, 6, 8),
            FiberType("III*", (4, 3), L ** 9, 7, 9),
            FiberType("II*", (6, 5), L ** 8, 8, 10),
        ),
    ),
    "gamma1_2": Catalog(
        name="gamma1_2",
        normalization_note="motives normalized by {PGL2} * L^(6n-10)",
        types=(
            _cusp_I(L ** 8),
            FiberType("III", (4, 1), L ** 7, 1, 3),
            _cusp_Istar(L ** 6 - L ** 5),
            FiberType(I0STAR_GENERIC, (2, 1), L ** 6 - L ** 5, 4, 6),
            FiberType(I0STAR_SPECIAL, (2, 1), L ** 5, 4, 6),
            FiberType("III*", (4, 3), L ** 4, 7, 9),
        ),
    ),
    "gamma1_3": Catalog(
        name="gamma1_3",
        normalization_note="motives normalized by {PGL2} * L^(4n-6)",
        types=(
            _cusp_I(L ** 4),
            FiberType("IV", (3, 1), L ** 3, 2, 4),
            FiberType("IV*", (3, 2), L ** 2, 6, 8),
        ),
    ),
    "gamma1_4": Catalog(
        name="gamma1_4",
        normalization_note="motives normalized by {PGL2} * L^(3n-4)",
        types=(
            _cusp_I(L ** 2),
            FiberType(I0STAR_SPECIAL, (2, 1), L, 4, 6),
        ),
    ),
}


def catalog(name) -> Catalog:
    try:
        return _CATALOGS[name]
    except KeyError:
        raise ValueError(
            f"unknown catalog {name!r}; expected one of {CATALOG_NAMES}") from None


class FiberConfiguration:
    """A finite multiset of fiber types; cusp entries carry a contact order.

    Entries are stored as (FiberType, k) pairs in the deterministic order
    produced by the enumerator; k is 1 for non-cusp types.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    def total_disc_valuation(self):
        return sum(ft.disc_valuation(k) for ft, k in self.entries)

    def trivial_lattice_rank(self):
        """Rank of the trivial lattice: 2 plus the component excess over
        all singular fibers."""
        return 2 + sum(ft.components_minus_one(k) for ft, k in self.entries)

    def max_contact_order(self):
        orders = [k for ft, k in self.entries if ft.is_cusp_family]
        return max(orders) if orders else 0

    def exceeds_lefschetz_bound(self):
        """True when the total valuation is 12n (n >= 1) but T > 10n.

        Such configurations are formal: they satisfy the degree constraint
        without being realizable by an actual surface.  They are flagged,
        not dropped.
        """
        d = self.total_disc_valuation()
        if d == 0 or d % 12 != 0:
            return False
        return self.trivial_lattice_rank() > 10 * (d // 12)

    def label(self):
        parts = []
        for ft, k in self.entries:
            if ft.label == I_CUSP:
                parts.append(f"I_{k}")
            elif ft.label == ISTAR_CUSP:
                parts.append(f"I*_{k}")
            else:
                parts.append(ft.label)
        return " + ".join(parts) if parts else "(empty)"

    def _key(self):
        return tuple(sorted((ft.label, k) for ft, k in self.entries))

    def __eq__(self, other):
        if not isinstance(other, FiberConfiguration):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FiberConfiguration({self.label()})"


def enumerate_configurations(cat: Catalog, degree):
    """All multisets of catalog entries with total discriminant valuation
    equal to `degree`, each exactly once, in deterministic order.

    Cusp entries are expanded over contact orders k >= 1; within one cusp
    family the k values are chosen non-decreasing to avoid duplicates.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    types = cat.types
    results = []

    def rec(i, budget, acc):
        if i == len(types):
            if budget == 0:
                results.append(FiberConfiguration(acc))
            return
        ft = types[i]
        if not ft.is_cusp_family:
            cost = ft.disc_valuation()
            count = 0
            while count * cost <= budget:
                rec(i + 1, budget - count * cost, acc + [(ft, 1)] * count)
                count += 1
        else:
            def cusp_rec(min_k, sub_budget, sub_acc):
                rec(i + 1, sub_budget, sub_acc)
                k = min_k
                while ft.disc_valuation(k) <= sub_budget:
                    cusp_rec(k, sub_budget - ft.disc_valuation(k),
                             sub_acc + [(ft, k)])
                    k += 1
            cusp_rec(1, budget, acc)

    rec(0, degree, [])
    return results


def catalog_to_json(cat: Catalog):
    """Machine-readable catalog export for audit of the compiled-in tables."""
    rows = []
    for ft in cat.types:
        rows.append({
            "label": ft.label,
            "stabilizer": {"r": ft.stabilizer[0], "a": ft.stabilizer[1]},
            "is_cusp_family": ft.is_cusp_family,
            # for cusp families these are the offsets added to the contact order
            "components_minus_one": ft.comp_minus_one,
            "disc_valuation": ft.disc_val,
            "motive": ft.motive.to_json(),
        })
    return {
        "name": cat.name,
        "normalization": cat.normalization_note,
        "types": rows,
    }
