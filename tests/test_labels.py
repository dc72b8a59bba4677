"""Labeled bases for the slow-time corrections: dimensions and round-trips.

Independent oracle: the dimensions of the graded monomial spaces follow from
counting weighted partitions by hand; the six values asserted here were
enumerated that way before the label tables were written.
"""

import pytest

from asymint.diffpoly import DiffPolynomial, enumerate_basis, mono
from asymint.errors import GradingError
from asymint.field import CoeffField
from asymint.knowns import KnownPoly
from asymint.labels import (
    T2_SECOND,
    T2_THIRD,
    T2_THIRD_KDV,
    T3_SECOND,
    LabeledBasis,
)

F = CoeffField(1)

# (weight, grading, max_index) -> dimension, counted by hand
DIMENSIONS = [
    (6, "potential", 1, 3),
    (8, "potential", 1, 6),
    (8, "potential", 2, 11),
    (10, "potential", 2, 24),
    (9, "kdv", 2, 14),
    (11, "kdv", 2, 31),
]


def test_graded_space_dimensions():
    for weight, grading, max_index, dim in DIMENSIONS:
        space = enumerate_basis(weight, grading, max_index)
        assert len(space) == dim


def _covers_its_space(basis):
    """True when the table names every monomial of its graded space exactly once."""
    monomials = [m for _, m in basis.pairs]
    space = enumerate_basis(basis.weight, basis.grading, basis.max_index)
    return len(set(monomials)) == len(monomials) and set(monomials) == set(space)


def test_frozen_tables_cover_their_spaces():
    for basis, prefix, dim in (
        (T2_SECOND, "a", 3), (T3_SECOND, "b", 6), (T2_THIRD, "c", 11), (T2_THIRD_KDV, "d", 14)
    ):
        assert len(basis.pairs) == dim
        assert basis.labels == tuple(f"{prefix}{i + 1}" for i in range(dim))
        assert _covers_its_space(basis)


def test_generic_basis_dimensions():
    assert len(LabeledBasis("q", 10, "potential", 2).labels) == 24
    assert len(LabeledBasis("q", 11, "kdv", 2).labels) == 31


def test_ansatz_express_round_trip():
    for basis in (T2_SECOND, T3_SECOND, T2_THIRD, T2_THIRD_KDV):
        coeffs = basis.express(basis.ansatz(F))
        assert set(coeffs) == set(basis.labels)
        for name, value in coeffs.items():
            assert value == KnownPoly.symbol(F, name)


def test_express_rejects_stray_monomials():
    stray = T3_SECOND.ansatz(F)  # weight 8, not in the weight-6 table
    with pytest.raises(GradingError):
        T2_SECOND.express(stray)


def test_polynomial_and_express_invert_each_other():
    for basis in (T2_THIRD, T2_THIRD_KDV):
        values = {name: F.coerce(k) for k, name in enumerate(basis.labels)}
        poly = basis.polynomial(values)
        assert list(poly.terms) == [m for name, m in basis.pairs if values[name]]
        assert basis.express(poly) == {name: v for name, v in values.items() if v}
    with pytest.raises(GradingError):
        T2_THIRD.express(DiffPolynomial({mono(("phi", 1, 1)): F.one}))



def test_incomplete_table_is_rejected():
    pairs = T2_SECOND.pairs
    stray = T3_SECOND.pairs[0]  # weight 8, outside the weight-6 space
    for table in (pairs[:-1], pairs[:-1] + pairs[:1], pairs[:-1] + (stray,)):
        assert not _covers_its_space(LabeledBasis("a", 6, "potential", 1, table))
