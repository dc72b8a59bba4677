"""Polynomials in named unknowns with exact lattice-parameter coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymint.diffpoly import DiffPolynomial
from asymint.errors import InconsistentSystemError
from asymint.field import CoeffField
from asymint.knowns import KnownPoly
from asymint.lattice import SechPoly

F = CoeffField(1)


def sym(name):
    return KnownPoly.symbol(F, name)


def random_knowns():
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(F.from_fraction)
    names = st.sampled_from(["a1", "a2", "c11"])
    term = st.tuples(st.lists(names, max_size=2), coeffs)

    def build(ts):
        acc = KnownPoly.constant(F, F.zero)
        for ns, c in ts:
            t = KnownPoly.constant(F, c)
            for n in ns:
                t = t * sym(n)
            acc = acc + t
        return acc

    return st.lists(term, max_size=4).map(build)


@settings(max_examples=60)
@given(random_knowns(), random_knowns(), random_knowns())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


def test_scalar_interop():
    a = sym("a1")
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert F.c * a == a * F.c
    assert (1 + a) - a == 1


def test_split_linear():
    a1, a2, b = sym("a1"), sym("a2"), sym("b1")
    p = a1 * 3 + a2 * F.c + b * b + 7
    lin, rest = p.split_linear(["a1", "a2"])
    assert lin["a1"] == KnownPoly.constant(F, F.from_fraction(3))
    assert lin["a2"] == KnownPoly.constant(F, F.c)
    assert rest == b * b + 7
    with pytest.raises(InconsistentSystemError):
        (a1 * a1).split_linear(["a1"])
    # linear-with-known-coefficients is fine even when the coefficient involves b
    lin2, rest2 = (b * a1).split_linear(["a1"])
    assert lin2["a1"] == b
    assert rest2.is_zero()


def test_substitute_and_evaluate():
    a1, a2 = sym("a1"), sym("a2")
    p = a1 * a2 + a1 * 2
    q = p.substitute({"a1": KnownPoly.constant(F, F.from_fraction(3))})
    assert q == a2 * 3 + 6
    val = p.evaluate({"a1": F.from_fraction(3), "a2": F.c})
    assert val == F.c * 3 + 6
    with pytest.raises(KeyError):
        p.evaluate({"a1": F.from_fraction(3)})


def test_degrees_and_text():
    a1, a2 = sym("a1"), sym("a2")
    p = a1 * a1 * a2 + a2
    assert "a1^2" in p.text()


def test_sparse_sums_take_only_their_own_operands():
    p = sym("a1") + KnownPoly.constant(F, 3)
    poly = DiffPolynomial.constant(F.one)
    with pytest.raises(TypeError):
        poly + p
    with pytest.raises(TypeError):
        p + poly
    with pytest.raises(TypeError):
        SechPoly.basis(F, 1, 0) * poly
    with pytest.raises(ValueError, match="different fields"):
        p + KnownPoly.constant(CoeffField(0), 1)
    # scalars lift to constants on either side
    two = KnownPoly.constant(F, 2)
    assert 2 * p == p * 2 == two * p
    assert Fraction(1, 2) * p == p * F.from_fraction(Fraction(1, 2))
    assert F.c + p == p + KnownPoly.constant(F, F.c)
    assert p - 1 == sym("a1") + two
    assert 1 - p == -(sym("a1") + two)
