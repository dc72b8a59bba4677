"""Kernels for dense integer polynomials in h."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asymint import _polyops as P

polys = st.lists(st.integers(-30, 30), max_size=6).map(P.pnormalize)
small_polys = st.lists(st.integers(-9, 9), max_size=4).map(P.pnormalize)


def test_normalize_strips_trailing_zeros():
    assert P.pnormalize([1, 2, 0, 0]) == (1, 2)
    assert P.pnormalize([0, 0]) == ()
    assert P.pdegree(()) == -1
    assert P.pdegree((5,)) == 0


def test_arithmetic_known_values():
    a, b = (1, 2), (3, 0, 4)  # 1 + 2h, 3 + 4h^2
    assert P.padd(a, b) == (4, 2, 4)
    assert P.pmul(a, b) == (3, 6, 4, 8)
    assert P.peval(P.pmul(a, b), Fraction(1, 2)) == Fraction(1 + 1) * Fraction(4)


def test_divexact_and_gcd():
    a = P.pmul((1, 1), (2, 0, 3))
    assert P.pdivexact(a, (1, 1)) == (2, 0, 3)
    with pytest.raises(ArithmeticError):
        P.pdivexact((1, 1, 1), (1, 1))
    # gcd includes integer content and has a positive leading coefficient
    assert P.pgcd((6, 0, -6), (4, 4)) == (2, 2)
    assert P.pgcd((), (0, -3)) == (0, 3)


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    lhs = P.pmul(a, P.padd(b, c))
    rhs = P.padd(P.pmul(a, b), P.pmul(a, c))
    assert lhs == rhs


@given(small_polys, small_polys)
def test_gcd_divides_both(a, b):
    g = P.pgcd(a, b)
    if g:
        for x in (a, b):
            if x:
                P.pdivexact(x, g)  # must not raise


@given(small_polys, small_polys)
def test_product_divides_exactly(a, b):
    if a and b:
        assert P.pdivexact(P.pmul(a, b), b) == a


@given(polys, st.fractions())
def test_eval_is_ring_hom(a, x):
    b = (2, -1)
    assert P.peval(P.pmul(a, b), x) == P.peval(a, x) * P.peval(b, x)


def test_sign_analysis_on_unit_interval():
    # 1 - h^2 > 0 on (0,1) even though it vanishes at the endpoint
    assert P.sign_on_open_unit_interval((1, 0, -1)) == 1
    # -1 - h^2 < 0
    assert P.sign_on_open_unit_interval((-1, 0, -1)) == -1
    # 2h - 1 changes sign at h = 1/2
    assert P.sign_on_open_unit_interval((-1, 2)) == 0
    assert P.count_roots_open_unit_interval((-1, 2)) == 1
    assert P.count_roots_open_unit_interval((1, 0, -1)) == 0
    # two interior roots
    assert P.count_roots_open_unit_interval(P.pmul((-1, 4), (-3, 4))) == 2


def test_pstr_ascending_display():
    assert P.pstr((3, 0, -17)) == "3 - 17*h^2"
    assert P.pstr(()) == "0"
    assert P.pstr((0, -1)) == "-h"
    assert P.pstr((0, 0, 1)) == "h^2"
