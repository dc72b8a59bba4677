"""Kernels for dense integer polynomials in h."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymint import _polyops as P
from asymint.errors import DomainError
from asymint.field import RatFunc

polys = st.lists(st.integers(-30, 30), max_size=6).map(P.pnormalize)
small_polys = st.lists(st.integers(-9, 9), max_size=4).map(P.pnormalize)


def test_normalize_strips_trailing_zeros():
    assert P.pnormalize([1, 2, 0, 0]) == (1, 2)
    assert P.pnormalize([0, 0]) == ()


def test_arithmetic_known_values():
    a, b = (1, 2), (3, 0, 4)  # 1 + 2h, 3 + 4h^2
    assert P.padd(a, b) == (4, 2, 4)
    assert P.pmul(a, b) == (3, 6, 4, 8)
    assert P.pmul((1,), b) == b
    assert P.pmul(a, (-3,)) == (-3, -6)
    assert P.pprimitive((-4, 6))[0] == 2 and P.pprimitive(())[0] == 0
    assert P.pprimitive((-4, 6)) == (2, (-2, 3))
    assert P.peval(P.pmul(a, b), Fraction(1, 2)) == Fraction(1 + 1) * Fraction(4)


def test_divexact_and_gcd():
    a = P.pmul((1, 1), (2, 0, 3))
    assert P.pdivexact(a, (1, 1)) == (2, 0, 3)
    with pytest.raises(ArithmeticError):
        P.pdivexact((1, 1, 1), (1, 1))
    # gcd includes integer content and has a positive leading coefficient
    assert P.pgcd((6, 0, -6), (4, 4)) == (2, 2)
    assert P.pgcd((), (0, -3)) == (0, 3)
    # a constant on either side: the integer gcd with the other's content
    big = 2**70
    assert P.pgcd((-6,), (4, 8, -2)) == (2,)
    assert P.pgcd((0, 6, 9), (-12,)) == (3,)
    assert P.pgcd((3 * big,), (big,)) == (big,)
    assert P.pdivexact((3 * big, -big), (-big,)) == (-3, 1)
    with pytest.raises(ArithmeticError):
        P.pdivexact((4, 6), (4,))
    with pytest.raises(ZeroDivisionError):
        P.pdivexact((3,), ())


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


def fraction_horner(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


points = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 3), Fraction(-7, 10**30)]),
    st.fractions(),
    st.fractions(max_denominator=10**40),
)


@given(st.one_of(st.just(()), st.integers().map(lambda k: P.pnormalize([k])), polys,
                 st.lists(st.integers(), max_size=12).map(P.pnormalize)), points)
def test_eval_matches_a_fraction_horner(a, x):
    value = P.peval(a, x)
    assert type(value) is Fraction
    assert value == fraction_horner(a, x)


@given(polys, small_polys.filter(bool), points)
def test_ratfunc_eval_matches_the_quotient_of_fraction_horners(num, den, h):
    r = RatFunc(num, den)
    if fraction_horner(r.den, h) == 0:
        with pytest.raises(DomainError):
            r.eval(h)
    else:
        assert r.eval(h) == fraction_horner(r.num, h) / fraction_horner(r.den, h)


def test_ratfunc_eval_rejects_a_root_of_its_denominator():
    r = RatFunc((1, 0, 2), (-1, 3))  # (1 + 2h^2) / (3h - 1)
    with pytest.raises(DomainError):
        r.eval(Fraction(1, 3))
    assert r.eval(Fraction(1, 2)) == Fraction(3, 1)
    assert RatFunc((5,), (-1, 3)).eval(Fraction(-1, 3)) == Fraction(-5, 2)
    assert RatFunc(()).eval(Fraction(1, 3)) == 0


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


# --- sympy oracle: Poly over ZZ, on constant and non-constant arguments ----------

# coefficients small, negative and above 2^64 in magnitude
coeffs = st.one_of(st.integers(-30, 30), st.integers(2**64, 2**70), st.integers(-2**70, -2**64))
constants = st.one_of(coeffs, st.just(1), st.just(-1)).filter(bool).map(lambda k: (k,))
operands = st.one_of(
    constants,
    st.just(P.ZERO),
    st.lists(coeffs, max_size=5).map(P.pnormalize),
    # a shared factor, so that gcds and exact quotients are not all trivial
    st.tuples(st.lists(coeffs, min_size=1, max_size=3), st.sampled_from([(1, 1), (-2, 0, 3)]))
    .map(lambda pair: P.pmul(P.pnormalize(pair[0]), pair[1])),
)


def sympy_poly(a):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly.from_list(list(reversed(a)) or [0], sympy.Symbol("h"), domain=sympy.ZZ)


def from_sympy(p):
    return P.pnormalize(int(c) for c in reversed(p.all_coeffs()))


@given(operands, operands)
@settings(deadline=None)  # the first call imports sympy
def test_gcd_matches_sympy(a, b):
    # content included, positive leading coefficient, in either argument order
    want = from_sympy(sympy_poly(a).gcd(sympy_poly(b)))
    assert P.pgcd(a, b) == want
    assert P.pgcd(b, a) == want


@given(operands, operands)
@settings(deadline=None)  # the first call imports sympy
def test_mul_matches_sympy(a, b):
    assert P.pmul(a, b) == from_sympy(sympy_poly(a) * sympy_poly(b))
    assert P.pmul(b, a) == P.pmul(a, b)


@given(operands)
@settings(deadline=None)  # the first call imports sympy
def test_content_and_primitive_part_match_sympy(a):
    content, primitive = sympy_poly(a).primitive()
    assert P.pprimitive(a)[0] == int(content)
    assert P.pprimitive(a) == (int(content), from_sympy(primitive))


@given(operands, operands)
@settings(deadline=None)  # the first call imports sympy
def test_exact_quotient_matches_sympy(a, b):
    ExactQuotientFailed = pytest.importorskip("sympy.polys.polyerrors").ExactQuotientFailed
    if not b:
        with pytest.raises(ZeroDivisionError):
            P.pdivexact(a, b)
        return
    product = P.pmul(a, b)
    assert P.pdivexact(product, b) == from_sympy(sympy_poly(product).exquo(sympy_poly(b)))
    try:
        want = from_sympy(sympy_poly(a).exquo(sympy_poly(b), auto=False))
    except ExactQuotientFailed:
        with pytest.raises(ArithmeticError):
            P.pdivexact(a, b)
    else:
        assert P.pdivexact(a, b) == want


# --- unit and constant fast paths, and the memo below pgcd / pdivexact -----------

specials = st.one_of(st.just(P.ONE), st.just(P.ZERO), constants)
# positive degree, times one of a few shared factors so that gcds are not all 1
nonconstant = st.tuples(
    st.builds(lambda low, lead: tuple(low) + (lead,), st.lists(coeffs, min_size=1, max_size=4),
              coeffs.filter(bool)),
    st.sampled_from([P.ONE, (1, 1), (-2, 0, 3)]),
).map(lambda pair: P.pmul(*pair))


def sympy_gcd(a, b):
    return from_sympy(sympy_poly(a).gcd(sympy_poly(b)))


@given(specials, operands)
@settings(deadline=None)  # the first call imports sympy
def test_gcd_with_a_unit_zero_or_constant_operand_matches_sympy(a, b):
    want = sympy_gcd(a, b)
    assert P.pgcd(a, b) == want
    assert P.pgcd(b, a) == want


@given(nonconstant, nonconstant, nonconstant)
@settings(deadline=None)  # the first call imports sympy
def test_a_repeated_operand_pair_gives_an_equal_tuple(a, b, c):
    assert P._pgcdprs.cache_info().maxsize == P._pdivlong.cache_info().maxsize == P.MEMO_SIZE
    first = P.pgcd(a, b)
    assert first == sympy_gcd(a, b)
    # the memo is keyed on both operands: a pair sharing one of them is its own entry
    assert P.pgcd(a, c) == sympy_gcd(a, c)
    assert P.pgcd(c, b) == sympy_gcd(c, b)
    hits = P._pgcdprs.cache_info().hits
    assert P.pgcd(a, b) == first
    assert P._pgcdprs.cache_info().hits == hits + 1
    product = P.pmul(a, b)
    assert P.pdivexact(product, b) == P.pdivexact(product, b) == a


@given(nonconstant, nonconstant)
def test_an_inexact_division_raises_after_an_exact_quotient_by_the_same_divisor_was_cached(a, b):
    assert P.pdivexact(P.pmul(a, b), b) == a
    inexact = P.padd(P.pmul(a, b), P.ONE)  # b has positive degree, so it does not divide this
    for _ in range(2):  # a failure is never cached
        with pytest.raises(ArithmeticError):
            P.pdivexact(inexact, b)


# --- sympy oracle: the Z[h] Sturm chain and the pseudo-remainder under it --------

# rational roots, with 0, 1 and 1/2 drawn often so that endpoint and repeated roots occur
roots = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
                  st.fractions(min_value=-2, max_value=2, max_denominator=12))
linear_factors = st.lists(roots.map(lambda r: (-r.numerator, r.denominator)), max_size=6)
nonzero = st.lists(st.integers(-30, 30), min_size=1, max_size=8).map(P.pnormalize).filter(bool)
root_products = st.tuples(st.integers(-5, 5).filter(bool), linear_factors).map(
    lambda pair: functools.reduce(P.pmul, pair[1], (pair[0],)))
unit_interval_polys = st.one_of(
    nonzero,  # random coefficients, constants among them
    root_products,  # products of rational linear factors, times a constant of either sign
    st.tuples(root_products, nonzero).map(lambda pair: P.pmul(*pair)),  # the two mixed
)


@given(unit_interval_polys)
@settings(max_examples=300, deadline=None)  # the first call imports sympy
def test_unit_interval_root_count_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    want = len({r for r in sympy.real_roots(sympy_poly(a)) if 0 < r < 1})
    assert P.count_roots_open_unit_interval(a) == want


@given(operands, operands.filter(bool))
@settings(deadline=None)  # the first call imports sympy
def test_pseudo_remainder_matches_sympy_up_to_a_power_of_the_divisor_lead(a, b):
    sympy = pytest.importorskip("sympy")
    r = P.ppseudo_rem(a, b)
    assert len(r) - 1 < len(b) - 1
    # sympy multiplies by lc(b)^(deg a - deg b + 1); the kernel skips the
    # factors of the steps in which the degree drops by more than one
    want = from_sympy(sympy.prem(sympy_poly(a), sympy_poly(b)))
    top = max(len(a) - len(b) + 1, 0)
    assert any(P.pscale(r, b[-1] ** j) == want for j in range(top + 1))
