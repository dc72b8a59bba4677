"""Scalar coefficient ring: exact arithmetic in even(h) + odd(h)*c.

Independent oracle: at parameter points where the radicand 1 - s h^2 is a
perfect rational square (any h for s=0, Pythagorean h for s=1), the map
x |-> even(h) + odd(h)*sqrt(radicand) lands in Q exactly and must be a ring
homomorphism.  All operations are checked against it.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asymint import _polyops as P
from asymint.errors import DomainError, ZeroInverse
from asymint.field import _RAT_ONE, CoeffElement, CoeffField, RatFunc
from asymint.knowns import KnownPoly

from oracles import conjugate, parse, pinned_field, scalar_calls, specialize

F0 = CoeffField(0)
F1 = CoeffField(1)

# exact square-root points: (s, h, sqrt(1 - s h^2))
SQUARE_POINTS = [
    (0, Fraction(1, 3), Fraction(1)),
    (0, Fraction(7, 9), Fraction(1)),
    (1, Fraction(3, 5), Fraction(4, 5)),
    (1, Fraction(5, 13), Fraction(12, 13)),
]


def exact_value(x, h, root):
    ev, od = x.eval_exact(h)
    return ev + od * root


def elements(field):
    frac = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    def build(qs):
        a, b, d, e = qs
        return field.from_fraction(a) + field.from_fraction(b) * field.h \
            + (field.from_fraction(d) + field.from_fraction(e) * field.h ** 2) * field.c
    return st.tuples(frac, frac, frac, frac).map(build)


# --- frozen worked examples -------------------------------------------------


def test_canonical_text_worked_example():
    # (7 - 5h^2)/64 + (-12h^2 - 4)/64 simplifies to (3 - 17h^2)/64
    x = parse(F0, "(7 - 5*h^2)/64") + parse(F0, "(-4 - 12*h^2)/64")
    assert x.text() == "(3 - 17*h^2)/64 + (0)*c"
    assert parse(F0, x.text()) == x


def test_inverse_worked_example_integrable_branch():
    # For s=1, (1 + c)^(-1) = (1 - c)/h^2 since (1+c)(1-c) = h^2
    x = (F1.one + F1.c).inv()
    assert x == (F1.one - F1.c) / (F1.h ** 2)
    assert x.text() == "(1)/(h^2) + (-1)/(h^2)*c"
    assert (F1.one + F1.c) * x == F1.one


def test_zero_divisors_standard_branch():
    # s=0 has c^2 = 1, so (1+c)(1-c) = 0: both factors are zero divisors
    with pytest.raises(ZeroInverse):
        (F0.one + F0.c).inv()
    with pytest.raises(ZeroInverse):
        (F0.one - F0.c).inv()
    assert not ((F0.one + F0.c) * (F0.one - F0.c))
    # the same element is invertible for s=1
    (F1.one + F1.c).inv()


def test_c_squared_reduction():
    assert F0.c * F0.c == F0.one
    assert F1.c * F1.c == F1.one - F1.h ** 2
    assert F1.c ** 3 == (F1.one - F1.h ** 2) * F1.c


def test_parse_rejects_garbage():
    for bad in ["x + 1", "h(", "import os", "h**c", "1/(h - h)", "c.__class__"]:
        with pytest.raises(ValueError):
            parse(F1, bad)


def test_field_validation():
    CoeffField(0)
    CoeffField(1, h_value=Fraction(1, 3))
    with pytest.raises(ValueError):
        CoeffField(2)
    with pytest.raises(ValueError):
        CoeffField(0, h_value=0.5)  # floats are not exact
    with pytest.raises(DomainError):
        CoeffField(0, h_value=Fraction(3, 2))


@given(st.data())
def test_equal_fields_mix_and_unequal_fields_raise(data):
    twin = CoeffField(1)
    assert twin is not F1 and twin == F1
    x = data.draw(elements(F1))
    y = data.draw(elements(F1))
    y_twin = CoeffElement(twin, y.even, y.odd)
    assert x + y_twin == x + y
    assert x * y_twin == x * y
    assert F1.coerce(y_twin) == y
    a1 = KnownPoly.symbol(F1, "a1")
    b = KnownPoly.constant(twin, y_twin) * KnownPoly.symbol(twin, "a2")
    same = KnownPoly.constant(F1, y) * KnownPoly.symbol(F1, "a2")
    assert a1 * b == a1 * same and a1 + b == a1 + same
    assert (a1 * x).substitute({"a1": b}) == (a1 * x).substitute({"a1": same})
    pinned = pinned_field(F1, Fraction(1, 3))
    for other in (F0, pinned):
        with pytest.raises(ValueError):
            x + other.one
        with pytest.raises(ValueError):
            x * other.one
        with pytest.raises(ValueError):
            F1.coerce(other.one)
        with pytest.raises(ValueError):
            a1 + KnownPoly.symbol(other, "a1")
        with pytest.raises(ValueError):
            a1.substitute({"a1": KnownPoly.symbol(other, "a2")})


@given(st.sampled_from([0, 1]), st.data())
def test_truthiness_is_the_zero_test(s, data):
    field = CoeffField(s)
    x = data.draw(elements(field))
    for y in (x, x - x, x * field.c, field.zero, field.c):
        assert bool(y) == (y != field.zero)


@given(st.sampled_from([0, 1]), st.data())
def test_fast_built_values_are_immutable_and_equal_their_init_twins(s, data):
    # products, sums, negatives and inverses fill their slots without __init__
    field = CoeffField(s)
    x = data.draw(elements(field))
    y = data.draw(elements(field))
    built = [x * y, x + y, -x, x * field.one, x * field.c]
    try:
        built.append(x.inv())
    except ZeroInverse:
        pass
    for z in built:
        even, odd = RatFunc(z.even.num, z.even.den), RatFunc(z.odd.num, z.odd.den)
        twin = CoeffElement(field, even, odd)
        assert z == twin and twin == z and z.text() == twin.text()
        assert (z.even, z.odd) == (even, odd) and z.even.text() == even.text()
        for part in (z.even, z.odd):
            with pytest.raises(AttributeError, match="RatFunc is immutable"):
                part.num = P.ONE
        with pytest.raises(AttributeError, match="CoeffElement is immutable"):
            z.even = field.one.even


def test_a_unit_operand_returns_the_other_after_both_gcds():
    x = RatFunc(P.pnormalize((1, 2)), P.pnormalize((3, 0, 1)))
    for left, right in ((x, _RAT_ONE), (_RAT_ONE, x)):
        with scalar_calls() as calls:
            assert left * right is x
        assert [call[0] for call in calls] == ["mul", "pgcd", "pgcd"]


@pytest.mark.parametrize("s", [0, 1])
def test_an_element_times_one_is_itself_after_five_multiplies(s):
    field = CoeffField(s)
    for x in (field.h + field.from_fraction(3) * field.c / (field.one + field.h), field.c):
        assert x.odd
        with scalar_calls() as calls:
            assert x * field.one is x
        assert sum(call[0] == "mul" for call in calls) == 5


# --- homomorphism oracle -----------------------------------------------------


@pytest.mark.parametrize("s,h,root", SQUARE_POINTS)
def test_ops_against_exact_numeric_oracle(s, h, root):
    field = CoeffField(s)
    x = parse(field, "(2 - h^2)/3 + (1 + 2*h)/5*c")
    y = parse(field, "(-1)/(h) + (h^2)*c")
    vx, vy = exact_value(x, h, root), exact_value(y, h, root)
    assert exact_value(x + y, h, root) == vx + vy
    assert exact_value(x - y, h, root) == vx - vy
    assert exact_value(x * y, h, root) == vx * vy
    assert exact_value(x ** 3, h, root) == vx ** 3
    if vy != 0:
        assert exact_value(x / y, h, root) == vx / vy


@given(st.sampled_from(SQUARE_POINTS), st.data())
def test_random_ops_against_exact_numeric_oracle(point, data):
    s, h, root = point
    field = CoeffField(s)
    x = data.draw(elements(field))
    y = data.draw(elements(field))
    assert exact_value(x * y, h, root) == exact_value(x, h, root) * exact_value(y, h, root)
    assert exact_value(x + y, h, root) == exact_value(x, h, root) + exact_value(y, h, root)


@given(st.sampled_from([0, 1]), st.data())
def test_field_axioms_random(s, data):
    field = CoeffField(s)
    x = data.draw(elements(field))
    y = data.draw(elements(field))
    z = data.draw(elements(field))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    try:
        xi = x.inv()
    except ZeroInverse:
        if field.s == 1:
            assert not x
    else:
        assert x * xi == field.one


@given(st.sampled_from([0, 1]), st.data())
def test_text_round_trip_random(s, data):
    field = CoeffField(s)
    x = data.draw(elements(field))
    assert parse(field, x.text()) == x


@given(st.sampled_from([0, 1]), st.data())
def test_conjugation_is_a_ring_involution(s, data):
    field = CoeffField(s)
    x = data.draw(elements(field))
    y = data.draw(elements(field))
    assert conjugate(x * y) == conjugate(x) * conjugate(y)
    assert conjugate(x + y) == conjugate(x) + conjugate(y)
    assert conjugate(conjugate(x)) == x


def test_specialization_is_a_ring_hom():
    target = pinned_field(F1, Fraction(1, 3))
    x = parse(F1, "(1 - 2*h^2)/7 + (h)/2*c")
    y = parse(F1, "(3)/(h) + (1)*c")
    assert specialize(x * y, target) == specialize(x, target) * specialize(y, target)
    assert specialize(x + y, target) == specialize(x, target) + specialize(y, target)
    # pinned-field arithmetic reduces c^2 to the specialised radicand
    ht = target.h_value
    assert target.c * target.c == target.from_fraction(1 - ht * ht)


def test_eval_float_branches():
    x = F1.h * F1.c
    h = Fraction(3, 5)
    even, odd = x.eval_exact(h)
    root = math.sqrt(1 - F1.s * h * h)
    assert x.eval_float(h) == pytest.approx(0.6 * 0.8)
    assert float(even) - float(odd) * root == pytest.approx(-0.6 * 0.8)  # c -> -c
    with pytest.raises(DomainError):
        x.eval_exact(Fraction(2))
