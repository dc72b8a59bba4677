"""Where the order-9 verdicts hold on 0 < h < 1.

Every verdict is computed over Q(h), for a generic spacing.  These tests pin
the exceptional spacings inside (0, 1): the one zero h* of the s = 0 witness,
the continuum limit of that witness, and the two zeros of the s = 1 flow
coefficients the reduction divides by.  Each interior root is counted by the
Z[h] Sturm chain and isolated by a sign change of RatFunc.eval; sympy's
real_roots is the independent oracle.
"""

from fractions import Fraction

import pytest

from asymint import _polyops as P
from asymint.field import RatFunc


def the_only_root_lies_between(value: RatFunc, lo: Fraction, hi: Fraction) -> float:
    """Check that value has exactly one zero in (0, 1) and no pole there, that
    it changes sign on (lo, hi), and return the zero from sympy's real_roots."""
    assert P.count_roots_open_unit_interval(value.num) == 1
    assert P.count_roots_open_unit_interval(value.den) == 0
    assert value.eval(lo) * value.eval(hi) < 0
    sympy = pytest.importorskip("sympy")
    h = sympy.Symbol("h")
    num = sympy.Poly.from_list(list(reversed(value.num)), h, domain=sympy.ZZ)
    inside = [r for r in sympy.real_roots(num) if 0 < r < 1]
    assert len(inside) == 1
    assert lo < inside[0] < hi
    return float(inside[0])


def test_the_s0_witness_vanishes_once_on_the_unit_interval(commutation):
    value = next(v for v in commutation(0, 9).evaluated if v)
    assert not value.odd
    witness = value.even
    lo, hi = Fraction(39, 50), Fraction(79, 100)
    assert float(witness.eval(lo)) == pytest.approx(0.00706, abs=5e-6)
    assert float(witness.eval(hi)) == pytest.approx(-0.01879, abs=5e-6)
    h_star = the_only_root_lies_between(witness, lo, hi)
    assert h_star == pytest.approx(0.782886562762, abs=1e-12)


def test_the_s0_witness_vanishes_like_25_h2_over_108_in_the_continuum_limit(commutation):
    witness = next(v for v in commutation(0, 9).evaluated if v).even
    assert witness.num[:3] == (0, 0, 450)
    assert witness.den[0] == 1944
    assert Fraction(witness.num[2], witness.den[0]) == Fraction(25, 108)


@pytest.mark.parametrize("coefficient, num, den, lo, hi, root", [
    ("alpha1", (3, 0, -4), 24, Fraction(43, 50), Fraction(87, 100), 3 ** 0.5 / 2),
    ("beta3", (15, 0, 0, 0, -16), 1920, Fraction(49, 50), Fraction(99, 100), (15 / 16) ** 0.25),
])
def test_each_s1_flow_coefficient_vanishes_once_on_the_unit_interval(
        engine, coefficient, num, den, lo, hi, root):
    rep = engine(1, 9)
    value = rep.alphas[1] if coefficient == "alpha1" else rep.betas[3]
    assert not value.even
    assert value.odd == RatFunc(num, (den,))
    assert the_only_root_lies_between(value.odd, lo, hi) == pytest.approx(root, abs=1e-12)
