"""The continuum limit h -> 0 as an oracle from a different model.

As h -> 0 both lattices tend to the defocusing NLS
i psi_t + psi_XX / 2 = |psi|^2 psi with X = h n (the equation in
asymint.lattice's docstring at h = 0), whose sound speed is c = 1.  That
equation is integrable, so at h = 0 the two branches must share every
multiscale coefficient (A. Degasperis, M. Manakov and P. M. Santini,
Physica D 100, 187, 1997), and every order-9 compatibility value must
vanish.  As a check, alpha1 = 1/8 is the k^3/8 term of the Bogoliubov
dispersion omega = k sqrt(1 + k^2 / 4).

Each coefficient is even(h) + odd(h) c over Q(h); its limit is
even(0) + odd(0) at c = 1, taken from the exact numerators and
denominators, and a denominator that vanishes at h = 0 is a pole.
"""

from fractions import Fraction

import pytest

from asymint import _polyops as P
from asymint.field import CoeffField

LIMITS = {
    "alphas": {1: "1/8", 2: "-3/4", 3: "7/64", 4: "0", 5: "-1/16", 6: "1/128"},
    "betas": {2: "1/8", 3: "1/128", 4: "1/1024"},
    "f_t2": {"a1": "-5/16", "a2": "3/32", "a3": "3/16"},
    "f_t3": {"b1": "-95/256", "b2": "5/512", "b3": "25/512",
             "b4": "35/128", "b5": "-25/128", "b6": "15/512"},
}


def limit_at_h0(value) -> Fraction:
    """even(0) + odd(0), the value at h = 0 with c = 1; fails on a pole."""
    total = Fraction(0)
    for part in (value.even, value.odd):
        den = P.peval(part.den, Fraction(0))
        assert den != 0, f"pole at h = 0: {value.text()}"
        total += P.peval(part.num, Fraction(0)) / den
    return total


def limits(rep):
    return {
        "alphas": {k: limit_at_h0(v) for k, v in rep.alphas.items()},
        "betas": {k: limit_at_h0(v) for k, v in rep.betas.items()},
        **{name: {k: limit_at_h0(v) for k, v in rep.forcings[name].coefficients.items()}
           for name in ("f_t2", "f_t3")},
    }


@pytest.mark.parametrize("s", [0, 1])
def test_the_flow_and_forcing_coefficients_tend_to_the_nls_ones(engine, s):
    want = {group: {k: Fraction(v) for k, v in table.items()} for group, table in LIMITS.items()}
    assert limits(engine(s, 9)) == want


@pytest.mark.parametrize("s, count", [(0, 5), (1, 3)])
def test_every_order9_value_vanishes_in_the_continuum_limit(commutation, s, count):
    evaluated = commutation(s, 9).evaluated
    assert [limit_at_h0(v) for v in evaluated] == [0] * count


def test_a_pole_at_h0_has_no_limit():
    field = CoeffField(1)
    with pytest.raises(AssertionError, match="pole at h = 0"):
        limit_at_h0(field.h.inv() + field.c)
