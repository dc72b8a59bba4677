"""End-to-end numeric oracle for the symbolic reduction.

The lattice equation is re-coded here by hand in multiprecision arithmetic,
with free trigonometric profiles whose jets are exact phase shifts.  The
only engine inputs are the reduction report's evolution rules and amplitude
corrections: if the report is correct through order seven, the instantaneous
lattice residual on such data must scale like eps^8, and shifting any single
forcing coefficient by a small rational must knock one full power off.

This is the arbiter used to pin the seventh-order coefficient table in
tests/test_reduction.py.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from asymint.diffpoly import DiffPolynomial, FieldSymbol, mono, time_derivative
from asymint.field import CoeffField
from asymint.reduction import run_reduction

mp.mp.dps = 60

H = Fraction(1, 2)
SIGMA = 1
EPSILONS = [mp.mpf(e) for e in ("0.1", "0.07", "0.05")]


def to_mp(fr):
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def coeff_value(ce, c_mp):
    even, odd = ce.eval_exact(H)
    return to_mp(even) + to_mp(odd) * c_mp


def jet_phi1(ell, x):
    # sin(x) + cos(2x)/3, differentiated ell times
    return mp.sin(x + ell * mp.pi / 2) + mp.mpf(2) ** ell * mp.cos(2 * x + ell * mp.pi / 2) / 3


def jet_phi2(ell, x):
    # cos(3x)/2 - sin(x)/5, differentiated ell times
    return mp.mpf(3) ** ell * mp.cos(3 * x + ell * mp.pi / 2) / 2 - mp.sin(x + ell * mp.pi / 2) / 5


JETS = {("phi", 1): jet_phi1, ("phi", 2): jet_phi2, ("phi", 3): lambda ell, x: mp.mpf(0)}


def drop_tagged(poly):
    """Discard monomials still carrying slow-time tags: they belong to
    evolution orders beyond the report and beyond the measured slope."""
    return DiffPolynomial(
        {m: c for m, c in poly.terms.items() if all(not sym.times for sym, _ in m)}
    )


def eval_poly(poly, x, c_mp):
    total = mp.mpf(0)
    for m, coeff in poly.terms.items():
        value = coeff_value(coeff, c_mp)
        for sym, ell in m:
            value *= JETS[(sym.kind, sym.index)](ell, x)
        total += value
    return total


def residual(rep, eps):
    """i f' + (f+ - 2f + f-)(1 - s sigma h^2 |f|^2)/(2h^2) - sigma |f|^2 f
    at one lattice point, with f built from the report and the exact jets."""
    s = rep.field.s
    rules = rep.rules
    c_mp = mp.sqrt(1 - s * to_mp(H) ** 2)
    eps = mp.mpf(eps)
    x0 = mp.mpf("0.3")

    amps = {i: rep.amplitude(i) for i in (1, 2, 3)}
    damps = {i: amps[i].d_x() for i in amps}
    tders = {
        (i, m): drop_tagged(time_derivative(amps[i], m, rules))
        for i in amps
        for m in (2, 3)
    }

    def nu_at(x):
        return 1 + sum(eps ** (2 * i) * eval_poly(amps[i], x, c_mp) for i in amps)

    def phi_at(x):
        return eps * jet_phi1(0, x) + eps ** 3 * jet_phi2(0, x)

    def f_at(x):
        return mp.sqrt(nu_at(x)) * mp.exp(1j * phi_at(x))

    dphi = -SIGMA
    for i in (1, 2):
        dphi += eps ** (2 * i - 1) * -eps * c_mp * JETS[("phi", i)](1, x0)
        for m in (2, 3):
            rule = rules.get(FieldSymbol("phi", i), m)
            if rule is not None:
                dphi += eps ** (2 * i - 1) * eps ** (2 * m - 1) * eval_poly(rule, x0, c_mp)
    dnu = sum(
        eps ** (2 * i)
        * (
            -eps * c_mp * eval_poly(damps[i], x0, c_mp)
            + sum(eps ** (2 * m - 1) * eval_poly(tders[(i, m)], x0, c_mp) for m in (2, 3))
        )
        for i in amps
    )

    nu0 = nu_at(x0)
    f0 = f_at(x0)
    fplus = f_at(x0 + eps * to_mp(H))
    fminus = f_at(x0 - eps * to_mp(H))
    dfdt = mp.exp(1j * phi_at(x0)) * (dnu / (2 * mp.sqrt(nu0)) + 1j * mp.sqrt(nu0) * dphi)
    lap = (fplus - 2 * f0 + fminus) * (1 - s * SIGMA * to_mp(H) ** 2 * abs(f0) ** 2) / (
        2 * to_mp(H) ** 2
    )
    return 1j * dfdt + lap - SIGMA * abs(f0) ** 2 * f0


def slopes(values):
    return [
        float(mp.log(values[k + 1] / values[k]) / mp.log(EPSILONS[k + 1] / EPSILONS[k]))
        for k in range(len(values) - 1)
    ]


def test_residual_scales_one_order_past_the_report(engine):
    for s in (0, 1):
        rep = engine(s, 7)
        sizes = [abs(residual(rep, eps)) for eps in EPSILONS]
        for slope in slopes(sizes):
            assert slope > 7.7, (s, slope)


def test_a_shifted_forcing_coefficient_is_detected():
    for s in (0, 1):
        rep = run_reduction(CoeffField(s), order=7)
        true = [residual(rep, eps) for eps in EPSILONS]
        bump = DiffPolynomial(
            {
                mono(("phi", 1, 2), ("phi", 1, 2)): rep.field.from_fraction(
                    Fraction(1, 16)
                )
                * rep.field.h
                * rep.field.h
            }
        )
        old = rep.rules.get(FieldSymbol("phi", 2), 2)
        rep.rules.set("phi", 2, 2, old + bump)
        corrupted = [residual(rep, eps) for eps in EPSILONS]
        diffs = [abs(a - b) for a, b in zip(corrupted, true)]
        assert diffs[0] > 1e-9 and all(d > 1e-13 for d in diffs)
        for slope in slopes(diffs):
            assert 6.7 < slope < 7.4, (s, slope)
