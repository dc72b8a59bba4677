"""Flow hierarchy fidelity: closed-form displays and commuting flows."""

from fractions import Fraction

import pytest

from asymint.diffpoly import DiffPolynomial, FieldSymbol, mono
from asymint.field import CoeffField
from asymint.hierarchy import FlowHierarchy

from oracles import flow_commutator, monomial_weight, parse

F1 = CoeffField(1)
F0 = CoeffField(0)


def leaf(field, kind, index, ell, coeff=None):
    c = field.one if coeff is None else coeff
    return DiffPolynomial.leaf(FieldSymbol(kind, index), ell, c)


def pairs(field):
    # two unrelated invertible weight-4 coefficient pairs
    yield parse(field, "3*h"), parse(field, "(-3 + 2*h^2)/4")
    yield parse(field, "c"), parse(field, "2 + c")


def expected_flow3(field, a1, a2, b3):
    r = a2 / a1
    t = leaf(field, "phi", 1, 5)
    t = t + (leaf(field, "phi", 1, 1) * leaf(field, "phi", 1, 3)).scale(r * Fraction(10, 3))
    t = t + (leaf(field, "phi", 1, 2) * leaf(field, "phi", 1, 2)).scale(r * Fraction(5, 3))
    cube = leaf(field, "phi", 1, 1) * leaf(field, "phi", 1, 1) * leaf(field, "phi", 1, 1)
    t = t + cube.scale(r * r * Fraction(10, 9))
    return t.scale(b3)


def test_flow2_closed_form():
    for field in (F1, F0):
        for a1, a2 in pairs(field):
            hier = FlowHierarchy(a1, a2)
            want = leaf(field, "phi", 1, 3, a1) + (
                leaf(field, "phi", 1, 1) * leaf(field, "phi", 1, 1)
            ).scale(a2)
            assert hier.flow(2, a1) == want


def test_flow3_closed_form():
    for field in (F1, F0):
        for a1, a2 in pairs(field):
            b3 = parse(field, "7")
            assert FlowHierarchy(a1, a2).flow(3, b3) == expected_flow3(field, a1, a2, b3)


def test_flow4_is_homogeneous_weight_eight():
    a1, a2 = next(pairs(F1))
    k4 = FlowHierarchy(a1, a2).flow(4, parse(F1, "11"))
    phi1 = FieldSymbol("phi", 1)
    assert all(sym == phi1 for m in k4.terms for sym, _ in m)
    assert all(monomial_weight(m, "potential") == 8 for m in k4.terms)
    assert k4.terms[mono(("phi", 1, 7))] == parse(F1, "11")


def test_linearized_flows_match_displays():
    for a1, a2 in pairs(F1):
        hier = FlowHierarchy(a1, a2)
        b3 = parse(F1, "5*h")
        psi = DiffPolynomial.leaf(FieldSymbol("psi", 1), 0, F1.one)
        dphi = leaf(F1, "phi", 1, 1)

        got2 = hier.flow(2, a1).linearize("phi", psi)
        want2 = psi.d_x(3).scale(a1) + (dphi * psi.d_x()).scale(a2 * 2)
        assert got2 == want2

        got3 = hier.flow(3, b3).linearize("phi", psi)
        r = a2 / a1
        want3 = psi.d_x(5)
        want3 = want3 + (dphi * psi.d_x(3) + leaf(F1, "phi", 1, 2) * psi.d_x(2)).scale(
            r * Fraction(10, 3)
        )
        want3 = want3 + (dphi * dphi * psi.d_x()).scale(r * r * Fraction(10, 3))
        want3 = want3 + (leaf(F1, "phi", 1, 3) * psi.d_x()).scale(r * Fraction(10, 3))
        assert got3 == want3.scale(b3)


def test_kdv_flows_match_displays():
    for a1, a2 in pairs(F1):
        hier = FlowHierarchy(a1, a2)
        b3 = parse(F1, "5*h")
        u = leaf(F1, "vphi", 1, 0)
        r = a2 / a1

        got2 = hier.kdv_flow(2, a1)
        assert got2 == u.d_x(3).scale(a1) + (u * u.d_x()).scale(a2 * 2)

        got3 = hier.kdv_flow(3, b3)
        want3 = u.d_x(5)
        want3 = want3 + (u * u * u.d_x()).scale(r * r * Fraction(10, 3))
        want3 = want3 + (u.d_x() * u.d_x(2)).scale(r * Fraction(20, 3))
        want3 = want3 + (u * u.d_x(3)).scale(r * Fraction(10, 3))
        assert got3 == want3.scale(b3)


def test_linearized_kdv_flows_match_displays():
    for a1, a2 in pairs(F1):
        hier = FlowHierarchy(a1, a2)
        b3 = parse(F1, "5*h")
        rho = DiffPolynomial.leaf(FieldSymbol("rho", 1), 0, F1.one)
        u = leaf(F1, "vphi", 1, 0)
        r = a2 / a1

        got2 = hier.kdv_flow(2, a1).linearize("vphi", rho)
        want2 = rho.d_x(3).scale(a1) + (rho * u.d_x() + u * rho.d_x()).scale(a2 * 2)
        assert got2 == want2

        got3 = hier.kdv_flow(3, b3).linearize("vphi", rho)
        want3 = rho.d_x(5)
        want3 = want3 + (u * rho.d_x(3) + (u.d_x() * rho.d_x(2)).scale(2)).scale(
            r * Fraction(10, 3)
        )
        want3 = want3 + (
            u.d_x(2).scale(2) + (u * u).scale(r)
        ) * rho.d_x().scale(r * Fraction(10, 3))
        want3 = want3 + ((u * u.d_x()).scale(r * 2) + u.d_x(3)) * rho.scale(
            r * Fraction(10, 3)
        )
        assert got3 == want3.scale(b3)


def test_flows_commute():
    for field in (F1, F0):
        a1, a2 = next(pairs(field))
        hier = FlowHierarchy(a1, a2)
        b3, b4 = parse(field, "5"), parse(field, "-7*h")
        ks = {j: hier.flow(j, b) for j, b in ((2, a1), (3, b3), (4, b4))}
        hs = {j: hier.kdv_flow(j, b) for j, b in ((2, a1), (3, b3), (4, b4))}
        for i in (2, 3, 4):
            for j in (2, 3, 4):
                if i < j:
                    assert flow_commutator(ks[i], ks[j], "phi").is_zero()
                    assert flow_commutator(hs[i], hs[j], "vphi").is_zero()


def test_noncommuting_pair_is_detected():
    a1, a2 = next(pairs(F1))
    hier = FlowHierarchy(a1, a2)
    k2 = hier.flow(2, a1)
    fake = leaf(F1, "phi", 1, 5) + (leaf(F1, "phi", 1, 1) * leaf(F1, "phi", 1, 3)).scale(
        a2 / a1
    )
    assert not flow_commutator(k2, fake, "phi").is_zero()


def test_zero_dispersive_coefficient_rejected():
    with pytest.raises(ValueError):
        FlowHierarchy(F1.zero, F1.one)
