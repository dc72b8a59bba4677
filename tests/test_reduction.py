"""Order-by-order reduction of the lattice family on the moving frame.

The closed forms frozen here were cross-checked against an end-to-end
numeric oracle (tests/test_numeric_oracle.py): corrupting any one of them
is measurably visible in the instantaneous lattice residual, so the table
below is pinned exactly.
"""

from fractions import Fraction

import pytest

from asymint.diffpoly import DiffPolynomial, FieldSymbol, mono
from asymint.errors import InconsistentSystemError, NonLocalError, SecularResidueError
from asymint.field import CoeffField
from asymint.hierarchy import FlowHierarchy
from asymint import reduction
from asymint.labels import T2_THIRD, T2_THIRD_KDV
from asymint.reduction import EpsSeries, ReductionReport, derive_dispersion, run_reduction

from oracles import parse, specialize

ALPHAS = {
    0: {
        1: "((3 - h^2)/24)*c",
        2: "-3/4",
        3: "(7 - 5*h^2)/64",
        4: "(h^2/12)*c",
        5: "-(1 + 3*h^2)/16",
        6: "((15 + 30*h^2 - h^4)/1920)*c",
    },
    1: {
        1: "((3 - 4*h^2)/24)*c",
        2: "(4*h^2 - 3)/4",
        3: "(7 - 24*h^2 + 16*h^4)/64",
        4: "(2*h^2/3)*c",
        5: "(16*h^4 - 12*h^2 - 3)/48",
        6: "((15 - 16*h^4)/1920)*c",
    },
}

BETA4 = {
    0: "((315 + 525*h^2 + 273*h^4 - h^6)/322560)*c",
    1: "((315 - 420*h^2 + 168*h^4 - 64*h^6)/322560)*c",
}

T2_FORCING = {
    0: {
        "a1": "((-135 - 234*h^2 - 15*h^4 + 4*h^6)/(432 - 288*h^2 + 48*h^4))*c",
        "a2": "(-9 - 14*h^2 - 5*h^4)/(-96 + 32*h^2)",
        "a3": "(-9 - 2*h^2 - h^4)/(-48 + 16*h^2)",
    },
    1: {
        "a1": "((15 - 32*h^2 + 16*h^4)/(-48 + 48*h^2))*c",
        "a2": "(9 - 24*h^2 + 16*h^4)/96",
        "a3": "(9 - 18*h^2 + 8*h^4)/48",
    },
}


def leaf(field, kind, index, ell, coeff=None):
    c = field.one if coeff is None else coeff
    return DiffPolynomial.leaf(FieldSymbol(kind, index), ell, c)


def test_dispersion_forces_the_defocusing_sign():
    for s in (0, 1):
        data = derive_dispersion(s)
        f = CoeffField(s)
        assert data.sigma == 1
        assert data.c_squared == f.one - f.from_fraction(s) * f.h * f.h
        assert -1 in data.rejected and "not positive" in data.rejected[-1]


def test_first_amplitude_is_the_transport_derivative(engine):
    for s in (0, 1):
        rep = engine(s, 5)
        assert rep.amplitude(1) == leaf(rep.field, "phi", 1, 1, rep.field.c)


def test_second_amplitude_resolves_to_plain_jets(engine):
    for s in (0, 1):
        rep = engine(s, 9)
        f = rep.field
        nu2 = rep.nu_solutions[2]
        assert nu2.terms[mono(("phi", 2, 1))] == f.c
        tagged = ((FieldSymbol("phi", 1, (2,)), 0),)
        assert nu2.terms[tagged] == -f.one
        resolved = rep.amplitude(2)
        for m in resolved.terms:
            assert all(sym.times == () for sym, _ in m)


def test_flow_normalizations_and_forcing_table(engine):
    for s in (0, 1):
        rep = engine(s, 9)
        f = rep.field
        for k, text in ALPHAS[s].items():
            assert rep.alphas[k] == parse(f, text), (s, k)
        assert rep.betas[2] == rep.alphas[1]
        # the fifth-derivative secularity pins the third flow normalization
        assert rep.betas[3] == rep.alphas[6]
        assert rep.betas[4] == parse(f, BETA4[s])
        coeffs = rep.forcings["f_t2"].coefficients
        assert set(coeffs) == {"a1", "a2", "a3"}
        for name, text in T2_FORCING[s].items():
            assert coeffs[name] == parse(f, text), (s, name)


def test_third_flow_has_the_hierarchy_shape(engine):
    for s in (0, 1):
        rep = engine(s, 9)
        k3 = rep.flows["K3"]
        assert k3.terms[mono(("phi", 1, 5))] == rep.betas[3]
        ratio = rep.alphas[2] * rep.alphas[1].inv()
        want = rep.betas[3] * ratio * Fraction(10, 3)
        assert k3.terms[mono(("phi", 1, 1), ("phi", 1, 3))] == want


def test_t3_correction_satisfies_the_six_relations(engine):
    for s in (0, 1):
        rep = engine(s, 9)
        f = rep.field
        a1, a2 = rep.alphas[1], rep.alphas[2]
        b3 = rep.betas[3]
        av = rep.forcings["f_t2"].coefficients
        A1, A2, A3 = av["a1"], av["a2"], av["a3"]
        got = rep.forcings["f_t3"].coefficients
        five = f.from_fraction(5)
        i1 = a1.inv()
        want = {
            "b1": five * b3 * (9 * A1 * a1 + 2 * (A2 + 3 * A3) * a2) * i1 * i1 * Fraction(1, 9),
            "b2": five * b3 * A2 * i1 * Fraction(1, 3),
            "b3": five * b3 * (A2 + 2 * A3) * i1 * Fraction(1, 3),
            "b4": five * b3 * a2 * (27 * A1 * a1 - A2 * a2) * i1 * i1 * i1 * Fraction(1, 54),
            "b5": five * b3 * (9 * A1 * a1 + 5 * A2 * a2) * i1 * i1 * Fraction(1, 9),
            "b6": five * b3 * (A2 + A3) * i1 * Fraction(1, 3),
        }
        for name, value in want.items():
            assert got[name] == value, (s, name)


def test_single_field_closure_identities(engine):
    # The phi^(2) part of the order-9 forcing is forced by K2 and f_t2 alone
    # (Kodama and Mikhailov, "Obstacles to asymptotic integrability", 1996):
    # each of these labels is a fixed combination of a1..a3 and alpha2.
    for s, name in ((1, "h_t2"), (0, "g_t2")):
        rep = engine(s, 9)
        a = rep.forcings["f_t2"].coefficients
        a1, a2, a3, alpha2 = a["a1"], a["a2"], a["a3"], rep.alphas[2]
        want = {
            1: {"c7": a2, "c8": 2 * a3, "c9": a2, "c10": 3 * a1, "c11": alpha2},
            0: {"d8": a2, "d9": a2 + 2 * a3, "d10": a2 + 2 * a3, "d11": a2,
                "d12": 3 * a1, "d13": 6 * a1, "d14": 2 * alpha2},
        }[s]
        got = rep.forcings[name].coefficients
        for label, value in want.items():
            assert got[label] == value, (s, label)


def test_branch_selection_at_ninth_order(engine):
    rep0, rep1 = engine(0, 9), engine(1, 9)
    assert rep0.variant == "kdv"
    assert rep1.variant == "potential"
    assert set(rep0.flows) == {"K2", "K3", "K4", "H2", "H3", "H4"}
    assert set(rep1.flows) == {"K2", "K3", "K4"}
    assert "g_t2" in rep0.forcings and "h_t2" not in rep0.forcings
    assert "h_t2" in rep1.forcings and "g_t2" not in rep1.forcings
    assert sum(1 for v in rep0.forcings["g_t2"].coefficients.values() if v) == 14
    assert sum(1 for v in rep1.forcings["h_t2"].coefficients.values() if v) == 11


def test_low_order_report_is_a_prefix(engine):
    rep = engine(1, 5)
    assert sorted(rep.alphas) == [1, 2]
    assert sorted(rep.nu_solutions) == [1, 2]
    assert set(rep.flows) == {"K2"}
    assert rep.variant is None
    assert rep.forcings == {}
    # the eps^7 and eps^9 stages share one method: no ninth-order state may
    # leak into an order-7 report
    for s in (0, 1):
        seven, nine = engine(s, 7), engine(s, 9)
        assert seven.variant is None and seven.kdv_rules is None
        assert set(seven.forcings) == {"f_t2"}
        assert seven.forcings["f_t2"].coefficients == nine.forcings["f_t2"].coefficients
        assert set(seven.flows) == {"K2", "K3"}
        assert seven.alphas == nine.alphas
        assert seven.stage_log == nine.stage_log[:7]


def test_no_kdv_fallback_below_the_ninth_order():
    run = ReductionReport(CoeffField(1), 7)
    one = run.field.one
    phi1_x = leaf(run.field, "phi", 1, 1)
    unknowns = DiffPolynomial.leaf(FieldSymbol("phi", 1, (3,)), 1, one) + DiffPolynomial.leaf(
        FieldSymbol("phi", 2, (2,)), 1, one
    )
    # (phi1_x)^2 has no antiderivative, which at eps^9 selects the kdv split
    run.r_nu = EpsSeries(7, {7: unknowns + phi1_x * phi1_x})
    with pytest.raises(NonLocalError):
        run.stage_tj(3)
    assert run.variant is None
    assert run.forcings == {}


def test_unknown_order_is_rejected(monkeypatch):
    def expand(*args):
        raise AssertionError("the order bound is checked after expanding the lattice")

    monkeypatch.setattr(reduction, "lattice_residual_series", expand)
    for order in (2, 11, 40):
        with pytest.raises(ValueError, match=f"got order {order}"):
            run_reduction(CoeffField(1), order=order)


def test_reduction_is_deterministic(engine):
    again = run_reduction(CoeffField(0), order=9)
    base = engine(0, 9)
    assert again.stage_log == base.stage_log
    assert {k: v.text() for k, v in again.alphas.items()} == {
        k: v.text() for k, v in base.alphas.items()
    }
    assert again.forcings["g_t2"].coefficients == base.forcings["g_t2"].coefficients


@pytest.mark.parametrize("kind, basis", [("phi", T2_THIRD), ("vphi", T2_THIRD_KDV)])
def test_forcing_split_rejects_a_foreign_sector(engine, kind, basis):
    rep = engine(1, 5)
    run = ReductionReport(CoeffField(1), 5)
    run.alphas[1] = rep.alphas[1]
    run.hier = FlowHierarchy(rep.alphas[1], rep.alphas[2])
    one = rep.field.one
    target = DiffPolynomial.leaf(FieldSymbol(kind, 3), 0, one)
    linear = run.hier.linearized(2, rep.alphas[1], kind, 3)
    forcing = DiffPolynomial({basis.pairs[0][1]: one})
    rule, got = run.split_forcing(linear + forcing, kind, 3, basis, "eps^9")
    assert rule == linear + forcing
    assert got.coefficients == {basis.labels[0]: one}
    for bad, reason in ((target * target, "higher degree"), (target.d_x(), "linearized t2 flow")):
        with pytest.raises(SecularResidueError, match=reason):
            run.split_forcing(linear + forcing + bad, kind, 3, basis, "eps^9")


def test_phase_residual_needs_the_expected_unknowns_with_one_coefficient():
    run = ReductionReport(CoeffField(1), 5)
    two = run.field.from_fraction(2)
    phi1_t2, phi2_t2 = FieldSymbol("phi", 1, (2,)), FieldSymbol("phi", 2, (2,))
    known = leaf(run.field, "phi", 1, 3)

    def residual(first):
        unknowns = DiffPolynomial.leaf(phi1_t2, 1, first) + DiffPolynomial.leaf(phi2_t2, 1, two)
        return EpsSeries(5, {5: unknowns + known})

    run.r_nu = residual(run.field.one)
    with pytest.raises(InconsistentSystemError, match="unexpected unknown set"):
        run.phase_residual(5, {phi1_t2})
    with pytest.raises(InconsistentSystemError, match="unequal coefficients"):
        run.phase_residual(5, {phi1_t2, phi2_t2})
    run.r_nu = residual(two)
    assert run.phase_residual(5, {phi1_t2, phi2_t2}) == (two, known)


def test_pinned_h_field_runs_the_same_pipeline():
    rep = run_reduction(CoeffField(1, h_value=Fraction(1, 3)), order=7)
    general = CoeffField(1)
    assert rep.field.h_value == Fraction(1, 3)
    for k, text in ALPHAS[1].items():
        assert rep.alphas[k] == specialize(parse(general, text), rep.field), k
