"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single summary line through
the capture barrier so a full run shows ten verdicts with elapsed time
against the stated budget.  Symbolic checks are exact canonical-form
equalities over the coefficient field; numeric checks state their
tolerances inline.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from asymint.cli import main as cli_main
from asymint.diffpoly import DiffPolynomial, FieldSymbol, enumerate_basis
from asymint.field import CoeffField
from asymint.hierarchy import FlowHierarchy
from asymint.jordan import jordan_coefficients, verify_on_sequence
from asymint.lattice import (
    LatticeState,
    ProfileBuilder,
    integrate,
)
from asymint.reduction import run_reduction

from oracles import flow_commutator, parse, specialize
from test_compatibility import (
    WITNESS_VALUE,
    kdv_constraints,
    potential_constraints,
    seventh_order_solution,
)
from test_hierarchy import expected_flow3, leaf


@pytest.fixture
def announce(capsys):
    def line(number, label, ok, elapsed, budget, tolerance):
        with capsys.disabled():
            print(
                f"[criterion {number:02d}] {label}: {'PASS' if ok else 'FAIL'} "
                f"({elapsed:.2f}s, budget {budget}; {tolerance})"
            )

    return line


def finish(announce, number, label, start, budget_s, budget_text, tolerance, checks):
    elapsed = time.monotonic() - start
    ok = all(good for _, good in checks) and (budget_s is None or elapsed < budget_s)
    announce(number, label, ok, elapsed, budget_text, tolerance)
    for description, good in checks:
        assert good, description
    if budget_s is not None:
        assert elapsed < budget_s, f"budget exceeded: {elapsed:.2f}s"


def relations_match(got, want):
    return len(got) == len(want) and all(
        any(not (have - w) for have in got) for w in want
    )


def test_criterion_01_graded_basis_dimensions(announce):
    start = time.monotonic()
    table = [
        (6, "potential", 1, 3),
        (8, "potential", 1, 6),
        (8, "potential", 2, 11),
        (10, "potential", 2, 24),
        (9, "kdv", 2, 14),
        (11, "kdv", 2, 31),
    ]
    checks = [
        (f"dim of weight-{w} {grading} space over {r} fields is {dim}",
         len(enumerate_basis(w, grading, r)) == dim)
        for w, grading, r, dim in table
    ]
    finish(announce, 1, "graded basis dimensions", start, 1.0, "1 s",
           "exact integers", checks)


def test_criterion_02_leading_flow_coefficients(announce):
    start = time.monotonic()
    checks = []
    for s in (0, 1):
        rep = run_reduction(CoeffField(s), order=5)
        f = rep.field
        checks.append((
            f"alpha1 s={s}",
            rep.alphas[1] == parse(f, f"((3 - (3*{s} + 1)*h^2)/24)*c"),
        ))
        checks.append((f"alpha2 s={s}", rep.alphas[2] == parse(f, f"{s}*h^2 - 3/4")))
    finish(announce, 2, "order-5 flow coefficients", start, 30.0, "30 s",
           "exact symbolic", checks)


def test_criterion_03_next_order_coefficients(announce, engine):
    start = time.monotonic()
    checks = []
    for s in (0, 1):
        rep = engine(s, 9)
        f = rep.field
        want = {
            3: ("(7 - 24*h^2 + 16*h^4)/64" if s == 1
                else f"(h^2*(16*h^2*{s} - 5*(1 + 3*{s})) + 7)/64"),
            4: f"(((1 + 7*{s})*h^2)/12)*c",
            5: f"(h^2*(16*h^2*{s} - 3*(3 + {s})) - 3)/48",
            6: f"-((((15*{s} + 1)*h^4 + 30*({s} - 1)*h^2 - 15)/1920)*c)",
        }
        for k, text in want.items():
            checks.append((f"alpha{k} s={s}", rep.alphas[k] == parse(f, text)))
        checks.append((f"beta3 derived equal to alpha6 s={s}",
                       rep.betas[3] == rep.alphas[6]))
    finish(announce, 3, "order-7 flow coefficients", start, 300.0, "5 min",
           "exact symbolic", checks)


def test_criterion_04_hierarchy_fidelity(announce, engine):
    start = time.monotonic()
    checks = []
    for s in (0, 1):
        rep = engine(s, 9)
        f = rep.field
        a1, a2, b3, b4 = rep.alphas[1], rep.alphas[2], rep.betas[3], rep.betas[4]
        hier = FlowHierarchy(a1, a2)
        r = a2 / a1
        dphi = leaf(f, "phi", 1, 1)
        u = leaf(f, "vphi", 1, 0)

        checks.append((f"K2 display s={s}",
                       rep.flows["K2"] == leaf(f, "phi", 1, 3, a1) + (dphi * dphi).scale(a2)))
        checks.append((f"K3 display s={s}",
                       rep.flows["K3"] == expected_flow3(f, a1, a2, b3)))
        checks.append((f"K4 from the recursion operator s={s}",
                       rep.flows["K4"] == hier.flow(4, b4)))

        psi = DiffPolynomial.leaf(FieldSymbol("psi", 1), 0, f.one)
        got = hier.flow(2, a1).linearize("phi", psi)
        checks.append((f"K2' display s={s}",
                       got == psi.d_x(3).scale(a1) + (dphi * psi.d_x()).scale(a2 * 2)))
        got = hier.flow(3, b3).linearize("phi", psi)
        want = psi.d_x(5)
        want = want + (dphi * psi.d_x(3) + leaf(f, "phi", 1, 2) * psi.d_x(2)).scale(
            r * Fraction(10, 3))
        want = want + (dphi * dphi * psi.d_x()).scale(r * r * Fraction(10, 3))
        want = want + (leaf(f, "phi", 1, 3) * psi.d_x()).scale(r * Fraction(10, 3))
        checks.append((f"K3' display s={s}", got == want.scale(b3)))

        checks.append((f"H2 display s={s}",
                       hier.kdv_flow(2, a1)
                       == u.d_x(3).scale(a1) + (u * u.d_x()).scale(a2 * 2)))
        want = u.d_x(5)
        want = want + (u * u * u.d_x()).scale(r * r * Fraction(10, 3))
        want = want + (u.d_x() * u.d_x(2)).scale(r * Fraction(20, 3))
        want = want + (u * u.d_x(3)).scale(r * Fraction(10, 3))
        checks.append((f"H3 display s={s}", hier.kdv_flow(3, b3) == want.scale(b3)))

        rho = DiffPolynomial.leaf(FieldSymbol("rho", 1), 0, f.one)
        got = hier.kdv_flow(2, a1).linearize("vphi", rho)
        checks.append((f"H2' display s={s}",
                       got == rho.d_x(3).scale(a1)
                       + (rho * u.d_x() + u * rho.d_x()).scale(a2 * 2)))
        got = hier.kdv_flow(3, b3).linearize("vphi", rho)
        want = rho.d_x(5)
        want = want + (u * rho.d_x(3) + (u.d_x() * rho.d_x(2)).scale(2)).scale(
            r * Fraction(10, 3))
        want = want + (u.d_x(2).scale(2) + (u * u).scale(r)) * rho.d_x().scale(
            r * Fraction(10, 3))
        want = want + ((u * u.d_x()).scale(r * 2) + u.d_x(3)) * rho.scale(
            r * Fraction(10, 3))
        checks.append((f"H3' display s={s}", got == want.scale(b3)))

        ks = {j: rep.flows[f"K{j}"] for j in (2, 3, 4)}
        if s == 0:
            hs = {j: rep.flows[f"H{j}"] for j in (2, 3, 4)}
        else:
            hs = {j: hier.kdv_flow(j, b) for j, b in ((2, a1), (3, b3), (4, b4))}
        for i, j in ((2, 3), (2, 4), (3, 4)):
            checks.append((f"[K{i},K{j}] = 0 s={s}",
                           not flow_commutator(ks[i], ks[j], "phi")))
            checks.append((f"[H{i},H{j}] = 0 s={s}",
                           not flow_commutator(hs[i], hs[j], "vphi")))
    finish(announce, 4, "hierarchy fidelity", start, 120.0, "2 min",
           "symbolic zero", checks)


def test_criterion_05_order_seven_compatibility(announce, engine, commutation):
    start = time.monotonic()
    checks = []
    for s in (0, 1):
        rep, out = engine(s, 7), commutation(s, 7)
        want = seventh_order_solution(rep.field, rep.alphas[1], rep.alphas[2],
                                      rep.betas[3])
        checks.append((
            f"exactly the six correction relations s={s}",
            set(out.solved_coefficients) == set(want)
            and all(not (out.solved_coefficients[k] - v)
                    for k, v in want.items()),
        ))
        checks.append((f"zero residual constraints s={s}",
                       out.residual_constraints == []))
        checks.append((f"verdict PASS s={s}", out.verdict == "PASS"))
    finish(announce, 5, "order-7 compatibility", start, None, "none stated",
           "normalized syntactic match", checks)


def test_criterion_06_order_nine_constraint_relations(announce, engine, commutation):
    start = time.monotonic()
    rep1, pot = engine(1, 9), commutation(1, 9)
    want_c = potential_constraints(rep1.field, rep1.alphas[1], rep1.alphas[2])
    rep0, kdv = engine(0, 9), commutation(0, 9)
    want_d = kdv_constraints(rep0.field, rep0.alphas[1], rep0.alphas[2])
    checks = [
        ("three c-relations", relations_match(pot.residual_constraints, want_c)),
        ("five d-relations", relations_match(kdv.residual_constraints, want_d)),
        ("c7 relation present",
         any(not (have - want_c[1]) for have in pot.residual_constraints)),
        ("d13 relation present",
         any(not (have - want_d[4]) for have in kdv.residual_constraints)),
    ]
    finish(announce, 6, "order-9 constraint relations", start, None, "none stated",
           "normalized syntactic match", checks)


def test_criterion_07_final_verdicts_and_proposition(announce, engine, commutation,
                                                     capsys, tmp_path):
    start = time.monotonic()
    out0, out1 = commutation(0, 9), commutation(1, 9)
    witness_value = parse(engine(0, 9).field, WITNESS_VALUE)
    out_path = tmp_path / "proposition.json"
    code = cli_main(["proposition", "--out", str(out_path)])
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    checks = [
        ("s=1 order 9 PASS", out1.verdict == "PASS"),
        ("s=0 order 9 FAIL", out0.verdict == "FAIL"),
        ("concrete nonvanishing witness",
         out0.witness is not None and bool(witness_value)
         and abs(witness_value.eval_float(Fraction(1, 2))) > 1e-6),
        ("proposition command exits 0", code == 0),
        ("proposition report reproduces the pattern", payload["reproduced"] is True),
    ]
    finish(announce, 7, "final verdicts", start, 1800.0, "30 min",
           "exact; witness nonzero at h=1/2", checks)


def test_criterion_08_difference_reexpansion_exactness(announce):
    start = time.monotonic()
    checks = []
    step = Fraction(1, 2)
    for j in (1, 2, 3, 4):
        for omega in (Fraction(2), Fraction(3), Fraction(1, 2)):
            for p in (3, 5):
                exp = jordan_coefficients(j, omega, max_i=8, p=p)
                coarse = int(omega / step)
                top = max(exp.coefficients) if exp.coefficients else j
                span = max(j * coarse, top * 2)
                for degree in sorted({p, 3}):
                    samples = [
                        sum(Fraction(3 * m + 1) * (k * step) ** m
                            for m in range(degree + 1))
                        for k in range(span + 5)
                    ]
                    residual = verify_on_sequence(exp, samples, step=step)
                    checks.append(
                        (f"j={j} omega={omega} p={p} degree={degree}", residual == 0))
    finish(announce, 8, "difference re-expansion exactness", start, 1.0, "1 s",
           "exact rational zero", checks)


def test_criterion_09_numeric_validation(announce, engine, scaling):
    start = time.monotonic()
    checks = []
    dt, T = 1e-3, 1.0
    worst = 0.0
    for s in (0, 1):
        state = LatticeState(np.ones(16, dtype=complex), 0.5, 0.0)
        final = integrate(state, dt, int(T / dt), s)
        worst = max(worst, float(np.max(np.abs(final.values - np.exp(-1j * T)))))
    checks.append(("equilibrium orbit error < 1e-8 at dt=1e-3, T=1", worst < 1e-8))

    builder = ProfileBuilder(engine(0, 5), 0.2, 400)
    drifts = {}
    for step in (0.02, 0.01):
        state = builder.state(0.5, 0.0)
        norm0 = float(np.sum(np.abs(state.values) ** 2))
        final = integrate(state, step, int(round(1.0 / step)), 0)
        drifts[step] = abs(float(np.sum(np.abs(final.values) ** 2)) - norm0) / norm0
    checks.append(("norm drift ratio >= 8 on dt halving",
                   drifts[0.02] / drifts[0.01] >= 8.0))

    for s in (0, 1):
        checks.append((f"error-scaling slope >= 1.7 s={s}", scaling(s).slope >= 1.7))
    finish(announce, 9, "numeric validation", start, 600.0, "10 min",
           "orbit < 1e-8; drift ratio >= 8; slope >= 1.7", checks)


def test_criterion_10_verdicts_are_robust(announce, commutation, pinned_commutation):
    start = time.monotonic()
    base = {(s, order): commutation(s, order).verdict
            for s in (0, 1) for order in (7, 9)}
    checks = [("baseline pattern", base == {(0, 7): "PASS", (1, 7): "PASS",
                                            (0, 9): "FAIL", (1, 9): "PASS"})]
    for s in (0, 1):
        for order in (7, 9):
            out = pinned_commutation(s, order)
            checks.append((f"h pinned to 1/3 before solving, s={s}, order {order}",
                           out.verdict == base[(s, order)]))
    for s in (0, 1):
        pinned = CoeffField(s, h_value=Fraction(1, 3))
        values = [specialize(v, pinned) for v in commutation(s, 9).evaluated]
        verdict = "FAIL" if any(values) else "PASS"
        checks.append((f"h pinned to 1/3 after solving, s={s}",
                       verdict == base[(s, 9)]))
    finish(announce, 10, "verdict robustness", start, None, "none stated",
           "identical verdicts", checks)
