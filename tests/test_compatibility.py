"""Cross-derivative commutation analysis at orders seven and nine.

The reference relations frozen here were derived by hand from the
linearized-hierarchy structure before the solver existed: the six
seventh-order correction formulas and the three-plus-five ninth-order
constraint generators.  The solver must reproduce them as written, up to
nothing: same labels, same rational coefficients.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymint.compatibility import (
    build_problem,
    commutator_equations,
    eliminate_unknowns,
    rref,
    solve_compatibility,
    strip_content,
)
from asymint.diffpoly import DiffPolynomial
from asymint.errors import (
    InconsistentSystemError,
    MissingEvolutionError,
    NonLocalError,
    ZeroInverse,
)
from asymint.field import CoeffField
from asymint.knowns import KnownPoly
from asymint.reduction import ReductionReport, run_reduction

from oracles import conjugate, parse, specialize

WITNESS_VALUE = (
    "(450*h^2 + 345*h^4 - 1413*h^6 - 557*h^8 - 17*h^10)"
    "/(1944 - 2592*h^2 + 1296*h^4 - 288*h^6 + 24*h^8)"
)


def syms(field, *names):
    return [KnownPoly.symbol(field, n) for n in names]


def seventh_order_solution(field, alpha1, alpha2, beta3):
    a1, a2, a3 = syms(field, "a1", "a2", "a3")
    i1 = alpha1.inv()
    lead = 5 * beta3 * i1
    return {
        "b1": lead * i1 * (9 * a1 * alpha1 + 2 * (a2 + 3 * a3) * alpha2) * Fraction(1, 9),
        "b2": lead * a2 * Fraction(1, 3),
        "b3": lead * (a2 + 2 * a3) * Fraction(1, 3),
        "b4": lead * i1 * i1 * alpha2 * (27 * a1 * alpha1 - a2 * alpha2) * Fraction(1, 54),
        "b5": lead * i1 * (9 * a1 * alpha1 + 5 * a2 * alpha2) * Fraction(1, 9),
        "b6": lead * (a2 + a3) * Fraction(1, 3),
    }


def potential_constraints(field, alpha1, alpha2):
    a1, a2, a3 = syms(field, "a1", "a2", "a3")
    c = {i: KnownPoly.symbol(field, f"c{i}") for i in range(1, 12)}
    i1, i2 = alpha1.inv(), alpha2.inv()
    e_c6 = (
        c[6]
        - (27 * a1 * (a2 + 4 * a3) * alpha1
           - (37 * a2 * a2 + 46 * a2 * a3 + 12 * a3 * a3) * alpha2)
        * c[11] * (i1 * i1 * i2) * Fraction(1, 108)
        - ((17 * a2 + 18 * a3) * alpha2 - 27 * a1 * alpha1) * c[8] * (i1 * i1) * Fraction(1, 108)
        - ((3 * a2 - 8 * a3) * alpha2 - 3 * a1 * alpha1) * c[9] * (i1 * i1) * Fraction(1, 36)
        - (18 * c[2] - 24 * c[1] - 55 * c[3]) * (alpha2 * alpha2 * i1 * i1) * Fraction(1, 54)
        - (13 * c[5] - 3 * c[4]) * (alpha2 * i1) * Fraction(1, 18)
    )
    e_c7 = c[7] - a2 * c[11] * i2
    e_c10 = c[10] - 3 * a1 * c[11] * i2
    return [e_c6, e_c7, e_c10]


def kdv_constraints(field, alpha1, alpha2):
    a1, a2, a3 = syms(field, "a1", "a2", "a3")
    d = {i: KnownPoly.symbol(field, f"d{i}") for i in range(1, 15)}
    i1, i2 = alpha1.inv(), alpha2.inv()
    e_d7 = (
        d[7]
        - (9 * a1 * (12 * a3 + 5 * a2) * alpha1
           - (45 * a2 * a2 + 88 * a2 * a3 + 12 * a3 * a3) * alpha2)
        * d[14] * (i1 * i1 * i2) * Fraction(1, 54)
        - ((3 * a2 - 8 * a3) * alpha2 - 3 * a1 * alpha1) * d[10] * (i1 * i1) * Fraction(1, 9)
        - ((21 * a3 + 4 * a2) * alpha2 - 9 * a1 * alpha1) * d[9] * (i1 * i1) * Fraction(2, 27)
        - (9 * d[5] + 8 * d[6] - 24 * d[4]) * (alpha2 * i1) * Fraction(1, 9)
        + (12 * d[1] - 30 * d[2] + 85 * d[3]) * (alpha2 * alpha2 * i1 * i1) * Fraction(2, 27)
    )
    e_d8 = d[8] - a2 * d[14] * i2 * Fraction(1, 2)
    e_d11 = d[11] - d[10] + d[9] - a2 * d[14] * i2 * Fraction(1, 2)
    e_d12 = d[12] - a1 * d[14] * i2 * Fraction(3, 2)
    e_d13 = d[13] - 3 * a1 * d[14] * i2
    return [e_d7, e_d8, e_d11, e_d12, e_d13]


def assert_same_relations(got, expected):
    assert len(got) == len(expected)
    for want in expected:
        assert any(not (have - want) for have in got), want.text()


def test_seventh_order_is_unobstructed(engine, commutation):
    for s in (0, 1):
        rep = engine(s, 7)
        out = commutation(s, 7)
        assert out.verdict == "PASS"
        assert out.residual_constraints == []
        want = seventh_order_solution(
            rep.field, rep.alphas[1], rep.alphas[2], rep.betas[3]
        )
        assert set(out.solved_coefficients) == set(want)
        for name, expr in want.items():
            assert not (out.solved_coefficients[name] - expr), (s, name)


def test_ninth_order_constraints_second_branch(engine, commutation):
    rep = engine(1, 9)
    out = commutation(1, 9)
    assert out.variant == "potential"
    assert len(out.solved_coefficients) == 24
    want = potential_constraints(rep.field, rep.alphas[1], rep.alphas[2])
    assert_same_relations(out.residual_constraints, want)
    assert all(not v for v in out.evaluated)
    assert out.verdict == "PASS"
    assert out.witness is None


def test_ninth_order_constraints_first_branch(engine, commutation):
    rep = engine(0, 9)
    out = commutation(0, 9)
    assert out.variant == "kdv"
    assert len(out.solved_coefficients) == 31
    want = kdv_constraints(rep.field, rep.alphas[1], rep.alphas[2])
    assert_same_relations(out.residual_constraints, want)
    nonzero = [v for v in out.evaluated if v]
    assert len(nonzero) == 1
    assert nonzero[0] == parse(rep.field, WITNESS_VALUE)
    assert out.verdict == "FAIL"
    assert out.witness is not None and "evaluates to" in out.witness


def test_every_commutator_equation_is_accounted_for(engine, commutation):
    # substituting the solved ansatz and then treating each constraint as a
    # rewrite rule for its pivot label must annihilate the whole system
    from asymint.compatibility import _column_key

    for s in (0, 1):
        problem = build_problem(engine(s, 9), 9)
        out = commutation(s, 9)
        pivots = {}
        for con in out.residual_constraints:
            name = min(con.terms, key=_column_key)[0][0]
            pivots[name] = KnownPoly.symbol(con.field, name) - con
        for eq in commutator_equations(problem):
            assert not eq.substitute(out.solved_coefficients).substitute(pivots)


def test_a_field_without_a_rule_is_named(engine):
    # the commutator is the one place that refuses a field without a rule
    problem = build_problem(engine(1, 9), 7)
    del problem.evolution_rules.table[("phi", 1, 3)]
    with pytest.raises(MissingEvolutionError, match="phi1_t3"):
        commutator_equations(problem)


def test_strip_content_divides_out_stray_labels():
    f = CoeffField(1)
    a1, c7, c11 = syms(f, "a1", "c7", "c11")
    primitive = c7 - 3 * c11
    assert not (strip_content(a1 * a1 * primitive) - primitive)
    # no common factor: unchanged
    assert not (strip_content(primitive + a1) - (primitive + a1))


def test_rref_is_a_canonical_form():
    f = CoeffField(0)
    x, y, z = syms(f, "x1", "x2", "x3")
    rows = [x + y, y + z]
    other = [x - z, 2 * y + 2 * z]
    a = rref(rows)
    b = rref(other)
    assert len(a) == len(b) == 2
    for left, right in zip(a, b):
        assert not (left - right)


def test_a_zero_divisor_pivot_is_an_error():
    # c^2 = 1 when s = 0, so 1 + c is a nonzero zero divisor with no inverse.
    # No program scalar is one (the mirror grading), so pivoting on it raises
    # instead of passing on to the next candidate: x2 comes first in label
    # order, and a1 is the first column
    f = CoeffField(0)
    a1, x1, x2 = syms(f, "a1", "x1", "x2")
    zero_divisor = 1 + f.c
    with pytest.raises(ZeroInverse):
        eliminate_unknowns([zero_divisor * x2 + x1 - a1, x2 - 2 * a1], ["x1", "x2"])
    with pytest.raises(ZeroInverse):
        rref([zero_divisor * a1, a1 + x2])


S0 = CoeffField(0)
UNKNOWNS = ["x1", "x2"]
PARITY = {"x1": 0, "x2": 1, "a1": 1, "a2": 0}


def graded_systems():
    """Linear systems in x1, x2 over the s = 0 ring (c^2 = 1), graded as the
    program's are: each symbol has a fixed parity in c, and each term's
    scalar, f or f*c, has its monomial's parity.  Unknown coefficients need
    not be constant (a1 * x1)."""
    f = S0
    term = st.tuples(
        st.sampled_from([f.coerce(v) for v in (1, -1, 2, Fraction(1, 2))] + [f.h]),
        st.sampled_from(2 * UNKNOWNS + ["a1", "a2", None]),
        st.sampled_from([None, None, None, "a1"]),
    )

    def build(terms):
        acc = KnownPoly(f)
        for scalar, *names in terms:
            names = [n for n in names if n is not None]
            t = KnownPoly.constant(f, scalar * f.c if sum(PARITY[n] for n in names) % 2 else scalar)
            for n in names:
                t = t * KnownPoly.symbol(f, n)
            acc = acc + t
        return acc

    return st.lists(st.lists(term, min_size=2, max_size=5).map(build), min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(graded_systems())
def test_elimination_in_the_zero_divisor_ring(equations):
    # every coefficient stays f or f*c, a unit, so no pivot raises ZeroInverse
    try:
        solved, leftovers = eliminate_unknowns(equations, UNKNOWNS)
    except InconsistentSystemError:
        return
    assert set(solved) == set(UNKNOWNS)
    for eq in equations:
        left = eq.substitute(solved)
        assert not left or left in leftovers
    assert len(rref(leftovers)) <= len(leftovers)


def test_a_third_canonical_pass_changes_nothing(commutation):
    # solve_compatibility runs rref(strip_content(.)) twice; the rows it keeps
    # are already the canonical form, so one more pass returns them unchanged
    for s, rows in ((0, 5), (1, 3)):
        constraints = commutation(s, 9).residual_constraints
        assert len(constraints) == rows
        again = rref([strip_content(c) for c in constraints])
        assert again == constraints
        assert [c.text() for c in again] == [c.text() for c in constraints]


def test_verdicts_survive_branch_flip(commutation):
    for s in (0, 1):
        out = commutation(s, 9)
        pattern = [not v for v in out.evaluated]
        assert [not conjugate(v) for v in out.evaluated] == pattern


def test_verdicts_survive_h_pinning(commutation, pinned_commutation):
    for s, want in ((0, "FAIL"), (1, "PASS")):
        assert pinned_commutation(s, 9).verdict == want
    for s in (0, 1):
        out = commutation(s, 9)
        target = CoeffField(s, h_value=Fraction(1, 3))
        general = [not v for v in out.evaluated]
        pinned = [not specialize(v, target) for v in out.evaluated]
        assert pinned == general


# (s, h, order-9 verdict, constraint rows, sign of the witness value).  c is
# rational at each pinned h (4/5, 12/13 and 15/17 on the integrable branch,
# 1 on the other), so c minus that value is a nonzero zero divisor; the two
# s = 0 spacings lie on either side of the witness root h* ~ 0.7829.
ZERO_DIVISOR_RINGS = [
    (1, Fraction(3, 5), "PASS", 3, 0),
    (1, Fraction(5, 13), "PASS", 3, 0),
    (1, Fraction(8, 17), "PASS", 3, 0),
    (0, Fraction(39, 50), "FAIL", 5, 1),
    (0, Fraction(79, 100), "FAIL", 5, -1),
]


@pytest.mark.parametrize("s, h, verdict, rows, sign", ZERO_DIVISOR_RINGS)
def test_verdicts_in_rings_with_zero_divisors(s, h, verdict, rows, sign):
    rep = run_reduction(CoeffField(s, h_value=h), order=9)
    seven = solve_compatibility(build_problem(rep, 7))
    nine = solve_compatibility(build_problem(rep, 9))
    assert (seven.verdict, seven.residual_constraints) == ("PASS", [])
    assert (nine.verdict, len(nine.residual_constraints)) == (verdict, rows)
    witness = [v.eval_exact() for v in nine.evaluated if v]
    assert [((even > 0) - (even < 0), odd) for even, odd in witness] == [(sign, 0)] * abs(sign)


def test_nonvanishing_witness_under_both_signs(commutation):
    out = commutation(0, 9)
    value = next(v for v in out.evaluated if v)
    h = Fraction(1, 2)
    even, odd = value.eval_exact(h)
    root = math.sqrt(1 - value.field.s * h * h)
    assert abs(value.eval_float(h)) > 1e-6
    assert abs(float(even) - float(odd) * root) > 1e-6  # c -> -c


def test_forced_kdv_split_passes_on_the_integrable_branch(monkeypatch):
    # The s = 1 remainder at eps^9 is an exact x-derivative, so the reduction
    # takes the potential split.  Refusing its first antiderivative forces the
    # derivative-field split instead; both ninth-order formulations must then
    # agree that the integrable lattice passes.
    stage_tj, integrate_x = ReductionReport.stage_tj, DiffPolynomial.integrate_x
    refuse = [False]

    def forced_stage(report, j):
        refuse[0] = j == 4
        stage_tj(report, j)

    def refused_once(poly):
        if refuse[0]:
            refuse[0] = False
            raise NonLocalError("refused to force the derivative-field split")
        return integrate_x(poly)

    monkeypatch.setattr(ReductionReport, "stage_tj", forced_stage)
    monkeypatch.setattr(DiffPolynomial, "integrate_x", refused_once)
    rep = run_reduction(CoeffField(1), order=9)
    assert rep.variant == "kdv"
    out = solve_compatibility(build_problem(rep, 9))
    assert (out.variant, out.verdict, out.witness) == ("kdv", "PASS", None)
    assert len(out.residual_constraints) == 5
    assert out.evaluated and not any(out.evaluated)
