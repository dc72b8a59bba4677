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
    strip_content,
)
from asymint.errors import InconsistentSystemError
from asymint.field import CoeffField
from asymint.knowns import KnownPoly

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
        assert any((have - want).is_zero() for have in got), want.text()


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
            assert (out.solved_coefficients[name] - expr).is_zero(), (s, name)


def test_ninth_order_constraints_second_branch(engine, commutation):
    rep = engine(1, 9)
    out = commutation(1, 9)
    assert out.variant == "potential"
    assert len(out.solved_coefficients) == 24
    want = potential_constraints(rep.field, rep.alphas[1], rep.alphas[2])
    assert_same_relations(out.residual_constraints, want)
    assert all(v.is_zero() for v in out.evaluated)
    assert out.verdict == "PASS"
    assert out.witness is None


def test_ninth_order_constraints_first_branch(engine, commutation):
    rep = engine(0, 9)
    out = commutation(0, 9)
    assert out.variant == "kdv"
    assert len(out.solved_coefficients) == 31
    want = kdv_constraints(rep.field, rep.alphas[1], rep.alphas[2])
    assert_same_relations(out.residual_constraints, want)
    nonzero = [v for v in out.evaluated if not v.is_zero()]
    assert len(nonzero) == 1
    assert nonzero[0] == rep.field.parse(WITNESS_VALUE)
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
            pivots[name] = KnownPoly.symbol(problem.field, name) - con
        for eq in commutator_equations(problem):
            assert eq.substitute(out.solved_coefficients).substitute(pivots).is_zero()


def test_strip_content_divides_out_stray_labels():
    f = CoeffField(1)
    a1, c7, c11 = syms(f, "a1", "c7", "c11")
    primitive = c7 - 3 * c11
    assert (strip_content(a1 * a1 * primitive) - primitive).is_zero()
    assert strip_content(KnownPoly(f)).is_zero()
    # no common factor: unchanged
    assert (strip_content(primitive + a1) - (primitive + a1)).is_zero()


def test_rref_is_a_canonical_form():
    f = CoeffField(0)
    x, y, z = syms(f, "x1", "x2", "x3")
    rows = [x + y, y + z]
    other = [x - z, 2 * y + 2 * z]
    a = rref(rows, f)
    b = rref(other, f)
    assert len(a) == len(b) == 2
    for left, right in zip(a, b):
        assert (left - right).is_zero()


def test_pivots_skip_zero_divisors():
    # c^2 = 1 when s = 0, so 1 + c is a nonzero zero divisor with no inverse
    f = CoeffField(0)
    a1, x1, x2 = syms(f, "a1", "x1", "x2")
    zero_divisor = 1 + f.c
    solved, leftovers = eliminate_unknowns(
        [zero_divisor * x2 + x1 - a1, x2 - 2 * a1], ["x1", "x2"], f
    )
    assert leftovers == []
    assert set(solved) == {"x1", "x2"}
    assert (solved["x1"] - (a1 - zero_divisor * 2 * a1)).is_zero()
    assert (solved["x2"] - 2 * a1).is_zero()

    rows = rref([zero_divisor * a1, a1 + x2], f)
    assert len(rows) == 2
    assert (rows[0] - (a1 + x2)).is_zero()
    assert (rows[1] + zero_divisor * x2).is_zero()


S0 = CoeffField(0)
UNKNOWNS = ["x1", "x2"]


def zero_divisor_systems():
    """Linear systems in x1, x2 over the s = 0 ring, whose coefficients
    include the zero divisors 1 + c and 1 - c (c^2 = 1), a few known
    symbols, and unknown coefficients that are not constant (a1 * x1)."""
    f = S0
    scalars = st.sampled_from(
        [f.coerce(v) for v in (1, -1, 2, Fraction(1, 2))]
        + [f.c, f.h, f.one + f.c, f.one - f.c, -(f.one + f.c), 2 * (f.one - f.c)]
    )
    term = st.tuples(
        scalars,
        st.sampled_from(2 * UNKNOWNS + ["a1", "a2", None]),
        st.sampled_from([None, None, None, "a1"]),
    )

    def build(terms):
        acc = KnownPoly(f)
        for coeff, name, extra in terms:
            t = KnownPoly.constant(f, coeff)
            for n in (name, extra):
                if n is not None:
                    t = t * KnownPoly.symbol(f, n)
            acc = acc + t
        return acc

    return st.lists(st.lists(term, min_size=2, max_size=5).map(build), min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(zero_divisor_systems())
def test_elimination_in_the_zero_divisor_ring(equations):
    try:
        solved, leftovers = eliminate_unknowns(equations, UNKNOWNS, S0)
    except InconsistentSystemError:
        return
    assert set(solved) == set(UNKNOWNS)
    for eq in equations:
        left = eq.substitute(solved)
        assert left.is_zero() or left in leftovers


def test_verdicts_survive_branch_flip(commutation):
    for s in (0, 1):
        out = commutation(s, 9)
        pattern = [v.is_zero() for v in out.evaluated]
        assert [v.conjugate().is_zero() for v in out.evaluated] == pattern


def test_verdicts_survive_h_pinning(commutation, pinned_commutation):
    for s, want in ((0, "FAIL"), (1, "PASS")):
        assert pinned_commutation(s, 9).verdict == want
    for s in (0, 1):
        out = commutation(s, 9)
        target = CoeffField(s, h_value=Fraction(1, 3))
        general = [v.is_zero() for v in out.evaluated]
        pinned = [v.specialize(target).is_zero() for v in out.evaluated]
        assert pinned == general


def test_nonvanishing_witness_under_both_signs(commutation):
    out = commutation(0, 9)
    value = next(v for v in out.evaluated if not v.is_zero())
    h = Fraction(1, 2)
    even, odd = value.eval_exact(h)
    root = math.sqrt(1 - value.field.s * h * h)
    assert abs(value.eval_float(h)) > 1e-6
    assert abs(float(even) - float(odd) * root) > 1e-6  # c -> -c
