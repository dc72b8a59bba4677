"""Differential polynomial algebra: calculus, grading, slow-time structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymint.diffpoly import (
    DiffPolynomial,
    EvolutionRules,
    FieldSymbol,
    enumerate_basis,
    mono,
    substitute_field,
    substitute_slow_times,
    time_derivative,
)
from asymint.errors import GradingError, NonLocalError
from asymint.field import CoeffField

from oracles import monomial_weight

F = CoeffField(1)
ONE = F.one
PHI1 = FieldSymbol("phi", 1)
PHI2 = FieldSymbol("phi", 2)


def leaf(ell, index=1, coeff=ONE, kind="phi"):
    return DiffPolynomial.leaf(FieldSymbol(kind, index), ell, coeff)


def random_polys():
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(F.from_fraction)
    factors = st.tuples(st.sampled_from(["phi"]), st.integers(1, 2), st.integers(1, 4))
    monos = st.lists(factors, min_size=1, max_size=3).map(lambda fs: mono(*fs))
    term = st.tuples(monos, coeffs)
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (DiffPolynomial({m: c}) for m, c in ts if c),
            DiffPolynomial(),
        )
    )


# --- ring and calculus -----------------------------------------------------------


def test_mul_merges_like_monomials():
    p = leaf(1)
    q = p * p
    assert q == DiffPolynomial({mono(("phi", 1, 1), ("phi", 1, 1)): ONE})
    assert not (q + q.scale(-1))


def test_d_x_product_rule_frozen():
    # d((dphi)^2) = 2 dphi d2phi
    p = leaf(1) * leaf(1)
    assert p.d_x() == DiffPolynomial(
        {mono(("phi", 1, 1), ("phi", 1, 2)): F.from_fraction(2)}
    )


@settings(max_examples=60)
@given(random_polys(), random_polys())
def test_d_x_is_a_derivation(p, q):
    assert (p * q).d_x() == p.d_x() * q + p * q.d_x()


@settings(max_examples=60)
@given(random_polys())
def test_integrate_inverts_d_x(p):
    assert p.d_x().integrate_x() == p


def test_integrate_frozen_example():
    # dphi d2phi = d( (dphi)^2 / 2 )
    p = leaf(1) * leaf(2)
    assert p.integrate_x() == (leaf(1) * leaf(1)).scale(Fraction(1, 2))


def test_integrate_rejects_non_exact():
    for bad in [
        DiffPolynomial.constant(ONE),
        leaf(0, kind="vphi") * leaf(0, kind="vphi") * leaf(0, kind="vphi"),
        leaf(2) * leaf(2),  # (d2phi)^2 alone is not a total derivative
    ]:
        with pytest.raises(NonLocalError):
            bad.integrate_x()


def test_frechet_linearization():
    p = leaf(1) * leaf(1) * leaf(1)  # (dphi)^3
    psi = DiffPolynomial.leaf(FieldSymbol("psi", 1), 0, ONE)
    applied = p.linearize("phi", psi)
    assert applied == (leaf(1) * leaf(1) * psi.d_x()).scale(3)
    # one term per derivative order of the field: d(dphi d2phi) = d2phi psi' + dphi psi''
    mixed = (leaf(1) * leaf(2)).linearize("phi", psi)
    assert mixed == leaf(2) * psi.d_x() + leaf(1) * psi.d_x(2)


def test_rename_to_kdv():
    assert leaf(2).rename_to_kdv() == leaf(1, kind="vphi")
    # only derived phi factors have a kdv name: an underived phi, a vphi
    # (already renamed) and an amplitude field nu are refused
    for bad in (leaf(0), leaf(1) * leaf(0, kind="vphi"), leaf(1) * leaf(1, kind="nu")):
        with pytest.raises(GradingError):
            bad.rename_to_kdv()


# --- grading and bases --------------------------------------------------------------


def test_monomial_weights():
    assert monomial_weight(mono(("phi", 1, 1), ("phi", 1, 3)), "potential") == 6
    assert monomial_weight(mono(("vphi", 1, 0), ("vphi", 2, 1)), "kdv") == 7
    with pytest.raises(GradingError):
        monomial_weight(mono(("phi", 1, 0)), "potential")
    with pytest.raises(GradingError):
        monomial_weight(mono(("nu", 1, 1)), "potential")


def test_small_bases_by_hand():
    # weight 4, potential: only (dphi)^2
    b = enumerate_basis(4, "potential", max_index=1)
    assert b == (mono(("phi", 1, 1), ("phi", 1, 1)),)
    # weight 6, potential: the three order-7 forcing monomials
    b6 = enumerate_basis(6, "potential", max_index=1)
    assert len(b6) == 3
    assert mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1)) in b6
    assert mono(("phi", 1, 1), ("phi", 1, 3)) in b6
    assert mono(("phi", 1, 2), ("phi", 1, 2)) in b6


def test_paper_space_dimensions():
    assert len(enumerate_basis(6, "potential", 1)) == 3
    assert len(enumerate_basis(8, "potential", 1)) == 6
    assert len(enumerate_basis(8, "potential", 2)) == 11
    assert len(enumerate_basis(10, "potential", 2)) == 24
    assert len(enumerate_basis(9, "kdv", 2)) == 14
    assert len(enumerate_basis(11, "kdv", 2)) == 31


def brute_force_basis(weight, grading, max_index):
    """Every monomial of the given graded weight with at least two factors,
    grown one factor at a time from every field, index <= max_index and
    derivative order <= weight; the oracle's weight drops the ungradable
    factors (GradingError) and bounds the growth, as each factor weighs >= 1."""
    candidates = [(FieldSymbol(kind, j), ell) for kind in ("phi", "vphi", "nu")
                  for j in range(1, max_index + 1) for ell in range(weight + 1)]
    seen, frontier = {()}, [()]
    while frontier:
        grown = []
        for m in frontier:
            for factor in candidates:
                bigger = tuple(sorted(m + (factor,)))
                try:
                    w = monomial_weight(bigger, grading)
                except GradingError:
                    continue
                if w <= weight and bigger not in seen:
                    seen.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return sorted(m for m in seen
                  if len(m) >= 2 and monomial_weight(m, grading) == weight)


@pytest.mark.parametrize("grading", ["potential", "kdv"])
def test_bases_match_a_brute_force_filter_by_the_oracle_weight(grading):
    for max_index in range(4):
        for weight in range(13):
            assert list(enumerate_basis(weight, grading, max_index)) == \
                brute_force_basis(weight, grading, max_index), (weight, max_index)


@pytest.mark.parametrize("grading", ["potential", "kdv"])
def test_bases_skip_field_indices_too_heavy_to_fit(grading):
    # a factor of index j weighs at least 2j, so weight 4 admits j <= 2 only;
    # looping j up to 10^9 took minutes
    assert enumerate_basis(4, grading, 10**9) == enumerate_basis(4, grading, 2)


@pytest.mark.parametrize("max_index", [0, 2])
def test_unknown_grading_is_rejected(max_index):
    with pytest.raises(ValueError):
        enumerate_basis(6, "flat", max_index)


# --- slow-time structure -------------------------------------------------------------


def k2_rules():
    alpha1, alpha2 = F.h, F.from_fraction(2)  # arbitrary nonzero stand-ins
    k2 = leaf(3).scale(alpha1) + (leaf(1) * leaf(1)).scale(alpha2)
    rules = EvolutionRules(one=ONE)
    rules.set("phi", 1, 2, k2)
    return rules, k2


def test_time_derivative_chain_rule():
    rules, k2 = k2_rules()
    p = leaf(1) * leaf(1)
    got = time_derivative(p, 2, rules)
    assert got == (leaf(1) * k2.d_x()).scale(2)


def test_time_derivative_of_constant_is_zero():
    rules, _ = k2_rules()
    assert not time_derivative(DiffPolynomial.constant(ONE), 2, rules)


def test_time_derivative_tags_missing_rules():
    rules, _ = k2_rules()
    tagged = time_derivative(leaf(1, index=2), 2, rules)
    sym = FieldSymbol("phi", 2, (2,))
    assert tagged == DiffPolynomial.leaf(sym, 1, ONE)
    # mixed slow-time derivatives commute once rules exist for both
    rules.set("phi", 2, 2, leaf(3, index=2))
    rules.set("phi", 2, 3, leaf(5, index=2))
    once = time_derivative(leaf(0, index=2), 3, rules)
    twice = time_derivative(once, 2, rules)
    other = time_derivative(time_derivative(leaf(0, index=2), 2, rules), 3, rules)
    assert twice == other


def test_substitute_slow_times_resolves_tags():
    rules, k2 = k2_rules()
    tagged = time_derivative(leaf(1), 2, EvolutionRules(one=ONE))
    assert tagged.tagged_unknowns() == [FieldSymbol("phi", 1, (2,))]
    resolved = substitute_slow_times(tagged, rules)
    assert resolved == k2.d_x()
    # without a rule the tag stays
    assert substitute_slow_times(tagged, EvolutionRules(one=ONE)) == tagged


def test_substitute_field_with_derivatives():
    # replace nu1 by c dphi1 inside nu1 * d(nu1)
    value = leaf(1).scale(F.c)
    p = DiffPolynomial.leaf(FieldSymbol("nu", 1), 0, ONE) * DiffPolynomial.leaf(
        FieldSymbol("nu", 1), 1, ONE
    )
    got = substitute_field(p, "nu", 1, value, EvolutionRules(one=ONE))
    assert got == (leaf(1) * leaf(2)).scale(F.c * F.c)


def test_sector_split_by_field_degree():
    p = leaf(1) * leaf(1, index=2) + leaf(3) * leaf(1) + leaf(1, index=2) * leaf(2, index=2)
    assert p.part_of_degree("phi", 2, 0) == leaf(3) * leaf(1)
    assert p.part_of_degree("phi", 2, 1) == leaf(1) * leaf(1, index=2)
    assert p.part_of_degree("phi", 2, 2) == leaf(1, index=2) * leaf(2, index=2)


def test_field_symbols_sort_as_their_tuples_and_are_immutable():
    import random

    symbols = [FieldSymbol(kind, index, times)
               for kind in ("nu", "phi", "tau", "vphi")
               for index in (1, 2, 3)
               for times in ((), (2,), (2, 3), (3,))]
    random.Random(5).shuffle(symbols)
    as_tuples = sorted((s.kind, s.index, s.times) for s in symbols)
    assert [(s.kind, s.index, s.times) for s in sorted(symbols)] == as_tuples
    with pytest.raises(AttributeError):
        PHI1.index = 2
