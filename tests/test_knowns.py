"""Polynomials in named unknowns with exact lattice-parameter coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymint import _polyops
from asymint.diffpoly import DiffPolynomial
from asymint.errors import InconsistentSystemError
from asymint.field import CoeffField, RatFunc
from asymint.knowns import KnownPoly
from asymint.lattice import SechPoly

from oracles import scalar_calls, substitute_by_ring_ops

F = CoeffField(1)


def sym(name):
    return KnownPoly.symbol(F, name)


def random_knowns():
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(F.from_fraction)
    names = st.sampled_from(["a1", "a2", "c11"])
    term = st.tuples(st.lists(names, max_size=2), coeffs)

    def build(ts):
        acc = KnownPoly.constant(F, F.zero)
        for ns, c in ts:
            t = KnownPoly.constant(F, c)
            for n in ns:
                t = t * sym(n)
            acc = acc + t
        return acc

    return st.lists(term, max_size=4).map(build)


@settings(max_examples=60)
@given(random_knowns(), random_knowns(), random_knowns())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert not (p - p)


def test_scalar_interop():
    a = sym("a1")
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert F.c * a == a * F.c
    assert (1 + a) - a == KnownPoly.constant(F, 1)


def test_split_linear():
    a1, a2, b = sym("a1"), sym("a2"), sym("b1")
    p = a1 * 3 + a2 * F.c + b * b + 7
    lin, rest = p.split_linear(["a1", "a2"])
    assert lin["a1"] == KnownPoly.constant(F, F.from_fraction(3))
    assert lin["a2"] == KnownPoly.constant(F, F.c)
    assert rest == b * b + 7
    with pytest.raises(InconsistentSystemError):
        (a1 * a1).split_linear(["a1"])
    # linear-with-known-coefficients is fine even when the coefficient involves b
    lin2, rest2 = (b * a1).split_linear(["a1"])
    assert lin2["a1"] == b
    assert not rest2


def test_substitute_and_evaluate():
    a1, a2 = sym("a1"), sym("a2")
    p = a1 * a2 + a1 * 2
    q = p.substitute({"a1": KnownPoly.constant(F, F.from_fraction(3))})
    assert q == a2 * 3 + 6
    val = p.evaluate({"a1": F.from_fraction(3), "a2": F.c})
    assert val == F.c * 3 + 6
    with pytest.raises(KeyError):
        p.evaluate({"a1": F.from_fraction(3)})


NAMES = ["a1", "a2", "c11", "u3"]


def known_polys(field, max_terms):
    """KnownPolys over field with powers up to 3 and coefficients whose
    products call pgcd on non-constant polynomials in h."""
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeffs = st.tuples(frac, frac, frac).map(
        lambda q: field.from_fraction(q[0]) + field.from_fraction(q[1]) * field.h
        + field.from_fraction(q[2]) * field.c * (field.one + field.h).inv()
    ).filter(bool)
    keys = st.dictionaries(st.sampled_from(NAMES), st.integers(1, 3), max_size=3).map(
        lambda powers: tuple(sorted(powers.items()))
    )
    return st.dictionaries(keys, coeffs, max_size=max_terms).map(lambda terms: KnownPoly(field, terms))


def substitute_like_the_ring_ops(poly, mapping):
    """poly.substitute(mapping), checked to give the oracle's terms in its
    order after the same scalar calls; returns the result and those calls."""
    with scalar_calls() as fast:
        got = poly.substitute(mapping)
    with scalar_calls() as ring:
        want = substitute_by_ring_ops(poly, mapping)
    assert list(got.terms.items()) == list(want.terms.items())
    assert fast == ring
    return got, fast


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1]), st.data())
def test_substitute_makes_the_ring_operations_scalar_calls(s, data):
    field = CoeffField(s)
    poly = data.draw(known_polys(field, 4))
    mapping = data.draw(st.dictionaries(st.sampled_from(NAMES), known_polys(field, 2), max_size=3))
    substitute_like_the_ring_ops(poly, mapping)


# A term with no mapped name is multiplied by one per unit of power and kept
# under its own key, without the term-map product; the coefficient that comes
# back is the term's own, since an element times one returns itself.
@pytest.mark.parametrize("s", [0, 1])
def test_unmapped_terms_skip_the_term_map_product(s, monkeypatch):
    field = CoeffField(s)
    coeff = field.from_fraction(Fraction(2, 3)) + field.h * field.c
    poly = KnownPoly(field, {
        (): field.h, (("a1", 3),): coeff, (("a1", 1), ("a2", 2)): field.c,
    })

    def refuse(a, b):
        raise AssertionError("an unmapped term went through the term-map product")

    for mapping in ({}, {"u3": sym("a1")}):
        got, calls = substitute_like_the_ring_ops(poly, mapping)
        # one times-one product per unit of power: 5 RatFunc multiplies each
        assert sum(call[0] == "mul" for call in calls) == 5 * (3 + 3)
        for key, c in poly.terms.items():
            assert got.terms[key] is c
        with monkeypatch.context() as patch:
            patch.setattr(KnownPoly, "_mul_key", staticmethod(refuse))
            assert poly.substitute(mapping) == got


@pytest.mark.parametrize("s", [0, 1])
def test_mapped_and_unmapped_terms_mix(s):
    field = CoeffField(s)
    a1, a2 = KnownPoly.symbol(field, "a1"), KnownPoly.symbol(field, "a2")
    poly = KnownPoly(field, {
        (("a1", 2), ("u3", 1)): field.h + field.c, (("a2", 4),): field.c,
        (("c11", 1), ("u3", 2)): field.one - field.h, (): field.from_fraction(5),
    })
    mapping = {"u3": a1 * field.h + a2 * 2 + 1, "c11": a2 * field.c}
    got, calls = substitute_like_the_ring_ops(poly, mapping)
    names = {name for key in got.terms for name, _ in key}
    assert calls and "u3" not in names and "c11" not in names
    assert got.terms[(("a2", 4),)] is field.c


def test_a_zero_coefficient_makes_no_scalar_call():
    poly = KnownPoly(F, {(("a1", 2),): F.zero, (("u3", 1),): F.zero})
    for mapping in ({}, {"u3": sym("a2") * F.h}):
        got, calls = substitute_like_the_ring_ops(poly, mapping)
        assert not got.terms and calls == []


def test_scalar_calls_sees_both_kernels_and_restores_them():
    mul, pgcd = RatFunc.__mul__, _polyops.pgcd
    with scalar_calls() as calls:
        sym("a1").substitute({"a1": sym("a2") * F.h})
    assert {call[0] for call in calls} == {"mul", "pgcd"}
    assert RatFunc.__mul__ is mul and _polyops.pgcd is pgcd


def test_degrees_and_text():
    a1, a2 = sym("a1"), sym("a2")
    p = a1 * a1 * a2 + a2
    assert "a1^2" in p.text()


def test_sparse_sums_take_only_their_own_operands():
    p = sym("a1") + KnownPoly.constant(F, 3)
    poly = DiffPolynomial.constant(F.one)
    with pytest.raises(TypeError):
        poly + p
    with pytest.raises(TypeError):
        p + poly
    with pytest.raises(TypeError):
        SechPoly(F, {(1, 0): F.one}) * poly
    with pytest.raises(ValueError, match="different fields"):
        p + KnownPoly.constant(CoeffField(0), 1)
    # scalars lift to constants on either side
    two = KnownPoly.constant(F, 2)
    assert 2 * p == p * 2 == two * p
    assert Fraction(1, 2) * p == p * F.from_fraction(Fraction(1, 2))
    assert F.c + p == p + KnownPoly.constant(F, F.c)
    assert p - 1 == sym("a1") + two
    # but a scalar is no left operand of -, and no scalar equals a KnownPoly
    with pytest.raises(TypeError):
        1 - p
    assert p != 1
    assert KnownPoly.constant(F, 1) != 1
