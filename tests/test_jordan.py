"""Coarse-step differences re-expanded in fine-step differences.

Independent oracles, written before the module:
  * the expansion coefficients are the power-series coefficients of
    ((1+D)^omega - 1)^j in the fine-difference symbol D, computed here with
    plain Fraction arithmetic and generalized binomials;
  * on polynomial sequences of degree <= p the slow-varying truncation at p
    is lossless, so the re-expansion reproduces the coarse difference exactly;
  * the two Stirling triangles are inverse matrices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymint.errors import DomainError, InsufficientSamples
from asymint.jordan import (
    jordan_coefficients,
    stirling_first,
    stirling_second,
    verify_on_sequence,
)


def binomial(omega: Fraction, i: int) -> Fraction:
    out = Fraction(1)
    for k in range(i):
        out *= (omega - k) / (i - k)
    return out


def series_coefficients(j: int, omega: Fraction, max_i: int):
    """Coefficients of ((1+D)^omega - 1)^j through D^max_i."""
    base = [binomial(omega, i) for i in range(max_i + 1)]
    base[0] = Fraction(0)
    acc = [Fraction(0)] * (max_i + 1)
    acc[0] = Fraction(1)
    for _ in range(j):
        nxt = [Fraction(0)] * (max_i + 1)
        for a, va in enumerate(acc):
            if not va:
                continue
            for b in range(max_i + 1 - a):
                nxt[a + b] += va * base[b]
        acc = nxt
    return {i: acc[i] for i in range(j, max_i + 1)}


def poly_samples(coeffs, count, step=Fraction(1)):
    return [
        sum(a * (Fraction(k) * step) ** m for m, a in enumerate(coeffs))
        for k in range(count)
    ]


def test_first_kind_triangle():
    # rows of x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
    assert stirling_first(0, 0) == 1
    assert stirling_first(2, 1) == -1
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == -3
    assert stirling_first(4, 1) == -6
    assert stirling_first(4, 2) == 11
    assert stirling_first(4, 3) == -6
    assert stirling_first(4, 4) == 1


def test_second_kind_triangle():
    assert stirling_second(3, 2) == 3
    assert stirling_second(4, 2) == 7
    assert stirling_second(4, 3) == 6
    assert stirling_second(5, 3) == 25
    assert stirling_second(5, 1) == 1


def test_triangles_are_inverse():
    for i in range(9):
        for j in range(9):
            total = sum(
                stirling_first(i, k) * stirling_second(k, j)
                for k in range(min(i, 8) + 1)
                if k <= i and j <= k
            )
            assert total == (1 if i == j else 0)


def test_index_bounds():
    with pytest.raises(IndexError):
        stirling_first(3, 4)
    with pytest.raises(IndexError):
        stirling_first(-1, 0)
    with pytest.raises(IndexError):
        stirling_second(2, -1)


def test_doubling_expansion():
    exp = jordan_coefficients(1, Fraction(2), 4)
    assert exp.coefficients == {1: 2, 2: 1, 3: 0, 4: 0}


def test_coefficients_match_power_series_oracle():
    for j in (1, 2, 3, 4):
        for omega in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2)):
            exp = jordan_coefficients(j, omega, 8)
            assert exp.coefficients == series_coefficients(j, omega, 8)


def test_exact_on_polynomial_sequences():
    coeffs = [Fraction(-7), Fraction(2), Fraction(0), Fraction(-3), Fraction(0), Fraction(1)]
    for j in (1, 2, 3, 4):
        for omega, step in ((Fraction(2), Fraction(1)), (Fraction(3), Fraction(1)),
                            (Fraction(1, 2), Fraction(1, 2))):
            for p in (5,):
                exp = jordan_coefficients(j, omega, 4 * j + 6, p=p)
                samples = poly_samples(coeffs[: p + 1], 64, step)
                assert verify_on_sequence(exp, samples, step=step) == 0


@settings(max_examples=25, deadline=None)
@given(
    j=st.integers(min_value=1, max_value=3),
    omega=st.sampled_from([Fraction(2), Fraction(3)]),
    coeffs=st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=1,
        max_size=5,
    ),
)
def test_exactness_property_on_random_polynomials(j, omega, coeffs):
    p = len(coeffs) - 1
    exp = jordan_coefficients(j, omega, 3 * j + p, p=p)
    samples = poly_samples(coeffs, 3 * (3 * j + p) + 4)
    assert verify_on_sequence(exp, samples) == 0


def test_integer_omega_terminates_and_truncation_bites():
    # ((1+D)^3 - 1)^2 has degree 6: untruncated it is exact on any sequence,
    # while the p=4 truncation drops real terms on a genuinely non-polynomial one
    samples = [Fraction(2) ** n for n in range(24)]
    full = jordan_coefficients(2, Fraction(3), 6)
    assert verify_on_sequence(full, samples) == 0
    truncated = jordan_coefficients(2, Fraction(3), 6, p=4)
    assert verify_on_sequence(truncated, samples) > 0


def test_domain_errors():
    with pytest.raises(DomainError):
        jordan_coefficients(0, Fraction(2), 4)
    with pytest.raises(DomainError):
        jordan_coefficients(3, Fraction(2), 2)
    exp = jordan_coefficients(1, Fraction(1, 2), 4)
    with pytest.raises(DomainError):
        # coarse stride omega/step is not a whole number of samples
        verify_on_sequence(exp, [Fraction(k) for k in range(32)], step=Fraction(1))


@pytest.mark.parametrize("step", [0, -1, Fraction(-1, 2)])
def test_verify_rejects_nonpositive_spacing(step):
    exp = jordan_coefficients(1, Fraction(2), 4)
    with pytest.raises(DomainError):
        verify_on_sequence(exp, [Fraction(k) for k in range(32)], step=step)


def test_insufficient_samples():
    exp = jordan_coefficients(2, Fraction(3), 8)
    with pytest.raises(InsufficientSamples):
        verify_on_sequence(exp, [Fraction(k) ** 2 for k in range(6)])
