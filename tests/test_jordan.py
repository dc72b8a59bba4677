"""Coarse-step differences re-expanded in fine-step differences.

Independent oracles, written before the module:
  * the expansion coefficients are the power-series coefficients of
    ((1+D)^omega - 1)^j in the fine-difference symbol D, computed here with
    plain Fraction arithmetic and generalized binomials;
  * on polynomial sequences of degree <= p the slow-varying truncation at p
    is lossless, so the re-expansion reproduces the coarse difference exactly;
  * the same coefficients from the Stirling form
    (j!/i!) sum_k omega^k s(i, k) S(k, j), with the two triangles built by
    their recurrences in tests/oracles.py;
  * the two Stirling triangles are inverse matrices;
  * the gap on any sequence equals the one verify_by_fractions in
    tests/oracles.py takes one Fraction step at a time.

The `jordan` artifacts pinned below were recorded from the Fraction-loop
implementation that the integer kernels replaced.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymint.cli import main
from asymint.errors import DomainError, InsufficientSamples
from asymint.jordan import jordan_coefficients, verify_on_sequence

from oracles import stirling_coefficients, stirling_first, stirling_second, verify_by_fractions


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
            # p = 0 and p = j - 1 lie below j and leave no coefficient
            for p in (None, 0, j - 1, j, j + 2, 8):
                exp = jordan_coefficients(j, omega, 8, p=p)
                top = 8 if p is None else min(8, p)
                assert len(exp.coefficients) == max(0, top - j + 1)
                assert exp.coefficients == series_coefficients(j, omega, top)
                assert exp.coefficients == stirling_coefficients(j, omega, top)


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


# sha256 of the `asymint jordan` artifact; the step is 1/omega.denominator
JORDAN_PINS = {
    "--j 2 --omega 3 --max-i 6 --p 5 --verify poly:5":
        "34c996c310da11ce37bf54dd020fbec201c15834e4cc4158e8b6f0887427f220",
    "--j 1 --omega 2 --max-i 6 --p 4 --verify poly:4":
        "78279c4870ba811b2ab6a8aafb8ff756725f9b8c50a891ab887a9bd26900bd7c",
    "--j 3 --omega 1/2 --max-i 8 --p 6 --verify poly:6":
        "1143ef6962e8a1bd1a55df4853a3c74e587d4678f5e6b9cd3efacee1ba929363",
    "--j 2 --omega 5/2 --max-i 8 --p 5 --verify poly:5":
        "3299466bfe5e98781567cbf31aed992f66f294b4933a50e1be963c0d9fffffb7",
    "--j 2 --omega 2/3 --max-i 7 --p 5 --verify poly:5":
        "87e063c0a1a20476e89e42eccbff3031a683fad1525c3c56884b5ebbd670d8e7",
    # p < j: no coefficients, residual 192
    "--j 3 --omega 2 --max-i 6 --p 2 --verify poly:3":
        "c32925231fe67ea93cccc07a529e121060c377cd2250dcd378deaabe1b2fe8c3",
    "--j 2 --omega 3 --max-i 8 --verify poly:4":
        "f51e6f4d6474eb67681d386900165fe0daa73b698327510c9439645d215afd4c",
    "--j 4 --omega 5/2 --max-i 9 --p 8":
        "57d04a63c7c1c72ca3c261670a48444099774876a726b08c07e793ce0f8304cb",
    # the truncation at p = 4 drops a degree-5 term: residual 4320
    "--j 2 --omega 3 --max-i 6 --p 4 --verify poly:5":
        "4b88d6b39fab625509da35c8c6352c23b92bccf295e8e98d4b469025783c3f82",
    # residual 595566540800/19683
    "--j 3 --omega 7/3 --max-i 12 --p 10 --verify poly:12":
        "29ce05f9f6ec88a1057f71fa132a09ed3c10bb0ea635b3d9f6deab60a77e2e55",
}


@pytest.mark.parametrize("argv", JORDAN_PINS)
def test_jordan_artifact_bytes_are_pinned(capsys, argv):
    assert main(["jordan", *argv.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JORDAN_PINS[argv]


@settings(max_examples=40, deadline=None)
@given(
    j=st.integers(min_value=1, max_value=3),
    grid=st.sampled_from([(Fraction(5, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 3)),
                          (Fraction(3), Fraction(1)), (Fraction(3, 2), Fraction(1, 4))]),
    extra=st.integers(min_value=0, max_value=3),
    p=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    samples=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                     min_size=60, max_size=70),
)
def test_gap_on_arbitrary_sequences_matches_the_fraction_oracle(j, grid, extra, p, samples):
    # arbitrary samples with mixed denominators: the gap is generally nonzero
    omega, step = grid
    exp = jordan_coefficients(j, omega, j + extra, p=p)
    gap = verify_on_sequence(exp, samples, step=step)
    assert type(gap) is Fraction
    assert gap == verify_by_fractions(exp, samples, step=step)


def test_gap_is_a_fraction_and_float_samples_are_cleared_exactly():
    exp = jordan_coefficients(2, Fraction(3), 6)
    zero = verify_on_sequence(exp, [Fraction(k) ** 2 for k in range(24)])
    assert type(zero) is Fraction and zero == 0
    # 0.1 and 1e-17 are not the decimals they print as; the gap must use
    # their exact binary values, so a float rounding shows here
    samples = [0.1 * k + (1e-17 if k == 7 else 0) for k in range(24)]
    samples[3] = Fraction(1, 3)
    exp = jordan_coefficients(2, Fraction(3, 2), 5, p=4)
    gap = verify_on_sequence(exp, samples, step=Fraction(1, 2))
    assert type(gap) is Fraction
    assert gap == verify_by_fractions(exp, samples, step=Fraction(1, 2))
