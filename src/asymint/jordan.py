"""Finite-difference dilation calculus.

Differences on a coarse grid expand in differences on a fine grid.  With
omega the ratio of the two increments the coarse shift is (1+D)^omega in the
fine difference symbol D, so

    Delta_coarse^j f = sum_{i >= j} [D^i] ((1+D)^omega - 1)^j Delta_fine^i f.

The coefficients equal the Stirling form (j!/i!) sum_k omega^k s(i, k) S(k, j),
s the signed first kind and S the second: put x = omega log(1+D) in
(e^x - 1)^j / j! = sum_k S(k, j) x^k / k! and use
log(1+D)^k / k! = sum_i s(i, k) D^i / i!.  On a sequence whose (p+1)-st
difference vanishes, truncating the sum at i = p is exact; that truncation
is the slow-varying condition the multiscale expansion rests on.

The arithmetic is in integers.  With omega = a/b, scale the D^i coefficient
of every series by b^i i!: binom(omega, k) becomes the falling product
prod_{l<k} (a - l b), and as b^i i! = comb(i, m) b^m m! b^(i-m) (i-m)!, a
product of series becomes an integer convolution with binomial weights.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, InsufficientSamples

Rational = Union[int, Fraction]

# j * (top + 1)^2 steps: 0.77 s at j = 2, top = 499, omega = 3 (2-vCPU Xeon); 8x at 80-bit omega
EXPANSION_BUDGET = 500_000
# (span + 4)(D + 32)^2, 32 for a sample's fixed cost: 0.27 s at D = 4,000, 0.37 s at D = 0, span 2e5
VERIFY_BUDGET = 200_000_000


class JordanExpansion(NamedTuple):
    """A coarse j-th difference written in fine differences: coefficients
    maps i to the Delta_fine^i coefficient, empty below i = j and cut at the
    slow-varying order when one is given."""

    target_order: int
    omega: Fraction
    coefficients: Dict[int, Fraction]
    truncation_p: Optional[int]


def jordan_coefficients(
    j: int, omega: Rational, max_i: int, p: Optional[int] = None
) -> JordanExpansion:
    """Expansion coefficients for i in [j, max_i], truncated at i = p when
    p is finite; p must not be negative, and p < j leaves no coefficient."""
    if j < 1:
        raise DomainError("the difference order j must be at least 1")
    if p is not None and p < 0:
        raise DomainError(f"the truncation order p must not be negative, got {p}")
    if max_i < j:
        raise DomainError("max_i must be at least j")
    omega = Fraction(omega)
    if omega <= 0:
        raise DomainError("the increment ratio omega must be positive")
    top = max_i if p is None else min(max_i, p)
    if (size := j * (top + 1) ** 2) > EXPANSION_BUDGET:
        raise DomainError(f"j = {j} to i = {top} needs {size:,} convolution steps,"
                          f" over the budget of {EXPANSION_BUDGET:,}")
    a, b = omega.numerator, omega.denominator
    # falling[k] = b^k k! binom(omega, k); the convolution skips k = 0, so
    # it multiplies by the scaled (1+D)^omega - 1
    falling = [1]
    for k in range(top):
        falling.append(falling[-1] * (a - k * b))
    power = [1] + [0] * top
    for _ in range(j):
        power = [sum(comb(i, m) * power[m] * falling[i - m] for m in range(i))
                 for i in range(top + 1)]
    coefficients = {i: Fraction(power[i], b**i * factorial(i)) for i in range(j, top + 1)}
    return JordanExpansion(j, omega, coefficients, p)


def sample_window(exp: JordanExpansion, step: Rational = 1) -> Tuple[int, int, int]:
    """Fine and coarse increments in grid points, and the span of grid
    points one base point's comparison covers, for samples on a grid of the
    given spacing (in fine-increment units); both increments must land on
    the grid.  With no fine coefficients the span is the coarse one."""
    step = Fraction(step)
    if step <= 0:
        raise DomainError(f"the grid spacing must be positive, got {step}")
    fine = Fraction(1) / step
    coarse = exp.omega / step
    if fine.denominator != 1 or coarse.denominator != 1:
        raise DomainError(
            f"grid spacing {step} does not carry both increments (1 and {exp.omega})"
        )
    fine, coarse = int(fine), int(coarse)
    max_i = max(exp.coefficients, default=exp.target_order)
    return fine, coarse, max(exp.target_order * coarse, max_i * fine)


def verify_on_sequence(
    exp: JordanExpansion, samples: Sequence[Rational], step: Rational = 1
) -> Fraction:
    """Largest gap between the coarse difference and its fine expansion over
    every base point the sample window supports (see sample_window)."""
    fine, coarse, span = sample_window(exp, step)
    if len(samples) < span + 1:
        raise InsufficientSamples(
            f"need at least {span + 1} samples, got {len(samples)}"
        )
    values = [Fraction(x) for x in samples]  # a float counts at its exact value
    scale = lcm(*[v.denominator for v in values])
    ints = [v.numerator * (scale // v.denominator) for v in values]
    weight = lcm(*[c.denominator for c in exp.coefficients.values()])
    # weight * (coarse difference - fine expansion) as one integer stencil
    terms = [(exp.target_order, coarse, weight)] + [
        (i, fine, -weight // c.denominator * c.numerator) for i, c in exp.coefficients.items()]
    stencil = [0] * (span + 1)
    for order, stride, factor in terms:
        for r in range(order + 1):
            stencil[r * stride] += factor * (-1) ** (order - r) * comb(order, r)
    worst = max(abs(sum(w * ints[base + off] for off, w in enumerate(stencil) if w))
                for base in range(len(ints) - span))
    return Fraction(worst, weight * scale)
