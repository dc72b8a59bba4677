"""Finite-difference dilation calculus.

Differences on a coarse grid expand in differences on a fine grid through
Stirling numbers: with omega the ratio of the two increments,

    Delta_coarse^j f = sum_{i >= j} (j!/i!) sum_k omega^k s(i, k) S(k, j) Delta_fine^i f,

where s is the signed first kind (falling factorial expansion) and S the
second kind.  On a sequence whose (p+1)-st difference vanishes, truncating the
sum at i = p is exact; that truncation is the slow-varying condition the
multiscale expansion rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Optional, Sequence, Tuple, Union

from .errors import DomainError, InsufficientSamples

Rational = Union[int, Fraction]


@lru_cache(maxsize=None)
def _first_row(i: int) -> tuple:
    # coefficients of x(x-1)...(x-i+1) in powers of x
    if i == 0:
        return (1,)
    prev = _first_row(i - 1)
    row = [0] * (i + 1)
    for k, v in enumerate(prev):
        row[k + 1] += v
        row[k] -= (i - 1) * v
    return tuple(row)


@lru_cache(maxsize=None)
def _second_row(k: int) -> tuple:
    if k == 0:
        return (1,)
    prev = _second_row(k - 1)
    row = [0] * (k + 1)
    for j, v in enumerate(prev):
        row[j] += j * v
        if j + 1 <= k:
            row[j + 1] += v
    return tuple(row)


def stirling_first(i: int, k: int) -> int:
    """Signed first kind: the x^k coefficient of the falling factorial
    x(x-1)...(x-i+1)."""
    if not (0 <= k <= i):
        raise IndexError(f"stirling_first needs 0 <= k <= i, got ({i}, {k})")
    return _first_row(i)[k]


def stirling_second(k: int, j: int) -> int:
    """Second kind: partitions of a k-set into j nonempty blocks."""
    if not (0 <= j <= k):
        raise IndexError(f"stirling_second needs 0 <= j <= k, got ({k}, {j})")
    return _second_row(k)[j]


@dataclass(frozen=True)
class JordanExpansion:
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
    p is finite."""
    if j < 1:
        raise DomainError("the difference order j must be at least 1")
    if max_i < j:
        raise DomainError("max_i must be at least j")
    omega = Fraction(omega)
    if omega <= 0:
        raise DomainError("the increment ratio omega must be positive")
    top = max_i if p is None else min(max_i, p)
    coefficients: Dict[int, Fraction] = {}
    for i in range(j, top + 1):
        total = Fraction(0)
        for k in range(j, i + 1):
            total += omega**k * stirling_first(i, k) * stirling_second(k, j)
        coefficients[i] = Fraction(factorial(j), factorial(i)) * total
    return JordanExpansion(j, omega, coefficients, p)


def _difference(samples: Sequence, base: int, order: int, stride: int):
    total = 0
    for r in range(order + 1):
        term = samples[base + r * stride]
        total = total + (-1) ** (order - r) * comb(order, r) * term
    return total


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
):
    """Largest gap between the coarse difference and its fine expansion over
    every base point the sample window supports (see sample_window)."""
    fine, coarse, span = sample_window(exp, step)
    if len(samples) < span + 1:
        raise InsufficientSamples(
            f"need at least {span + 1} samples, got {len(samples)}"
        )
    worst = 0
    for base in range(len(samples) - span):
        left = _difference(samples, base, exp.target_order, coarse)
        right = sum(
            coeff * _difference(samples, base, i, fine)
            for i, coeff in exp.coefficients.items()
        )
        gap = abs(left - right)
        if gap > worst:
            worst = gap
    return worst
