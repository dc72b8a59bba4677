"""Shared fixtures.

The reduction, the commutation solves and the error-scaling runs are
deterministic and moderately expensive, so each is computed once per
session and shared across test modules.
"""

from fractions import Fraction

import pytest

from asymint.compatibility import build_problem, solve_compatibility
from asymint.field import CoeffField
from asymint.lattice import error_scaling
from asymint.reduction import run_reduction

_ENGINE = {}
_COMMUTATION = {}
_SCALING = {}
_PINNED = {}


@pytest.fixture(scope="session")
def engine():
    def get(s, order=9):
        key = (s, order)
        if key not in _ENGINE:
            _ENGINE[key] = run_reduction(CoeffField(s), order=order)
        return _ENGINE[key]

    return get


@pytest.fixture(scope="session")
def commutation(engine):
    def get(s, order):
        key = (s, order)
        if key not in _COMMUTATION:
            _COMMUTATION[key] = solve_compatibility(
                build_problem(engine(s, order), order)
            )
        return _COMMUTATION[key]

    return get


@pytest.fixture(scope="session")
def pinned_commutation():
    """Commutation reports from one order-9 reduction run with h pinned to
    1/3 before solving."""
    def get(s, order):
        if s not in _PINNED:
            field = CoeffField(s, h_value=Fraction(1, 3))
            _PINNED[s] = (run_reduction(field, order=9), {})
        report, solved = _PINNED[s]
        if order not in solved:
            solved[order] = solve_compatibility(build_problem(report, order))
        return solved[order]

    return get


@pytest.fixture(scope="session")
def scaling():
    """Error scaling per branch with the criterion-09 settings."""
    def get(s):
        if s not in _SCALING:
            _SCALING[s] = error_scaling(s, 0.5, [0.2, 0.1, 0.05], T=0.1, dt=0.02)
        return _SCALING[s]

    return get
