"""Direct lattice integration against the multiscale prediction.

Oracles: the equilibrium orbit is known in closed form; the right-hand side
is recomputed here with independent numpy expressions; integrator accuracy
is measured by Richardson comparison; the soliton parameters are checked
symbolically by substituting them back into the slow-time flow.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from asymint.errors import DomainError, StabilityError
from asymint.field import ModelParams
from asymint.lattice import (
    LatticeState,
    MultiscaleProfile,
    ProfileBuilder,
    error_scaling,
    integrate,
    rhs,
    solve_soliton,
    soliton_residual,
)
from asymint.reduction import run_reduction

H = 0.5


def random_state(seed=7, sites=64):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    return LatticeState(0.9 * values / np.max(np.abs(values)), H, 0.0)


def test_rhs_equilibrium_and_zero():
    ones = LatticeState(np.ones(16, dtype=complex), H, 0.0)
    zero = LatticeState(np.zeros(16, dtype=complex), H, 0.0)
    for s in (0, 1):
        for sigma in (1, -1):
            assert np.allclose(rhs(ones, s, sigma), -1j * sigma, atol=1e-15)
        assert np.all(rhs(zero, s) == 0)


def test_rhs_matches_hand_expression():
    state = random_state()
    f = state.values
    lap = np.roll(f, -1) - 2 * f + np.roll(f, 1)
    mod = np.abs(f) ** 2
    for s in (0, 1):
        for sigma in (1, -1):
            want = 1j * (lap * (1 - s * sigma * H * H * mod) / (2 * H * H) - sigma * mod * f)
            assert np.allclose(rhs(state, s, sigma), want, atol=1e-14)


def test_rhs_branches_differ_by_the_saturation_factor():
    state = random_state(seed=11)
    f = state.values
    lap = np.roll(f, -1) - 2 * f + np.roll(f, 1)
    got = rhs(state, 1) - rhs(state, 0)
    assert np.allclose(got, -1j * lap * np.abs(f) ** 2 / 2, atol=1e-14)


def test_equilibrium_orbit_to_integrator_accuracy():
    dt, T = 1e-3, 1.0
    for s in (0, 1):
        state = LatticeState(np.ones(16, dtype=complex), H, 0.0)
        final = integrate(state, dt, int(T / dt), s)
        exact = np.exp(-1j * T)
        assert np.max(np.abs(final.values - exact)) < 10 * dt**4 * T
        assert np.max(np.abs(final.values - exact)) < 1e-8


def test_integrate_flags_blowup():
    state = LatticeState(np.full(8, 1e200, dtype=complex), H, 0.0)
    with np.errstate(all="ignore"):
        with pytest.raises(StabilityError):
            integrate(state, 1.0, 2, 0)


def test_soliton_parameters_are_solved_from_the_flow(engine):
    for s in (0, 1):
        rep = engine(s, 5)
        a1, a2 = rep.alphas[1], rep.alphas[2]
        for width in (Fraction(1), Fraction(1, 2)):
            data = solve_soliton(rep.flows["K2"], rep.field, width)
            w2 = rep.field.from_fraction(width * width)
            assert data.amplitude == 6 * a1 * w2 * a2.inv()
            assert data.speed == -4 * a1 * w2
            assert soliton_residual(rep.flows["K2"], rep.field, data).is_zero()


def test_profile_at_zero_epsilon_is_the_background(engine):
    state = ProfileBuilder(engine(1, 5), MultiscaleProfile(epsilon=0.0), 32).state(H, 0.0)
    assert np.allclose(state.values, 1.0, atol=1e-15)


def test_profile_amplitude_has_the_predicted_leading_size(engine):
    rep = engine(1, 5)
    data = solve_soliton(rep.flows["K2"], rep.field, Fraction(1))
    amp = data.amplitude.eval_float(Fraction(1, 2))
    c = math.sqrt(1 - H * H)
    for eps in (0.1, 0.05):
        state = ProfileBuilder(rep, MultiscaleProfile(epsilon=eps), 1200).state(H, 0.0)
        u_inf = -2 * amp / (len(state.values) * eps * H)
        peak = eps * eps * abs(c * (amp + u_inf))
        measured = np.max(np.abs(np.abs(state.values) ** 2 - 1))
        assert abs(measured / peak - 1) < 0.01


def test_norm_drift_is_fourth_order_for_the_plain_branch(engine):
    builder = ProfileBuilder(engine(0, 5), MultiscaleProfile(epsilon=0.2), 400)
    drifts = {}
    for dt in (0.02, 0.01):
        state = builder.state(H, 0.0)
        start = float(np.sum(np.abs(state.values) ** 2))
        final = integrate(state, dt, int(round(1.0 / dt)), 0)
        drifts[dt] = abs(float(np.sum(np.abs(final.values) ** 2)) - start) / start
    assert drifts[0.02] / drifts[0.01] >= 8.0


def test_norm_drift_stays_small_for_the_saturated_branch(engine):
    builder = ProfileBuilder(engine(1, 5), MultiscaleProfile(epsilon=0.2), 400)
    state = builder.state(H, 0.0)
    start = float(np.sum(np.abs(state.values) ** 2))
    final = integrate(state, 0.02, 50, 1)
    assert abs(float(np.sum(np.abs(final.values) ** 2)) - start) / start < 1e-6


def test_dt_refinement_on_a_soliton_is_fourth_order(engine):
    builder = ProfileBuilder(engine(0, 5), MultiscaleProfile(epsilon=0.2), 400)
    finals = {}
    for dt in (0.04, 0.02, 0.01):
        state = builder.state(H, 0.0)
        finals[dt] = integrate(state, dt, int(round(1.0 / dt)), 0).values
    coarse = np.max(np.abs(finals[0.04] - finals[0.01]))
    fine = np.max(np.abs(finals[0.02] - finals[0.01]))
    assert 8.0 < coarse / fine < 40.0


def test_error_scaling_slope(scaling):
    for s in (0, 1):
        result = scaling(s)
        assert result.slope >= 1.7, (s, result.slope)
        sups = [row.sup_error for row in result.rows]
        assert sups == sorted(sups, reverse=True)
        assert all(row.norm_drift < 1e-6 for row in result.rows)


def test_plain_branch_error_is_no_smaller(scaling):
    for row0, row1 in zip(scaling(0).rows, scaling(1).rows):
        assert row0.epsilon == row1.epsilon
        assert row0.sup_error >= row1.sup_error


def test_error_scaling_needs_three_points(engine):
    with pytest.raises(DomainError):
        error_scaling(1, H, [0.1, 0.05], T=0.1, report=engine(1, 5))


def test_profile_domain_checks():
    with pytest.raises(DomainError):
        MultiscaleProfile(epsilon=0.5)
    with pytest.raises(DomainError):
        MultiscaleProfile(epsilon=0.1, truncation=3)
