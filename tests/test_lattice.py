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

from asymint.diffpoly import DiffPolynomial, FieldSymbol
from asymint.errors import DomainError, StabilityError
from asymint.lattice import (
    LatticeState,
    ProfileBuilder,
    SolitonData,
    _fit_slope,
    error_scaling,
    integrate,
    rhs,
    solve_soliton,
)

from oracles import soliton_residual

H = 0.5


def random_state(seed=7, sites=64):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    return LatticeState(0.9 * values / np.max(np.abs(values)), H, 0.0)


def test_fit_slope_matches_lstsq():
    rng = np.random.default_rng(3)
    for points in (3, 4, 5, 6):
        for _ in range(20):
            xs = rng.uniform(0.01, 0.3, size=points)
            ys = rng.uniform(1e-9, 1.0, size=points)
            A = np.vstack([np.log(xs), np.ones(points)]).T
            expected = np.linalg.lstsq(A, np.log(ys), rcond=None)[0][0]
            assert _fit_slope(list(xs), list(ys)) == pytest.approx(expected, rel=1e-12)


def test_rhs_equilibrium_and_zero():
    ones = LatticeState(np.ones(16, dtype=complex), H, 0.0)
    zero = LatticeState(np.zeros(16, dtype=complex), H, 0.0)
    for s in (0, 1):
        assert np.allclose(rhs(ones, s), -1j, atol=1e-15)
        assert np.all(rhs(zero, s) == 0)


def roll_rhs(f, s, h=H):
    lap = np.roll(f, -1) - 2 * f + np.roll(f, 1)
    mod = np.abs(f) ** 2
    return 1j * (lap * (1 - s * h * h * mod) / (2 * h * h) - mod * f)


def test_rhs_matches_hand_expression():
    state = random_state()
    for s in (0, 1):
        assert np.allclose(rhs(state, s), roll_rhs(state.values, s), atol=1e-14)


def test_rhs_matches_the_roll_expression_across_spacings_and_branches():
    # rhs has its own branches for s = 0 and s = 1; at small h both of its
    # terms grow as 1 / h^2
    f = random_state().values
    for h in (0.5, 0.05, 0.01):
        for s in (0, 1, 0.5, -1):
            want = roll_rhs(f, s, h)
            got = rhs(LatticeState(f, h, 0.0), s)
            assert np.allclose(got, want, rtol=0, atol=2e-15 * np.max(np.abs(want))), (h, s)


def test_rhs_accepts_a_real_window():
    rng = np.random.default_rng(5)
    f = rng.normal(size=32)
    for s in (0, 1):
        got = rhs(LatticeState(f, H, 0.0), s)
        assert np.array_equal(got, rhs(LatticeState(f.astype(complex), H, 0.0), s))


def test_rhs_branches_differ_by_the_saturation_factor():
    state = random_state(seed=11)
    f = state.values
    lap = np.roll(f, -1) - 2 * f + np.roll(f, 1)
    got = rhs(state, 1) - rhs(state, 0)
    assert np.allclose(got, -1j * lap * np.abs(f) ** 2 / 2, atol=1e-14)


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_rhs_wraps_the_smallest_windows(sites):
    rng = np.random.default_rng(sites)
    f = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    for s in (0, 1):
        got = rhs(LatticeState(f, H, 0.0), s)
        assert np.allclose(got, roll_rhs(f, s), rtol=0, atol=1e-14)


def test_integrate_matches_the_out_of_place_scheme():
    # classical RK4 written out: fresh arrays for every stage and slope
    dt, steps = 0.02, 200
    for s in (0, 1):
        y = random_state().values
        for _ in range(steps):
            k1 = roll_rhs(y, s)
            k2 = roll_rhs(y + 0.5 * dt * k1, s)
            k3 = roll_rhs(y + 0.5 * dt * k2, s)
            k4 = roll_rhs(y + dt * k3, s)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        final = integrate(random_state(), dt, steps, s)
        assert np.max(np.abs(final.values - y)) < 1e-12
        assert final.time == pytest.approx(steps * dt, abs=1e-12)


def test_integrate_leaves_the_input_state_untouched():
    state = random_state()
    before = state.values.copy()
    final = integrate(state, 0.02, 5, 1)
    assert np.array_equal(state.values, before) and state.time == 0.0
    assert not np.shares_memory(final.values, state.values)


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
            assert not soliton_residual(rep.flows["K2"], rep.field, data).terms
            doubled = SolitonData(data.width, 2 * data.amplitude, data.speed)
            assert soliton_residual(rep.flows["K2"], rep.field, doubled).terms


def test_profile_amplitude_has_the_predicted_leading_size(engine):
    rep = engine(1, 5)
    data = solve_soliton(rep.flows["K2"], rep.field, Fraction(1))
    amp = data.amplitude.eval_float(Fraction(1, 2))
    c = math.sqrt(1 - H * H)
    for eps in (0.1, 0.05):
        state = ProfileBuilder(rep, eps, 1200).state(H, 0.0)
        u_inf = -2 * amp / (len(state.values) * eps * H)
        peak = eps * eps * abs(c * (amp + u_inf))
        measured = np.max(np.abs(np.abs(state.values) ** 2 - 1))
        assert abs(measured / peak - 1) < 0.01


def test_norm_drift_is_fourth_order_for_the_plain_branch(engine):
    builder = ProfileBuilder(engine(0, 5), 0.2, 400)
    drifts = {}
    for dt in (0.02, 0.01):
        state = builder.state(H, 0.0)
        start = float(np.sum(np.abs(state.values) ** 2))
        final = integrate(state, dt, int(round(1.0 / dt)), 0)
        drifts[dt] = abs(float(np.sum(np.abs(final.values) ** 2)) - start) / start
    assert drifts[0.02] / drifts[0.01] >= 8.0


def test_norm_drift_stays_small_for_the_saturated_branch(engine):
    builder = ProfileBuilder(engine(1, 5), 0.2, 400)
    state = builder.state(H, 0.0)
    start = float(np.sum(np.abs(state.values) ** 2))
    final = integrate(state, 0.02, 50, 1)
    assert abs(float(np.sum(np.abs(final.values) ** 2)) - start) / start < 1e-6


def test_dt_refinement_on_a_soliton_is_fourth_order(engine):
    builder = ProfileBuilder(engine(0, 5), 0.2, 400)
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


def test_error_scaling_needs_three_points():
    with pytest.raises(DomainError):
        error_scaling(1, H, [0.1, 0.05], T=0.1, dt=0.02)
    with pytest.raises(DomainError):
        error_scaling(1, H, [0.1, 0.1, 0.05], T=0.1, dt=0.02)
    with pytest.raises(DomainError, match="each at most once"):
        error_scaling(0, H, [0.3, 0.3, 0.25, 0.2], T=0.001, dt=0.02)


def test_profile_domain_checks(engine):
    for eps in (0.0, 0.5):
        with pytest.raises(DomainError):
            ProfileBuilder(engine(1, 5), eps, 400)


def test_profile_rejects_a_field_it_does_not_carry(engine):
    rep = engine(1, 5)
    builder = ProfileBuilder(rep, 0.2, 32)
    jets = {1: np.full(32, 2.0)}
    carried = DiffPolynomial.leaf(FieldSymbol("phi", 1), 1, rep.field.one)
    assert np.all(builder._poly(carried, jets, H) == 2.0)
    with pytest.raises(DomainError):
        builder._poly(DiffPolynomial.leaf(FieldSymbol("phi", 2), 1, rep.field.one), jets, H)
    with pytest.raises(DomainError, match="order 2"):
        builder._poly(DiffPolynomial.leaf(FieldSymbol("phi", 1), 2, rep.field.one), jets, H)


@pytest.mark.parametrize("dt, steps", [
    (0.0, 5), (-0.1, 5), (math.inf, 5), (math.nan, 5), (0.1, -3),
])
def test_integrate_rejects_out_of_domain_steps(dt, steps):
    state = LatticeState(np.ones(8, dtype=complex), H, 0.0)
    with pytest.raises(DomainError):
        integrate(state, dt, steps, 0)
