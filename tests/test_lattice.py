"""Direct lattice integration against the multiscale prediction.

Oracles: the equilibrium orbit is known in closed form; the right-hand side
is recomputed here with independent numpy expressions; integrator accuracy
is measured by Richardson comparison; the soliton parameters are checked
symbolically by substituting them back into the slow-time flow.
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from asymint.diffpoly import DiffPolynomial, FieldSymbol
from asymint.errors import DomainError, StabilityError
from asymint import lattice
from asymint.lattice import (
    LatticeState,
    ProfileBuilder,
    SolitonData,
    _fit_slope,
    _on_jets,
    _scalars,
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


def rhs_on(state, s, scale=1.0, out=None, work=None):
    """rhs on the window of state: the window goes into a padded copy whose
    halo cells hold stale NaNs, rhs gets that copy's window tuple (padded,
    window, right neighbours, left neighbours) and the scalars come from the
    module's own _scalars; rhs must set the halo to the periodic neighbours
    f[-1] and f[0] and leave the window untouched."""
    f = state.values
    padded = np.concatenate([[np.nan], f, [np.nan]])
    if out is None:
        out = np.empty(len(f), dtype=complex)
    if work is None:
        work = np.empty(len(f), dtype=complex)
    window = (padded, padded[1:-1], padded[2:], padded[:-2])
    got = rhs(window, s, _scalars(s, scale, state.h), out, work)
    assert np.array_equal(padded, np.concatenate([f[-1:], f, f[:1]]))
    return got


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
        assert np.allclose(rhs_on(ones, s), -1j, atol=1e-15)
        assert np.all(rhs_on(zero, s) == 0)


def roll_rhs(f, s, h=H):
    lap = np.roll(f, -1) - 2 * f + np.roll(f, 1)
    mod = np.abs(f) ** 2
    return 1j * (lap * (1 - s * h * h * mod) / (2 * h * h) - mod * f)


def test_rhs_matches_hand_expression():
    state = random_state()
    for s in (0, 1):
        assert np.allclose(rhs_on(state, s), roll_rhs(state.values, s), atol=1e-14)


def test_rhs_matches_the_roll_expression_across_spacings_and_branches():
    # rhs has its own branches for s = 0 and s = 1; at small h both of its
    # terms grow as 1 / h^2
    f = random_state().values
    for h in (0.5, 0.05, 0.01):
        for s in (0, 1, 0.5, -1):
            want = roll_rhs(f, s, h)
            got = rhs_on(LatticeState(f, h, 0.0), s)
            assert np.allclose(got, want, rtol=0, atol=2e-15 * np.max(np.abs(want))), (h, s)


def test_rhs_branches_differ_by_the_saturation_factor():
    state = random_state(seed=11)
    f = state.values
    lap = np.roll(f, -1) - 2 * f + np.roll(f, 1)
    got = rhs_on(state, 1) - rhs_on(state, 0)
    assert np.allclose(got, -1j * lap * np.abs(f) ** 2 / 2, atol=1e-14)


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_rhs_wraps_the_smallest_windows(sites):
    rng = np.random.default_rng(sites)
    f = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    for s in (0, 1):
        got = rhs_on(LatticeState(f, H, 0.0), s)
        assert np.allclose(got, roll_rhs(f, s), rtol=0, atol=1e-14)


def test_rhs_writes_the_scaled_slope_into_the_given_buffers():
    state = random_state()
    before = state.values.copy()
    for s in (0, 1, 0.5, -1):
        want = rhs_on(state, s)
        for scale in (0.01, 0.5, 3.7):
            out = np.empty_like(want)
            got = rhs_on(state, s, scale, out)
            assert got is out
            # the scale rides in the scalars: equal up to a rounding of the largest entry
            assert np.max(np.abs(got - scale * want)) <= 1e-15 * np.max(np.abs(scale * want)), (s, scale)
            assert np.array_equal(rhs_on(state, s, scale, np.empty_like(want), np.empty_like(want)), got)
    assert np.array_equal(state.values, before)


def test_integrate_matches_the_out_of_place_scheme():
    # classical RK4 written out: fresh arrays for every stage and slope, on
    # the wrapped windows, a real-valued window and every branch of rhs
    dt, steps = 0.02, 200
    for sites in (1, 2, 3, 64):
        for real in (False, True):
            start = random_state(sites=sites)
            if real:
                start.values = start.values.real / np.max(np.abs(start.values.real))
            for s in (0, 1, 0.5, -1):
                y = start.values
                for _ in range(steps):
                    k1 = roll_rhs(y, s)
                    k2 = roll_rhs(y + 0.5 * dt * k1, s)
                    k3 = roll_rhs(y + 0.5 * dt * k2, s)
                    k4 = roll_rhs(y + dt * k3, s)
                    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                final = integrate(start, dt, steps, s)
                assert np.max(np.abs(final.values - y)) < 1e-12, (sites, real, s)
                assert final.time == pytest.approx(steps * dt, abs=1e-12)


@pytest.mark.parametrize("steps", [0, 1, 5])
def test_integrate_calls_the_module_rhs_four_times_a_step(monkeypatch, steps):
    # the benchmark tracer counts rhs calls by patching this module attribute
    import asymint.lattice

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return rhs(*args, **kwargs)

    monkeypatch.setattr(asymint.lattice, "rhs", counting)
    for s in (0, 1):
        integrate(random_state(), 0.02, steps, s)
    assert calls == [0] * (4 * steps) + [1] * (4 * steps)


def test_integrate_accepts_a_real_window():
    rng = np.random.default_rng(5)
    f = rng.normal(size=32)
    for s in (0, 1):
        got = integrate(LatticeState(f, H, 0.0), 0.02, 5, s).values
        assert np.array_equal(got, integrate(LatticeState(f.astype(complex), H, 0.0), 0.02, 5, s).values)


@pytest.mark.parametrize("s", [0, 1])
def test_the_step_loop_allocates_nothing(s):
    # integrate's buffers: one block of five complex rows of m cells (the
    # field, the stage field, the slope sum, the slope and |f|^2), plus 64
    # bytes to align it; a temporary of the window's size made anywhere in
    # the step loop (19,200 B here) exceeds the slack
    sites = 1200
    m = 4 * (sites // 4 + 2)
    state = random_state(sites=sites)
    integrate(state, 0.02, 2, s)  # numpy's first calls of a loop may fill its caches
    tracemalloc.start()
    try:
        integrate(state, 0.02, 20, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 5 * m + 64 + 8192, peak


@pytest.mark.parametrize("sites", [1, 2, 3, 64, 1201])
def test_integrate_keeps_the_field_on_a_64_byte_boundary(sites):
    # the returned values view the field's row of integrate's block, whose
    # windows all start on a 64-byte boundary
    final = integrate(random_state(sites=sites), 0.02, 1, 0)
    assert final.values.__array_interface__["data"][0] % 64 == 0
    assert final.values.flags.c_contiguous and len(final.values) == sites


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


def test_error_scaling_rejects_an_epsilon_outside_its_domain():
    for eps in (0.0, 0.5):
        with pytest.raises(DomainError, match="every epsilon"):
            error_scaling(1, H, [0.2, 0.1, eps], T=0.1, dt=0.02)


def test_profile_rejects_a_field_it_does_not_carry(engine):
    rep = engine(1, 5)
    jets = {1: np.full(32, 2.0)}

    def on_window(poly):
        return _on_jets(poly, jets, lambda coeff: coeff.eval_float(H), 0.0)

    carried = DiffPolynomial.leaf(FieldSymbol("phi", 1), 1, rep.field.one)
    assert np.all(on_window(carried) == 2.0)
    with pytest.raises(DomainError):
        on_window(DiffPolynomial.leaf(FieldSymbol("phi", 2), 1, rep.field.one))
    with pytest.raises(DomainError, match="order 2"):
        on_window(DiffPolynomial.leaf(FieldSymbol("phi", 1), 2, rep.field.one))


class Reduced(Exception):
    pass


# the defaults make 51,187,500 site-steps per 0.1 of T, so T = 3.9 is just
# under the 2e9 budget and T = 4 just over it
@pytest.mark.parametrize("h, eps_list, T, size", [
    (H, [0.2, 0.1, 0.05], 3.9, None),
    (H, [0.2, 0.1, 0.05], 4.0, "2.05e+09"),
    (H, [0.001, 0.002, 0.003], 0.1, "3.22e+14"),
    (1e-300, [0.2, 0.1, 0.05], 0.1, "2.56e+307"),
    (H, [0.3, 0.2, 1e-320], 0.1, "inf"),
])
def test_error_scaling_sizes_its_job_before_any_work(monkeypatch, h, eps_list, T, size):
    def reduced(*args, **kwargs):
        raise Reduced

    monkeypatch.setattr(lattice, "run_reduction", reduced)
    refused = re.escape(f"need {size} lattice site-steps, over the budget of 2e+09")
    with pytest.raises(DomainError, match=refused) if size else pytest.raises(Reduced):
        error_scaling(0, h, eps_list, T=T, dt=0.02)


# one step per run: h = 1.6e-4 gives a widest window of 1.875e6 sites at
# eps = 0.1, under the 2e6 bound, and h = 1.4e-4 one of 2.14e6, over it
@pytest.mark.parametrize("h, size", [(1.6e-4, None), (1.4e-4, "2.14e+06")])
def test_error_scaling_bounds_its_widest_window_before_any_work(monkeypatch, h, size):
    def reduced(*args, **kwargs):
        raise Reduced

    monkeypatch.setattr(lattice, "run_reduction", reduced)
    refused = re.escape(f"a window of {size} lattice sites, over the bound of 2e+06")
    with pytest.raises(DomainError, match=refused) if size else pytest.raises(Reduced):
        error_scaling(0, h, [0.1, 0.2, 0.3], T=1e-9, dt=0.02)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
def test_error_scaling_rejects_out_of_domain_steps(dt):
    """integrate's one caller rejects the step before any work, and always
    passes at least one step."""
    with pytest.raises(DomainError, match="the step dt"):
        error_scaling(1, H, [0.2, 0.1, 0.05], T=0.1, dt=dt)
