"""Numeric validation of the multiscale construction on the original lattice.

The reduction claims that fields obeying the slow-time flows assemble into
approximate lattice solutions.  This module integrates the complex lattice

    i df_n/dt + (f_{n+1} - 2 f_n + f_{n-1}) (1 - s h^2 |f_n|^2) / (2 h^2)
        = |f_n|^2 f_n,

the sigma = +1 member of the family, the nonlinearity sign that the
dispersion analysis selects (reduction.derive_dispersion).  It advances the
lattice with a fixed-step classical Runge-Kutta scheme on a periodic window,
builds initial data from the truncated expansion around the constant orbit
with a traveling-wave profile of the second flow, and measures how the gap
to the flow-advanced prediction scales in epsilon.

The traveling profile is solved, not transcribed: a sech^2 ansatz for the
derivative field goes into the engine's own second flow and the amplitude and
speed come out of the resulting two-term linear conditions.  A small constant
background, fixed by the window length, closes the profile periodically; it
shifts the traveling speed and adds a uniform phase drift, both derived from
the same solve.

numpy loads on the first numeric call and `statistics` with the closed-form
slope fit (no LAPACK), not with the module: only the `validate` command
integrates arrays, so the symbolic commands, which import this module through
the command line, never pay for importing them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .diffpoly import DiffPolynomial, SparseSum, accumulate
from .errors import DomainError, StabilityError
from .field import CoeffElement, CoeffField
from .reduction import ReductionReport, run_reduction

if TYPE_CHECKING:
    import numpy as np


class LatticeState:
    """Complex field on a periodic window of lattice sites."""

    __slots__ = ("values", "h", "time")

    def __init__(self, values: np.ndarray, h: float, time: float = 0.0):
        self.values = values
        self.h = h
        self.time = time


def rhs(state: LatticeState, s: int) -> np.ndarray:
    """Right-hand side of df_n/dt on a periodic window of at least one site:

        1j * (lap_n * (1 - s h^2 |f_n|^2) / (2 h^2) - |f_n|^2 f_n)

    with lap_n = f_{n+1} - 2 f_n + f_{n-1}, evaluated as
    1j * (A_n (f_{n+1} + f_{n-1}) - B_n f_n) with A_n = (1 - s h^2 |f_n|^2) / (2 h^2)
    and B_n = 1/h^2 + (1 - s) |f_n|^2.  The neighbour sum comes from slices (the
    end sites wrap around).  |f_n|^2 is the complex product conj(f) * f, whose
    imaginary part is at most a rounding, so every later product is complex by
    complex; 1j rides in the scalars, and the constant A (s = 0) or B (s = 1)
    costs no array pass.  A real window is read as complex."""
    import numpy as np

    f = state.values.astype(complex, copy=False)
    n = len(f)
    inv_h2 = 1.0 / state.h**2
    mod = np.conj(f)
    mod *= f
    out = np.empty(n, dtype=complex)
    np.add(f[2:], f[:-2], out=out[1:-1])
    out[0] = f[1 % n] + f[-1]
    out[-1] = f[0] + f[-2 % n]
    if s == 0:
        out *= 0.5j * inv_h2
    else:
        a = mod * (-0.5j * s)
        a += 0.5j * inv_h2
        out *= a
    if s == 1:
        out -= (1j * inv_h2) * f
    else:
        mod *= 1j * (1 - s)
        mod += 1j * inv_h2
        mod *= f
        out -= mod
    return out


def integrate(state: LatticeState, dt: float, steps: int, s: int) -> LatticeState:
    """Advance by steps of the classical fourth-order scheme; local error
    O(dt^5).  Each step calls rhs four times, at the current field and at
    three stages held in one stage buffer that is reused for the whole call;
    the slopes are combined in place and added to the field.  The caller's
    state is not modified.  Raises StabilityError when the field stops being
    finite; the overflow on the way there raises no numpy warning."""
    if not 0 < dt < math.inf:
        raise DomainError(f"the step dt must be positive and finite, got {dt}")
    if steps < 0:
        raise DomainError(f"the step count must not be negative, got {steps}")
    import numpy as np

    out = LatticeState(state.values.astype(complex), state.h, state.time)
    y = out.values
    stage = LatticeState(np.empty_like(y), state.h)
    half = 0.5 * dt
    check_every = max(1, steps // 64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = rhs(out, s)
            np.multiply(k1, half, out=stage.values)
            stage.values += y
            k2 = rhs(stage, s)
            np.multiply(k2, half, out=stage.values)
            stage.values += y
            k3 = rhs(stage, s)
            np.multiply(k3, dt, out=stage.values)
            stage.values += y
            k4 = rhs(stage, s)
            # y += dt/6 (k1 + 2 k2 + 2 k3 + k4)
            k2 += k3
            k2 *= 2.0
            k1 += k4
            k1 += k2
            k1 *= dt / 6.0
            y += k1
            out.time += dt
            if k % check_every == 0 and not np.all(np.isfinite(y.view(np.float64))):
                raise StabilityError(f"non-finite field at t = {out.time}")
    if not np.all(np.isfinite(y.view(np.float64))):
        raise StabilityError(f"non-finite field at t = {out.time}")
    return out


# --- sech algebra for the traveling profile ---------------------------------------

# basis element S^a T^b with S = sech^2(B xi), T = tanh(B xi), b in {0, 1};
# T^2 reduces to 1 - S.


class SechPoly(SparseSum):
    __slots__ = ("field",)

    def __init__(self, field: CoeffField, terms: Optional[Dict[Tuple[int, int], CoeffElement]] = None):
        self.field = field
        self.terms = terms or {}

    def _like(self, terms: Dict[Tuple[int, int], CoeffElement]) -> "SechPoly":
        return SechPoly(self.field, terms)

    @classmethod
    def basis(cls, field: CoeffField, a: int, b: int) -> "SechPoly":
        return cls(field, {(a, b): field.one})

    def __mul__(self, other: "SechPoly") -> "SechPoly":
        if self._operand(other) is None:
            return NotImplemented
        acc: Dict[Tuple[int, int], CoeffElement] = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                v = v1 * v2
                a, b = a1 + a2, b1 + b2
                if b == 2:  # T^2 = 1 - S
                    accumulate(acc, (a, 0), v)
                    accumulate(acc, (a + 1, 0), -v)
                else:
                    accumulate(acc, (a, b), v)
        return SechPoly(self.field, acc)

    def d_xi(self, width: CoeffElement) -> "SechPoly":
        """Derivative in xi: S' = -2B S T, T' = B S."""
        out = SechPoly(self.field)
        for (a, b), v in self.terms.items():
            if a:
                ds = SechPoly(self.field, {(a, 1): -(v * width * (2 * a))})
                out = out + ds * SechPoly(self.field, {(0, b): self.field.one})
            if b:
                out = out + SechPoly(self.field, {(a + 1, 0): v * width})
        return out

    def get(self, a: int, b: int) -> CoeffElement:
        return self.terms.get((a, b), self.field.zero)


def _substitute_flow(flow: DiffPolynomial, jets: Dict[int, SechPoly], field: CoeffField) -> SechPoly:
    """The flow with every jet of the first field replaced by the profile
    jet; used with unit amplitude to set up the traveling-wave conditions."""
    out = SechPoly(field)
    for m, coeff in flow.terms.items():
        piece = SechPoly(field, {(0, 0): coeff})
        for sym, ell in m:
            if sym.kind != "phi" or sym.index != 1 or sym.times or ell < 1:
                raise DomainError("the traveling ansatz only carries jets of the first field")
            piece = piece * jets[ell]
        out = out + piece
    return out


class SolitonData(NamedTuple):
    """Solved traveling-wave data for the second flow: the derivative field
    is amplitude * sech^2(width * xi) and the profile moves at speed."""

    width: Fraction
    amplitude: CoeffElement
    speed: CoeffElement


def profile_jets(field: CoeffField, width: Fraction, max_ell: int) -> Dict[int, SechPoly]:
    """Jets of the traveling profile with unit amplitude: the first jet is
    sech^2, higher ones follow by differentiation."""
    w = field.from_fraction(width)
    jets = {1: SechPoly.basis(field, 1, 0)}
    for ell in range(2, max_ell + 1):
        jets[ell] = jets[ell - 1].d_xi(w)
    return jets


def _soliton_parts(
    flow2: DiffPolynomial, field: CoeffField, width: Fraction
) -> Tuple[SechPoly, SechPoly]:
    """The linear and the quadratic part of the second flow on the
    unit-amplitude sech^2 profile of the given width."""
    jets = profile_jets(field, width, max(ell for m in flow2.terms for _, ell in m))
    linear = _substitute_flow(flow2.part_of_degree("phi", 1, 1), jets, field)
    quadratic = _substitute_flow(flow2.part_of_degree("phi", 1, 2), jets, field)
    return linear, quadratic


def solve_soliton(flow2: DiffPolynomial, field: CoeffField, width: Fraction) -> SolitonData:
    """Amplitude and speed of the sech^2 traveling wave of the second flow,
    from the flow itself: the quadratic-in-amplitude sech^4 balance fixes the
    amplitude, the sech^2 balance then fixes the speed."""
    linear, quadratic = _soliton_parts(flow2, field, width)
    if not (linear.get(0, 1).is_zero() and quadratic.get(0, 1).is_zero()):
        raise DomainError("the second flow is not even in the profile")
    amplitude = -(linear.get(2, 0) * quadratic.get(2, 0).inv())
    speed = -(linear.get(1, 0) + amplitude * quadratic.get(1, 0))
    return SolitonData(Fraction(width), amplitude, speed)


# --- profile construction ----------------------------------------------------------


# sech^2 width of the traveling profile in the slow variable
WIDTH = Fraction(1)


class ProfileBuilder:
    """Window-sized evaluation of the truncated expansion and of the
    flow-advanced prediction at later times.

    The derivative profile is amplitude * sech^2 plus the small constant
    background u_inf = -2*(amplitude/width)/length that makes the potential
    close around the window; the background shifts the traveling speed by
    -2*alpha2*u_inf and adds the uniform drift alpha2*u_inf^2 to the
    potential, both consequences of the same quadratic flow.
    """

    def __init__(self, report: ReductionReport, epsilon: float, window: int):
        if not 0 < epsilon <= 0.3:
            raise DomainError("epsilon must lie in (0, 0.3]")
        if window < 4:
            raise DomainError("window too small")
        self.report = report
        self.epsilon = epsilon
        self.window = window

    def state(self, h: float, t: float) -> LatticeState:
        """The multiscale field at lattice time t: profile advanced by the
        second flow in its slow time, carried along the frame, on top of the
        constant orbit."""
        import numpy as np

        eps, rep = self.epsilon, self.report
        data = solve_soliton(rep.flows["K2"], rep.field, WIDTH)
        length = self.window * eps * h
        A = data.amplitude.eval_float(h)
        B = float(WIDTH)
        v = data.speed.eval_float(h)
        a2 = rep.alphas[2].eval_float(h)
        u_inf = -2.0 * (A / B) / length
        v_hat = v - 2.0 * a2 * u_inf
        drift = a2 * u_inf**2
        c = math.sqrt(1.0 - rep.s * h * h)
        n = np.arange(self.window)
        x = eps * h * n - c * eps * t
        t2 = eps**3 * t
        peak = v_hat * t2
        y = np.mod(x - peak + 0.5 * length, length) - 0.5 * length
        S = 1.0 / np.cosh(B * y) ** 2
        T = np.tanh(B * y)
        phi1 = u_inf * y + (A / B) * T
        global_phase = u_inf * peak + drift * t2
        phi = -t + eps * (phi1 + global_phase)
        jets = {1: u_inf + A * S}
        nu = 1.0 + eps**2 * self._poly(rep.amplitude(1), jets, h)
        if np.any(nu <= 0):
            raise DomainError("amplitude correction drove the field density nonpositive")
        values = np.sqrt(nu) * np.exp(1j * phi)
        return LatticeState(values.astype(complex), h, t)

    def _poly(self, poly: DiffPolynomial, jets: Dict[int, np.ndarray], h: float) -> np.ndarray:
        import numpy as np

        out = np.zeros(self.window)
        for m, coeff in poly.terms.items():
            term = np.full(self.window, coeff.eval_float(h))
            for sym, ell in m:
                if sym.times:
                    raise DomainError(f"unresolved slow-time tag {sym}")
                if sym.kind != "phi" or sym.index != 1:
                    raise DomainError(f"the profile carries only phi1, not {sym.name()}")
                if ell not in jets:
                    raise DomainError(f"the profile carries no x-derivative of phi1 of order {ell}")
                term = term * jets[ell]
            out = out + term
        return out


# --- error scaling ------------------------------------------------------------------


class ScalingRow(NamedTuple):
    epsilon: float
    sup_error: float
    norm_drift: float


class ScalingResult(NamedTuple):
    rows: List[ScalingRow]
    slope: float


def _fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x, intercept free."""
    from statistics import linear_regression

    return linear_regression([math.log(x) for x in xs], [math.log(y) for y in ys]).slope


def error_scaling(
    s: int,
    h: float,
    eps_list: Sequence[float],
    T: float,
    dt: float,
) -> ScalingResult:
    """Integrate from the constructed profile over the slow horizon T (so
    T / eps^3 lattice time) and fit the log-log slope of the sup gap to the
    flow-advanced prediction."""
    if len(eps_list) < 3 or len(set(eps_list)) != len(eps_list):
        raise DomainError("need at least three epsilon values, each at most once, for a slope")
    if not all(0 < eps <= 0.3 for eps in eps_list):
        raise DomainError("every epsilon must lie in (0, 0.3]")
    if not 0 < h < 1:
        raise DomainError("the lattice spacing h must lie in (0, 1)")
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise DomainError("the horizon T and the step dt must be positive and finite")
    runs = []
    for eps in eps_list:
        # eps * h and eps^3 may underflow to zero, the quotients overflow
        cell, cube = float(WIDTH) * eps * h, eps**3
        sites = 30.0 / cell if cell else math.inf
        horizon = T / cube if cube else math.inf
        steps = horizon / dt
        if not (math.isfinite(sites) and math.isfinite(steps)):
            raise DomainError(f"epsilon {eps:g} with h = {h:g}, T = {T:g} and dt = {dt:g}"
                              " gives no finite window size and step count")
        runs.append((eps, int(math.ceil(sites)), horizon, max(1, int(round(steps)))))
    import numpy as np

    report = run_reduction(CoeffField(s), order=5)
    rows: List[ScalingRow] = []
    for eps, sites, horizon, steps in runs:
        builder = ProfileBuilder(report, eps, sites)
        state = builder.state(h, 0.0)
        norm0 = float(np.sum(np.abs(state.values) ** 2))
        final = integrate(state, horizon / steps, steps, s)
        predicted = builder.state(h, final.time)
        sup = float(np.max(np.abs(final.values - predicted.values)))
        norm1 = float(np.sum(np.abs(final.values) ** 2))
        rows.append(ScalingRow(eps, sup, abs(norm1 - norm0) / norm0))
    slope = _fit_slope([r.epsilon for r in rows], [max(r.sup_error, 1e-300) for r in rows])
    return ScalingResult(rows, slope)
