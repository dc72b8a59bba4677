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

The window of n sites sits between two halo cells that rhs sets to its
periodic neighbours.  A step is 4 x 8 + 9 array passes (four rhs calls, three
stage adds, a six-pass running slope sum divided by 3 on its float view), with
views and ufuncs bound once per integrate; only s outside {0, 1} allocates.

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
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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


def _scalars(s: int, scale: float, h: float) -> Tuple[object, ...]:
    """The scalars of rhs at one stage scale as 0-d arrays, which numpy applies
    faster, then the four ufuncs rhs calls, so that it looks none up."""
    import numpy as np

    c = scale / h**2
    scalars = (0.5j * c, -0.5j * s * scale, 1j * (1 - s) * scale, 1j * c)
    return tuple(map(np.array, scalars)) + (np.conjugate, np.multiply, np.add, np.subtract)


def rhs(window: Tuple[np.ndarray, ...], s: int, scalars: Tuple[object, ...], out: np.ndarray,
        work: np.ndarray) -> np.ndarray:
    """scale times df_n/dt, into out, on window = (padded, f, padded[2:],
    padded[:-2]), f = padded[1:-1], whose halo cells rhs sets to f_{n-1} (left)
    and f_0 (right); scalars = _scalars(s, scale, h):

        1j * (A_n (f_{n+1} + f_{n-1}) - B_n f_n),
        A_n = (1 - s h^2 |f_n|^2) / (2 h^2),  B_n = 1/h^2 + (1 - s) |f_n|^2.

    |f_n|^2 = conj(f) * f goes into work, so every product is complex by
    complex; 1j, h and scale ride in the scalars, and the constant A (s = 0)
    or B (s = 1) costs no pass: 8 array passes, none allocating for s in {0, 1}."""
    padded, f, right, left = window
    a_const, a_mod, b_mod, b_const, conjugate, multiply, add, subtract = scalars
    padded[0], padded[-1] = padded[-2], padded[1]
    mod = conjugate(f, work)
    multiply(mod, f, mod)
    add(right, left, out)
    if s == 0:
        multiply(out, a_const, out)
    else:
        # for s = 1, |f|^2 is read only here, so a may take its row
        a = multiply(mod, a_mod, mod if s == 1 else None)
        add(a, a_const, a)
        multiply(out, a, out)
    if s == 1:
        subtract(out, multiply(f, b_const, mod), out)
    else:
        multiply(mod, b_mod, mod)
        add(mod, b_const, mod)
        multiply(mod, f, mod)
        subtract(out, mod, out)
    return out


def integrate(state: LatticeState, dt: float, steps: int, s: int) -> LatticeState:
    """Advance a complex copy of state by steps of the classical fourth-order
    scheme (local error O(dt^5)), each slope pre-scaled by its stage factor
    dt/2, dt/2, dt, dt/2 and added to one running sum as it arrives.  All
    buffers are rows of one block per call, five rows of m = 4 (n // 4 + 2)
    cells on 64-byte boundaries, as numpy's vector loops run slower on split
    cache lines: the field (returned as a view) and the stage field, windows
    at cells 4..n + 3 between the halo cells rhs sets, then the slope sum, the
    slope and |f|^2.  Window tuples, scalars, ufuncs and np.add are bound once
    per call; the sum is divided by 3 on its float view: the bits of the complex
    product by 1/3 on finite values, up to the sign of a zero part.  Raises
    StabilityError when the field stops being finite."""
    import numpy as np

    n = len(state.values)
    m = 4 * (n // 4 + 2)
    raw = np.empty(16 * 5 * m + 64, dtype=np.uint8)
    first = -raw.__array_interface__["data"][0] % 64
    rows = raw[first:first + 16 * 5 * m].view(complex).reshape(5, m)
    y_win, stage_win = ((pad, pad[1:-1], pad[2:], pad[:-2]) for pad in rows[:2, 3:n + 5])
    y, stage, total, slope, work = rows[:, 4:n + 4]
    y[:] = state.values
    out = LatticeState(y, state.h, state.time)
    half, full = _scalars(s, 0.5 * dt, state.h), _scalars(s, dt, state.h)
    add, third = np.add, total.view(float)
    check_every = max(1, steps // 64)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            # dt/6 (K1 + 2 K2 + 2 K3 + K4) from slopes scaled by dt/2, dt/2, dt, dt/2
            rhs(y_win, s, half, total, work)
            add(y, total, stage)
            rhs(stage_win, s, half, slope, work)
            add(y, slope, stage)
            slope += slope
            total += slope
            rhs(stage_win, s, full, slope, work)
            add(y, slope, stage)
            total += slope
            rhs(stage_win, s, half, slope, work)
            total += slope
            third *= 1.0 / 3.0
            y += total
            out.time += dt
            if (step % check_every == 0 or step == steps - 1) and not np.isfinite(y.view(float)).all():
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


def _on_jets(poly: DiffPolynomial, jets: Dict[int, object], lift: Callable, zero: object) -> object:
    """Sum from zero of poly's terms with each coefficient lifted and each
    d^ell phi1 replaced by jets[ell] (sech polynomials or window arrays);
    any other factor is a DomainError."""
    out = zero
    for m, coeff in poly.terms.items():
        term = lift(coeff)
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
    jets = {1: SechPoly(field, {(1, 0): field.one})}
    for ell in range(2, max_ell + 1):
        jets[ell] = jets[ell - 1].d_xi(w)
    return jets


def _soliton_parts(
    flow2: DiffPolynomial, field: CoeffField, width: Fraction
) -> Tuple[SechPoly, SechPoly]:
    """The linear and the quadratic part of the second flow on the
    unit-amplitude sech^2 profile of the given width."""
    jets = profile_jets(field, width, max(ell for m in flow2.terms for _, ell in m))
    return tuple(
        _on_jets(flow2.part_of_degree("phi", 1, degree), jets,
                 lambda coeff: SechPoly(field, {(0, 0): coeff}), SechPoly(field))
        for degree in (1, 2)
    )


def solve_soliton(flow2: DiffPolynomial, field: CoeffField, width: Fraction) -> SolitonData:
    """Amplitude and speed of the sech^2 traveling wave of the second flow,
    from the flow itself: the quadratic-in-amplitude sech^4 balance fixes the
    amplitude, the sech^2 balance then fixes the speed."""
    linear, quadratic = _soliton_parts(flow2, field, width)
    if linear.get(0, 1) or quadratic.get(0, 1):
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
    potential, both consequences of the same quadratic flow.  Its one caller,
    error_scaling, has already checked epsilon and sized the window.
    """

    def __init__(self, report: ReductionReport, epsilon: float, window: int):
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
        c = rep.field.c.eval_float(h)
        n = np.arange(self.window)
        x = eps * h * n - c * eps * t
        t2 = eps**3 * t
        peak = v_hat * t2
        y = np.mod(x - peak + 0.5 * length, length) - 0.5 * length
        # transcendentals from math, site by site: numpy's cosh, tanh and complex
        # exp round differently at each SIMD dispatch level; its sqrt is correctly rounded
        z = (B * y).tolist()
        S = 1.0 / np.array([math.cosh(v) for v in z]) ** 2
        T = np.array([math.tanh(v) for v in z])
        phi1 = u_inf * y + (A / B) * T
        global_phase = u_inf * peak + drift * t2
        phi = -t + eps * (phi1 + global_phase)
        jets = {1: u_inf + A * S}
        nu = 1.0 + eps**2 * _on_jets(rep.amplitude(1), jets, lambda coeff: coeff.eval_float(h), 0.0)
        if np.any(nu <= 0):
            raise DomainError("amplitude correction drove the field density nonpositive")
        values = np.sqrt(nu) * np.array([complex(math.cos(p), math.sin(p)) for p in phi.tolist()])
        return LatticeState(values, h, t)


# --- error scaling ------------------------------------------------------------------


# 39x the validate defaults' 51,187,500; ~70 s at 34 ns/site-step (2-vCPU Xeon)
SITE_STEP_BUDGET = 2e9
# 1,667x the defaults' 1,200; 208 B/site at peak (tracemalloc: RK4 block, states, profile): 0.42 GB
MAX_WINDOW_SITES = 2e6


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
    flow-advanced prediction.  A job above SITE_STEP_BUDGET site-steps or
    MAX_WINDOW_SITES sites in one window is refused before any work."""
    if len(eps_list) < 3 or len(set(eps_list)) != len(eps_list):
        raise DomainError("need at least three epsilon values, each at most once, for a slope")
    if not all(0 < eps <= 0.3 for eps in eps_list):
        raise DomainError("every epsilon must lie in (0, 0.3]")
    if not 0 < h < 1:
        raise DomainError("the lattice spacing h must lie in (0, 1)")
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise DomainError("the horizon T and the step dt must be positive and finite")
    runs, total = [], 0.0
    for eps in eps_list:
        # eps * h and eps^3 may underflow to zero, the quotients overflow to inf
        cell, cube = float(WIDTH) * eps * h, eps**3
        sites = 30.0 / cell if cell else math.inf
        horizon = T / cube if cube else math.inf
        steps = horizon / dt
        total += sites * max(1.0, steps)
        runs.append((eps, sites, horizon, steps))
    if not total <= SITE_STEP_BUDGET:
        raise DomainError(f"these epsilon, h, T and dt need {total:.3g} lattice site-steps,"
                          f" over the budget of {SITE_STEP_BUDGET:.3g}")
    widest = max(run[1] for run in runs)
    if not widest <= MAX_WINDOW_SITES:
        raise DomainError(f"the smallest epsilon needs a window of {widest:.3g} lattice sites,"
                          f" over the bound of {MAX_WINDOW_SITES:.3g}")
    import numpy as np

    report = run_reduction(CoeffField(s), order=5)
    rows: List[ScalingRow] = []
    for eps, sites, horizon, steps in runs:
        steps = max(1, round(steps))
        builder = ProfileBuilder(report, eps, math.ceil(sites))
        state = builder.state(h, 0.0)
        norm0 = float(np.sum(np.abs(state.values) ** 2))
        final = integrate(state, horizon / steps, steps, s)
        predicted = builder.state(h, final.time)
        sup = float(np.max(np.abs(final.values - predicted.values)))
        norm1 = float(np.sum(np.abs(final.values) ** 2))
        rows.append(ScalingRow(eps, sup, abs(norm1 - norm0) / norm0))
    slope = _fit_slope([r.epsilon for r in rows], [max(r.sup_error, 1e-300) for r in rows])
    return ScalingResult(rows, slope)
