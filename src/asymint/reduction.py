"""Order-by-order multiscale reduction of the amplitude-phase lattice.

The combined lattice (selector s: 0 for the on-site cubic term, 1 for the
neighbor-averaged one) is written in amplitude-phase variables nu_n, phi_n
and expanded around the constant solution nu = 1, phi = -sigma t.  All
correction fields are functions of the characteristic slow space
x = eps zeta n - c eps t and of the slow times t_m = eps^(2m-1) t.  In this
frame the even eps-orders of the phase equation determine the amplitude
corrections nu^(i), and the odd eps-orders of the amplitude equation each
release the next evolution rules: every still-unknown slow-time derivative
enters through a clean first x-derivative with one shared constant
coefficient, so one exact integration splits the order into flows plus
forcings.  Removing the secular single-derivative monomial fixes the flow
normalization beta_j; whatever remains beside the linearized flows is the
forcing polynomial, reported through its labeled graded basis.

The seventh and ninth orders run one stage, which splits on phi^(2) and
phi^(3) respectively.  The ninth order has two variants.  The kdv variant is
taken when the forcing is not an exact x-derivative (the on-site lattice):
the split then runs on the differentiated equation, with every d^ell phi^(j)
renamed to d^(ell-1) vphi^(j).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ._polyops import sign_on_open_unit_interval
from .compatibility import solve_t3_correction
from .diffpoly import (
    DiffPolynomial,
    EvolutionRules,
    FieldSymbol,
    SparseSum,
    accumulate,
    mono,
    monomial_text,
    substitute_field,
    substitute_slow_times,
)
from .errors import (
    DomainError,
    ExpansionPointError,
    GradingError,
    InconsistentSystemError,
    NonLocalError,
    SecularResidueError,
)
from .field import CoeffElement, CoeffField
from .hierarchy import FlowHierarchy
from .labels import NINTH_ORDER, T2_SECOND, T3_SECOND, LabeledBasis

_TAU = FieldSymbol("tau", 1)


# --- truncated eps-series ------------------------------------------------------


class EpsSeries(SparseSum):
    """Map eps-power -> differential polynomial, truncated at a fixed order."""

    __slots__ = ("limit",)

    def __init__(self, limit: int, terms: Optional[Dict[int, DiffPolynomial]] = None):
        self.limit = limit
        self.terms: Dict[int, DiffPolynomial] = {}
        if terms:
            for k, poly in terms.items():
                if k <= limit and poly:
                    self.terms[k] = poly

    def _like(self, terms: Dict[int, DiffPolynomial]) -> "EpsSeries":
        return EpsSeries(self.limit, terms)

    @classmethod
    def constant(cls, limit: int, coeff) -> "EpsSeries":
        return cls(limit, {0: DiffPolynomial.constant(coeff)})

    def get(self, k: int) -> DiffPolynomial:
        return self.terms.get(k, DiffPolynomial())

    def __sub__(self, other: "EpsSeries") -> "EpsSeries":
        return self + other.scale_all(-1)

    def __mul__(self, other: "EpsSeries") -> "EpsSeries":
        acc: Dict[int, DiffPolynomial] = {}
        for i, p in self.terms.items():
            for j, q in other.terms.items():
                if i + j <= self.limit:
                    accumulate(acc, i + j, p * q)
        return EpsSeries(self.limit, acc)

    def scale_all(self, scalar) -> "EpsSeries":
        return EpsSeries(
            self.limit, {k: poly.scale(scalar) for k, poly in self.terms.items()}
        )

    def contains_kind(self, kind: str) -> bool:
        return any(poly.contains_kind(kind) for poly in self.terms.values())


def expand_shifts(
    series: EpsSeries, direction: int, zeta: CoeffElement
) -> EpsSeries:
    """The series at the neighboring site: every x-dependent factor d^ell X
    carries the ladder sum_j (direction eps zeta)^j / j! d^(ell+j) X; the
    phase baseline marker is site-independent."""
    limit = series.limit
    out = EpsSeries(limit)
    for k, poly in series.terms.items():
        for m, coeff in poly.terms.items():
            acc = EpsSeries(limit, {k: DiffPolynomial.constant(coeff)})
            for sym, ell in m:
                acc = acc * _ladder(sym, ell, direction, zeta, limit)
            out = out + acc
    return out


def _ladder(
    sym: FieldSymbol, ell: int, direction: int, zeta: CoeffElement, limit: int
) -> EpsSeries:
    field = zeta.field
    if sym.kind == "tau":
        return EpsSeries(limit, {0: DiffPolynomial.leaf(sym, ell, field.one)})
    terms = {}
    coeff = field.one
    step = zeta if direction > 0 else -zeta
    for j in range(limit + 1):
        if j:
            coeff = coeff * step * Fraction(1, j)
        terms[j] = DiffPolynomial.leaf(sym, ell + j, coeff)
    return EpsSeries(limit, terms)


def _sqrt_coeff(j: int) -> Fraction:
    # binomial(1/2, j)
    num, den = Fraction(1), 1
    for i in range(j):
        num *= Fraction(1, 2) - i
        den *= i + 1
    return num / den


_ANALYTIC: Dict[str, Callable[[int], Fraction]] = {
    "sin": lambda j: Fraction((-1) ** (j // 2), factorial(j)) if j % 2 else Fraction(0),
    "cos": lambda j: Fraction((-1) ** (j // 2), factorial(j)) if j % 2 == 0 else Fraction(0),
    "sqrt": _sqrt_coeff,
    "recip": lambda j: Fraction((-1) ** j),
}


def expand_analytic(kind: str, arg: EpsSeries, field: CoeffField) -> EpsSeries:
    """Composition with sin/cos (argument vanishing at eps^0) or with
    sqrt/recip around 1 (argument's eps^0 part exactly the constant 1)."""
    if kind in ("sin", "cos"):
        if arg.terms.get(0) is not None or arg.contains_kind("tau"):
            raise ExpansionPointError(
                f"{kind} argument must vanish at eps^0 with no phase baseline left"
            )
        u = arg
    elif kind in ("sqrt", "recip"):
        if arg.get(0) != DiffPolynomial.constant(field.one) or arg.contains_kind("tau"):
            raise ExpansionPointError(f"{kind} argument must equal 1 at eps^0")
        u = EpsSeries(arg.limit, {k: p for k, p in arg.terms.items() if k != 0})
    coeff_fn = _ANALYTIC[kind]
    base = min(u.terms, default=None)
    out = EpsSeries(arg.limit)
    a0 = coeff_fn(0)
    if a0:
        out = out + EpsSeries.constant(arg.limit, field.from_fraction(a0))
    power = u
    j = 1
    while power.terms and j * base <= arg.limit:
        aj = coeff_fn(j)
        if aj:
            out = out + power.scale_all(field.from_fraction(aj))
        power = power * u
        j += 1
    return out


# --- the lattice in series form -------------------------------------------------


def lattice_residual_series(
    field: CoeffField, sigma: int, limit: int
) -> Tuple[EpsSeries, EpsSeries]:
    """Residuals (left minus right side) of the amplitude and phase
    equations on the expanded ansatz, per eps-order, for the nonlinearity
    sign sigma (+1 or -1)."""
    sigma = field.from_fraction(sigma)
    zeta = field.h
    inv_h2 = (field.h * field.h).inv()
    one = field.one

    def put(orders: Dict[int, DiffPolynomial], k: int, sym: FieldSymbol, ell: int, coeff):
        if k <= limit:
            accumulate(orders, k, DiffPolynomial.leaf(sym, ell, coeff))

    phi = {0: DiffPolynomial.leaf(_TAU, 0, -sigma)}
    nu = {0: DiffPolynomial.constant(one)}
    # d/dt through the slow variables: -c eps d_x + sum_m eps^(2m-1) d_(t_m)
    dphi_dt = {0: DiffPolynomial.constant(-sigma)}
    dnu_dt: Dict[int, DiffPolynomial] = {}
    for j in range(1, limit // 2 + 2):
        put(phi, 2 * j - 1, FieldSymbol("phi", j), 0, one)
        put(nu, 2 * j, FieldSymbol("nu", j), 0, one)
        put(dphi_dt, 2 * j, FieldSymbol("phi", j), 1, -field.c)
        put(dnu_dt, 2 * j + 1, FieldSymbol("nu", j), 1, -field.c)
        for m in range(2, limit):
            put(dphi_dt, 2 * j - 1 + 2 * m - 1, FieldSymbol("phi", j, (m,)), 0, one)
            put(dnu_dt, 2 * j + 2 * m - 1, FieldSymbol("nu", j, (m,)), 0, one)
    phi, nu, dphi_dt, dnu_dt = (EpsSeries(limit, o) for o in (phi, nu, dphi_dt, dnu_dt))

    # n+1 before n-1: each sum keeps the term order its exact scalar work depends on
    recip_nu = expand_analytic("recip", nu, field)
    sin_sum = cos_sum = EpsSeries(limit)
    for direction in (+1, -1):
        nu_next = expand_shifts(nu, direction, zeta)
        arg = expand_shifts(phi, direction, zeta) - phi
        sin_sum += expand_analytic("sqrt", nu * nu_next, field) * expand_analytic("sin", arg, field)
        cos_sum += (
            expand_analytic("sqrt", nu_next * recip_nu, field) * expand_analytic("cos", arg, field)
        )
    rhs_nu = (nu.scale_all(sigma * field.s) - EpsSeries.constant(limit, inv_h2)) * sin_sum
    rhs_phi = (
        EpsSeries.constant(limit, -inv_h2)
        + nu.scale_all(sigma * (field.s - 1))
        + (
            EpsSeries.constant(limit, inv_h2) - nu.scale_all(sigma * field.s)
        ).scale_all(Fraction(1, 2))
        * cos_sum
    )

    return dnu_dt - rhs_nu, dphi_dt - rhs_phi


# --- the report and its stages ---------------------------------------------------


class DispersionData(NamedTuple):
    c_squared: CoeffElement
    sigma: int
    general_text: str
    rejected: Dict[int, str]


class Forcing(NamedTuple):
    space: str
    coefficients: Dict[str, CoeffElement]


class ReductionReport:
    """The multiscale reduction of one lattice branch through eps^order.

    Built on the field's residual series, after the dispersion is derived;
    run_reduction drives the stage methods, which fill in the amplitude
    corrections, the flow coefficients, the flows, the evolution rules, the
    forcings and the stage log."""

    def __init__(self, field: CoeffField, order: int):
        if not 3 <= order <= 10:
            raise ValueError(f"the reduction runs through eps^3 to eps^10, got order {order}")
        self.field = field
        self.order = order
        self.dispersion = derive_dispersion(field.s)
        self.r_nu, self.r_phi = lattice_residual_series(field, 1, order)
        self.rules = EvolutionRules(one=field.one)
        self.nu_solutions: Dict[int, DiffPolynomial] = {}
        self.alphas: Dict[int, CoeffElement] = {}
        self.betas: Dict[int, CoeffElement] = {}
        self.flows: Dict[str, DiffPolynomial] = {}
        self.forcings: Dict[str, Forcing] = {}
        self.kdv_rules: Optional[EvolutionRules] = None
        self.variant: Optional[str] = None
        self.hier: Optional[FlowHierarchy] = None
        self.stage_log: List[str] = []

    def amplitude(self, i: int) -> DiffPolynomial:
        """The i-th amplitude correction with every slow-time tag resolved
        through the evolution rules."""
        return substitute_slow_times(self.nu_solutions[i], self.rules)

    # substitution of everything known so far
    def resolved(self, poly: DiffPolynomial) -> DiffPolynomial:
        for i in sorted(self.nu_solutions):
            poly = substitute_field(poly, "nu", i, self.nu_solutions[i], self.rules)
        return substitute_slow_times(poly, self.rules)

    def check_parity(self) -> None:
        if self.r_phi.get(0):
            raise InconsistentSystemError(
                "eps^0: the constant solution does not balance the phase equation"
            )
        for k in range(0, self.order + 1):
            bad = self.r_nu.get(k) if k % 2 == 0 else self.r_phi.get(k)
            if bad:
                raise InconsistentSystemError(
                    f"eps^{k}: parity-forbidden residual {bad.text()}"
                )

    def solve_amplitude(self, k: int) -> None:
        i = k // 2
        poly = self.resolved(self.r_phi.get(k))
        target = FieldSymbol("nu", i)
        lam, rest = _split_bare(poly, target, 0, f"eps^{k}")
        value = rest.scale(-(lam.inv()))
        if value.contains_kind("nu"):
            raise InconsistentSystemError(
                f"eps^{k}: amplitude correction {i} still references amplitudes"
            )
        self.nu_solutions[i] = value
        self.stage_log.append(f"eps^{k}: nu^({i}) eliminated ({len(value)} terms)")

    def phase_residual(
        self, k: int, expect: Set[FieldSymbol]
    ) -> Tuple[CoeffElement, DiffPolynomial]:
        """The preamble of every odd order from eps^5 on: the unknown
        evolutions at eps^k must be exactly the tagged symbols `expect`, each
        a clean first x-derivative with one shared coefficient lambda;
        returns lambda and the known remainder."""
        poly = self.resolved(self.r_nu.get(k))
        lams: Dict[FieldSymbol, CoeffElement] = {}
        known = poly
        for sym in poly.tagged_unknowns():
            lam, known = _split_bare(known, sym, 1, f"eps^{k}")
            lams[sym] = lam
        if known.tagged_unknowns():
            raise InconsistentSystemError(f"eps^{k}: nested unknown evolutions remain")
        if known.contains_kind("nu"):
            raise InconsistentSystemError(f"eps^{k}: unsolved amplitudes remain")
        top = (k - 3) // 2
        if known.max_field_index("phi") > top:
            raise SecularResidueError(
                f"eps^{k}: wave terms beyond phi^({top}) failed to cancel"
            )
        if set(lams) != expect:
            raise InconsistentSystemError(f"eps^{k}: unexpected unknown set")
        values = list(lams.values())
        if any(v != values[0] for v in values[1:]):
            raise InconsistentSystemError(
                f"eps^{k}: unknown evolutions enter with unequal coefficients"
            )
        return values[0], known

    # --- odd-order stages ----------------------------------------------------

    def stage_dispersion(self) -> None:
        poly = self.resolved(self.r_nu.get(3))
        if poly:
            raise InconsistentSystemError(
                f"eps^3: dispersion identity violated: {poly.text()}"
            )
        self.stage_log.append("eps^3: dispersion identity holds on the characteristic frame")

    def stage_t2(self) -> None:
        lam, known = self.phase_residual(5, {FieldSymbol("phi", 1, (2,))})
        flow2 = known.integrate_x().scale(-(lam.inv()))
        alpha1 = flow2.terms.get(mono(("phi", 1, 3)), self.field.zero)
        alpha2 = flow2.terms.get(mono(("phi", 1, 1), ("phi", 1, 1)), self.field.zero)
        if len(flow2) != 2 or not alpha1:
            raise SecularResidueError(f"eps^5: unexpected t2 flow {flow2.text()}")
        self.alphas[1], self.alphas[2] = alpha1, alpha2
        self.betas[2] = alpha1
        self.hier = FlowHierarchy(alpha1, alpha2)
        self.flows["K2"] = flow2
        self.rules.set("phi", 1, 2, flow2)
        self.stage_log.append(
            f"eps^5: t2 flow; alpha1 = {alpha1.text()}, alpha2 = {alpha2.text()}"
        )

    def stage_tj(self, j: int) -> None:
        """eps^(2j+1) for j = 3, 4: the t_j flow of phi^(1) and the t2 rule of
        phi^(j-1).  The known remainder, integrated once, holds K_j, whose
        normalization beta_j is its d^(2j-1) phi^(1) coefficient: no other
        choice cancels that secular monomial.  What is left beside K_j splits
        into the linearized t2 flow on phi^(j-1) and the forcing.  At the
        ninth order alone the remainder may fail to be an exact x-derivative
        (kdv, the on-site lattice): the combined unknown then enters as d_x
        of the evolutions, so the split runs on the differentiated equation,
        renamed to the derivative fields vphi and matched against H_j."""
        k = 2 * j + 1
        lam, known = self.phase_residual(
            k, {FieldSymbol("phi", 1, (j,)), FieldSymbol("phi", j - 1, (2,))}
        )
        scale = -(lam.inv())
        try:
            combined = known.integrate_x().scale(scale)
            variant = "potential"
        except NonLocalError:
            if j == 3:
                raise
            combined = known.scale(scale).rename_to_kdv()
            variant = "kdv"
        kind, basis, name = ("phi", T2_SECOND, "f_t2") if j == 3 else NINTH_ORDER[variant]
        beta = combined.terms.get(mono((kind, 1, 2 * j - 1)), self.field.zero)
        flow = self.hier.flow(j, beta)
        # kdv_flow rebuilds K_j: reusing `flow` would change the pinned scalar-op counts
        sector = self.hier.kdv_flow(j, beta) if kind == "vphi" else flow
        rule, forcing = self.split_forcing(combined - sector, kind, j - 1, basis, f"eps^{k}")
        self.betas[j] = beta
        self.flows[f"K{j}"] = flow
        self.forcings[name] = forcing
        if kind == "phi":
            self.rules.set("phi", 1, j, flow)
            self.rules.set("phi", j - 1, 2, rule)
        else:
            self.kdv_rules = self._build_kdv_rules(rule)
        if j == 3:
            terms, zero = combined.terms, self.field.zero
            self.alphas[3] = terms.get(mono(("phi", 1, 2), ("phi", 1, 2)), zero)
            self.alphas[4] = terms.get(mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1)), zero)
            self.alphas[5] = terms.get(mono(("phi", 1, 1), ("phi", 1, 3)), zero)
            self.alphas[6] = beta
            self.stage_log.append(
                f"eps^7: t3 flow and first forcing; beta3 = {beta.text()}, "
                + ", ".join(f"{n} = {v.text()}" for n, v in sorted(forcing.coefficients.items()))
            )
        else:
            self.variant = variant
            split = "potential split" if kind == "phi" else "derivative-field split"
            self.stage_log.append(
                f"eps^9: {split}; beta4 = {beta.text()}, "
                f"{sum(1 for v in forcing.coefficients.values() if v)} forcing coefficients"
            )

    def prepare_t3_correction(self) -> None:
        """The t3 rule for phi^(2): linearized third flow plus the correction
        whose coefficients are forced by the t2/t3 cross-derivative identity."""
        b_values = solve_t3_correction(self)
        forcing = T3_SECOND.polynomial(b_values)
        linear3 = self.hier.linearized(3, self.betas[3], "phi", 2)
        self.rules.set("phi", 2, 3, linear3 + forcing)
        self.forcings["f_t3"] = Forcing(T3_SECOND.space, b_values)
        self.stage_log.append(
            "eps^9 prep: t3 correction for phi^(2) fixed by cross-derivative identity"
        )

    def split_forcing(
        self, rest: DiffPolynomial, kind: str, index: int, basis: LabeledBasis, stage: str
    ) -> Tuple[DiffPolynomial, Forcing]:
        """Split what is left beside the new flow into the linearized t2
        flow on the field (kind, index) and the forcing, which carries no
        such field; returns the field's t2 rule and the forcing."""
        field = f"{kind}^({index})"
        linear = rest.part_of_degree(kind, index, 1)
        other = rest.part_of_degree(kind, index, 0)
        if rest != linear + other:
            raise SecularResidueError(f"{stage}: terms of higher degree in {field} remain")
        linear2 = self.hier.linearized(2, self.alphas[1], kind, index)
        if linear != linear2:
            raise SecularResidueError(
                f"{stage}: the {field} sector is not the linearized t2 flow"
            )
        try:
            coeffs = basis.express(other)
        except GradingError as exc:
            raise SecularResidueError(f"{stage}: forcing outside its graded space: {exc}")
        return linear2 + other, Forcing(basis.space, coeffs)

    def _build_kdv_rules(self, third_rule: DiffPolynomial) -> EvolutionRules:
        rules = EvolutionRules(one=self.field.one)
        hier = self.hier
        for j, norm in ((2, self.alphas[1]), (3, self.betas[3]), (4, self.betas[4])):
            flow = hier.kdv_flow(j, norm)
            self.flows[f"H{j}"] = flow
            rules.set("vphi", 1, j, flow)
        for m in (2, 3):
            rule = self.rules.get(FieldSymbol("phi", 2), m)
            rules.set("vphi", 2, m, rule.d_x().rename_to_kdv())
        rules.set("vphi", 3, 2, third_rule)
        return rules


def _split_bare(
    poly: DiffPolynomial, sym: FieldSymbol, ell: int, stage: str
) -> Tuple[CoeffElement, DiffPolynomial]:
    """Separate lambda * d^ell(sym) from the rest; the symbol must occur in
    no other shape."""
    wanted = ((sym, ell),)
    rest: Dict = {}
    lam = None
    for m, coeff in poly.terms.items():
        if any(s == sym for s, _ in m):
            if m != wanted:
                raise InconsistentSystemError(
                    f"{stage}: {sym.name()} occurs in {monomial_text(m)}, "
                    "not as a clean linear term"
                )
            lam = coeff
        else:
            rest[m] = coeff
    if not lam:
        raise InconsistentSystemError(f"{stage}: no linear term in {sym.name()}")
    return lam, DiffPolynomial(rest)


# --- dispersion -----------------------------------------------------------------


def derive_dispersion(s: int) -> DispersionData:
    """Run the two lowest orders for both signs of sigma: the amplitude lock
    at eps^2 gives nu^(1) = g d_x phi^(1) with g proportional to c, and the
    eps^3 balance -c g d2phi = rho d2phi then dictates c^2 without touching
    the baked-in square.  Only sigma = +1 keeps c^2 positive on 0 < h < 1."""
    rejected: Dict[int, str] = {}
    accepted: Optional[Tuple[int, CoeffField]] = None
    for sigma in (1, -1):
        field = CoeffField(s)
        r_nu, r_phi = lattice_residual_series(field, sigma, 3)
        lam, rest = _split_bare(r_phi.get(2), FieldSymbol("nu", 1), 0, "eps^2")
        nu1 = rest.scale(-(lam.inv()))
        gain = nu1.terms.get(mono(("phi", 1, 1)), field.zero)
        if len(nu1) != 1 or gain.even or not gain.odd:
            raise InconsistentSystemError(
                "eps^2: amplitude lock is not proportional to c d_x phi"
            )
        rho = (-r_nu.get(3)).terms.get(mono(("phi", 1, 2)), field.zero)
        if rho.odd:
            raise InconsistentSystemError("eps^3: dispersion balance acquired an odd part")
        required = (-rho.even) / gain.odd
        sign = sign_on_open_unit_interval(required.num) * sign_on_open_unit_interval(
            required.den
        )
        if sign > 0:
            if field.c_squared.odd or required != field.c_squared.even:
                raise InconsistentSystemError(
                    "eps^3: derived dispersion disagrees with the coefficient field"
                )
            accepted = (sigma, field)
        else:
            rejected[sigma] = (
                f"required c^2 = {required.text()} is not positive on 0 < h < 1; "
                "no real characteristic speed"
            )
    if accepted is None or accepted[0] != 1:
        raise DomainError("no sign of the nonlinearity admits a real characteristic speed")
    sigma, field = accepted
    c2 = field.c_squared
    ratio = c2 / (field.h * field.h)
    return DispersionData(
        c_squared=c2,
        sigma=sigma,
        general_text=f"c^2 = zeta^2 * ({ratio.even.text()}) with zeta = h",
        rejected=rejected,
    )


# --- public entry ----------------------------------------------------------------


def run_reduction(field: CoeffField, order: int = 9) -> ReductionReport:
    """Resolve the expansion through eps^order on the field's lattice
    branch, with the sigma = +1 nonlinearity that derive_dispersion selects,
    and report every extracted object.  Order ten only adds the amplitude
    correction nu^(5), which no check verifies; an order outside 3..10
    (below the dispersion order, or from eps^11 on, where no solver stage
    exists) raises ValueError before any expansion work."""
    report = ReductionReport(field, order)
    report.check_parity()
    report.stage_log.append(f"eps^3: {report.dispersion.general_text} (sigma = +1 selected)")
    for k in range(2, order + 1):
        if k % 2 == 0:
            report.solve_amplitude(k)
            if k == 8:
                report.prepare_t3_correction()
        elif k == 3:
            report.stage_dispersion()
        elif k == 5:
            report.stage_t2()
        else:
            report.stage_tj(k // 2)
    return report
