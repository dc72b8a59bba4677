"""Commutation analysis of the slow-time flows.

A reduction order is asymptotically consistent when the mixed slow-time
derivatives of every correction field agree.  The first two slow times
carry the solved flows plus forcing corrections; the correction entering
the t3 rule of the highest field is not fixed by the reduction itself, so
it is introduced here as a labeled ansatz over the graded space two weights
above the known t2 forcing.  Equating d_{t3} d_{t2} with d_{t2} d_{t3}
gives a linear system for the ansatz labels; whatever survives their
elimination constrains the known forcing coefficients.  Those residual
constraints, canonicalized, are the order-n integrability conditions: the
verdict evaluates them at the coefficients the reduction actually produced.

Known forcing coefficients are treated as independent symbols while the
constraints are derived and only substituted numerically afterwards, so a
FAIL verdict always comes with the violated relation as a witness.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .diffpoly import (
    DiffPolynomial,
    EvolutionRules,
    FieldSymbol,
    accumulate,
    time_derivative,
)
from .errors import InconsistentSystemError, MissingEvolutionError
from .field import CoeffElement, CoeffField
from .hierarchy import FlowHierarchy
from .knowns import KnownPoly
from .labels import NINTH_ORDER, T2_SECOND, T3_SECOND, LabeledBasis


class CompatibilityProblem(NamedTuple):
    """One commutation problem: which field the condition is imposed on,
    the rules feeding both slow-time derivatives, and the labeled spaces of
    the known forcing and of the unknown ansatz."""

    variant: str
    target: FieldSymbol
    known_values: Dict[str, CoeffElement]
    ansatz_basis: LabeledBasis
    evolution_rules: EvolutionRules


class CompatibilityReport(NamedTuple):
    variant: str
    solved_coefficients: Dict[str, KnownPoly]
    residual_constraints: List[KnownPoly]
    evaluated: List[CoeffElement]
    verdict: str
    witness: Optional[str]


# --- canonical label order and linear algebra over the label monomials -----------

_LABEL = re.compile(r"([a-z]+)([0-9]+)$")


def _label_key(name: str):
    m = _LABEL.match(name)
    return (m.group(1), -int(m.group(2))) if m else (name, 0)


def _column_key(key) -> Tuple:
    deg = sum(p for _, p in key)
    return (deg, tuple(sorted(((_label_key(n), p) for n, p in key))))


def strip_content(poly: KnownPoly) -> KnownPoly:
    """Divide out the common label-monomial factor of all terms.  Pivoting
    never divides by a symbol, so elimination can leave a constraint times a
    stray label; the label values are nonvanishing, making the primitive part
    the same condition in canonical form."""
    keys = list(poly.terms)
    common: Dict[str, int] = dict(keys[0])
    for key in keys[1:]:
        have = dict(key)
        common = {n: min(p, have[n]) for n, p in common.items() if n in have}
        if not common:
            return poly
    terms = {}
    for key, coeff in poly.terms.items():
        left = {n: p - common.get(n, 0) for n, p in key}
        terms[tuple(sorted((n, p) for n, p in left.items() if p))] = coeff
    return KnownPoly(poly.field, terms)


def eliminate_unknowns(
    equations: Sequence[KnownPoly], names: Sequence[str]
) -> Tuple[Dict[str, KnownPoly], List[KnownPoly]]:
    """Solve the ansatz labels out of the linear system, pivoting on the
    first constant coefficient in label order (a unit: by the mirror grading
    every scalar is f or f*c), so no symbolic quantity is ever inverted;
    returns the solved map and the unknown-free leftovers."""
    eqs = [e for e in equations if e]
    remaining = set(names)
    solved: Dict[str, KnownPoly] = {}
    while remaining:
        pick = None
        for idx, eq in enumerate(eqs):
            linear, rest = eq.split_linear(remaining)
            for name in sorted(linear, key=_label_key):
                # a constant has the single key (), and a stored value is nonzero
                terms = linear[name].terms
                if len(terms) == 1 and () in terms:
                    pick = (idx, name, terms[()].inv(), linear, rest)
                    break
            if pick:
                break
        if pick is None:
            raise InconsistentSystemError(f"ansatz labels {sorted(remaining)} admit no constant pivot")
        idx, name, inv, linear, rest = pick
        acc = rest
        for other, coeff in linear.items():
            if other != name:
                acc = acc + coeff * KnownPoly.symbol(rest.field, other)
        expr = acc * (-inv)
        mapping = {name: expr}
        eqs = [e.substitute(mapping) for j, e in enumerate(eqs) if j != idx]
        eqs = [e for e in eqs if e]
        solved = {k: v.substitute(mapping) for k, v in solved.items()}
        solved[name] = expr
        remaining.discard(name)
    stray = [e for e in eqs if any(n in e.symbols() for n in names)]
    if stray:
        raise InconsistentSystemError("ansatz labels survive their elimination")
    return solved, eqs


def rref(rows: Sequence[KnownPoly]) -> List[KnownPoly]:
    """Reduced row echelon form of the span of the rows, with the label
    monomials as columns in canonical order and every leading coefficient
    scaled to one.  The output depends only on the span, so it is the
    canonical form used for constraint comparison.  Each pivot is the first
    remaining row holding its column; its entry is a unit by the mirror
    grading, so every row ends as a pivot row or cancels."""
    work = [dict(r.terms) for r in rows if r]
    columns = sorted({key for row in work for key in row}, key=_column_key)
    done: List[Dict] = []
    for col in columns:
        pivot = next((row for row in work if col in row), None)
        if pivot is None:
            continue
        inv = pivot[col].inv()
        work.remove(pivot)
        pivot = {k: v * inv for k, v in pivot.items()}
        for rows_set in (work, done):
            for row in rows_set:
                f = row.get(col)
                if f is None:
                    continue
                for k, v in pivot.items():
                    accumulate(row, k, -(f * v))
        done.append(pivot)
        work = [row for row in work if row]
    return [KnownPoly(rows[0].field, terms) for terms in done]


# --- problem assembly -------------------------------------------------------------


def _lifted(poly: DiffPolynomial) -> DiffPolynomial:
    return poly.map_coeffs(lambda ce: KnownPoly.constant(ce.field, ce))


def _filled(basis: LabeledBasis, values: Dict[str, CoeffElement], field: CoeffField):
    return {name: values.get(name, field.zero) for name in basis.labels}


def _order7_problem(engine_report, hier: FlowHierarchy) -> CompatibilityProblem:
    """The order-7 problem on the second field: the first field follows its
    t2 and t3 flows, the second field its linearized flows plus the t2
    forcing (labels a1..a3, valued by the report's f_t2) and the t3
    correction, which is the unknown ansatz (labels b1..b6)."""
    field = engine_report.field
    alpha1 = engine_report.alphas[1]
    beta3 = engine_report.betas[3]
    rules = EvolutionRules(one=KnownPoly.constant(field, field.one))
    rules.set("phi", 1, 2, _lifted(hier.flow(2, alpha1)))
    rules.set("phi", 1, 3, _lifted(hier.flow(3, beta3)))
    for j, norm, basis in ((2, alpha1, T2_SECOND), (3, beta3, T3_SECOND)):
        linear = _lifted(hier.linearized(j, norm, "phi", 2))
        rules.set("phi", 2, j, linear + basis.ansatz(field))
    return CompatibilityProblem(
        variant="potential",
        target=FieldSymbol("phi", 2),
        known_values=_filled(T2_SECOND, engine_report.forcings["f_t2"].coefficients, field),
        ansatz_basis=T3_SECOND,
        evolution_rules=rules,
    )


def _t3_correction(problem: CompatibilityProblem) -> Dict[str, KnownPoly]:
    """The t3-correction labels solved from the order-7 problem, which must
    leave no constraint on the known t2 forcing."""
    report = solve_compatibility(problem)
    if report.residual_constraints:
        raise InconsistentSystemError("the order-7 ansatz is already constrained")
    return report.solved_coefficients


def build_problem(engine_report, order: int) -> CompatibilityProblem:
    """Assemble the commutation problem at order 7 or 9 from a completed
    reduction.  Order seven always lives in the potential variant; order
    nine follows the variant the reduction itself selected."""
    field = engine_report.field
    alpha1 = engine_report.alphas[1]
    beta3 = engine_report.betas[3]
    hier = FlowHierarchy(alpha1, engine_report.alphas[2])
    problem = _order7_problem(engine_report, hier)
    if order == 7:
        return problem

    f_t3_solved = T3_SECOND.polynomial(_t3_correction(build_problem(engine_report, 7)))
    rules = problem.evolution_rules
    rules.set("phi", 2, 3, _lifted(hier.linearized(3, beta3, "phi", 2)) + f_t3_solved)

    variant = engine_report.variant
    kind, third, name = NINTH_ORDER[variant]
    ansatz_basis = LabeledBasis("q", third.weight + 2, third.grading, 2)
    known_values = problem.known_values
    known_values.update(_filled(third, engine_report.forcings[name].coefficients, field))
    if kind == "vphi":
        # the kdv problem lives on the derivative fields alone
        rules = EvolutionRules(one=rules.one)
        for j, norm, forcing in ((2, alpha1, T2_SECOND.ansatz(field)), (3, beta3, f_t3_solved)):
            rules.set("vphi", 1, j, _lifted(hier.kdv_flow(j, norm)))
            linear = _lifted(hier.linearized(j, norm, "vphi", 2))
            rules.set("vphi", 2, j, linear + forcing.d_x().rename_to_kdv())
    for j, norm, basis in ((2, alpha1, third), (3, beta3, ansatz_basis)):
        linear = _lifted(hier.linearized(j, norm, kind, 3))
        rules.set(kind, 3, j, linear + basis.ansatz(field))

    return CompatibilityProblem(
        variant=variant,
        target=FieldSymbol(kind, 3),
        known_values=known_values,
        ansatz_basis=ansatz_basis,
        evolution_rules=rules,
    )


# --- solve and verdict -------------------------------------------------------------


def commutator_equations(problem: CompatibilityProblem) -> List[KnownPoly]:
    """Per-monomial coefficients of d_{t3}(t2 rule) - d_{t2}(t3 rule) on the
    target field; each must vanish.  MissingEvolutionError when a field of
    either rule has no rule for the other slow time."""
    rules = problem.evolution_rules
    r2 = rules.get(problem.target, 2)
    r3 = rules.get(problem.target, 3)
    e = time_derivative(r2, 3, rules) - time_derivative(r3, 2, rules)
    missing = e.tagged_unknowns()
    if missing:
        raise MissingEvolutionError(f"no evolution rule for {missing[0].name()}")
    return [coeff for _, coeff in sorted(e.terms.items())]


def solve_compatibility(problem: CompatibilityProblem) -> CompatibilityReport:
    equations = commutator_equations(problem)
    solved, leftovers = eliminate_unknowns(equations, problem.ansatz_basis.labels)
    constraints = rref([strip_content(e) for e in leftovers])
    constraints = rref([strip_content(c) for c in constraints])
    evaluated = [c.evaluate(problem.known_values) for c in constraints]
    witness = None
    for c, value in zip(constraints, evaluated):
        if value:
            witness = f"{c.text()} evaluates to {value.text()}"
            break
    return CompatibilityReport(
        variant=problem.variant,
        solved_coefficients=solved,
        residual_constraints=constraints,
        evaluated=evaluated,
        verdict="PASS" if witness is None else "FAIL",
        witness=witness,
    )


def solve_t3_correction(engine_report) -> Dict[str, CoeffElement]:
    """Numeric t3-correction coefficients for the second field, used by the
    reduction to continue past the eighth order: the symbolic commutation
    solve evaluated at the computed t2-forcing."""
    # its own hierarchy: reusing the report's would skip one division
    # alpha2 / alpha1, which the recorded benchmark counts include
    hier = FlowHierarchy(engine_report.alphas[1], engine_report.alphas[2])
    problem = _order7_problem(engine_report, hier)
    return {
        name: expr.evaluate(problem.known_values)
        for name, expr in _t3_correction(problem).items()
    }
