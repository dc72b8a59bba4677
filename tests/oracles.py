"""Reference implementations that tests compare the package against.

None of these runs in a command, so they live beside the tests: a parser
for the canonical coefficient text, the h-specialisation and the c -> -c
involution of the scalar ring, the Lie bracket of two flows, the
traveling-wave residual, the graded weight of a factor and of a monomial
(with the GradingError checks that say which factors are gradable), the
two Stirling triangles built by their recurrences, the gap of a difference
re-expansion taken one Fraction step at a time, and the substitution of
names in a KnownPoly through its ring operations, with a recorder of the
scalar calls (RatFunc multiplies and pgcd) that a block makes.  The package
computes the graded bases and the difference re-expansion in closed form
and in integers, and substitutes on plain term maps, so these share no code
with what they check.
"""

import ast
import contextlib
from fractions import Fraction
from math import comb, factorial

from asymint import _polyops
from asymint.diffpoly import DiffPolynomial, FieldSymbol, Monomial, accumulate
from asymint.errors import GradingError, ZeroInverse
from asymint.field import CoeffElement, CoeffField, RatFunc
from asymint.knowns import KnownPoly
from asymint.lattice import SechPoly, SolitonData, _soliton_parts


# --- scalar ring -------------------------------------------------------------------


def parse(field: CoeffField, text: str) -> CoeffElement:
    """Parse the canonical coefficient grammar, e.g.
    '(3 - 17*h^2)/64 + (0)*c'.  Any +,-,*,/,^ expression in h and c with
    integer literals is accepted."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        return _from_ast(field, tree.body)
    except (SyntaxError, ValueError, ZeroDivisionError, ZeroInverse) as exc:
        raise ValueError(f"not a valid coefficient expression: {text!r}") from exc


def _from_ast(field: CoeffField, node) -> CoeffElement:
    if isinstance(node, ast.BinOp):
        left = _from_ast(field, node.left)
        if isinstance(node.op, ast.Pow):
            if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)):
                raise ValueError("exponent must be an integer literal")
            return left ** node.right.value
        right = _from_ast(field, node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        raise ValueError(f"unsupported operator {type(node.op).__name__}")
    if isinstance(node, ast.UnaryOp):
        operand = _from_ast(field, node.operand)
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.UAdd):
            return operand
        raise ValueError(f"unsupported operator {type(node.op).__name__}")
    if isinstance(node, ast.Name):
        if node.id == "h":
            return field.h
        if node.id == "c":
            return field.c
        raise ValueError(f"unknown symbol {node.id!r}")
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return field.from_fraction(node.value)
    raise ValueError(f"unsupported syntax {type(node).__name__}")


def pinned_field(field: CoeffField, h_value: Fraction) -> CoeffField:
    """The same model branch with h pinned to an exact rational."""
    if field.h_value is not None:
        raise ValueError("field is already specialised")
    return CoeffField(field.s, h_value=Fraction(h_value))


def specialize(x: CoeffElement, target: CoeffField) -> CoeffElement:
    """Image of x in a field with h pinned; exact, and denominator-checked."""
    if target.s != x.field.s:
        raise ValueError("cannot change the model branch s")
    if target.h_value is None:
        raise ValueError("target field must have h pinned")
    h = target.h_value
    return CoeffElement(
        target,
        RatFunc.from_fraction(x.even.eval(h)),
        RatFunc.from_fraction(x.odd.eval(h)),
    )


def conjugate(x: CoeffElement) -> CoeffElement:
    """The c -> -c involution."""
    return CoeffElement(x.field, x.even, -x.odd)


# --- flows and profiles ------------------------------------------------------------


def flow_commutator(p: DiffPolynomial, q: DiffPolynomial, kind: str) -> DiffPolynomial:
    """Lie bracket p'[q] - q'[p] of two evolutionary flows on one field."""
    return p.linearize(kind, q) - q.linearize(kind, p)


def _scale(poly: SechPoly, value: CoeffElement) -> SechPoly:
    if not value:
        return SechPoly(poly.field)
    return SechPoly(poly.field, {k: v * value for k, v in poly.terms.items()})


def soliton_residual(flow2: DiffPolynomial, field: CoeffField, data: SolitonData) -> SechPoly:
    """The traveling-wave equation evaluated at the given data; no terms
    when the data close the ansatz exactly."""
    linear, quadratic = _soliton_parts(flow2, field, data.width)
    total = _scale(linear, data.amplitude) + _scale(quadratic, data.amplitude * data.amplitude)
    drive = SechPoly(field, {(1, 0): data.speed * data.amplitude})
    return total + drive


# --- graded weights ----------------------------------------------------------------


def factor_weight(sym: FieldSymbol, ell: int, grading: str) -> int:
    """Grading weight of d^ell X; GradingError when X is outside the graded
    algebra for that variant."""
    if sym.times:
        raise GradingError(f"tagged symbol {sym.name()} is not gradable")
    if grading == "potential":
        if sym.kind != "phi" or ell < 1:
            raise GradingError(f"D[{ell}]{{{sym.name()}}} is not a potential-grading factor")
        return ell + 2 * sym.index - 1
    if grading == "kdv":
        if sym.kind != "vphi" or ell < 0:
            raise GradingError(f"D[{ell}]{{{sym.name()}}} is not a kdv-grading factor")
        return ell + 2 * sym.index
    raise ValueError(f"unknown grading {grading!r}")


def monomial_weight(m: Monomial, grading: str) -> int:
    """Graded weight of a monomial: the sum of its factor weights."""
    return sum(factor_weight(sym, ell, grading) for sym, ell in m)


# --- Stirling triangles ------------------------------------------------------------


def _first_row(i: int) -> tuple:
    # coefficients of x(x-1)...(x-i+1) in powers of x
    row = (1,)
    for n in range(i):
        nxt = [0] * (n + 2)
        for k, v in enumerate(row):
            nxt[k + 1] += v
            nxt[k] -= n * v
        row = tuple(nxt)
    return row


def _second_row(k: int) -> tuple:
    row = (1,)
    for n in range(1, k + 1):
        nxt = [0] * (n + 1)
        for j, v in enumerate(row):
            nxt[j] += j * v
            nxt[j + 1] += v
        row = tuple(nxt)
    return row


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


def stirling_coefficients(j: int, omega: Fraction, top: int) -> dict:
    """Coarse-to-fine re-expansion coefficients for i in [j, top] from the
    Stirling form (j!/i!) sum_k omega^k s(i, k) S(k, j)."""
    return {
        i: Fraction(factorial(j), factorial(i))
        * sum(omega**k * stirling_first(i, k) * stirling_second(k, j) for k in range(j, i + 1))
        for i in range(j, top + 1)
    }


def _difference(samples, base: int, order: int, stride: int):
    total = 0
    for r in range(order + 1):
        term = samples[base + r * stride]
        total = total + (-1) ** (order - r) * comb(order, r) * term
    return total


def verify_by_fractions(exp, samples, step=1):
    """Largest gap between the coarse difference and its fine expansion, one
    Fraction per arithmetic step, over every base point the window covers."""
    fine, coarse = int(1 / Fraction(step)), int(exp.omega / Fraction(step))
    max_i = max(exp.coefficients, default=exp.target_order)
    span = max(exp.target_order * coarse, max_i * fine)
    samples = [Fraction(x) for x in samples]
    worst = Fraction(0)
    for base in range(len(samples) - span):
        left = _difference(samples, base, exp.target_order, coarse)
        right = sum(
            coeff * _difference(samples, base, i, fine)
            for i, coeff in exp.coefficients.items()
        )
        worst = max(worst, abs(left - right))
    return worst


# --- substitution in forcing coefficients ------------------------------------------


def substitute_by_ring_ops(poly: KnownPoly, mapping: dict) -> KnownPoly:
    """poly with each mapped name replaced, term by term as
    constant(coeff) * base * base * ..., one KnownPoly product per unit of
    power, an unmapped name multiplying in as its own symbol; the products
    are summed in term order."""
    acc = {}
    for key, coeff in poly.terms.items():
        term = KnownPoly.constant(poly.field, coeff)
        for name, power in key:
            base = mapping.get(name)
            if base is None:
                base = KnownPoly.symbol(poly.field, name)
            for _ in range(power):
                term = term * base
        for k, c in term.terms.items():
            accumulate(acc, k, c)
    return KnownPoly(poly.field, acc)


@contextlib.contextmanager
def scalar_calls():
    """Records the operands of every RatFunc multiply and pgcd call made in
    the block, in call order; both are restored on exit."""
    calls = []
    mul, pgcd = RatFunc.__mul__, _polyops.pgcd

    def counted_mul(a, b):
        calls.append(("mul", a.num, a.den, b.num, b.den))
        return mul(a, b)

    def counted_pgcd(a, b):
        calls.append(("pgcd", a, b))
        return pgcd(a, b)

    RatFunc.__mul__, _polyops.pgcd = counted_mul, counted_pgcd
    try:
        yield calls
    finally:
        RatFunc.__mul__, _polyops.pgcd = mul, pgcd
