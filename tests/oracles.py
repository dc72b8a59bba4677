"""Reference implementations that tests compare the package against.

None of these runs in a command, so they live beside the tests: a parser
for the canonical coefficient text, the h-specialisation and the c -> -c
involution of the scalar ring, the Lie bracket of two flows, the
traveling-wave residual, and the graded weight of a monomial.
"""

import ast
from fractions import Fraction

from asymint.diffpoly import DiffPolynomial, Monomial, factor_weight
from asymint.errors import ZeroInverse
from asymint.field import CoeffElement, CoeffField, RatFunc
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
    if value.is_zero():
        return SechPoly(poly.field)
    return SechPoly(poly.field, {k: v * value for k, v in poly.terms.items()})


def soliton_residual(flow2: DiffPolynomial, field: CoeffField, data: SolitonData) -> SechPoly:
    """The traveling-wave equation evaluated at the given data; no terms
    when the data close the ansatz exactly."""
    linear, quadratic = _soliton_parts(flow2, field, data.width)
    total = _scale(linear, data.amplitude) + _scale(quadratic, data.amplitude * data.amplitude)
    drive = SechPoly(field, {(1, 0): data.speed * data.amplitude})
    return total + drive


def monomial_weight(m: Monomial, grading: str) -> int:
    """Graded weight of a monomial: the sum of its factor weights."""
    return sum(factor_weight(sym, ell, grading) for sym, ell in m)
