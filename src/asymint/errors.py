"""Exception taxonomy shared across the package.

Every failure mode that carries mathematical meaning gets its own class, so
callers (and tests) can distinguish "you fed me garbage" from "the algebra
genuinely obstructs this step".
"""


class AsymintError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AsymintError):
    """A numeric evaluation was requested outside the valid parameter range."""


class ZeroInverse(AsymintError):
    """Inversion of zero, or of a zero divisor of the scalar ring."""


class GradingError(AsymintError):
    """A differential monomial violates the active grading conventions."""


class NonLocalError(AsymintError):
    """An antiderivative does not exist inside the differential algebra."""


class MissingEvolutionError(AsymintError):
    """A commutator still carries a tagged leaf: a field with no evolution rule."""


class ExpansionPointError(AsymintError):
    """The fast-phase baseline failed to cancel where it must."""


class SecularResidueError(AsymintError):
    """Un-removable secular terms survived an order of the reduction."""


class InconsistentSystemError(AsymintError):
    """A linear system over the scalar ring has no solution, or elimination
    would require inverting a non-unit."""


class InsufficientSamples(AsymintError):
    """A sequence is too short for the requested finite-difference window."""


class StabilityError(AsymintError):
    """A numeric integration produced non-finite values."""
