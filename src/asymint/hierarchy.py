"""Integrable flow hierarchies generated by a second-order recursion operator.

The potential flows act on phi1 and are built as K_j = beta_j * Int L^(j-1)
applied to d^2 phi1, where L[f] = d^2 f + (4 alpha2 / 3 alpha1) dphi1 f
+ (2 alpha2 / 3 alpha1) d^2 phi1 Int f.  Each application raises the graded
weight by two, and every intermediate integrand is an exact derivative, so
the flows stay inside the differential algebra.  The companion flows H_j on
the derivative field vphi1 are d_x K_j with d^ell phi1 renamed to
d^(ell-1) vphi1.
"""

from __future__ import annotations

from fractions import Fraction

from .diffpoly import DiffPolynomial, FieldSymbol
from .field import CoeffElement

_PHI1 = FieldSymbol("phi", 1)


class FlowHierarchy:
    """All flows and linearizations for one pair of weight-4 coefficients."""

    __slots__ = ("field", "_ratio", "_dphi", "_d2phi")

    def __init__(self, alpha1: CoeffElement, alpha2: CoeffElement):
        if not alpha1:
            raise ValueError("the dispersive coefficient must be invertible")
        self.field = alpha1.field
        self._ratio = alpha2 / alpha1
        one = self.field.one
        self._dphi = DiffPolynomial.leaf(_PHI1, 1, one)
        self._d2phi = DiffPolynomial.leaf(_PHI1, 2, one)

    def recursion(self, f: DiffPolynomial) -> DiffPolynomial:
        """One application of the recursion operator L."""
        out = f.d_x(2)
        out = out + (self._dphi * f).scale(self._ratio * Fraction(4, 3))
        out = out + (self._d2phi * f.integrate_x()).scale(self._ratio * Fraction(2, 3))
        return out

    def flow(self, j: int, beta) -> DiffPolynomial:
        """K_j for the given normalization beta_j (beta_2 = alpha1 gives the
        weight-4 flow alpha1 d^3 phi1 + alpha2 (dphi1)^2)."""
        if j < 1:
            raise ValueError("flow index must be positive")
        cur = self._d2phi
        for _ in range(j - 1):
            cur = self.recursion(cur)
        return cur.integrate_x().scale(beta)

    def kdv_flow(self, j: int, beta) -> DiffPolynomial:
        """H_j, the same flow written for the derivative field vphi1."""
        return self.flow(j, beta).d_x().rename_to_kdv()

    def linearized(self, j: int, beta, kind: str, index: int) -> DiffPolynomial:
        """The j-th linearized flow applied to the correction field
        (kind, index): K_j' on a phi field, H_j' on a vphi field."""
        flow = self.kdv_flow(j, beta) if kind == "vphi" else self.flow(j, beta)
        target = DiffPolynomial.leaf(FieldSymbol(kind, index), 0, self.field.one)
        return flow.linearize(kind, target)
