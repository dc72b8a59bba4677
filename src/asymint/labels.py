"""Canonical labeled bases for the slow-time correction polynomials.

Each correction entering an evolution rule (the non-homogeneous part beside
the linearized flow) lives in one graded space and is reported through a
fixed label order.  The engine emits coefficient maps keyed by these labels
and the compatibility analysis states its constraints in them, so the order
is part of the output contract and is frozen here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .diffpoly import DiffPolynomial, Monomial, enumerate_basis, mono, monomial_text
from .errors import GradingError
from .field import CoeffField
from .knowns import KnownPoly


class LabeledBasis:
    """A graded monomial basis with one name per monomial, in display order.

    Without pairs the monomials are named prefix1..n in enumeration order;
    given pairs, they are the graded space's frozen table, which
    tests/test_labels.py checks names every monomial of the space once."""

    __slots__ = ("weight", "grading", "max_index", "pairs")

    def __init__(self, prefix: str, weight: int, grading: str, max_index: int,
                 pairs: Optional[Tuple[Tuple[str, Monomial], ...]] = None):
        if pairs is None:
            space = enumerate_basis(weight, grading, max_index)
            pairs = tuple((f"{prefix}{i + 1}", m) for i, m in enumerate(space))
        self.weight = weight
        self.grading = grading
        self.max_index = max_index
        self.pairs = pairs

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.pairs)

    @property
    def space(self) -> str:
        """Name of the graded space, as reported beside a forcing."""
        return f"P_{self.weight}^({self.max_index}) {self.grading}"

    def polynomial(self, values: Mapping[str, object]) -> DiffPolynomial:
        """Each labeled monomial, in display order, with its nonzero value."""
        return DiffPolynomial({m: v for name, m in self.pairs if (v := values[name])})

    def ansatz(self, field: CoeffField) -> DiffPolynomial:
        """The generic element, with one symbolic coefficient per monomial."""
        return self.polynomial({name: KnownPoly.symbol(field, name) for name in self.labels})

    def express(self, poly: DiffPolynomial) -> Dict[str, object]:
        """Coefficient-by-label map; GradingError on stray monomials."""
        names = {m: name for name, m in self.pairs}
        for m in poly.terms:
            if m not in names:
                raise GradingError(f"monomial {monomial_text(m)} outside the labeled basis")
        return {names[m]: coeff for m, coeff in poly.terms.items()}


T2_SECOND = LabeledBasis(
    "a", 6, "potential", 1,
    (
        ("a1", mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1))),
        ("a2", mono(("phi", 1, 1), ("phi", 1, 3))),
        ("a3", mono(("phi", 1, 2), ("phi", 1, 2))),
    ),
)

T3_SECOND = LabeledBasis(
    "b", 8, "potential", 1,
    (
        ("b1", mono(("phi", 1, 1), ("phi", 1, 2), ("phi", 1, 2))),
        ("b2", mono(("phi", 1, 1), ("phi", 1, 5))),
        ("b3", mono(("phi", 1, 2), ("phi", 1, 4))),
        ("b4", mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1))),
        ("b5", mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 3))),
        ("b6", mono(("phi", 1, 3), ("phi", 1, 3))),
    ),
)

T2_THIRD = LabeledBasis(
    "c", 8, "potential", 2,
    (
        ("c1", mono(("phi", 1, 3), ("phi", 1, 3))),
        ("c2", mono(("phi", 1, 2), ("phi", 1, 4))),
        ("c3", mono(("phi", 1, 1), ("phi", 1, 5))),
        ("c4", mono(("phi", 1, 1), ("phi", 1, 2), ("phi", 1, 2))),
        ("c5", mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 3))),
        ("c6", mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1))),
        ("c7", mono(("phi", 1, 1), ("phi", 2, 3))),
        ("c8", mono(("phi", 1, 2), ("phi", 2, 2))),
        ("c9", mono(("phi", 1, 3), ("phi", 2, 1))),
        ("c10", mono(("phi", 1, 1), ("phi", 1, 1), ("phi", 2, 1))),
        ("c11", mono(("phi", 2, 1), ("phi", 2, 1))),
    ),
)

T2_THIRD_KDV = LabeledBasis(
    "d", 9, "kdv", 2,
    (
        ("d1", mono(("vphi", 1, 2), ("vphi", 1, 3))),
        ("d2", mono(("vphi", 1, 1), ("vphi", 1, 4))),
        ("d3", mono(("vphi", 1, 0), ("vphi", 1, 5))),
        ("d4", mono(("vphi", 1, 1), ("vphi", 1, 1), ("vphi", 1, 1))),
        ("d5", mono(("vphi", 1, 0), ("vphi", 1, 1), ("vphi", 1, 2))),
        ("d6", mono(("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 1, 3))),
        ("d7", mono(("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 1, 1))),
        ("d8", mono(("vphi", 1, 0), ("vphi", 2, 3))),
        ("d9", mono(("vphi", 1, 1), ("vphi", 2, 2))),
        ("d10", mono(("vphi", 1, 2), ("vphi", 2, 1))),
        ("d11", mono(("vphi", 1, 3), ("vphi", 2, 0))),
        ("d12", mono(("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 2, 1))),
        ("d13", mono(("vphi", 1, 0), ("vphi", 1, 1), ("vphi", 2, 0))),
        ("d14", mono(("vphi", 2, 0), ("vphi", 2, 1))),
    ),
)

# Per ninth-order variant: the field kind of the t2 forcing on the third
# correction field, its labeled basis, and its name in the reduction report.
NINTH_ORDER = {"potential": ("phi", T2_THIRD, "h_t2"), "kdv": ("vphi", T2_THIRD_KDV, "g_t2")}
