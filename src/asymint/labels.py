"""Canonical labeled bases for the slow-time correction polynomials.

Each correction entering an evolution rule (the non-homogeneous part beside
the linearized flow) lives in one graded space and is reported through a
fixed label order.  The engine emits coefficient maps keyed by these labels
and the compatibility analysis states its constraints in them, so the order
is part of the output contract and is frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .diffpoly import DiffPolynomial, Monomial, enumerate_basis, mono, monomial_text
from .errors import GradingError
from .field import CoeffField
from .knowns import KnownPoly


@dataclass(frozen=True)
class LabeledBasis:
    """A graded monomial basis with one name per monomial, in display order."""

    prefix: str
    weight: int
    grading: str
    max_index: int
    pairs: Tuple[Tuple[str, Monomial], ...]

    def __post_init__(self):
        space = enumerate_basis(self.weight, self.grading, self.max_index)
        if set(m for _, m in self.pairs) != set(space) or len(self.pairs) != len(space):
            raise GradingError(
                f"label table {self.prefix} does not enumerate the graded space"
            )

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.pairs)

    @property
    def space(self) -> str:
        """Name of the graded space, as reported beside a forcing."""
        return f"P_{self.weight}^({self.max_index}) {self.grading}"

    def label_of(self, m: Monomial) -> str:
        for name, mm in self.pairs:
            if mm == m:
                return name
        raise GradingError(f"monomial {monomial_text(m)} outside the labeled basis")

    def ansatz(self, field: CoeffField) -> DiffPolynomial:
        """The generic element, with one symbolic coefficient per monomial."""
        return DiffPolynomial(
            {m: KnownPoly.symbol(field, name) for name, m in self.pairs}
        )

    def express(self, poly: DiffPolynomial) -> Dict[str, object]:
        """Coefficient-by-label map; GradingError on stray monomials."""
        out: Dict[str, object] = {}
        for m, coeff in poly.terms.items():
            out[self.label_of(m)] = coeff
        return out


def _p(*fs):
    return mono(*fs)


T2_SECOND = LabeledBasis(
    "a", 6, "potential", 1,
    (
        ("a1", _p(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1))),
        ("a2", _p(("phi", 1, 1), ("phi", 1, 3))),
        ("a3", _p(("phi", 1, 2), ("phi", 1, 2))),
    ),
)

T3_SECOND = LabeledBasis(
    "b", 8, "potential", 1,
    (
        ("b1", _p(("phi", 1, 1), ("phi", 1, 2), ("phi", 1, 2))),
        ("b2", _p(("phi", 1, 1), ("phi", 1, 5))),
        ("b3", _p(("phi", 1, 2), ("phi", 1, 4))),
        ("b4", _p(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1))),
        ("b5", _p(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 3))),
        ("b6", _p(("phi", 1, 3), ("phi", 1, 3))),
    ),
)

T2_THIRD = LabeledBasis(
    "c", 8, "potential", 2,
    (
        ("c1", _p(("phi", 1, 3), ("phi", 1, 3))),
        ("c2", _p(("phi", 1, 2), ("phi", 1, 4))),
        ("c3", _p(("phi", 1, 1), ("phi", 1, 5))),
        ("c4", _p(("phi", 1, 1), ("phi", 1, 2), ("phi", 1, 2))),
        ("c5", _p(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 3))),
        ("c6", _p(("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1), ("phi", 1, 1))),
        ("c7", _p(("phi", 1, 1), ("phi", 2, 3))),
        ("c8", _p(("phi", 1, 2), ("phi", 2, 2))),
        ("c9", _p(("phi", 1, 3), ("phi", 2, 1))),
        ("c10", _p(("phi", 1, 1), ("phi", 1, 1), ("phi", 2, 1))),
        ("c11", _p(("phi", 2, 1), ("phi", 2, 1))),
    ),
)

T2_THIRD_KDV = LabeledBasis(
    "d", 9, "kdv", 2,
    (
        ("d1", _p(("vphi", 1, 2), ("vphi", 1, 3))),
        ("d2", _p(("vphi", 1, 1), ("vphi", 1, 4))),
        ("d3", _p(("vphi", 1, 0), ("vphi", 1, 5))),
        ("d4", _p(("vphi", 1, 1), ("vphi", 1, 1), ("vphi", 1, 1))),
        ("d5", _p(("vphi", 1, 0), ("vphi", 1, 1), ("vphi", 1, 2))),
        ("d6", _p(("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 1, 3))),
        ("d7", _p(("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 1, 1))),
        ("d8", _p(("vphi", 1, 0), ("vphi", 2, 3))),
        ("d9", _p(("vphi", 1, 1), ("vphi", 2, 2))),
        ("d10", _p(("vphi", 1, 2), ("vphi", 2, 1))),
        ("d11", _p(("vphi", 1, 3), ("vphi", 2, 0))),
        ("d12", _p(("vphi", 1, 0), ("vphi", 1, 0), ("vphi", 2, 1))),
        ("d13", _p(("vphi", 1, 0), ("vphi", 1, 1), ("vphi", 2, 0))),
        ("d14", _p(("vphi", 2, 0), ("vphi", 2, 1))),
    ),
)

# Per ninth-order variant: the field kind of the t2 forcing on the third
# correction field, its labeled basis, and its name in the reduction report.
NINTH_ORDER = {"potential": ("phi", T2_THIRD, "h_t2"), "kdv": ("vphi", T2_THIRD_KDV, "g_t2")}


def generic_basis(prefix: str, weight: int, grading: str, max_index: int) -> LabeledBasis:
    """Enumeration-ordered labels for spaces without a frozen display order."""
    space = enumerate_basis(weight, grading, max_index)
    pairs = tuple((f"{prefix}{i + 1}", m) for i, m in enumerate(space))
    return LabeledBasis(prefix, weight, grading, max_index, pairs)
