"""Sparse multivariate polynomials in named forcing coefficients.

The compatibility analysis treats forcing coefficients (a1..a3, c1..c11,
d1..d14, and solver unknowns) as independent transcendentals over the scalar
ring.  A KnownPoly is a sparse sum of CoeffElement coefficients times power
products of such names.  It plugs into DiffPolynomial as a coefficient type:
ring operations, truthiness, text().
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple, Union

from .diffpoly import SparseSum, accumulate
from .errors import InconsistentSystemError
from .field import CoeffElement, CoeffField

PowKey = Tuple[Tuple[str, int], ...]  # sorted ((name, power), ...)
ScalarLike = Union[int, Fraction, CoeffElement]


class KnownPoly(SparseSum):
    __slots__ = ("field",)

    @staticmethod
    def _mul_key(a: PowKey, b: PowKey) -> PowKey:
        if not a or not b:
            return a or b
        acc: Dict[str, int] = {}
        for name, p in a + b:
            acc[name] = acc.get(name, 0) + p
        return tuple(sorted(acc.items()))

    def __init__(self, field: CoeffField, terms: Optional[Dict[PowKey, CoeffElement]] = None):
        self.field = field
        self.terms = terms if terms is not None else {}

    def _like(self, terms: Dict[PowKey, CoeffElement]) -> "KnownPoly":
        return KnownPoly(self.field, terms)

    # --- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, field: CoeffField, value: ScalarLike) -> "KnownPoly":
        elem = field.coerce(value)
        return cls(field, {(): elem} if elem else {})

    @classmethod
    def symbol(cls, field: CoeffField, name: str) -> "KnownPoly":
        return cls(field, {((name, 1),): field.one})

    def _operand(self, other) -> Optional["KnownPoly"]:
        """Scalars lift to constants; a KnownPoly over another field raises."""
        if isinstance(other, KnownPoly):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("KnownPoly operands use different fields")
            return other
        if isinstance(other, (int, Fraction, CoeffElement)):
            return KnownPoly.constant(self.field, other)
        return None

    # --- predicates -----------------------------------------------------------

    def symbols(self) -> Set[str]:
        return {name for key in self.terms for name, _ in key}

    # --- ring operations: a scalar operand of + or * may stand on either side --

    __radd__ = SparseSum.__add__
    __rmul__ = SparseSum.__mul__

    # --- substitution / evaluation ------------------------------------------------

    def substitute(self, mapping: Mapping[str, "KnownPoly"]) -> "KnownPoly":
        """Replace each mapped name by its polynomial, in one loop per term
        on a plain term map that starts as `{(): coeff}`.  The coefficient
        products, in order, are those of `constant(coeff) * base * ...`, so
        the exact scalar work is unchanged.  An unmapped name multiplies
        every coefficient of the map in place by `field.one` once per unit of
        power, as its symbol would, and is kept aside for the key; a mapped
        name expands the map through its base.  Each entry is added under its
        key times the kept names, or under the kept names when its key is ()."""
        field, mul_key = self.field, self._mul_key
        acc: Dict[PowKey, CoeffElement] = {}
        for key, coeff in self.terms.items():
            term: Dict[PowKey, CoeffElement] = {(): coeff} if coeff else {}
            kept: PowKey = ()
            for name, power in key:
                base = mapping.get(name)
                if base is None:
                    for _ in range(power):
                        for k in term:
                            term[k] = term[k] * field.one
                    kept += ((name, power),)
                    continue
                factor = self._operand(base).terms
                for _ in range(power):
                    prod: Dict[PowKey, CoeffElement] = {}
                    for k1, c1 in term.items():
                        for k2, c2 in factor.items():
                            accumulate(prod, mul_key(k1, k2), c1 * c2)
                    term = prod
            for k, c in term.items():
                accumulate(acc, mul_key(k, kept) if k else kept, c)
        return KnownPoly(field, acc)

    def evaluate(self, values: Mapping[str, CoeffElement]) -> CoeffElement:
        total = self.field.zero
        for key, coeff in self.terms.items():
            piece = coeff
            for name, power in key:
                piece = piece * values[name] ** power
            total = total + piece
        return total

    def split_linear(self, names: Iterable[str]) -> Tuple[Dict[str, "KnownPoly"], "KnownPoly"]:
        """Decompose as sum_i coeff_i * name_i + rest, requiring degree <= 1
        in the given names; coefficients and rest are free of them."""
        names = set(names)
        linear: Dict[str, Dict[PowKey, CoeffElement]] = {}
        rest: Dict[PowKey, CoeffElement] = {}
        for key, coeff in self.terms.items():
            present = [(n, p) for n, p in key if n in names]
            if not present:
                accumulate(rest, key, coeff)
            elif len(present) == 1 and present[0][1] == 1:
                name = present[0][0]
                reduced = tuple((n, p) for n, p in key if n != name)
                accumulate(linear.setdefault(name, {}), reduced, coeff)
            else:
                raise InconsistentSystemError(
                    f"term {self._term_text(key, coeff)} is nonlinear in {sorted(names)}"
                )
        return (
            {name: KnownPoly(self.field, terms) for name, terms in linear.items()},
            KnownPoly(self.field, rest),
        )

    # --- display --------------------------------------------------------------------

    @staticmethod
    def _term_text(key: PowKey, coeff: CoeffElement) -> str:
        body = "*".join(n if p == 1 else f"{n}^{p}" for n, p in key)
        return f"({coeff.text()})" + (f"*{body}" if body else "")

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_text(k, self.terms[k]) for k in sorted(self.terms))

    def __repr__(self) -> str:
        return f"<KnownPoly {self.text()}>"
