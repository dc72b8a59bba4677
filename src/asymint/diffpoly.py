"""Differential polynomials in the multiscale correction fields.

A monomial is a multiset of factors d^ell X where X is a field symbol:
phi{j} (potential corrections), vphi{j} (their x-derivative fields), nu{j}
(amplitude corrections) or tau (the phase baseline: shift(phi) - phi cancels
it, so no time derivative meets it).  Symbols may carry pending slow-time tags:
a tag multiset (2, 3) on phi1 means d_{t_2} d_{t_3} phi1 awaiting a rule.

Coefficients are duck-typed: anything with ring operations, truthiness for
zero-testing and a text() method works (CoeffElement for the reduction,
sparse polynomials in forcing symbols for the compatibility analysis).

accumulate() is the one routine that adds a coefficient into a sparse term
map, here and in the knowns, compatibility, reduction and lattice modules:
every sum is built in place in one dict, term by term, and wrapped once.
SparseSum holds the arithmetic that DiffPolynomial shares with the sparse
sums of the other modules (KnownPoly, SechPoly, EpsSeries).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import GradingError, NonLocalError


class FieldSymbol(NamedTuple):
    """One correction field, optionally carrying pending slow-time tags.
    Immutable; hashes, compares and sorts as its (kind, index, times) tuple."""

    kind: str
    index: int = 1
    times: Tuple[int, ...] = ()

    def tagged(self, m: int) -> "FieldSymbol":
        return FieldSymbol(self.kind, self.index, tuple(sorted(self.times + (m,))))

    def name(self) -> str:
        tag = "" if not self.times else "_t" + "".join(str(m) for m in self.times)
        return f"{self.kind}{self.index}{tag}"


Factor = Tuple[FieldSymbol, int]  # (symbol, number of x-derivatives)
Monomial = Tuple[Factor, ...]


def mono(*factors: Tuple[str, int, int]) -> Monomial:
    """Monomial from (kind, index, ell) triples, e.g. mono(('phi',1,2))."""
    return tuple(sorted((FieldSymbol(k, j), ell) for (k, j, ell) in factors))


def monomial_text(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(sym.name() if ell == 0 else f"D[{ell}]{{{sym.name()}}}" for sym, ell in m)


def accumulate(acc: Dict, key, coeff) -> None:
    """Add coeff into the sparse term map acc at key, in place; the one
    place where a coefficient is added into a term map.

    Truthiness is the zero test: a zero coeff is not stored, and a sum that
    cancels deletes its key.  Insertion order is kept, so a key that cancels
    and comes back goes to the end, exactly as `a + b` places it.  The
    exact scalar work (pgcd and rational-function multiply counts) depends
    on the order in which terms are added, so sums are built in place
    through this function in their original order."""
    cur = acc.get(key)
    if cur is None:
        if coeff:
            acc[key] = coeff
    else:
        new = cur + coeff
        if new:
            acc[key] = new
        else:
            del acc[key]


class SparseSum:
    """A sparse sum: `terms` maps a key to a nonzero coefficient.

    The one home of the arithmetic that every sparse sum shares: the zero
    test, equality, addition, negation, subtraction, and a product that
    multiplies every pair of terms and files it under the key `_mul_key`
    gives.  A subclass says which operands it takes (`_operand`), how it
    is rebuilt around a new term map (`_like`) and, for the shared product,
    how two keys combine; a subclass whose product follows another rule
    defines its own `__mul__`."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict] = None):
        self.terms = terms if terms is not None else {}

    def _like(self, terms: Dict) -> "SparseSum":
        return type(self)(terms)

    def _operand(self, other) -> Optional["SparseSum"]:
        """other as an operand of this sum, or None when it is not one."""
        return other if isinstance(other, type(self)) else None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for key, coeff in o.terms.items():
            accumulate(acc, key, coeff)
        return self._like(acc)

    def __neg__(self):
        return self._like({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        key = self._mul_key
        acc: Dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in o.terms.items():
                accumulate(acc, key(k1, k2), c1 * c2)
        return self._like(acc)


class DiffPolynomial(SparseSum):
    """Finite sum of scalar coefficients times differential monomials."""

    __slots__ = ()

    @staticmethod
    def _mul_key(m1: Monomial, m2: Monomial) -> Monomial:
        return tuple(sorted(m1 + m2))

    @classmethod
    def constant(cls, coeff) -> "DiffPolynomial":
        return cls({(): coeff}) if coeff else cls({})

    @classmethod
    def leaf(cls, sym: FieldSymbol, ell: int, coeff) -> "DiffPolynomial":
        return cls({((sym, ell),): coeff}) if coeff else cls({})

    # --- ring structure ---------------------------------------------------

    def scale(self, scalar) -> "DiffPolynomial":
        if not scalar:
            return DiffPolynomial()
        return self.map_coeffs(lambda coeff: coeff * scalar)

    def mul_monomial(self, extra: Monomial) -> "DiffPolynomial":
        return DiffPolynomial({tuple(sorted(m + extra)): c for m, c in self.terms.items()})

    def map_coeffs(self, fn: Callable) -> "DiffPolynomial":
        acc = {}
        for m, coeff in self.terms.items():
            new = fn(coeff)
            if new:
                acc[m] = new
        return DiffPolynomial(acc)

    # --- calculus ----------------------------------------------------------

    def d_x(self, k: int = 1) -> "DiffPolynomial":
        out = self
        for _ in range(k):
            acc: Dict[Monomial, object] = {}
            for m, coeff in out.terms.items():
                for i, (sym, ell) in enumerate(m):
                    bumped = tuple(sorted(m[:i] + ((sym, ell + 1),) + m[i + 1:]))
                    accumulate(acc, bumped, coeff)
            out = DiffPolynomial(acc)
        return out

    def integrate_x(self) -> "DiffPolynomial":
        """Exact antiderivative within the differential algebra.

        Greedy peel of the leading monomial: the top term of any total
        x-derivative has a unique factor of maximal (ell, symbol), obtained
        by bumping that factor in the antiderivative's top term.  When the
        leading monomial violates this (repeated maximum, or no derivative
        at all) the polynomial is not a total derivative: NonLocalError.
        """
        remaining = dict(self.terms)
        anti: Dict[Monomial, object] = {}
        while remaining:
            m = max(remaining, key=_peel_key)
            coeff = remaining[m]
            if not m:
                raise NonLocalError("constant terms have no antiderivative in the algebra")
            top_i = max(range(len(m)), key=lambda i: (m[i][1], m[i][0]))
            sym, ell = m[top_i]
            if ell == 0:
                raise NonLocalError(f"{monomial_text(m)} is not a total x-derivative")
            if sum(1 for f in m if f == (sym, ell)) > 1:
                raise NonLocalError(
                    f"leading monomial {monomial_text(m)} has a repeated top factor"
                )
            guess = tuple(sorted(m[:top_i] + ((sym, ell - 1),) + m[top_i + 1:]))
            mult = sum(1 for f in guess if f == (sym, ell - 1))
            piece = coeff * Fraction(1, mult)
            accumulate(anti, guess, piece)
            for i, (gs, gell) in enumerate(guess):
                bumped = tuple(sorted(guess[:i] + ((gs, gell + 1),) + guess[i + 1:]))
                accumulate(remaining, bumped, -piece)
        result = DiffPolynomial(anti)
        if result.d_x() != self:
            raise NonLocalError("antiderivative reconstruction failed")
        return result

    def linearize(self, kind: str, direction: "DiffPolynomial") -> "DiffPolynomial":
        """The linearization with respect to the first field of the given
        kind, applied to a direction: sum_k (dP / d(d^k X1)) d_x^k direction,
        summed in increasing k."""
        target = FieldSymbol(kind, 1)
        buckets: Dict[int, Dict[Monomial, object]] = {}
        for m, coeff in self.terms.items():
            seen = set()
            for i, (sym, ell) in enumerate(m):
                if sym != target or ell in seen:
                    continue
                seen.add(ell)
                mult = sum(1 for f in m if f == (sym, ell))
                rest = list(m)
                rest.remove((sym, ell))
                accumulate(
                    buckets.setdefault(ell, {}),
                    tuple(sorted(rest)),
                    coeff * Fraction(mult),
                )
        acc: Dict[Monomial, object] = {}
        for k, bucket in sorted(buckets.items()):
            if bucket:
                for m, coeff in (DiffPolynomial(bucket) * direction.d_x(k)).terms.items():
                    accumulate(acc, m, coeff)
        return DiffPolynomial(acc)

    def rename_to_kdv(self) -> "DiffPolynomial":
        """Rewrite d^ell phi{j} as d^(ell-1) vphi{j}; every factor must be a
        phi carrying at least one x-derivative."""
        acc: Dict[Monomial, object] = {}
        for m, coeff in self.terms.items():
            out = []
            for sym, ell in m:
                if sym.kind != "phi" or ell < 1:
                    raise GradingError(f"cannot rename factor d^{ell} {sym.name()}")
                out.append((FieldSymbol("vphi", sym.index, sym.times), ell - 1))
            accumulate(acc, tuple(sorted(out)), coeff)
        return DiffPolynomial(acc)

    # --- inspection ---------------------------------------------------------

    def contains_kind(self, kind: str) -> bool:
        return any(sym.kind == kind for m in self.terms for sym, _ in m)

    def tagged_unknowns(self) -> List[FieldSymbol]:
        """Distinct tagged base symbols still awaiting evolution rules."""
        found = {sym for m in self.terms for sym, _ in m if sym.times}
        return sorted(found)

    def max_field_index(self, kind: str) -> int:
        return max(
            (sym.index for m in self.terms for sym, _ in m if sym.kind == kind),
            default=0,
        )

    def part_of_degree(self, kind: str, index: int, degree: int) -> "DiffPolynomial":
        acc = {}
        for m, coeff in self.terms.items():
            if sum(1 for sym, _ in m if sym.kind == kind and sym.index == index) == degree:
                acc[m] = coeff
        return DiffPolynomial(acc)

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({coeff.text() if hasattr(coeff, 'text') else coeff})*{monomial_text(m)}"
            for m, coeff in sorted(self.terms.items())
        )

    def __repr__(self) -> str:
        return f"<DiffPolynomial {self.text()}>"


def _peel_key(m: Monomial) -> Tuple:
    return tuple(sorted(((ell, sym) for sym, ell in m), reverse=True))


# --- slow-time structure -----------------------------------------------------


class EvolutionRules:
    """Substitution table d_{t_m} X = rule(X, m), plus the scalar unit used
    to build fresh leaves."""

    __slots__ = ("one", "table")

    def __init__(self, one: object):
        self.one = one
        self.table: Dict[Tuple[str, int, int], DiffPolynomial] = {}

    def get(self, sym: FieldSymbol, m: int) -> Optional[DiffPolynomial]:
        return self.table.get((sym.kind, sym.index, m))

    def set(self, kind: str, index: int, m: int, value: DiffPolynomial) -> None:
        self.table[(kind, index, m)] = value


def time_derivative(poly: DiffPolynomial, m: int, rules: EvolutionRules) -> DiffPolynomial:
    """d_{t_m} of a differential polynomial via the chain rule.

    Fields without a rule become tagged leaves.
    """
    acc: Dict[Monomial, object] = {}
    for mon, coeff in poly.terms.items():
        for i, (sym, ell) in enumerate(mon):
            rest = mon[:i] + mon[i + 1:]
            rule = rules.get(sym, m)
            if rule is None:
                accumulate(acc, tuple(sorted(rest + ((sym.tagged(m), ell),))), coeff)
                continue
            derived = _through_tags(rule, sym.times, ell, rules)
            for term, c in derived.mul_monomial(rest).scale(coeff).terms.items():
                accumulate(acc, term, c)
    return DiffPolynomial(acc)


def _through_tags(
    value: DiffPolynomial, times: Iterable[int], ell: int, rules: EvolutionRules
) -> DiffPolynomial:
    """d_x^ell d_{times} value: the pending slow times, latest first, then
    the x-derivatives."""
    for pending in sorted(times, reverse=True):
        value = time_derivative(value, pending, rules)
    return value.d_x(ell)


def substitute_slow_times(poly: DiffPolynomial, rules: EvolutionRules) -> DiffPolynomial:
    """Resolve every tagged leaf through the available evolution rules; a
    tag without a rule stays."""
    acc: Dict[Monomial, object] = {}
    for mon, coeff in poly.terms.items():
        piece = DiffPolynomial.constant(rules.one).scale(coeff)
        for sym, ell in mon:
            piece = piece * _resolve_leaf(sym, ell, rules)
        for m, c in piece.terms.items():
            accumulate(acc, m, c)
    return DiffPolynomial(acc)


def _resolve_leaf(sym: FieldSymbol, ell: int, rules: EvolutionRules) -> DiffPolynomial:
    """d_x^ell of a tagged leaf: the rule of its latest slow time, pushed
    through its earlier tags, then whatever tags the result carries.  A leaf
    without tags, or without a rule for its latest one, stays as it is."""
    if sym.times:
        *earlier, latest = sorted(sym.times)
        rule = rules.get(sym, latest)
        if rule is not None:
            return substitute_slow_times(_through_tags(rule, earlier, ell, rules), rules)
    return DiffPolynomial.leaf(sym, ell, rules.one)


def substitute_field(
    poly: DiffPolynomial, kind: str, index: int, value: DiffPolynomial, rules: EvolutionRules
) -> DiffPolynomial:
    """Replace every occurrence of the field (any derivative order, any
    pending tags) by the corresponding derivative of `value`.  Pending
    slow-time tags are pushed through `rules`; a field without a rule
    becomes a tagged leaf."""
    acc: Dict[Monomial, object] = {}
    for mon, coeff in poly.terms.items():
        pieces = [DiffPolynomial({(): coeff})]
        plain: List[Factor] = []
        for sym, ell in mon:
            if sym.kind == kind and sym.index == index:
                pieces.append(_through_tags(value, sym.times, ell, rules))
            else:
                plain.append((sym, ell))
        term = pieces[0]
        for p in pieces[1:]:
            term = term * p
        for m, c in term.mul_monomial(tuple(plain)).terms.items():
            accumulate(acc, m, c)
    return DiffPolynomial(acc)


# --- graded bases -------------------------------------------------------------


def enumerate_basis(weight: int, grading: str, max_index: int) -> Tuple[Monomial, ...]:
    """The ordered monomial basis of P_n^(r): every monomial of graded weight
    n with every field index <= r and at least two factors (a single factor
    is the secular term, not a forcing), in canonical order."""
    # d^ell phi_j (ell >= 1) weighs ell + 2j - 1; d^ell vphi_j (ell >= 0) weighs ell + 2j
    if grading not in ("potential", "kdv"):
        raise ValueError(f"unknown grading {grading!r}")
    kind, ell_min = ("phi", 1) if grading == "potential" else ("vphi", 0)
    factors: List[Tuple[Factor, int]] = []
    for j in range(1, max_index + 1):
        for ell in range(ell_min, weight + 1):
            w = ell + 2 * j - ell_min
            if w <= weight:
                factors.append(((FieldSymbol(kind, j), ell), w))
    factors.sort()
    found: List[Monomial] = []

    def rec(start: int, remaining: int, chosen: List[Factor]) -> None:
        if remaining == 0:
            if len(chosen) >= 2:
                found.append(tuple(chosen))
            return
        for i in range(start, len(factors)):
            f, w = factors[i]
            if w <= remaining:
                chosen.append(f)
                rec(i, remaining - w, chosen)
                chosen.pop()

    rec(0, weight, [])
    return tuple(sorted(found))
