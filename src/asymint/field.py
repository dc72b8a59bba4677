"""Exact scalar arithmetic for the reduction.

Every coefficient produced by the multiscale machinery lives in the ring

    Q(h)[c] / (c^2 - r(h)),        r(h) = (sigma - s h^2) / h^2 * zeta^2,

i.e. it is even(h) + odd(h) * c with even, odd reduced rational functions of
the lattice spacing h, and c the formal wave speed whose square is the
rational function fixed by the dispersion relation.  With the default
conventions (sigma = +1, zeta = h) the modulus is c^2 = 1 - s h^2.

For s = 0 the ring has zero divisors (c^2 = 1 factors), so it is not a
field; inversion raises ZeroInverse exactly on the radical.  All arithmetic
is exact; numeric evaluation is a separate, explicit step.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt as _fsqrt
from typing import Optional, Tuple, Union

from . import _polyops as P
from .errors import DomainError, ZeroInverse

ScalarLike = Union[int, Fraction, "CoeffElement"]


class RatFunc:
    """Reduced rational function of h over Z: num/den in lowest terms with a
    positive-leading-coefficient denominator.  The constructor takes den with a
    positive lead (ONE, an integer, a product of reduced dens): pgcd keeps it."""

    __slots__ = ("num", "den")

    def __init__(self, num: P.Poly, den: P.Poly = P.ONE):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = P.ONE
        else:
            g = P.pgcd(num, den)
            if g != P.ONE:
                num = P.pdivexact(num, g)
                den = P.pdivexact(den, g)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_fraction(cls, q: Fraction) -> "RatFunc":
        return cls((q.numerator,) if q else P.ZERO, (q.denominator,))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return RatFunc(P.padd(self.num, other.num), self.den)
        return RatFunc(
            P.padd(P.pmul(self.num, other.den), P.pmul(other.num, self.den)),
            P.pmul(self.den, other.den),
        )

    def __neg__(self) -> "RatFunc":
        return _ratfunc(P.pneg(self.num), self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return _RAT_ZERO
        d1, d2 = self.den, other.den
        # cross-cancel first to keep intermediates small; den keeps a positive lead
        g1 = P.pgcd(n1, d2)
        g2 = P.pgcd(n2, d1)
        # a unit operand returns the other one, after the two counted gcds
        if self is _RAT_ONE:
            return other
        if other is _RAT_ONE:
            return self
        if g1 != P.ONE:
            n1, d2 = P.pdivexact(n1, g1), P.pdivexact(d2, g1)
        if g2 != P.ONE:
            n2, d1 = P.pdivexact(n2, g2), P.pdivexact(d1, g2)
        num = n2 if n1 == P.ONE else n1 if n2 == P.ONE else P.pmul(n1, n2)
        den = d2 if d1 == P.ONE else d1 if d2 == P.ONE else P.pmul(d1, d2)
        return _ratfunc(num, den)

    def inv(self) -> "RatFunc":
        if not self.num:
            raise ZeroInverse("inverse of the zero rational function")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = P.pneg(num), P.pneg(den)
        return _ratfunc(num, den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inv()

    def eval(self, h: Fraction) -> Fraction:
        p, q = h.numerator, h.denominator
        den = P.phorner(self.den, p, q)
        if den == 0:
            raise DomainError(f"denominator vanishes at h = {h}")
        shift = len(self.den) - len(self.num)  # num(h)/den(h) = num q^shift / den
        num = P.phorner(self.num, p, q)
        return Fraction(num * q**shift, den) if shift >= 0 else Fraction(num, den * q**-shift)

    def text(self) -> str:
        body = f"({P.pstr(self.num)})"
        if self.den == P.ONE:
            return body
        if len(self.den) == 1:
            return f"{body}/{self.den[0]}"
        return f"{body}/({P.pstr(self.den)})"


# Reduced parts go straight into the slots: no __init__, no setattr calls.
def _ratfunc(num: P.Poly, den: P.Poly, new=object.__new__,
             set_num=RatFunc.num.__set__, set_den=RatFunc.den.__set__) -> RatFunc:
    r = new(RatFunc)
    set_num(r, num)
    set_den(r, den)
    return r


_RAT_ZERO = _ratfunc(P.ZERO, P.ONE)
_RAT_ONE = _ratfunc(P.ONE, P.ONE)


class CoeffField:
    """Factory and arithmetic context for scalar coefficients.

    Instances are keyed by the model branch s and an optional exact
    specialisation of h.  Elements of different fields never mix.
    """

    __slots__ = ("s", "h_value", "_radicand", "zero", "one", "h", "c")

    def __init__(self, s: int, *, h_value: Optional[Fraction] = None):
        if s not in (0, 1):
            raise ValueError(f"s must be 0 or 1, got {s!r}")
        if h_value is not None:
            if not isinstance(h_value, Fraction):
                raise ValueError("h_value must be an exact Fraction")
            if not (0 < h_value < 1):
                raise DomainError(f"h must lie in (0, 1), got {h_value}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "h_value", h_value)
        # c^2 = 1 - s h^2 with sigma = +1, zeta = h already folded in
        if h_value is None:
            rad = RatFunc(P.pnormalize((1, 0, -s)))
            hval = RatFunc(P.pnormalize((0, 1)))
        else:
            rad = RatFunc.from_fraction(1 - s * h_value * h_value)
            hval = RatFunc.from_fraction(h_value)
        object.__setattr__(self, "_radicand", rad)
        object.__setattr__(self, "zero", CoeffElement(self, _RAT_ZERO, _RAT_ZERO))
        object.__setattr__(self, "one", CoeffElement(self, _RAT_ONE, _RAT_ZERO))
        object.__setattr__(self, "h", CoeffElement(self, hval, _RAT_ZERO))
        object.__setattr__(self, "c", CoeffElement(self, _RAT_ZERO, _RAT_ONE))

    def __setattr__(self, *a):
        raise AttributeError("CoeffField is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffField)
            and self.s == other.s
            and self.h_value == other.h_value
        )

    def __repr__(self) -> str:
        spec = "" if self.h_value is None else f", h={self.h_value}"
        return f"CoeffField(s={self.s}{spec})"

    # --- constructors ----------------------------------------------------

    @property
    def c_squared(self) -> "CoeffElement":
        return CoeffElement(self, self._radicand, _RAT_ZERO)

    def from_fraction(self, q) -> "CoeffElement":
        return CoeffElement(self, RatFunc.from_fraction(Fraction(q)), _RAT_ZERO)

    def coerce(self, x: ScalarLike) -> "CoeffElement":
        if isinstance(x, CoeffElement):
            if x.field is not self and x.field != self:
                raise ValueError("element belongs to a different CoeffField")
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_fraction(Fraction(x))
        raise TypeError(f"cannot coerce {type(x).__name__} into CoeffField")


class CoeffElement:
    """even(h) + odd(h) * c, with c^2 reduced via the field's radicand."""

    __slots__ = ("field", "even", "odd")

    def __init__(self, field: CoeffField, even: RatFunc, odd: RatFunc):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)

    def __setattr__(self, *a):
        raise AttributeError("CoeffElement is immutable")

    # --- predicates ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.even.num or self.odd.num)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffElement)
            and self.field == other.field
            and self.even == other.even
            and self.odd == other.odd
        )

    # --- ring operations ------------------------------------------------

    def _lift(self, other: ScalarLike) -> Optional["CoeffElement"]:
        """Coerce, raising on cross-field mixing but deferring (None) on
        foreign types so Python can try the reflected operation."""
        try:
            return self.field.coerce(other)
        except TypeError:
            return None

    def __add__(self, other: ScalarLike) -> "CoeffElement":
        o = other if type(other) is CoeffElement and other.field is self.field else self._lift(other)
        if o is None:
            return NotImplemented
        return _element(self.field, self.even + o.even, self.odd + o.odd)

    __radd__ = __add__

    def __neg__(self) -> "CoeffElement":
        return _element(self.field, -self.even, -self.odd)

    def __sub__(self, other: ScalarLike) -> "CoeffElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: ScalarLike) -> "CoeffElement":
        o = other if type(other) is CoeffElement and other.field is self.field else self._lift(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.even, self.odd, o.even, o.odd
        even, odd = a * c + b * d * self.field._radicand, a * d + b * c
        # times one: the unit products hand back the operand's own parts
        if even is a and odd is b:
            return self
        return _element(self.field, even, odd)

    __rmul__ = __mul__

    def inv(self) -> "CoeffElement":
        """Inverse via the conjugate; raises ZeroInverse on zero and on the
        zero divisors that exist when the radicand is a perfect square."""
        r = self.field._radicand
        norm = self.even * self.even - self.odd * self.odd * r
        if not norm:
            raise ZeroInverse(f"no inverse of {self.text()}")
        ninv = norm.inv()
        return _element(self.field, self.even * ninv, -(self.odd * ninv))

    def __truediv__(self, other: ScalarLike) -> "CoeffElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, k: int) -> "CoeffElement":
        if k < 0:
            return self.inv() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- evaluation and display -----------------------------------------

    def eval_exact(self, h: Optional[Fraction] = None) -> Tuple[Fraction, Fraction]:
        """(even(h), odd(h)) as exact rationals."""
        if self.field.h_value is not None:
            if h is not None and h != self.field.h_value:
                raise DomainError("field already has h pinned to a different value")
            h = self.field.h_value
        if h is None:
            raise DomainError("an h value is required to evaluate")
        h = Fraction(h)
        if not (0 < h < 1):
            raise DomainError(f"h must lie in (0, 1), got {h}")
        return self.even.eval(h), self.odd.eval(h)

    def eval_float(self, h) -> float:
        """Float value with c the positive square root of the field's c^2,
        evaluated only under a nonzero odd part (float(Fraction) is never -0.0)."""
        ev, od = self.eval_exact(h)
        if not od:
            return float(ev)
        return float(ev) + float(od) * _fsqrt(float(self.field._radicand.eval(Fraction(h))))

    def text(self) -> str:
        """Canonical display: '(even)/den + (odd)/den*c' with reduced parts."""
        return f"{self.even.text()} + {self.odd.text()}*c"

    def __repr__(self) -> str:
        return f"<{self.text()}>"


def _element(field: CoeffField, even: RatFunc, odd: RatFunc, new=object.__new__,
             set_field=CoeffElement.field.__set__, set_even=CoeffElement.even.__set__,
             set_odd=CoeffElement.odd.__set__) -> CoeffElement:
    e = new(CoeffElement)
    set_field(e, field)
    set_even(e, even)
    set_odd(e, odd)
    return e
