"""Dense univariate integer-polynomial kernels.

A polynomial in h with integer coefficients is an immutable tuple of ints in
ascending degree order with no trailing zeros; the zero polynomial is the
empty tuple.  These kernels underlie the scalar field and have no
dependencies, so they are easy to test in isolation.  The root count on
(0, 1) builds its Sturm chain in Z[h] with the same pseudo-remainder as the
gcd; no polynomial here has rational coefficients, and `peval` at p/q
builds one Fraction from the integer Horner `phorner`.

A constant argument `(k,)` takes a fast path in `pgcd`, `pmul` and
`pdivexact` that returns exactly the tuple the general path returns, and
`pgcd` answers `ONE` at once when either argument is `ONE`; most gcds of the
elimination take one of these paths.  The non-constant paths of `pgcd` and
`pdivexact` are memoized per process on the operand pair (`MEMO_SIZE`
entries each; a failed division is never cached).  Callers reach `pgcd`
through the module attribute (`P.pgcd`) at call time, because the benchmark
counts its calls by patching that attribute; the memos sit below it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Tuple

Poly = Tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
MEMO_SIZE = 256  # entries in each of the pgcd and pdivexact memos


def pnormalize(coeffs: Iterable[int]) -> Poly:
    """Strip trailing zeros and freeze to a tuple."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return pnormalize(out)


def pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def pscale(a: Poly, k: int) -> Poly:
    if k == 0:
        return ZERO
    return tuple([c * k for c in a])


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    if len(a) == 1:
        return b if a[0] == 1 else pscale(b, a[0])
    if len(b) == 1:
        return a if b[0] == 1 else pscale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return pnormalize(out)


def phorner(a: Poly, p: int, q: int) -> int:
    """q^deg(a) a(p/q) for q > 0, by Horner's rule in integers."""
    acc, qpow = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def peval(a: Poly, x: Fraction) -> Fraction:
    """Exact value at a rational point: one Fraction over q^deg(a)."""
    return Fraction(phorner(a, x.numerator, x.denominator), x.denominator ** max(len(a) - 1, 0))


def pprimitive(a: Poly) -> Tuple[int, Poly]:
    """Split into (content, primitive part); the primitive part keeps the
    sign of the leading coefficient."""
    if not a:
        return 0, ZERO
    g = math.gcd(*a)
    return g, a if g == 1 else tuple(c // g for c in a)


def _poslead(a: Poly) -> Poly:
    if a and a[-1] < 0:
        return pneg(a)
    return a


def ppseudo_rem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of a by b (b nonzero): lc(b)^(deg a - deg b + 1) * a mod b."""
    if not b:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:  # r has no trailing zeros, so r[-1] leads
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r]
        for i, cb in enumerate(b):
            r[shift + i] -= lr * cb
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def pdivexact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a // b, raising ArithmeticError when b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return ZERO
    if len(b) == 1:
        k = b[0]
        for c in a:
            if c % k:
                raise ArithmeticError("inexact polynomial division")
        return tuple([c // k for c in a])
    return _pdivlong(a, b)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _pdivlong(a: Poly, b: Poly) -> Poly:
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    if len(a) < len(b):
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        lead = r[k + db]
        if lead % lb:
            raise ArithmeticError("inexact polynomial division")
        q[k] = lead // lb
        if q[k]:
            for i, cb in enumerate(b):
                r[k + i] -= q[k] * cb
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return pnormalize(q)


def pgcd(a: Poly, b: Poly) -> Poly:
    """Full gcd in Z[h] (content included), positive leading coefficient."""
    if a == ONE or b == ONE:
        return ONE
    if not a:
        return _poslead(b)
    if not b:
        return _poslead(a)
    if len(a) == 1 or len(b) == 1:
        return (math.gcd(*a, *b),)
    return _pgcdprs(a, b)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _pgcdprs(a: Poly, b: Poly) -> Poly:
    ca, pa = pprimitive(a)
    cb, pb = pprimitive(b)
    c = math.gcd(ca, cb)
    while pb:
        r = ppseudo_rem(pa, pb)
        pa, pb = pb, pprimitive(r)[1]
    return pscale(_poslead(pa), c)


def pstr(a: Poly) -> str:
    """Human form in ascending degree order, e.g. '3 - 17*h^2'."""
    if not a:
        return "0"
    pieces = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = "h" if k == 1 else f"h^{k}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


# --- exact sign analysis on the open unit interval ------------------------

def _sign_variations(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if (x < 0) != (y < 0))


def count_roots_open_unit_interval(a: Poly) -> int:
    """Number of distinct real roots of a in the open interval (0, 1).

    Roots at 0 and 1 are divided out first.  The Sturm chain is built in
    Z[h]: each member is the negated primitive part of the pseudo-remainder
    of the two before it by a divisor with positive leading coefficient, a
    positive multiple of the member over Q.  The signs at 0 and 1 are the
    constant term and the coefficient sum."""
    if not a:
        raise ZeroDivisionError("sign analysis of the zero polynomial")
    while not a[0]:
        a = a[1:]
    while len(a) > 1 and not sum(a):
        a = pdivexact(a, (-1, 1))
    if len(a) == 1:
        return 0
    chain = [a, tuple([k * c for k, c in enumerate(a)][1:])]
    while True:
        r = ppseudo_rem(chain[-2], _poslead(chain[-1]))
        if not r:
            break
        chain.append(pneg(pprimitive(r)[1]))
    return _sign_variations([q[0] for q in chain]) - _sign_variations([sum(q) for q in chain])


def sign_on_open_unit_interval(a: Poly) -> int:
    """Exact constant sign of a on (0, 1): +1, -1, or 0 when the sign is not
    constant (or a vanishes identically)."""
    if not a:
        return 0
    if count_roots_open_unit_interval(a) > 0:
        return 0
    mid = peval(a, Fraction(1, 2))
    if mid > 0:
        return 1
    if mid < 0:
        return -1
    return 0
