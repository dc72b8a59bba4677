"""The lattice's exact dispersion relation as an oracle for the flow
normalizations beta2..beta4, at every h.

Linearized about f = e^{-it}, the lattice's Bogoliubov modes e^{i(kn - wt)}
obey w^2 = D(D + 2) with D = 2 c^2 sin^2(k/2) / h^2 and c^2 = 1 - s h^2, so

    w / c = (2/h) sin(k/2) sqrt(1 + (c^2/h^2) sin^2(k/2)).

The linear part of each flow depends only on that relation: in the frame
x = eps h n - c eps t, beta_j = (-1)^j h^(2j-1) c [k^(2j-1)](w / c).  The
series is a power series in k with coefficients rational in h, since c^2
is substituted before expanding, so no square root is ever simplified.
None of asymint's code enters the prediction.
"""

import pytest

sp = pytest.importorskip("sympy")

K, H = sp.symbols("kappa h", positive=True)


def predicted_betas(s):
    """{j: beta_j / c} for j = 2, 3, 4, rational functions of h."""
    c2 = 1 - s * H**2
    sine = sp.sin(K / 2)
    w_over_c = (2 / H) * sine * sp.sqrt(1 + c2 / H**2 * sine**2)
    series = sp.expand(sp.series(w_over_c, K, 0, 8).removeO())
    return {j: (-1) ** j * H ** (2 * j - 1) * series.coeff(K, 2 * j - 1) for j in (2, 3, 4)}


def rational(part):
    """A RatFunc as a sympy expression in h."""
    num, den = (sp.Add(*(a * H**i for i, a in enumerate(poly))) for poly in (part.num, part.den))
    return num / den


def mismatches(rep):
    """The betas of a report that disagree with the dispersion relation.

    On s = 1, c is the irrational sqrt(1 - h^2): beta_j is odd in c, with
    odd part the prediction.  On s = 0, c^2 = 1 and the ring splits; on the
    branch c = 1 the value is even + odd."""
    s = rep.field.s
    bad = []
    for j, want in predicted_betas(s).items():
        beta = rep.betas[j]
        even, odd = rational(beta.even), rational(beta.odd)
        got = [even, odd - want] if s == 1 else [even + odd - want]
        if any(sp.cancel(x) != 0 for x in got):
            bad.append(f"beta{j} = {beta.text()}, predicted c*({sp.factor(want)})")
    return bad


@pytest.mark.parametrize("s", [0, 1])
def test_betas_follow_the_dispersion_relation(engine, s):
    rep = engine(s, 9)
    assert sorted(rep.betas) == [2, 3, 4]
    assert mismatches(rep) == []
