"""The mirror grading: every scalar of the order-9 analysis is even or odd
in the wave speed c, with its parity fixed by its monomial.

Both lattices are invariant under the mirror n -> -n.  In the frame
x = eps h n - c eps t the mirror maps the right-moving reduction to the
left-moving one, x -> -x and c -> -c, so the ring automorphism c -> -c of
Q(h)[c]/(c^2 - r) multiplies each coefficient by (-1)^D, where D counts a
monomial's x-derivatives with each vphi = phi_x factor counting one more.
On the derivative-field (kdv) equation, one x-derivative lower than the
phi equation it comes from, the parity is D + 1.  A label carries the
parity of its monomial, plus one for the kdv variant's d and q labels, and
each term of the symbolic order-9 solve carries its coefficient's parity
plus those of its known labels.

The mirror (h, n) -> (-h, -n) leaves x and both lattices unchanged, so
every coefficient is also even in h, in its even and in its odd part.
"""

import pytest

from asymint.compatibility import build_problem
from asymint.labels import T2_SECOND, T2_THIRD, T2_THIRD_KDV, T3_SECOND

FORCING_BASES = {"f_t2": T2_SECOND, "f_t3": T3_SECOND, "h_t2": T2_THIRD, "g_t2": T2_THIRD_KDV}


def derivative_count(monomial):
    return sum(ell + (sym.kind == "vphi") for sym, ell in monomial)


def c_parity(value):
    """0 for a nonzero scalar even in c, 1 for one odd in c."""
    assert value, "a stored coefficient is nonzero"
    assert not (value.even and value.odd), f"mixed parity: {value.text()}"
    return 1 if value.odd else 0


def report_parities(rep):
    """(got, want) parity pairs for every flow and forcing coefficient."""
    pairs = []
    for name, flow in rep.flows.items():
        shift = name.startswith("H")
        pairs += [(c_parity(x), (derivative_count(m) + shift) % 2) for m, x in flow.terms.items()]
    for name, forcing in rep.forcings.items():
        monomials = dict(FORCING_BASES[name].pairs)
        shift = name == "g_t2"
        pairs += [(c_parity(x), (derivative_count(monomials[label]) + shift) % 2)
                  for label, x in forcing.coefficients.items()]
    return pairs


def test_every_reduction_coefficient_has_the_parity_of_its_monomial(engine):
    pairs = report_parities(engine(0, 9)) + report_parities(engine(1, 9))
    assert len(pairs) == 83
    assert [got for got, _ in pairs] == [want for _, want in pairs]


def term_parity(key, value, label_parity):
    return (c_parity(value) + sum(p * label_parity[n] for n, p in key)) % 2


@pytest.mark.parametrize("s, solved_terms, constraint_terms, constraint_parities", [
    (0, 369, 28, [1, 1, 0, 0, 0]),
    (1, 229, 21, [1, 0, 0]),
])
def test_the_symbolic_order9_solve_keeps_the_label_parities(
        engine, commutation, s, solved_terms, constraint_terms, constraint_parities):
    problem = build_problem(engine(s, 9), 9)
    kdv = problem.variant == "kdv"
    label_parity = {
        label: (derivative_count(m) + (kdv and label[0] in "dq")) % 2
        for basis in (T2_SECOND, T2_THIRD, T2_THIRD_KDV, problem.ansatz_basis)
        for label, m in basis.pairs
    }
    report = commutation(s, 9)
    pairs = [(term_parity(key, x, label_parity), label_parity[q])
             for q, poly in report.solved_coefficients.items() for key, x in poly.terms.items()]
    assert len(pairs) == solved_terms
    assert [term for term, _ in pairs] == [label for _, label in pairs]
    parities = [{term_parity(key, x, label_parity) for key, x in c.terms.items()}
                for c in report.residual_constraints]
    assert sum(len(c.terms) for c in report.residual_constraints) == constraint_terms
    assert parities == [{p} for p in constraint_parities]


def even_in_h(value):
    """Whether both parts of a scalar are even in h.  A reduced quotient is
    even exactly when neither its numerator nor its denominator has an odd
    power of h: an odd numerator over an odd denominator shares the factor h."""
    return not any(a for part in (value.even, value.odd)
                   for poly in (part.num, part.den) for a in poly[1::2])


def report_scalars(rep):
    """Every alpha, beta, flow and forcing coefficient of a report."""
    return ([*rep.alphas.values(), *rep.betas.values()]
            + [x for flow in rep.flows.values() for x in flow.terms.values()]
            + [x for forcing in rep.forcings.values() for x in forcing.coefficients.values()])


@pytest.mark.parametrize("s, count", [(0, 59), (1, 42)])
def test_every_reduction_coefficient_is_even_in_h(engine, s, count):
    scalars = report_scalars(engine(s, 9))
    assert len(scalars) == count
    assert [x.text() for x in scalars if not even_in_h(x)] == []


@pytest.mark.parametrize("s, count", [(0, 397), (1, 250)])
def test_every_scalar_of_the_symbolic_order9_solve_is_even_in_h(commutation, s, count):
    report = commutation(s, 9)
    scalars = [x for poly in [*report.solved_coefficients.values(), *report.residual_constraints]
               for x in poly.terms.values()]
    assert len(scalars) == count
    assert [x.text() for x in scalars if not even_in_h(x)] == []


def test_every_pivot_of_the_proposition_is_even_or_odd(monkeypatch, capsys):
    """Elimination and the canonical form pivot on units only: by the
    grading every pivot is f or f*c, never a mixed f + g*c, which can be a
    zero divisor (1 + c when c^2 = 1) and would raise ZeroInverse."""
    import asymint.compatibility as compatibility
    from asymint.cli import main
    from asymint.field import CoeffElement

    active, pivots = [], []
    inv = CoeffElement.inv

    def recorded(value):
        if active:
            pivots.append((active[-1], value))
        return inv(value)

    def watched(name, solve):
        def run(*args):
            active.append(name)
            try:
                return solve(*args)
            finally:
                active.pop()
        return run

    monkeypatch.setattr(CoeffElement, "inv", recorded)
    for name in ("eliminate_unknowns", "rref"):
        monkeypatch.setattr(compatibility, name, watched(name, getattr(compatibility, name)))
    code = main(["proposition"])
    capsys.readouterr()
    assert [x.text() for _, x in pivots if x.even and x.odd] == []
    assert code == 0
    # both branches, the reduction's own order-7 solves included
    assert [where for where, _ in pivots].count("eliminate_unknowns") == 91
    assert [where for where, _ in pivots].count("rref") == 34
