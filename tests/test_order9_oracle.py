"""An independent oracle for the order-9 verdict at rational points.

At a pinned spacing h with c rational, every scalar of the commutation
problem is a rational number.  The known forcing values go into the
commutator equations as constants, which leaves a linear system over Q in
the ansatz labels.  sympy's exact rank decides it without any of asymint's
elimination: the ansatz block must have full column rank, and the system
is consistent (augmented rank equal to it) exactly when asymint says PASS.

On the integrable branch s = 1, c^2 = 1 - h^2 is a rational square at the
Pythagorean spacings 3/5 (c = 4/5), 5/13 (c = 12/13) and 8/17 (c = 15/17).
On s = 0 the ring Q[c]/(c^2 - 1) splits into the branches c = 1 and
c = -1; both are checked, at spacings on either side of the witness root
h* ~ 0.7829.
"""

from fractions import Fraction

import pytest

from asymint.compatibility import build_problem, commutator_equations, solve_compatibility
from asymint.field import CoeffField
from asymint.reduction import run_reduction

pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

# (s, h, c, ansatz labels)
PINNED = [
    (1, Fraction(3, 5), Fraction(4, 5), 24),
    (1, Fraction(5, 13), Fraction(12, 13), 24),
    (0, Fraction(39, 50), Fraction(1), 31),
    (0, Fraction(39, 50), Fraction(-1), 31),
    (0, Fraction(79, 100), Fraction(1), 31),
    (0, Fraction(79, 100), Fraction(-1), 31),
    (1, Fraction(8, 17), Fraction(15, 17), 24),
]

_PROBLEMS = {}


def problem_at(s, h):
    """(problem, commutator equations, asymint's verdict) at a pinned h."""
    if (s, h) not in _PROBLEMS:
        problem = build_problem(run_reduction(CoeffField(s, h_value=h), order=9), 9)
        verdict = solve_compatibility(problem).verdict
        _PROBLEMS[s, h] = (problem, commutator_equations(problem), verdict)
    return _PROBLEMS[s, h]


def rational(value, c):
    even, odd = value.eval_exact()
    return even + odd * c


def ranks(problem, equations, c, scale=None):
    """(rank of the ansatz block, rank of the augmented system) over QQ,
    with the known values substituted as rationals; `scale` multiplies
    named known values."""
    scale = scale or {}
    labels = problem.ansatz_basis.labels
    column = {name: j for j, name in enumerate(labels)}
    known = {name: rational(v, c) * scale.get(name, 1) for name, v in problem.known_values.items()}
    rows = []
    for eq in equations:
        row = [Fraction(0)] * (len(labels) + 1)
        for key, coeff in eq.terms.items():
            value, unknown = rational(coeff, c), []
            for name, power in key:
                if name in known:
                    value *= known[name] ** power
                else:
                    unknown += [name] * power
            assert len(unknown) <= 1, f"nonlinear in the ansatz: {unknown}"
            # the known part goes to the right-hand side
            row[column[unknown[0]] if unknown else len(labels)] += value
        rows.append([QQ(x.numerator, x.denominator) for x in row])
    system = DomainMatrix(rows, (len(rows), len(labels) + 1), QQ)
    block = system.extract(range(len(rows)), range(len(labels)))
    return block.rank(), system.rank()


@pytest.mark.parametrize("s, h, c, unknowns", PINNED)
def test_sympy_rank_agrees_with_the_verdict(s, h, c, unknowns):
    problem, equations, verdict = problem_at(s, h)
    assert len(problem.ansatz_basis.labels) == unknowns
    block, augmented = ranks(problem, equations, c)
    assert block == unknowns
    assert (augmented == block) == (verdict == "PASS")


def test_a_perturbed_forcing_coefficient_makes_the_system_inconsistent():
    problem, equations, verdict = problem_at(1, Fraction(3, 5))
    assert verdict == "PASS"
    block, augmented = ranks(problem, equations, Fraction(4, 5), {"c3": Fraction(1001, 1000)})
    assert (block, augmented) == (24, 25)
