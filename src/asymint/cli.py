"""Command-line frontend.

Every artifact is deterministic: identical configuration produces
byte-identical JSON/CSV output, so reports can be diffed.
Each command returns its artifact text and exit code; `main` alone writes
the text to --out or stdout and then prints one `[<command>] N.NNs` timing
line on stderr.  Exit codes: 0 on success, 2 when a commutation verdict
is FAIL, 1 on usage errors, out-of-domain input, a run out of memory or
an unwritable output path (found before any computation starts), with one
error line on stderr and no artifact.

Start-up loads every asymint module, `lattice` and `jordan` included;
only numpy waits until the lattice code that `validate` runs imports it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import __version__
from .compatibility import build_problem, solve_compatibility
from .diffpoly import enumerate_basis, monomial_text
from .errors import AsymintError, DomainError
from .field import CoeffField
from .jordan import jordan_coefficients, sample_window, verify_on_sequence
from .lattice import error_scaling
from .reduction import run_reduction


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code and one error line: a
    rejected argument writes only `asymint <command>: error: <message>` to
    stderr, without the usage block, and exits 1."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}") from exc


def _eps_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="asymint", description=__doc__)
    parser.add_argument("--version", action="version", version=f"asymint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension and basis of one graded monomial space")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-field", type=int, default=1)
    p.add_argument("--grading", choices=("potential", "kdv"), default="potential")
    p.set_defaults(run=_cmd_dims)

    p = sub.add_parser("reduce", help="run the multiscale reduction and report the flows")
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--order", type=int, default=9)
    p.add_argument("--h", type=_fraction, default=None,
                   help="also evaluate every coefficient at this exact h")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("check", help="solve the commutation conditions at one order")
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--order", type=int, choices=(7, 9), required=True)
    p.add_argument("--symbolic-knowns", action="store_true",
                   help="keep the forcing labels symbolic in the solved output")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("jordan", help="re-expand a coarse difference in fine differences")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--omega", type=_fraction, required=True)
    p.add_argument("--max-i", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--verify", default=None, metavar="poly:D",
                   help="check the expansion on a degree-D polynomial sequence")
    p.set_defaults(run=_cmd_jordan)

    p = sub.add_parser("validate", help="integrate the lattice and measure error scaling")
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--eps", type=_eps_list, default=[0.2, 0.1, 0.05])
    p.add_argument("--T", type=float, default=0.1)
    p.add_argument("--dt", type=float, default=0.02)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("proposition",
                       help="full pipeline for both lattice branches at orders 7 and 9")
    p.set_defaults(run=_cmd_proposition)
    for name, p in sub.choices.items():
        if name != "dims":
            p.add_argument("--out", default=None)
    return parser


# --- artifact plumbing -----------------------------------------------------------


def _check_writable(out: Optional[str]) -> None:
    """Raise OSError before any computation when --out cannot be written."""
    if out is None:
        return
    if not out:
        raise OSError("cannot write an empty --out path")
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        raise OSError(f"cannot write {out}: no directory {parent}")
    if os.path.isdir(out) or not os.access(out if os.path.exists(out) else parent, os.W_OK):
        raise OSError(f"cannot write {out}")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- subcommands -----------------------------------------------------------------


def _cmd_dims(args) -> Tuple[str, int]:
    if args.degree < 0:
        raise DomainError(f"--degree must be non-negative, got {args.degree}")
    if args.max_field < 1:
        raise DomainError(f"--max-field must be at least 1, got {args.max_field}")
    space = enumerate_basis(args.degree, args.grading, args.max_field)
    lines = [str(len(space))] + [monomial_text(m) for m in space]
    return "\n".join(lines) + "\n", 0


def _cmd_reduce(args) -> Tuple[str, int]:
    h = args.h
    if h is not None and not 0 < h < 1:
        raise DomainError(f"h must lie in (0, 1), got {h}")
    rep = run_reduction(CoeffField(args.s), order=args.order)
    payload = {
        "schema": "asymint.reduce/1",
        "s": rep.field.s,
        "order": rep.order,
        "variant": rep.variant,
        "dispersion": {
            "relation": rep.dispersion.general_text,
            "sigma": rep.dispersion.sigma,
            "c_squared": rep.dispersion.c_squared.text(),
            "rejected": {str(k): v for k, v in rep.dispersion.rejected.items()},
        },
        "alphas": {str(k): v.text() for k, v in sorted(rep.alphas.items())},
        "betas": {str(k): v.text() for k, v in sorted(rep.betas.items())},
        "flows": {name: poly.text() for name, poly in sorted(rep.flows.items())},
        "forcings": {
            name: {
                "space": f.space,
                "coefficients": {lbl: v.text() for lbl, v in sorted(f.coefficients.items())},
            }
            for name, f in sorted(rep.forcings.items())
        },
        "stage_log": list(rep.stage_log),
    }
    if h is not None:
        payload["numeric"] = {
            "h": str(h),
            "alphas": {str(k): v.eval_float(h) for k, v in sorted(rep.alphas.items())},
            "betas": {str(k): v.eval_float(h) for k, v in sorted(rep.betas.items())},
            "forcings": {
                name: {lbl: v.eval_float(h) for lbl, v in sorted(f.coefficients.items())}
                for name, f in sorted(rep.forcings.items())
            },
        }
    return _json_text(payload), 0


def _cmd_check(args) -> Tuple[str, int]:
    rep = run_reduction(CoeffField(args.s), order=args.order)
    problem = build_problem(rep, args.order)
    out = solve_compatibility(problem)
    if args.symbolic_knowns:
        solved = {name: poly.text() for name, poly in sorted(out.solved_coefficients.items())}
    else:
        solved = {
            name: poly.evaluate(problem.known_values).text()
            for name, poly in sorted(out.solved_coefficients.items())
        }
    payload = {
        "schema": "asymint.check/1",
        "s": args.s,
        "order": args.order,
        "variant": out.variant,
        "solved": solved,
        "constraints": [c.text() for c in out.residual_constraints],
        "evaluated": [v.text() for v in out.evaluated],
        "verdict": out.verdict,
        "witness": out.witness,
    }
    return _json_text(payload), 2 if out.verdict == "FAIL" else 0


def _cmd_jordan(args) -> Tuple[str, int]:
    degree = None
    if args.verify is not None:
        kind, _, rest = args.verify.partition(":")
        if kind != "poly" or not rest.isdecimal():
            raise ValueError("--verify expects poly:D")
        degree = int(rest)
    exp = jordan_coefficients(args.j, args.omega, args.max_i, p=args.p)
    payload = {
        "schema": "asymint.jordan/1",
        "j": exp.target_order,
        "omega": str(exp.omega),
        "max_i": args.max_i,
        "truncation_p": exp.truncation_p,
        "coefficients": {str(i): str(c) for i, c in sorted(exp.coefficients.items())},
    }
    if degree is not None:
        step = Fraction(1, args.omega.denominator)
        _, _, span = sample_window(exp, step)
        samples = [
            sum(Fraction(m + 1) * (k * step) ** m for m in range(degree + 1))
            for k in range(span + 4)
        ]
        payload["verify"] = {
            "sequence": f"degree-{degree} polynomial",
            "step": str(step),
            "residual": str(verify_on_sequence(exp, samples, step=step)),
        }
    return _json_text(payload), 0


def _cmd_validate(args) -> Tuple[str, int]:
    result = error_scaling(args.s, args.h, args.eps, T=args.T, dt=args.dt)
    lines = ["eps,sup_error,norm_drift,slope"]
    for k, row in enumerate(result.rows):
        last = k == len(result.rows) - 1
        lines.append(",".join([
            f"{row.epsilon:g}",
            f"{row.sup_error:.12e}",
            f"{row.norm_drift:.12e}",
            f"{result.slope:.6f}" if last else "",
        ]))
    return "\n".join(lines) + "\n", 0


EXPECTED_PATTERN = {
    "0": {"order7": "PASS", "order9": "FAIL"},
    "1": {"order7": "PASS", "order9": "PASS"},
}


def _cmd_proposition(args) -> Tuple[str, int]:
    branches: Dict[str, dict] = {}
    for s in (0, 1):
        rep = run_reduction(CoeffField(s), order=9)
        seven = solve_compatibility(build_problem(rep, 7))
        nine = solve_compatibility(build_problem(rep, 9))
        branches[str(s)] = {
            "order7": seven.verdict,
            "order9": nine.verdict,
            "variant": nine.variant,
            "witness": nine.witness,
        }
    reproduced = all(
        branches[s][order] == verdict
        for s, orders in EXPECTED_PATTERN.items()
        for order, verdict in orders.items()
    )
    payload = {
        "schema": "asymint.proposition/1",
        "engine": f"asymint {__version__}",
        "branches": branches,
        "expected": EXPECTED_PATTERN,
        "reproduced": reproduced,
    }
    return _json_text(payload), 0 if reproduced else 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = getattr(args, "out", None)
    try:
        _check_writable(out)
        start = time.monotonic()
        text, code = args.run(args)
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except (AsymintError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"asymint {args.command}: error: {str(exc) or type(exc).__name__}\n")
        return 1
    sys.stderr.write(f"[{args.command}] {time.monotonic() - start:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
