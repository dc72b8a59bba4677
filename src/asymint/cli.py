"""Command-line frontend.

Every artifact is deterministic: identical configuration produces
byte-identical JSON/CSV output, so reports can be diffed and cached.
Timing goes to stderr only.  Exit codes: 0 on success, 2 when a
commutation verdict is FAIL, 1 on usage errors, out-of-domain input or
an unwritable output path or cache directory (found before any
computation starts), with one error line on stderr.

Start-up loads only what every command runs: `hashlib`, `tempfile` and
`pathlib` are imported by the opt-in artifact cache alone, once CACHE_ENV
names a directory, and numpy by the lattice code that `validate` runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import __version__
from .compatibility import build_problem, solve_compatibility
from .diffpoly import enumerate_basis, monomial_text
from .errors import AsymintError, DomainError
from .field import CoeffField
from .jordan import jordan_coefficients, sample_window, verify_on_sequence
from .lattice import error_scaling
from .reduction import run_reduction

CACHE_ENV = "ASYMINT_CACHE_DIR"


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

    p = sub.add_parser("reduce", help="run the multiscale reduction and report the flows")
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--order", type=int, default=9)
    p.add_argument("--h", type=_fraction, default=None,
                   help="also evaluate every coefficient at this exact h")
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="solve the commutation conditions at one order")
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--order", type=int, choices=(7, 9), required=True)
    p.add_argument("--symbolic-knowns", action="store_true",
                   help="keep the forcing labels symbolic in the solved output")
    p.add_argument("--out", default=None)

    p = sub.add_parser("jordan", help="re-expand a coarse difference in fine differences")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--omega", type=_fraction, required=True)
    p.add_argument("--max-i", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--verify", default=None, metavar="poly:D",
                   help="check the expansion on a degree-D polynomial sequence")
    p.add_argument("--out", default=None)

    p = sub.add_parser("validate", help="integrate the lattice and measure error scaling")
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--eps", type=_eps_list, default=[0.2, 0.1, 0.05])
    p.add_argument("--T", type=float, default=0.1)
    p.add_argument("--dt", type=float, default=0.02)
    p.add_argument("--out", default=None)

    p = sub.add_parser("proposition",
                       help="full pipeline for both lattice branches at orders 7 and 9")
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


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _source_digest() -> str:
    """sha256 of the package's Python sources, so an edited program never
    reads an artifact that another version of the code wrote."""
    import hashlib
    from pathlib import Path

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cached(key_parts: List[str], build) -> str:
    """Build the artifact text, reusing a cache file when the environment
    names a cache directory.  The key includes the digest of the sources;
    a new entry is written to a temporary file and then renamed into place,
    so a reader never sees a partial one.  An unusable cache directory
    fails before the build."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return build()
    import hashlib
    import tempfile

    os.makedirs(cache_dir, exist_ok=True)
    digest = hashlib.sha256("|".join([_source_digest(), *key_parts]).encode()).hexdigest()[:24]
    path = os.path.join(cache_dir, f"asymint-{digest}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    if not os.access(cache_dir, os.W_OK):
        raise OSError(f"cannot write the cache directory {cache_dir}")
    text = build()
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return text


def _stopwatch(label: str, start: float) -> None:
    sys.stderr.write(f"[{label}] {time.monotonic() - start:.2f}s\n")


def _emit(key_parts: List[str], payload: Callable[[], dict], out: Optional[str]) -> str:
    """Build (or reuse) the JSON artifact of the command named by the first
    key part, write it, time both on stderr, and return its text."""
    start = time.monotonic()
    text = _cached(key_parts, lambda: _json_text(payload()))
    _write(text, out)
    _stopwatch(key_parts[0], start)
    return text


# --- subcommands -----------------------------------------------------------------


def _cmd_dims(args) -> int:
    if args.degree < 0:
        raise DomainError(f"--degree must be non-negative, got {args.degree}")
    if args.max_field < 1:
        raise DomainError(f"--max-field must be at least 1, got {args.max_field}")
    space = enumerate_basis(args.degree, args.grading, args.max_field)
    lines = [str(len(space))] + [monomial_text(m) for m in space]
    _write("\n".join(lines) + "\n", None)
    return 0


def _reduction_payload(s: int, order: int, h: Optional[Fraction]) -> dict:
    rep = run_reduction(CoeffField(s), order=order)
    payload = {
        "schema": "asymint.reduce/1",
        "s": rep.s,
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
    return payload


def _cmd_reduce(args) -> int:
    if args.h is not None and not 0 < args.h < 1:
        raise DomainError(f"h must lie in (0, 1), got {args.h}")
    _emit(
        ["reduce", str(args.s), str(args.order), str(args.h)],
        lambda: _reduction_payload(args.s, args.order, args.h),
        args.out,
    )
    return 0


def _check_payload(s: int, order: int, symbolic: bool) -> dict:
    rep = run_reduction(CoeffField(s), order=order)
    problem = build_problem(rep, order)
    out = solve_compatibility(problem)
    if symbolic:
        solved = {name: poly.text() for name, poly in sorted(out.solved_coefficients.items())}
    else:
        solved = {
            name: poly.evaluate(problem.known_values).text()
            for name, poly in sorted(out.solved_coefficients.items())
        }
    return {
        "schema": "asymint.check/1",
        "s": s,
        "order": order,
        "variant": out.variant,
        "solved": solved,
        "constraints": [c.text() for c in out.residual_constraints],
        "evaluated": [v.text() for v in out.evaluated],
        "verdict": out.verdict,
        "witness": out.witness,
    }


def _cmd_check(args) -> int:
    text = _emit(
        ["check", str(args.s), str(args.order), str(args.symbolic_knowns)],
        lambda: _check_payload(args.s, args.order, args.symbolic_knowns),
        args.out,
    )
    return 2 if json.loads(text)["verdict"] == "FAIL" else 0


def _cmd_jordan(args) -> int:
    degree = None
    if args.verify is not None:
        kind, _, rest = args.verify.partition(":")
        if kind != "poly" or not rest.isdigit():
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
    _write(_json_text(payload), args.out)
    return 0


def _cmd_validate(args) -> int:
    start = time.monotonic()
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
    _write("\n".join(lines) + "\n", args.out)
    _stopwatch("validate", start)
    return 0


EXPECTED_PATTERN = {
    "0": {"order7": "PASS", "order9": "FAIL"},
    "1": {"order7": "PASS", "order9": "PASS"},
}


def _proposition_payload() -> dict:
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
    return {
        "schema": "asymint.proposition/1",
        "engine": f"asymint {__version__}",
        "branches": branches,
        "expected": EXPECTED_PATTERN,
        "reproduced": reproduced,
    }


def _cmd_proposition(args) -> int:
    text = _emit(["proposition"], _proposition_payload, args.out)
    return 0 if json.loads(text)["reproduced"] else 2


_COMMANDS = {
    "dims": _cmd_dims,
    "reduce": _cmd_reduce,
    "check": _cmd_check,
    "jordan": _cmd_jordan,
    "validate": _cmd_validate,
    "proposition": _cmd_proposition,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_writable(getattr(args, "out", None))
        return _COMMANDS[args.command](args)
    except (AsymintError, ValueError, OSError) as exc:
        sys.stderr.write(f"asymint {args.command}: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
