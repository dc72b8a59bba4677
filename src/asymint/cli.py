"""Command-line frontend.

Every artifact is deterministic: identical configuration produces
byte-identical JSON/CSV output, so reports can be diffed.
Each command returns its artifact text and exit code; `main` alone writes
the text to --out or stdout and then prints one `[<command>] N.NNs` timing
line on stderr.  Exit codes: 0 on success, 2 when a commutation verdict
is FAIL, 1 on usage errors, out-of-domain input, a run out of memory or
an unwritable output path (found before any computation starts), with one
error line on stderr and no artifact.  Every option is spelled in full,
as `--name value` or `--name=value`, from one table, `_COMMANDS`.

Start-up loads every asymint module, `lattice` and `jordan` included;
only numpy waits until the lattice code that `validate` runs imports it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from . import __version__
from .compatibility import build_problem, solve_compatibility
from .diffpoly import enumerate_basis, monomial_text
from .errors import AsymintError, DomainError
from .field import CoeffField
from .jordan import jordan_coefficients, sample_window, verify_on_sequence
from .lattice import error_scaling
from .reduction import run_reduction


class _UsageError(Exception):
    """A rejected command line: its program name and the message of its error line."""


def _converter(convert: Callable, invalid: str, *choices) -> Callable:
    """`convert`, then a check that the value is one of `choices` if they are given."""

    def checked(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{invalid}: {text!r}") from None
        if choices and value not in choices:
            listed = ", ".join(map(repr, choices))
            raise ValueError(f"invalid choice: {value!r} (choose from {listed})")
        return value

    return checked


_INT, _FLOAT = _converter(int, "invalid int value"), _converter(float, "invalid float value")
_FRACTION = _converter(Fraction, "not an exact number")
_EPS = _converter(lambda t: [float(p) for p in t.split(",") if p], "not a comma-separated float list")


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
    solved = {name: (poly if args.symbolic_knowns else poly.evaluate(problem.known_values)).text()
              for name, poly in sorted(out.solved_coefficients.items())}
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
        q = args.omega.denominator
        step = Fraction(1, q)
        _, _, span = sample_window(exp, step)
        # q^degree times sum_m (m+1) (k/q)^m, in integers; the gap is linear in the samples
        samples = [sum((m + 1) * k**m * q ** (degree - m) for m in range(degree + 1))
                   for k in range(span + 4)]
        payload["verify"] = {
            "sequence": f"degree-{degree} polynomial",
            "step": str(step),
            "residual": str(verify_on_sequence(exp, samples, step=step) / q**degree),
        }
    return _json_text(payload), 0


def _cmd_validate(args) -> Tuple[str, int]:
    result = error_scaling(args.s, args.h, args.eps, T=args.T, dt=args.dt)
    lines = ["eps,sup_error,norm_drift,slope"] + [
        f"{row.epsilon:g},{row.sup_error:.12e},{row.norm_drift:.12e}," for row in result.rows]
    lines[-1] += f"{result.slope:.6f}"  # the slope goes on the last row only
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


_REQUIRED = object()  # the default of an option that must be given
_S, _OUT = _converter(int, "invalid int value", 0, 1), {"--out": (str, None)}

# command -> (function, help, {option: (convert, default)}); a convert of None is a switch
_COMMANDS = {
    "dims": (_cmd_dims, "dimension and basis of one graded monomial space", {
        "--degree": (_INT, _REQUIRED), "--max-field": (_INT, 1),
        "--grading": (_converter(str, "invalid str value", "potential", "kdv"), "potential")}),
    "reduce": (_cmd_reduce, "run the multiscale reduction and report the flows", {
        "--s": (_S, _REQUIRED), "--order": (_INT, 9), "--h": (_FRACTION, None), **_OUT}),
    "check": (_cmd_check, "solve the commutation conditions at one order", {
        "--s": (_S, _REQUIRED), "--order": (_converter(int, "invalid int value", 7, 9), _REQUIRED),
        "--symbolic-knowns": (None, False), **_OUT}),
    "jordan": (_cmd_jordan, "re-expand a coarse difference in fine differences", {
        "--j": (_INT, _REQUIRED), "--omega": (_FRACTION, _REQUIRED), "--max-i": (_INT, _REQUIRED),
        "--p": (_INT, None), "--verify": (str, None), **_OUT}),
    "validate": (_cmd_validate, "integrate the lattice and measure error scaling", {
        "--s": (_S, _REQUIRED), "--h": (_FLOAT, 0.5), "--eps": (_EPS, (0.2, 0.1, 0.05)),
        "--T": (_FLOAT, 0.1), "--dt": (_FLOAT, 0.02), **_OUT}),
    "proposition": (_cmd_proposition,
                    "full pipeline for both lattice branches at orders 7 and 9", _OUT),
}


def _help(commands: Iterable[str]) -> str:
    """The usage line, with every option, and the help line of each command."""
    lines = []
    for command in commands:
        words = [f"usage: asymint {command}"]
        for name, (convert, default) in _COMMANDS[command][2].items():
            word = name if convert is None else f"{name} {name[2:].upper().replace('-', '_')}"
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines += [" ".join(words), f"  {_COMMANDS[command][1]}"]
    return "\n".join(lines) + "\n"


def _parse(argv: List[str]) -> Union[SimpleNamespace, str]:
    """The command and its options as attributes (`--max-i` is `max_i`), or
    the --help or --version text that argv asks for."""
    if not argv:
        raise _UsageError("asymint", "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help", "--version"):
        return f"asymint {__version__}\n" if command == "--version" else _help(_COMMANDS)
    if command not in _COMMANDS:
        raise _UsageError("asymint", f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    prog, options = f"asymint {command}", _COMMANDS[command][2]
    values = {name: default for name, (_, default) in options.items()}
    unknown, tokens = [], iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return _help([command])
        name, explicit, text = token.partition("=")
        if name not in options:
            unknown.append(token)
        elif options[name][0] is None:
            if explicit:
                raise _UsageError(prog, f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
        else:
            text = text if explicit else next(tokens, "--")  # the end of argv is a missing value
            if text.startswith("--") and not explicit:
                raise _UsageError(prog, f"argument {name}: expected one argument")
            try:
                values[name] = options[name][0](text)
            except ValueError as exc:
                raise _UsageError(prog, f"argument {name}: {exc}") from exc
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise _UsageError(prog, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(prog, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command,
                           **{name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        sys.stderr.write("%s: error: %s\n" % exc.args)
        return 1
    if isinstance(args, str):
        sys.stdout.write(args)
        return 0
    out = getattr(args, "out", None)
    try:
        _check_writable(out)
        start = time.monotonic()
        text, code = _COMMANDS[args.command][0](args)
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
