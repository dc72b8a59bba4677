"""The benchmark's commands, the workloads that group them, and the
correctness checks every op's artifact must pass.

References were recorded from the seed program with the argv below: text
artifacts by sha256 (`reference/sha256.json`, with the artifact itself
next to it), the validation CSVs by value, since a rewritten RK4 may move
the last printed digit, and the exact counts of each traced op
(`reference/counts.json`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference"

# A validation value passes when |x - ref| <= REL_TOL * |ref| + ABS_TOL; the
# absolute part covers round-off in the norm drift (about 1e-13).
REL_TOL = 1e-6
ABS_TOL = 1e-12
MIN_SLOPE = 1.7  # acceptance criterion 09

_VALIDATE = ["--h", "0.5", "--eps", "0.2,0.1,0.05", "--T", "0.1", "--dt", "0.02"]


@dataclass(frozen=True)
class Op:
    group: str  # the per-command metric the op's time belongs to
    argv: Tuple[str, ...]
    exit: int
    checks: Tuple[str, ...] = ()


OPS: Dict[str, Op] = {
    "proposition": Op("proposition", ("proposition",), 0, ("reproduced",)),
    "check9_s0": Op("check9_s0", ("check", "--s", "0", "--order", "9"), 2, ("witness",)),
    "check9_s1": Op("check9_s1", ("check", "--s", "1", "--order", "9"), 0),
    "check9_symbolic": Op(
        "check9_symbolic", ("check", "--s", "0", "--order", "9", "--symbolic-knowns"), 2, ("witness",)
    ),
    "reduce9_s0": Op("reduce9", ("reduce", "--s", "0", "--order", "9", "--h", "1/3"), 0),
    "reduce9_s1": Op("reduce9", ("reduce", "--s", "1", "--order", "9", "--h", "1/3"), 0),
    "check7_s0": Op("check7", ("check", "--s", "0", "--order", "7"), 0),
    "check7_s1": Op("check7", ("check", "--s", "1", "--order", "7"), 0),
    "jordan": Op("jordan", ("jordan", "--j", "2", "--omega", "3", "--max-i", "6", "--p", "5",
                            "--verify", "poly:5"), 0),
    "validate_s0": Op("validate", ("validate", "--s", "0", *_VALIDATE), 0, ("csv",)),
    "validate_s1": Op("validate", ("validate", "--s", "1", *_VALIDATE), 0, ("csv",)),
}

WORKLOADS: Dict[str, List[str]] = {
    "verdict": ["proposition", "check9_s0", "check9_s1", "check9_symbolic"],
    "flows": ["reduce9_s0", "reduce9_s1", "check7_s0", "check7_s1", "jordan"],
    "validate": ["validate_s0", "validate_s1"],
}


def reference_text(key: str) -> str:
    suffix = ".csv" if "csv" in OPS[key].checks else ".out"
    return (REFERENCE / f"{key}{suffix}").read_text(encoding="utf-8")


def _reference_json(name: str) -> dict:
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


# --- single checks: each returns a list of problems, empty when it passes -------


def check_exit(key: str, rc: int, text: str) -> List[str]:
    want = OPS[key].exit
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def check_sha256(key: str, rc: int, text: str) -> List[str]:
    got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    want = _reference_json("sha256.json")[key]
    return [] if got == want else [f"artifact sha256 {got[:16]} differs from reference {want[:16]}"]


def _payload(text: str) -> Optional[dict]:
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_reproduced(key: str, rc: int, text: str) -> List[str]:
    payload = _payload(text)
    if payload is None or payload.get("reproduced") is not True:
        return ["proposition artifact does not say reproduced: true"]
    return []


def check_witness(key: str, rc: int, text: str) -> List[str]:
    payload = _payload(text)
    if payload is None or payload.get("verdict") != "FAIL" or not payload.get("witness"):
        return ["order-9 s=0 artifact has no FAIL verdict with a witness"]
    return []


def _rows(text: str) -> List[List[str]]:
    return list(csv.reader(io.StringIO(text)))


def _close(got: str, want: str) -> bool:
    try:
        x, ref = float(got), float(want)
    except ValueError:
        return False
    return abs(x - ref) <= REL_TOL * abs(ref) + ABS_TOL


def check_csv(key: str, rc: int, text: str) -> List[str]:
    got, want = _rows(text), _rows(reference_text(key))
    if len(got) != len(want) or not got or got[0] != want[0]:
        return ["validation CSV does not have the reference header and row count"]
    problems = []
    for k, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(ref) or row[0] != ref[0]:
            problems.append(f"row {k}: eps {row[:1]} differs from reference {ref[:1]}")
            continue
        for col in (1, 2):
            if not _close(row[col], ref[col]):
                problems.append(f"row {k}: {want[0][col]} {row[col]} outside tolerance of {ref[col]}")
        if ref[3] and not _close(row[3], ref[3]):
            problems.append(f"row {k}: slope {row[3]} outside tolerance of {ref[3]}")
        if bool(row[3]) != bool(ref[3]):
            problems.append(f"row {k}: slope column is {'set' if row[3] else 'empty'} unlike reference")
    try:
        slope = float(got[-1][3])
    except (IndexError, ValueError):
        slope = float("nan")
    if not slope >= MIN_SLOPE:
        problems.append(f"slope {got[-1][3:]} below {MIN_SLOPE}")
    return problems


def check_counts(key: str, trace: dict) -> List[str]:
    """A traced op's span calls and counters must equal the reference
    recorded from the seed: the counts are exact and repeat in every run."""
    want = _reference_json("counts.json")[key]
    problems = []
    for part in ("calls", "counts"):
        got = trace[part]
        for name in sorted(set(got) | set(want[part])):
            if got.get(name, 0) != want[part].get(name, 0):
                problems.append(f"{part} {name} {got.get(name, 0)}, reference {want[part].get(name, 0)}")
    return problems


_SEMANTIC: Dict[str, Callable[[str, int, str], List[str]]] = {
    "reproduced": check_reproduced,
    "witness": check_witness,
    "csv": check_csv,
}


def check_op(key: str, rc: int, text: str) -> List[str]:
    """Every check that applies to the op; empty when its artifact is correct."""
    problems = check_exit(key, rc, text)
    if "csv" not in OPS[key].checks:
        problems += check_sha256(key, rc, text)
    for name in OPS[key].checks:
        problems += _SEMANTIC[name](key, rc, text)
    return problems


# --- self-test: every check accepts the reference and flags a corruption --------


def _shift_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    header, data = lines[0], lines[1:]
    values = [line.split(",", 1) for line in data]
    shifted = [f"{eps},{rest}" for (eps, _), (_, rest) in zip(values, values[1:] + values[:1])]
    return header + "".join(shifted)


def self_test() -> List[str]:
    """Show that each check can fail.  Returns what went wrong, if anything."""
    failures = []
    counts = _reference_json("counts.json")
    for key, op in OPS.items():
        if check_op(key, op.exit, reference_text(key)):
            failures.append(f"{key}: the reference artifact is rejected")
        if check_counts(key, counts[key]):
            failures.append(f"{key}: the reference counts are rejected")
    proposition = reference_text("proposition")
    witness = json.loads(reference_text("check9_s0"))
    witness["witness"] = None
    csv_text = reference_text("validate_s0")
    low_slope = csv_text.rsplit(",", 1)[0] + ",1.500000\n"
    changed = json.loads(json.dumps(counts["proposition"]))
    changed["counts"]["polyops.pgcd.calls"] += 1
    must_fail = {
        "corrupted artifact": check_sha256("proposition", 0, proposition.replace("PASS", "PASs", 1)),
        "wrong exit code": check_exit("check9_s0", 0, reference_text("check9_s0")),
        "shifted CSV row": check_csv("validate_s0", 0, _shift_row(csv_text)),
        "proposition not reproduced": check_reproduced(
            "proposition", 0, proposition.replace('"reproduced": true', '"reproduced": false')
        ),
        "missing witness": check_witness("check9_s0", 2, json.dumps(witness)),
        "slope below the criterion": check_csv("validate_s0", 0, low_slope),
        "changed count": check_counts("proposition", changed),
    }
    for name, problems in must_fail.items():
        if not problems:
            failures.append(f"{name} was not flagged")
    return failures


if __name__ == "__main__":
    import sys

    failed = self_test()
    for line in failed:
        print(f"self-test FAILED: {line}")
    if not failed:
        print(f"self-test passed: {len(OPS)} references accepted, 7 corruptions flagged")
    sys.exit(1 if failed else 0)
