"""asymint benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 30 --trace 0

The program under test is `src/asymint` of the checkout that holds this
file.  A closed loop with one client drives the public
`asymint.cli.main(argv)`, one op at a time, each op in a fresh interpreter
(`child.py`) that times it from the end of the import to the return of
`main`.  CLI users pay every computation once per process, so warm
in-process state never counts.  The seed only permutes the order of the
workload's commands within each pass; the inputs are the paper's fixed
configurations (`ops.py`).

Every op's artifact is checked (`ops.check_op`); a failed op counts in
`failed` and never as a timing sample.  With `--trace 1` every op runs a
second time with spans around the library's public functions
(`tracer.py`), its exact counts are checked against the seed's
(`ops.check_counts`), and the per-layer metrics come from those traced ops.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from ops import OPS, WORKLOADS, check_counts, check_op, self_test

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170.0  # no op may run past this point of a run

# Spans reported as <name>.self_s, in table order; "cli" is op time outside every span.
SELF_TIMES = [
    "compatibility.build_problem",
    "compatibility.commutator_equations",
    "compatibility.eliminate_unknowns",
    "compatibility.rref",
    "compatibility.solve_compatibility",
    "knowns.substitute",
    "reduction.run_reduction",
    "diffpoly.time_derivative",
    "lattice.integrate",
    "lattice.profile",
    "lattice.error_scaling",
    "jordan.jordan_coefficients",
    "jordan.verify_on_sequence",
    "cli",
]
COUNTS = [
    "compatibility.equations",
    "compatibility.unknowns",
    "compatibility.pivots",
    "compatibility.leftovers",
    "compatibility.rref_rows",
    "compatibility.constraints",
    "polyops.pgcd.calls",
    "field.ratfunc_mul.calls",
    "lattice.site_steps",
    "lattice.rhs.calls",
    "lattice.state_bytes",
]
CALLS = {
    "knowns.substitute.calls": "knowns.substitute",
    "reduction.calls": "reduction.run_reduction",
    "diffpoly.time_derivative.calls": "diffpoly.time_derivative",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("ASYMINT_CACHE_DIR", None)  # a warm artifact cache is not a fresh run
    env["PYTHONPATH"] = str(SRC)
    return env


def check_import(env: Dict[str, str]) -> None:
    """Import asymint.cli once in a fresh interpreter, untimed: it must come
    from this checkout's sources, and the import writes the bytecode cache."""
    if not (SRC / "asymint" / "cli.py").is_file():
        raise BenchError(f"no asymint sources under {SRC}")
    probe = [sys.executable, "-c", "import asymint.cli as c; print(c.__file__)"]
    proc = subprocess.run(probe, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"importing asymint.cli failed:\n{proc.stderr[-2000:]}")
    if Path(proc.stdout.strip()).resolve().parent.parent != SRC:
        raise BenchError(f"asymint.cli resolved to {proc.stdout.strip()}, not under {SRC}")


def run_op(key: str, trace: bool, env: Dict[str, str], timeout: float) -> dict:
    """One op in a fresh interpreter, checked.  `problems` is empty when the
    op's artifact (and, traced, its counts) is correct.  `setup_s` is the
    time from before the spawn to the end of the child's import."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(list(OPS[key].argv)), str(int(trace))]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"key": key, "wall": time.perf_counter() - start, "problems": ["op timed out"]}
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        last = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"key": key, "wall": wall, "problems": [f"child exited {proc.returncode}: {last[0]}"]}
    result = json.loads(lines[-1])
    problems = check_op(key, result["rc"], result.pop("artifact"))
    if trace:
        problems += check_counts(key, result["trace"])
    if problems and result["stderr"].strip():
        problems.append("stderr: " + result["stderr"].strip()[-300:])
    result.update(key=key, wall=wall, setup_s=result.pop("imported") - start, problems=problems)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, env: Dict[str, str],
            run_start: float):
    """Closed loop over seeded permutations of the workload's commands.  At
    least one whole pass runs; after that no op starts that would, by its
    last wall time, end past `seconds`.  With `trace`, each op is followed
    by its traced twin.  Returns the untraced ops and the traced ops grouped
    by pass."""
    rng = random.Random(seed)
    plain: List[dict] = []
    traced_passes: List[List[dict]] = []
    last_wall: Dict[str, float] = {}
    start = time.perf_counter()
    while True:
        order = list(WORKLOADS[workload])
        rng.shuffle(order)
        traced_passes.append([])
        for key in order:
            cost = last_wall.get(key, 0.0) * (2 if trace else 1)
            now = time.perf_counter()
            if (len(traced_passes) > 1 and now - start + cost > seconds) \
                    or now - run_start + cost > RUN_LIMIT_S:
                return plain, traced_passes
            record = run_op(key, False, env, RUN_LIMIT_S - (now - run_start))
            plain.append(record)
            last_wall[key] = record["wall"]
            if trace and not record["problems"]:
                twin = run_op(key, True, env, RUN_LIMIT_S - (time.perf_counter() - run_start))
                twin["untraced_op_s"] = record["op_s"]
                traced_passes[-1].append(twin)
        if time.perf_counter() - start >= seconds:
            return plain, traced_passes


def _samples(plain: List[dict], keys: List[str]) -> Dict[str, List[float]]:
    return {k: [r["op_s"] for r in plain if r["key"] == k and not r["problems"]] for k in keys}


def upper_quartile(values: List[float]) -> float:
    """Op time statistic.  This host runs intermittently fast (up to 1.5x)
    for seconds at a time; the upper quartile tracks its steady speed and
    varies least between runs (see README.md)."""
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def _setup_samples(plain: List[dict]) -> List[float]:
    return [r["setup_s"] for r in plain if not r["problems"]]


def end_to_end(plain: List[dict], keys: List[str]) -> Dict[str, float]:
    typical = [upper_quartile(v) for v in _samples(plain, keys).values()]
    return {
        "setup_s": upper_quartile(_setup_samples(plain)),
        "pass_s": sum(typical),
        "op_geomean_s": math.exp(statistics.fmean(math.log(t) for t in typical)),
        "peak_rss_mb": max(r["rss_mb"] for r in plain if not r["problems"]),
    }


def _pass_totals(ops: List[dict]) -> dict:
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for op in ops:
        summary = op["trace"]
        self_s.update(summary["self_s"])
        total_s.update(summary["total_s"])
        calls.update(summary["calls"])
        for key, value in summary["counts"].items():
            counts[key] = max(counts[key], value) if key == "lattice.state_bytes" else counts[key] + value
    return {"self_s": self_s, "total_s": total_s, "calls": calls, "counts": counts,
            "op_s": sum(op["op_s"] for op in ops)}


def per_layer(traced_passes: List[List[dict]], keys: List[str]):
    """Per-layer metrics from the complete, correct traced passes: times are
    medians over passes of per-pass sums; counts come from the first pass
    (every traced op's counts were checked against the reference)."""
    complete = [p for p in traced_passes
                if sorted(op["key"] for op in p) == sorted(keys) and not any(op["problems"] for op in p)]
    if not complete:
        return {}
    totals = [_pass_totals(p) for p in complete]
    metrics: Dict[str, float] = {
        f"{name}.self_s": statistics.median(t["self_s"].get(name, 0.0) for t in totals)
        for name in SELF_TIMES
    }
    metrics["compatibility.eliminate_unknowns.total_s"] = statistics.median(
        t["total_s"].get("compatibility.eliminate_unknowns", 0.0) for t in totals
    )
    first = totals[0]
    counts = first["counts"]
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    for name, span in CALLS.items():
        metrics[name] = first["calls"].get(span, 0)
    pgcd = counts.get("polyops.pgcd.calls", 0)
    metrics["polyops.pgcd.const_share"] = counts.get("polyops.pgcd.const", 0) / pgcd if pgcd else 0.0
    metrics["polyops.pgcd.unit_share"] = counts.get("polyops.pgcd.unit", 0) / pgcd if pgcd else 0.0
    site_steps = counts.get("lattice.site_steps", 0)
    metrics["lattice.ns_per_site_step"] = (
        metrics["lattice.integrate.self_s"] / site_steps * 1e9 if site_steps else 0.0
    )
    metrics["trace.op_s"] = statistics.median(t["op_s"] for t in totals)
    twins = [op for p in complete for op in p]
    metrics["trace.overhead"] = (
        sum(op["op_s"] for op in twins) / sum(op["untraced_op_s"] for op in twins) - 1.0
    )
    return metrics


def environment() -> dict:
    def cache(level: int) -> str:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level) and \
                        (index / "type").read_text().strip() in ("Unified", "Data"):
                    return (index / "size").read_text().strip()
            except OSError:
                pass
        return "unknown"

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2_per_core": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("share") or name == "trace.overhead":
        return "ratio"
    if name == "lattice.ns_per_site_step":
        return "ns"
    if name == "lattice.state_bytes":
        return "B"
    return "count"


def _row(name: str, value, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<42} {text:>14} {_unit(name):<6} {note}".rstrip())


def report(args, plain, traced_passes, metrics) -> None:
    """Human-readable table; everything here precedes the result line."""
    keys = WORKLOADS[args.workload]
    print(f"asymint benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"closed loop, 1 client, one fresh interpreter per op")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("per command (untraced op time, failed ops excluded):")
    groups: Dict[str, List[float]] = {}
    for key, values in _samples(plain, keys).items():
        groups.setdefault(OPS[key].group, []).extend(values)
    for key, values in _samples(plain, keys).items():
        print(f"  samples {key}: " + " ".join(f"{v:.4f}" for v in values))
    print("  samples setup: " + " ".join(f"{v:.4f}" for v in _setup_samples(plain)))
    for group, values in groups.items():
        if values:
            _row(f"{group}_s", upper_quartile(values),
                 f"p75 of n={len(values)}; median {statistics.median(values):.4g}, "
                 f"min {min(values):.4g}, max {max(values):.4g}")
        else:
            _row(f"{group}_s", "none", "n=0")
    traced = [op for p in traced_passes for op in p]
    ops = plain + traced
    failed = [r for r in ops if r["problems"]]
    _row("fail_share", len(failed) / len(ops), f"{len(failed)} of {len(ops)} ops")
    for r in failed:
        print(f"  FAILED {r['key']}: {'; '.join(r['problems'])}")
    if args.trace:
        print("traced ops (exact counts checked against reference/counts.json):")
        traced_ok = [[op for op in p if not op["problems"]] for p in traced_passes]
        for op in sum(traced_ok, []):
            counts = op["trace"]["counts"]
            print(f"  {op['key']:<16} traced {op['op_s']:.4f} s, untraced {op['untraced_op_s']:.4f} s, "
                  f"pgcd {counts.get('polyops.pgcd.calls', 0)}, "
                  f"substitute {op['trace']['calls'].get('knowns.substitute', 0)}")
        for op in traced_ok[0]:
            for solve in op["trace"]["solves"]:
                print(f"  {op['key']} solve: " + ", ".join(f"{k} {v}" for k, v in solve.items()))
        if metrics:
            first = _pass_totals(traced_ok[0])
            print("  spans of the first traced pass, by self time (self s / inclusive s / calls):")
            for name, value in sorted(first["self_s"].items(), key=lambda kv: -kv[1]):
                print(f"    {name:<40} {value:10.4f} {first['total_s'][name]:10.4f} "
                      f"{first['calls'].get(name, len(traced_ok[0])):8d}")
            gap = max(abs(sum(t["self_s"].values()) - t["op_s"])
                      for t in map(_pass_totals, traced_ok))
            print(f"  self times incl. cli.self_s sum to the traced op time of every pass "
                  f"within {gap:.2e} s")
    print("metrics:")
    samples = _samples(plain, keys)
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"p75 of n={len(_setup_samples(plain))}, one per untraced op"
        elif name in ("pass_s", "op_geomean_s"):
            note = "from per-command p75, n=" + "/".join(str(len(v)) for v in samples.values())
        _row(name, value, note)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    broken = self_test()
    if broken:
        for line in broken:
            print(f"perfbench: check self-test failed: {line}", file=sys.stderr)
        return 3
    env = _child_env()
    try:
        check_import(env)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    plain, traced_passes = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                   env, run_start)
    keys = WORKLOADS[args.workload]
    every_command = all(_samples(plain, keys).values())
    if args.trace:
        metrics = per_layer(traced_passes, keys)
    else:
        metrics = end_to_end(plain, keys) if every_command else {}
    report(args, plain, traced_passes, metrics)
    ops = plain + [op for p in traced_passes for op in p]
    failed = sum(1 for r in ops if r["problems"])
    result = {
        "correct": failed == 0 and every_command and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
