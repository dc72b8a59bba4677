"""The benchmark's tracer patches asymint functions by name, and its
reference artifacts pin every byte the commands print.

perfbench/tracer.py is read as source (nothing is written beside it) and
every attribute it patches must exist, and the size hooks must read the
arguments and results they expect, so a rename or a changed call shape in
the package fails here and not only in a traced benchmark run.  The cheap
benchmark ops, taken from perfbench/ops.py read the same way, run once in a
traced interpreter: they must print artifacts whose sha256 equals
perfbench/reference/sha256.json, and their traced span calls and counters
must equal perfbench/reference/counts.json.
The `validate` ops, run on a short horizon, must match every reference
count but the two that grow with the number of steps.  The criterion-09
error-scaling runs, which the `validate` ops repeat, must match
perfbench/reference/validate_s{0,1}.csv within the benchmark's CSV
tolerance.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
OPS = TRACER.parent / "ops.py"

# patched by Tracer.install besides the SPANS entries
EXTRA = [
    ("_polyops", "pgcd"),
    ("_polyops", "ONE"),
    ("field", "RatFunc.__mul__"),
    ("lattice", "rhs"),
]


def resolve(module, path):
    owner = importlib.import_module(f"asymint.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def patch_points():
    spans = runpy.run_path(str(TRACER))["SPANS"]
    return [(module, path) for module, path, _ in spans] + EXTRA


@pytest.mark.parametrize("module, path", patch_points())
def test_tracer_patch_point_resolves(module, path):
    target = resolve(module, path)
    assert path == "ONE" or callable(target)


# The benchmark's symbolic ops, each about a second or less; the `validate`
# ops are traced on a short horizon below.  proposition (orders 7 and 9 on both
# branches), check9_s0, check9_s1 and check9_symbolic are the order-9
# eliminations, where KnownPoly.substitute does most work, proposition the
# most; check9_s0 prints the FAIL witness of the s = 0 ring with zero
# divisors, and check9_symbolic keeps the knowns symbolic.
CHEAP_OPS = ["proposition", "check7_s0", "check7_s1", "check9_s0", "check9_s1",
             "check9_symbolic", "reduce9_s0", "reduce9_s1", "jordan"]

# Installs the tracer in a fresh interpreter (-B: no bytecode is written
# beside it), integrates 8 sites for 3 steps, then runs each op of the
# JSON argv map with the tracer's records cleared before it; prints the
# integration's counters and each op's exit code, artifact sha256, span
# calls and counters.  The tracer's wrappers hand back each call's own
# result, so a traced artifact is byte for byte the untraced one.
SIZE_PROBE = """
import contextlib, hashlib, io, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from asymint import cli, lattice
lattice.integrate(lattice.LatticeState(np.ones(8, dtype=complex), 0.5), 0.01, 3, 1)
result = {"integrate": dict(tracer.counts)}
for key, argv in json.loads(sys.argv[2]).items():
    for record in (tracer.spans, tracer.stack, tracer.counts, tracer.solves):
        record.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    trace = tracer.summary(0.0)
    sha256 = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    result[key] = {"rc": rc, "sha256": sha256, "calls": trace["calls"], "counts": trace["counts"]}
print(json.dumps(result))
"""


def run_probe(argvs):
    """SIZE_PROBE's result for a map of op key to argv."""
    src = str(TRACER.parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SIZE_PROBE, str(TRACER.parent), json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def cheap_probe():
    """SIZE_PROBE's result for the cheap ops, run once for this module."""
    ops = runpy.run_path(str(OPS))["OPS"]
    return run_probe({key: list(ops[key].argv) for key in CHEAP_OPS})


def test_tracer_size_hooks_read_the_call_shapes(cheap_probe):
    bench = runpy.run_path(str(OPS))
    result = dict(cheap_probe)
    counts = result.pop("integrate")
    assert counts["lattice.rhs.calls"] == 12  # four per step
    assert counts["lattice.site_steps"] == 24
    assert counts["lattice.state_bytes"] == 128
    counts = result["check7_s1"]["counts"]
    solve = [counts[f"compatibility.{key}"] for key in ("equations", "unknowns", "pivots")]
    assert solve == [9, 6, 6]
    # every span call and counter of each op equals the benchmark's reference
    for key, op in result.items():
        assert op["rc"] == bench["OPS"][key].exit, key
        assert bench["check_counts"](key, op) == [], key


# The `validate` ops cut to a horizon of 0.0001, one, five and forty RK4
# steps at eps 0.2, 0.1 and 0.05: the two counters that scale with the steps
# are pinned on their own, every other span call and counter (the reduction,
# the six profiles and their scalar work) equals the benchmark's reference.
STEP_COUNTS = {"lattice.rhs.calls": 4 * (1 + 5 + 40), "lattice.site_steps": 51300}


def test_short_validate_ops_match_the_reference_counts():
    bench = runpy.run_path(str(OPS))
    keys = ["validate_s0", "validate_s1"]
    result = run_probe({key: list(bench["OPS"][key].argv) + ["--T", "0.0001"] for key in keys})
    reference = json.loads((OPS.parent / "reference" / "counts.json").read_text())
    for key in keys:
        op, want = result[key], reference[key]
        assert op["rc"] == 0, key
        assert {name: op["counts"].pop(name, None) for name in STEP_COUNTS} == STEP_COUNTS, key
        assert op["calls"] == want["calls"], key
        assert op["counts"] == {
            name: value for name, value in want["counts"].items() if name not in STEP_COUNTS
        }, key


@pytest.mark.parametrize("key", CHEAP_OPS)
def test_cheap_benchmark_artifacts_match_the_reference_sha256(cheap_probe, key):
    op = runpy.run_path(str(OPS))["OPS"][key]
    assert cheap_probe[key]["rc"] == op.exit
    reference = json.loads((OPS.parent / "reference" / "sha256.json").read_text())
    assert cheap_probe[key]["sha256"] == reference[key]


def test_benchmark_self_test_flags_every_injected_fault():
    # each gate accepts its reference and rejects its corruption: sha256,
    # exit code, CSV row and slope, witness, `reproduced` flag and counts
    assert runpy.run_path(str(OPS))["self_test"]() == []


@pytest.mark.parametrize("s", [0, 1])
def test_error_scaling_matches_the_validate_reference_csv(scaling, s):
    bench = runpy.run_path(str(OPS))
    rel, absolute = bench["REL_TOL"], bench["ABS_TOL"]
    lines = (OPS.parent / "reference" / f"validate_s{s}.csv").read_text().splitlines()
    want = [line.split(",") for line in lines[1:]]
    result = scaling(s)
    assert [row.epsilon for row in result.rows] == [float(ref[0]) for ref in want]
    pairs = [(result.slope, float(want[-1][3]))]
    for row, ref in zip(result.rows, want):
        pairs += [(row.sup_error, float(ref[1])), (row.norm_drift, float(ref[2]))]
    for got, ref in pairs:
        assert abs(got - ref) <= rel * abs(ref) + absolute, (got, ref)
