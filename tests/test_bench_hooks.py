"""The benchmark's tracer patches asymint functions by name, and its
reference artifacts pin every byte the commands print.

perfbench/tracer.py is read as source (nothing is written beside it) and
every attribute it patches must exist, and the size hooks must read the
arguments and results they expect, so a rename or a changed call shape in
the package fails here and not only in a traced benchmark run.  The cheap
benchmark ops, taken from perfbench/ops.py read the same way, must print
artifacts whose sha256 equals perfbench/reference/sha256.json.
"""

import contextlib
import hashlib
import importlib
import io
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


# Installs the tracer in a fresh interpreter (-B: no bytecode is written
# beside it), then integrates 8 sites for 3 steps, solves the s = 1 order-7
# commutation problem and, with the counters cleared in between, runs the
# s = 0 order-9 reduction; prints the tracer's counters after each op.
SIZE_PROBE = """
import contextlib, io, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from asymint import cli, lattice
lattice.integrate(lattice.LatticeState(np.ones(8, dtype=complex), 0.5), 0.01, 3, 1)
ops = {"check7_s1": ["check", "--s", "1", "--order", "7"],
       "reduce9_s0": ["reduce", "--s", "0", "--order", "9", "--h", "1/3"]}
result = {}
for key, argv in ops.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    result[key] = {"rc": rc, "counts": dict(tracer.counts)}
    tracer.counts.clear()
print(json.dumps(result))
"""

# The exact scalar work of each op: every change to the algebra layers must
# leave these counters equal to the benchmark's reference.
SCALAR_WORK = ("polyops.pgcd.calls", "polyops.pgcd.const", "polyops.pgcd.unit",
               "field.ratfunc_mul.calls")


def test_tracer_size_hooks_read_the_call_shapes():
    src = str(TRACER.parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "ASYMINT_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SIZE_PROBE, str(TRACER.parent)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    counts = result["check7_s1"]["counts"]
    assert all(op["rc"] == 0 for op in result.values())
    assert counts["lattice.rhs.calls"] == 12  # four per step
    assert counts["lattice.site_steps"] == 24
    assert counts["lattice.state_bytes"] == 128
    solve = [counts[f"compatibility.{key}"] for key in ("equations", "unknowns", "pivots")]
    assert solve == [9, 6, 6]
    reference = json.loads((TRACER.parent / "reference" / "counts.json").read_text())
    for key, op in result.items():
        got = {name: op["counts"].get(name, 0) for name in SCALAR_WORK}
        want = {name: reference[key]["counts"][name] for name in SCALAR_WORK}
        assert got == want, key


# The benchmark ops that take well under a second each.
CHEAP_OPS = ["check7_s0", "check7_s1", "reduce9_s0", "reduce9_s1", "jordan"]


@pytest.mark.parametrize("key", CHEAP_OPS)
def test_cheap_benchmark_artifacts_match_the_reference_sha256(key, monkeypatch):
    from asymint import cli

    op = runpy.run_path(str(OPS))["OPS"][key]
    monkeypatch.delenv("ASYMINT_CACHE_DIR", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(op.argv))
    assert rc == op.exit
    reference = json.loads((OPS.parent / "reference" / "sha256.json").read_text())
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == reference[key]
