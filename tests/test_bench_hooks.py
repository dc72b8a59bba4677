"""The benchmark's tracer patches asymint functions by name.

perfbench/tracer.py is read as source (nothing is written beside it) and
every attribute it patches must exist, so a rename in the package fails
here and not only in a traced benchmark run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
