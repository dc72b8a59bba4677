import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from asymint.cli import main
from asymint.field import CoeffField

from oracles import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_dims_prints_dimension_then_basis(capsys):
    code, out = run(capsys, "dims", "--degree", "6", "--max-field", "1",
                    "--grading", "potential")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "3"
    assert len(lines) == 4
    assert "D[1]{phi1}*D[1]{phi1}*D[1]{phi1}" in lines


def test_reduce_reports_canonical_text_and_numeric_values(capsys):
    code, out = run(capsys, "reduce", "--s", "1", "--order", "5", "--h", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "asymint.reduce/1"
    field = CoeffField(1)
    assert parse(field, payload["alphas"]["1"]) == parse(field, "((3 - 4*h^2)/24)*c")
    assert payload["numeric"]["alphas"]["2"] == pytest.approx(-0.5)
    assert payload["dispersion"]["sigma"] == 1


def test_check_order_seven_passes_with_no_constraints(capsys, tmp_path):
    out_path = tmp_path / "check.json"
    code, _ = run(capsys, "check", "--s", "1", "--order", "7", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "PASS"
    assert payload["constraints"] == []
    assert sorted(payload["solved"]) == [f"b{i}" for i in range(1, 7)]
    # the default mode evaluates the forcing labels away
    assert "a2" not in payload["solved"]["b2"]


def test_check_symbolic_knowns_keeps_forcing_labels(capsys):
    code, out = run(capsys, "check", "--s", "1", "--order", "7", "--symbolic-knowns")
    assert code == 0
    payload = json.loads(out)
    assert "*a2" in payload["solved"]["b2"]


def test_check_order_nine_failure_exits_two_with_witness(capsys, tmp_path):
    out_path = tmp_path / "check.json"
    code, _ = run(capsys, "check", "--s", "0", "--order", "9", "--out", str(out_path))
    assert code == 2
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "FAIL"
    assert payload["variant"] == "kdv"
    assert len(payload["constraints"]) == 5
    assert len(payload["solved"]) == 31
    assert "evaluates to" in payload["witness"]


def test_jordan_doubling_row_and_polynomial_verification(capsys):
    code, out = run(capsys, "jordan", "--j", "1", "--omega", "2", "--max-i", "4",
                    "--verify", "poly:4")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {"1": "2", "2": "1", "3": "0", "4": "0"}
    assert payload["verify"]["residual"] == "0"

    code, out = run(capsys, "jordan", "--j", "1", "--omega", "1/2", "--max-i", "4",
                    "--verify", "poly:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verify"]["step"] == "1/2"
    assert payload["verify"]["residual"] == "0"

    # truncated below j: no fine coefficients, the window is the coarse span
    code, out = run(capsys, "jordan", "--j", "3", "--omega", "2", "--max-i", "6",
                    "--p", "2", "--verify", "poly:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {}
    assert payload["verify"]["residual"] == "0"

    code, _ = run(capsys, "jordan", "--j", "1", "--omega", "2", "--max-i", "4",
                  "--verify", "exp:3")
    assert code == 1


def test_validate_writes_csv_with_slope_on_last_row(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _ = run(capsys, "validate", "--s", "1", "--h", "0.5",
                  "--eps", "0.3,0.24,0.2", "--T", "0.05", "--dt", "0.025",
                  "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "eps,sup_error,norm_drift,slope"
    assert len(lines) == 4
    for line in lines[1:3]:
        assert line.endswith(",")
    eps, sup, drift, slope = lines[3].split(",")
    assert eps == "0.2"
    assert float(sup) > 0 and float(drift) >= 0 and float(slope) != 0


# one cheap argv per command; dims has no --out
CONTRACT = [
    ["dims", "--degree", "6"],
    ["reduce", "--s", "1", "--order", "5"],
    ["check", "--s", "1", "--order", "7"],
    ["jordan", "--j", "1", "--omega", "2", "--max-i", "4", "--verify", "poly:4"],
    ["validate", "--s", "1", "--eps", "0.3,0.25,0.2", "--T", "0.001"],
]


@pytest.mark.parametrize("argv", CONTRACT, ids=[argv[0] for argv in CONTRACT])
def test_every_command_writes_its_artifact_then_one_timing_line(
    capsys, monkeypatch, tmp_path, argv
):
    monkeypatch.delenv("ASYMINT_CACHE_DIR", raising=False)
    timing = re.compile(rf"^\[{argv[0]}\] \d+\.\d\ds$")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and timing.match(err[0]), err
    if argv[0] == "dims":
        return
    out_path = tmp_path / "artifact"
    assert main([*argv, "--out", str(out_path)]) == 0
    again = capsys.readouterr()
    assert again.out == ""
    assert out_path.read_text(encoding="utf-8") == captured.out
    err = again.err.splitlines()
    assert len(err) == 1 and timing.match(err[0]), err


def test_usage_errors_exit_one(capsys):
    cases = [
        (["check", "--s", "1"], "asymint check: error: the following arguments are required"),
        (["check", "--s", "2", "--order", "7"], "asymint check: error: argument --s: invalid choice"),
        (["frobnicate"], "asymint: error: argument command: invalid choice"),
        (["validate", "--s", "0", "--eps", "not,numbers"], "asymint validate: error: argument --eps"),
        # too few epsilons for a slope: a domain error, reported as usage
        (["validate", "--s", "0", "--eps", "0.2,0.1"], "asymint validate: error: need at least three"),
    ]
    for argv, message in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(message), err


def test_artifacts_are_byte_identical_across_runs(capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "--s", "1", "--order", "7", "--out", str(first)]) == 0
    assert main(["check", "--s", "1", "--order", "7", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("argv", [
    ["validate", "--s", "0", "--dt", "0"],
    ["validate", "--s", "0", "--h", "0"],
    ["validate", "--s", "0", "--T", "-1"],
    ["jordan", "--j", "1", "--omega", "-1", "--max-i", "4", "--verify", "poly:3"],
    ["jordan", "--j", "1", "--omega", "0", "--max-i", "4"],
    ["validate", "--s", "1", "--eps", "0.2,0.2,0.2"],
    ["validate", "--s", "0", "--eps", "0.3,0.3,0.25,0.2", "--T", "0.001"],
    ["jordan", "--j", "2", "--omega", "3", "--max-i", "6", "--p", "-3"],
    # positive inputs whose window size or step count overflows a float
    ["validate", "--s", "0", "--eps", "0.3,0.2,1e-320"],
    ["validate", "--s", "0", "--h", "1e-320"],
    ["validate", "--s", "0", "--T", "1e308", "--dt", "1e-308"],
], ids=["dt-zero", "h-zero", "T-negative", "omega-negative", "omega-zero", "eps-repeated",
        "eps-repeated-once", "p-negative", "window-overflow", "h-window-overflow",
        "step-overflow"])
def test_out_of_domain_input_exits_one_without_artifact(capsys, tmp_path, argv):
    out_path = tmp_path / "artifact"
    assert main([*argv, "--out", str(out_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "error" in err[0], err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, blocked", [
    (["reduce", "--s", "1", "--order", "5"], "out-dir"),
    (["check", "--s", "1", "--order", "7"], "out-dir"),
    (["jordan", "--j", "1", "--omega", "2", "--max-i", "4"], "out-dir"),
    (["validate", "--s", "0"], "out-dir"),
    (["reduce", "--s", "1", "--order", "5"], "cache-dir"),
    (["check", "--s", "0", "--order", "9"], "empty-out"),
], ids=["reduce", "check", "jordan", "validate", "cache-dir-is-a-file", "empty-out"])
def test_unwritable_output_exits_one_without_artifact(
    capsys, monkeypatch, tmp_path, argv, blocked
):
    import asymint.cli as cli

    # the path is checked before any computation starts
    def boom(*args, **kwargs):
        raise AssertionError("computed before the output was checked")

    for name in ("run_reduction", "error_scaling", "jordan_coefficients"):
        monkeypatch.setattr(cli, name, boom)
    monkeypatch.delenv("ASYMINT_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "missing" / "artifact")
    if blocked == "cache-dir":
        blocker = tmp_path / "cache"
        blocker.write_text("")
        monkeypatch.setenv("ASYMINT_CACHE_DIR", str(blocker))
        out = str(tmp_path / "artifact")
    elif blocked == "empty-out":
        out = ""
    assert main([*argv, "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "error" in err[0], err
    if blocked == "cache-dir":
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--s", "0", "--order", "9", "--h", "2"], "h must lie in (0, 1), got 2"),
    (["reduce", "--s", "0", "--order", "9", "--h", "0"], "h must lie in (0, 1), got 0"),
    (["jordan", "--j", "2", "--omega", "3", "--max-i", "6", "--verify", "exp:3"],
     "--verify expects poly:D"),
    (["dims", "--degree", "-1"], "--degree must be non-negative, got -1"),
    (["dims", "--degree", "4", "--max-field", "0"], "--max-field must be at least 1, got 0"),
], ids=["h-two", "h-zero", "verify-exp", "degree-negative", "max-field-zero"])
def test_bad_arguments_exit_one_before_any_work(capsys, monkeypatch, argv, message):
    import asymint.cli as cli

    def boom(*args, **kwargs):
        raise AssertionError("computed before the arguments were checked")

    for name in ("run_reduction", "error_scaling", "jordan_coefficients", "enumerate_basis"):
        monkeypatch.setattr(cli, name, boom)
    monkeypatch.delenv("ASYMINT_CACHE_DIR", raising=False)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"asymint {argv[0]}: error: {message}"]


def _fresh_interpreter(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -B <args>` on this checkout's sources, without an artifact
    cache; keyword arguments go to subprocess.run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("ASYMINT_CACHE_DIR", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-B", *args],
                          capture_output=True, text=True, env=env, timeout=120, **kwargs)


def test_unstable_validation_prints_only_the_error_line():
    # a fresh interpreter, since pytest would swallow numpy's RuntimeWarnings
    proc = _fresh_interpreter("-m", "asymint.cli",
                              "validate", "--s", "0", "--T", "0.001", "--dt", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("asymint validate: error: non-finite field"), err


def test_out_of_memory_exits_one_without_artifact(capsys, monkeypatch, tmp_path):
    import asymint.cli as cli

    # Python's own allocation failures carry no message; numpy's do
    def too_large(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "error_scaling", too_large)
    out_path = tmp_path / "table.csv"
    assert main(["validate", "--s", "0", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["asymint validate: error: MemoryError"]
    assert not out_path.exists()


def _cap_address_space():
    # 4 GiB: the 1e-12 spacing below asks numpy for hundreds of TiB at once
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def test_a_window_too_large_to_allocate_prints_only_the_error_line():
    proc = _fresh_interpreter("-m", "asymint.cli", "validate", "--s", "0", "--h", "1e-12",
                              "--eps", "0.3,0.2,0.1", preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("asymint validate: error: Unable to allocate"), err


_MODULES_AFTER = """
import contextlib, io, json, sys
import asymint.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [asymint.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "lattice": "asymint.lattice" in sys.modules,
                  "loaded": sorted(m for m in ("hashlib", "_hashlib", "dataclasses", "csv")
                                   if m in sys.modules)}))
"""


# hashlib serves the opt-in cache alone, and no command needs dataclasses or csv
@pytest.mark.parametrize("commands, numpy_loaded", [
    ([["check", "--s", "1", "--order", "7"],
      ["reduce", "--s", "0", "--order", "7", "--h", "1/3"],
      ["jordan", "--j", "2", "--omega", "3", "--max-i", "6"],
      ["dims", "--degree", "3"]], False),
    ([["validate", "--s", "1", "--eps", "0.3,0.25,0.2", "--T", "0.001"]], True),
], ids=["symbolic", "validate"])
def test_only_validate_imports_numpy(commands, numpy_loaded):
    # a fresh interpreter, since pytest itself may have imported numpy
    proc = _fresh_interpreter("-c", _MODULES_AFTER, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == {"codes": [0] * len(commands), "numpy": numpy_loaded, "lattice": True,
                      "loaded": []}


# each differs from the others in one option, so each needs its own entry
CACHED = [
    ["reduce", "--s", "1", "--order", "5"],
    ["reduce", "--s", "1", "--order", "5", "--h", "1/2"],
    ["check", "--s", "1", "--order", "7"],
    ["check", "--s", "1", "--order", "7", "--symbolic-knowns"],
]


def test_cache_directory_reuses_the_artifact(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("ASYMINT_CACHE_DIR", raising=False)
    uncached = [run(capsys, *argv) for argv in CACHED]
    cache = tmp_path / "cache"
    monkeypatch.setenv("ASYMINT_CACHE_DIR", str(cache))
    for count, (argv, want) in enumerate(zip(CACHED, uncached), start=1):
        assert run(capsys, *argv) == want
        assert len(list(cache.iterdir())) == count

    # a second run must come from the cache, not a recomputation
    import asymint.cli as cli

    def boom(*args, **kwargs):
        raise AssertionError("cache miss")

    monkeypatch.setattr(cli, "run_reduction", boom)
    for argv, want in zip(CACHED, uncached):
        assert run(capsys, *argv) == want

    # an entry written by sources with another digest is never served
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    with pytest.raises(AssertionError, match="cache miss"):
        main(["reduce", "--s", "1", "--order", "5"])


def test_perturbing_one_engine_coefficient_flips_the_verdict(capsys, monkeypatch):
    import asymint.cli as cli
    true_run = cli.run_reduction

    def tampered(params, order=9):
        rep = true_run(params, order=order)
        if params.s == 1 and "h_t2" in rep.forcings:
            forcing = rep.forcings["h_t2"]
            forcing.coefficients["c7"] = forcing.coefficients["c7"] + rep.field.one
        return rep

    monkeypatch.setattr(cli, "run_reduction", tampered)
    code, out = run(capsys, "check", "--s", "1", "--order", "9")
    assert code == 2
    assert json.loads(out)["verdict"] == "FAIL"

    code, out = run(capsys, "proposition")
    assert code == 2
    payload = json.loads(out)
    assert payload["reproduced"] is False
    assert payload["branches"]["1"]["order9"] == "FAIL"


def test_version_flag(capsys):
    code, out = run(capsys, "--version")
    assert code == 0
    assert out.startswith("asymint ")
