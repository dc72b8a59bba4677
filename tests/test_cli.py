import hashlib
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


# sha256 of `asymint validate --s S` at the command's defaults: the CSV
# prints 13 significant digits, so a reordered float operation of the RK4
# step shows here where the tolerance checks of the lattice tests let it by
VALIDATE_SHA256 = {
    0: "8622c5201ca66d03b7b01eedb582d6830167b97e997c9fac5969106f5d3bab85",
    1: "e1169592a8294bf5f3edecb35f52c46a1f3824ec0f659f39818b08a7ed4ab843",
}


@pytest.mark.parametrize("s", [0, 1])
def test_validate_csv_bytes_at_the_defaults(capsys, monkeypatch, scaling, s):
    import asymint.cli as cli

    result, calls = scaling(s), []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return result

    monkeypatch.setattr(cli, "error_scaling", recorded)
    code, out = run(capsys, "validate", "--s", str(s))
    assert code == 0
    assert calls == [((s, 0.5, (0.2, 0.1, 0.05)), {"T": 0.1, "dt": 0.02})]
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_SHA256[s]


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


USAGE_ERRORS = [
    ([], "asymint: error: the following arguments are required: command"),
    (["frobnicate"],
     "asymint: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'dims', 'reduce', 'check', 'jordan', 'validate', 'proposition')"),
    (["check", "--s", "1"],
     "asymint check: error: the following arguments are required: --order"),
    (["check", "--s", "2", "--order", "7"],
     "asymint check: error: argument --s: invalid choice: 2 (choose from 0, 1)"),
    (["check", "--s", "x", "--order", "7"],
     "asymint check: error: argument --s: invalid int value: 'x'"),
    (["check", "--s"], "asymint check: error: argument --s: expected one argument"),
    (["dims", "--degree", "3", "--grading", "foo"],
     "asymint dims: error: argument --grading: invalid choice: 'foo' "
     "(choose from 'potential', 'kdv')"),
    (["reduce", "--s", "1", "--h", "1/0"],
     "asymint reduce: error: argument --h: not an exact number: '1/0'"),
    (["validate", "--s", "0", "--eps", "not,numbers"],
     "asymint validate: error: argument --eps: not a comma-separated float list: 'not,numbers'"),
    # dims writes no artifact, so it has no --out
    (["dims", "--degree", "2", "--out", "x"],
     "asymint dims: error: unrecognized arguments: --out x"),
    # an unknown option names its command
    (["check", "--s", "1", "--order", "7", "--bogus"],
     "asymint check: error: unrecognized arguments: --bogus"),
    # every option is spelled in full: a prefix is not an abbreviation
    (["reduce", "--s", "0", "--order", "9", "--ord", "5"],
     "asymint reduce: error: unrecognized arguments: --ord 5"),
    (["check", "--s", "0", "--order", "9", "--sym"],
     "asymint check: error: unrecognized arguments: --sym"),
    # too few epsilons for a slope: a domain error, reported as usage
    (["validate", "--s", "0", "--eps", "0.2,0.1"],
     "asymint validate: error: need at least three epsilon values, each at most once, for a slope"),
    # a negative number is a value, not an option
    (["dims", "--degree", "-1"],
     "asymint dims: error: --degree must be non-negative, got -1"),
]


def test_usage_errors_exit_one(capsys):
    for argv, line in USAGE_ERRORS:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]


def test_equals_form_and_a_repeated_option(capsys):
    want = run(capsys, "check", "--s", "1", "--order", "7")
    assert run(capsys, "check", "--s=1", "--order=7") == want
    # a repeated option keeps its last value
    assert run(capsys, "check", "--s", "0", "--order", "9", "--s", "1", "--order", "7") == want


COMMANDS = ["dims", "reduce", "check", "jordan", "validate", "proposition"]


@pytest.mark.parametrize("argv, listed", [
    (["--help"], COMMANDS),
    (["-h"], COMMANDS),
    (["dims", "--help"], ["--degree", "--max-field", "--grading"]),
    (["reduce", "--help"], ["--s", "--order", "--h", "--out"]),
    (["check", "--help"], ["--s", "--order", "--symbolic-knowns", "--out"]),
    (["jordan", "-h"], ["--j", "--omega", "--max-i", "--p", "--verify", "--out"]),
    (["validate", "--help"], ["--s", "--h", "--eps", "--T", "--dt", "--out"]),
    (["proposition", "--help"], ["--out"]),
], ids=["top", "top-short", *COMMANDS])
def test_help_lists_every_command_or_option(capsys, argv, listed):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    words = captured.out.replace("[", " ").replace("]", " ").split()
    assert words[0] == "usage:"
    if argv[0] in COMMANDS:
        assert [w for w in words if w.startswith("--")] == listed
    else:
        assert [w for w in words if w in COMMANDS] == listed


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
    # finite sizes above the site-step budget
    ["validate", "--s", "0", "--eps", "0.001,0.002,0.003", "--T", "0.1"],
    ["validate", "--s", "0", "--h", "1e-300"],
], ids=["dt-zero", "h-zero", "T-negative", "omega-negative", "omega-zero", "eps-repeated",
        "eps-repeated-once", "p-negative", "window-overflow", "h-window-overflow",
        "step-overflow", "eps-over-budget", "h-over-budget"])
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
    (["check", "--s", "0", "--order", "9"], "empty-out"),
], ids=["reduce", "check", "jordan", "validate", "empty-out"])
def test_unwritable_output_exits_one_without_artifact(
    capsys, monkeypatch, tmp_path, argv, blocked
):
    import asymint.cli as cli

    # the path is checked before any computation starts
    def boom(*args, **kwargs):
        raise AssertionError("computed before the output was checked")

    for name in ("run_reduction", "error_scaling", "jordan_coefficients"):
        monkeypatch.setattr(cli, name, boom)
    monkeypatch.chdir(tmp_path)
    out = "" if blocked == "empty-out" else str(tmp_path / "missing" / "artifact")
    assert main([*argv, "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "error" in err[0], err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--s", "0", "--order", "9", "--h", "2"], "h must lie in (0, 1), got 2"),
    (["reduce", "--s", "0", "--order", "9", "--h", "0"], "h must lie in (0, 1), got 0"),
    (["jordan", "--j", "2", "--omega", "3", "--max-i", "6", "--verify", "exp:3"],
     "--verify expects poly:D"),
    # str.isdigit accepts a superscript two, which int() then rejects
    (["jordan", "--j", "2", "--omega", "3", "--max-i", "6", "--verify", "poly:\u00b2"],
     "--verify expects poly:D"),
    (["dims", "--degree", "-1"], "--degree must be non-negative, got -1"),
    (["dims", "--degree", "4", "--max-field", "0"], "--max-field must be at least 1, got 0"),
], ids=["h-two", "h-zero", "verify-exp", "verify-superscript", "degree-negative",
        "max-field-zero"])
def test_bad_arguments_exit_one_before_any_work(capsys, monkeypatch, argv, message):
    import asymint.cli as cli

    def boom(*args, **kwargs):
        raise AssertionError("computed before the arguments were checked")

    for name in ("run_reduction", "error_scaling", "jordan_coefficients", "enumerate_basis"):
        monkeypatch.setattr(cli, name, boom)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"asymint {argv[0]}: error: {message}"]


def _fresh_interpreter(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -B <args>` on this checkout's sources, with the interpreter's
    default warning filters; keyword arguments go to subprocess.run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
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
    # 4 GiB: should the window bound fail, the 3e-7 spacing below would ask
    # numpy for 7.5 GiB at once
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def test_a_window_too_large_to_allocate_prints_only_the_error_line():
    # one step per run: 1.83e9 site-steps, under the budget, with a first
    # window of 1e9 sites, over the 2e6 bound, refused before numpy loads
    proc = _fresh_interpreter("-m", "asymint.cli", "validate", "--s", "0", "--h", "3e-7",
                              "--eps", "0.1,0.2,0.3", "--T", "1e-9",
                              preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert err == ["asymint validate: error: the smallest epsilon needs a window of 1e+09"
                   " lattice sites, over the bound of 2e+06"], err


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


# no command hashes anything or needs dataclasses or csv, so start-up loads none of them
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


def test_the_command_line_loads_no_argparse_or_gettext():
    # argparse's first message lookup imports gettext and locale, a fixed cost
    # of every command; a fresh interpreter, since pytest imports argparse
    probe = ("import sys, asymint.cli\n"
             "code = asymint.cli.main(sys.argv[1:])\n"
             "print(code, [m for m in ('argparse', 'gettext') if m in sys.modules])")
    proc = _fresh_interpreter("-c", probe, "jordan", "--j", "2", "--omega", "3",
                              "--max-i", "6", "--p", "5", "--verify", "poly:5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


# the environment selects nothing: a cache variable naming a file or a directory
# changes no byte and no exit code, and nothing is read from or written to it
INERT = [
    ["reduce", "--s", "1", "--order", "5"],
    ["check", "--s", "1", "--order", "7"],
]


def test_a_cache_variable_is_inert(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("ASYMINT_CACHE_DIR", raising=False)
    want = [run(capsys, *argv) for argv in INERT]
    assert [code for code, _ in want] == [0, 0]
    blocker = tmp_path / "cache-file"
    blocker.write_text("not a directory")
    empty = tmp_path / "cache-dir"
    empty.mkdir()
    for target in (blocker, empty):
        monkeypatch.setenv("ASYMINT_CACHE_DIR", str(target))
        assert [run(capsys, *argv) for argv in INERT] == want, target
    assert blocker.read_text() == "not a directory"
    assert list(empty.iterdir()) == []


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
