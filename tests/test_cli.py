import json
import os
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


def test_usage_errors_exit_one(capsys):
    assert main(["check", "--s", "1"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["validate", "--s", "0", "--eps", "not,numbers"]) == 1
    # too few epsilons for a slope: a domain error, reported as usage
    assert main(["validate", "--s", "0", "--eps", "0.2,0.1"]) == 1
    capsys.readouterr()


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
    ["jordan", "--j", "2", "--omega", "3", "--max-i", "6", "--p", "-3"],
], ids=["dt-zero", "h-zero", "T-negative", "omega-negative", "omega-zero", "eps-repeated",
        "p-negative"])
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


def test_unstable_validation_prints_only_the_error_line():
    # a fresh interpreter, since pytest would swallow numpy's RuntimeWarnings
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("ASYMINT_CACHE_DIR", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "asymint.cli",
         "validate", "--s", "0", "--T", "0.001", "--dt", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("asymint validate: error: non-finite field"), err


def test_cache_directory_reuses_the_artifact(capsys, monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    monkeypatch.setenv("ASYMINT_CACHE_DIR", str(cache))
    code, out = run(capsys, "reduce", "--s", "1", "--order", "5")
    assert code == 0
    assert len(list(cache.iterdir())) == 1

    # a second run must come from the cache, not a recomputation
    import asymint.cli as cli

    def boom(*args, **kwargs):
        raise AssertionError("cache miss")

    monkeypatch.setattr(cli, "run_reduction", boom)
    code, again = run(capsys, "reduce", "--s", "1", "--order", "5")
    assert code == 0
    assert again == out

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
