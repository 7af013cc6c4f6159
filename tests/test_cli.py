"""Command-line interface: exit codes, output formatting, env overrides."""

import json

import pytest

from skewlog.cli import run


def test_no_command_is_usage_error(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_eval_li2(capsys):
    assert run(["eval", "li2", "--x", "-1"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "value=-0.8224670334241132"


def test_eval_li2_out_of_domain(capsys):
    assert run(["eval", "li2", "--x", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_eval_harmonic(capsys):
    assert run(["eval", "harmonic", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "value=2.0833333333333335"


def test_eval_skew_mu(capsys):
    assert run(["eval", "skew-mu", "--n", "2", "--mu", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "value=0.75"


@pytest.mark.parametrize("argv", [
    ["eval", "li2", "--x", "-1e-20"],
    ["eval", "series", "--id", "GF_SKEW", "--t", "-9.6e-05"],
    ["eval", "integral-g", "--z", "-9.634730978680395e-05"],
    ["eval", "series", "--id", "MU_DILOG", "--t", "0.5", "--mu", "-2.5E-1"],
    # li2 takes no tol, so any tol that parses is run
    ["eval", "li2", "--x", "0.5", "--tol", "-1e-300"],
], ids=["x", "t", "z", "mu", "tol"])
def test_negative_value_in_exponent_notation(argv, capsys):
    # argparse alone reads -1e-20 as an option and exits 2; the value must
    # act as it does in the --opt=value form
    assert run(argv) == 0
    separate = capsys.readouterr()
    assert run([*argv[:-2], f"{argv[-2]}={argv[-1]}"]) == 0
    assert capsys.readouterr() == separate


def test_eval_series_reports_full_result(capsys):
    assert run(["eval", "series", "--id", "GF_CENTERED", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "value=" in out and "error_bound=" in out
    assert "terms=" in out and "status=CONVERGED" in out


def test_eval_series_accepts_catalog_alias(capsys):
    assert run(["eval", "series", "--id", "EQ13_LHS", "--t", "-1"]) == 0
    out1 = capsys.readouterr().out
    assert run(["eval", "series", "--id", "CENTERED_SQ", "--t", "-1"]) == 0
    assert capsys.readouterr().out == out1


def test_eval_series_divergent_input(capsys):
    assert run(["eval", "series", "--id", "GF_SKEW", "--t", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: outside the domain of GF_SKEW: |t| < 1\n")


def test_eval_closed_pole(capsys):
    # the pole t = 1 is outside EQ12's domain; a point next to it has a value
    assert run(["eval", "closed", "--id", "EQ12", "--t", "1"]) == 2
    assert capsys.readouterr().err == "error: EQ12 requires |t| < 1\n"
    assert run(["eval", "closed", "--id", "EQ12", "--t", "0.999999999999"]) == 0
    assert capsys.readouterr().out.startswith("value=")


def test_eval_unknown_id(capsys):
    assert run(["eval", "series", "--id", "NOPE", "--t", "0.5"]) == 2


def test_eval_integral(capsys):
    assert run(["eval", "integral-g", "--z", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "value=" in out and "status=CONVERGED" in out


@pytest.mark.parametrize("tol", ["-1e-10", "0"])
@pytest.mark.parametrize("argv", [
    ["eval", "integral-g", "--z", "0.5"],
    ["eval", "integral-bigg", "--z", "0.5"],
    ["eval", "integral-eq31"],
    ["eval", "integral-eq32"],
], ids=["g", "bigg", "eq31", "eq32"])
def test_eval_integral_bad_tolerance_is_usage_error(argv, tol, capsys):
    # checked before the 1e-15 floor, as eval series checks it
    assert run([*argv, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must be a positive finite number\n"


@pytest.mark.parametrize("argv", [
    ["eval", "integral-g", "--z", "0.5"],
    ["eval", "integral-eq31"],
], ids=["g", "eq31"])
def test_eval_integral_tolerance_below_the_floor_is_usage_error(argv, capsys):
    # not raised silently to the quadrature's floor: the message names it
    assert run([*argv, "--tol", "9e-16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must be a finite number >= 1e-15\n"


@pytest.mark.parametrize("argv, tol", [
    (["eval", "integral-bigg", "--z", "0.99"], "1e-14"),
    (["eval", "integral-bigg", "--z", "1"], "1e-14"),
    (["eval", "integral-eq32"], "1e-15"),
], ids=["bigg-0.99", "bigg-1", "eq32"])
def test_eval_integral_converged_bound_is_within_tol(argv, tol, capsys):
    # CONVERGED means error_bound <= --tol, the relative target included
    assert run([*argv, "--tol", tol]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.split())
    assert out["status"] == "CONVERGED"
    assert float(out["error_bound"]) <= float(tol)


def test_verify_single(capsys):
    assert run(["verify", "--id", "EQ15"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("FAIL=0", "")


def test_verify_unknown_id_lists_choices(capsys):
    assert run(["verify", "--id", "EQ999"]) == 2
    err = capsys.readouterr().err
    assert "EQ15" in err  # error message enumerates valid identities


def test_verify_tight_tolerance_fails(capsys):
    assert run(["verify", "--id", "EQ13", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_bad_tolerance_is_usage_error(capsys):
    for tol in ("-1", "0", "nan", "inf"):
        assert run(["verify", "--id", "EQ2", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be a positive finite number" in captured.err


def test_verify_all_with_tolerance_is_usage_error(capsys):
    # --all checks each identity at its own tolerance: a --tol would be
    # dropped, so it is refused before any identity is checked
    for tol in ("-5", "1e-30", "1e-9"):
        assert run(["verify", "--all", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol needs --id" in captured.err


def test_verify_all_json_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["verify", "--all", "--format", "json", "--out", str(target)]) == 0
    parsed = json.loads(target.read_text())
    assert set(parsed) == {"metadata", "notes", "records", "summary"}
    assert len(parsed["notes"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "EQ4"],
    ["report"],
], ids=["verify", "report"])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    # exit 1 is kept for a FAIL verdict: a file that cannot be written is 2
    target = tmp_path / "missing" / "r.txt"
    assert run([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write --out {target}: "
                            "No such file or directory\n")
    assert not target.parent.exists()


def test_report_csv(capsys):
    assert run(["report", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "identity,params,lhs,rhs,residual,tolerance,verdict"
    assert all(line.endswith("PASS") for line in lines[1:] if line)


def test_constants_output(capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out
    assert "LOG2=0.69314718055994529" in out
    assert "ZETA3=1.2020569031595942" in out
    lines = [l for l in out.splitlines() if l]
    assert lines == sorted(lines)


def test_list_is_stable(capsys):
    assert run(["list"]) == 0
    first = capsys.readouterr().out
    assert run(["list"]) == 0
    assert capsys.readouterr().out == first
    assert "series GF_SKEW eq=EQ2" in first
    assert "closed " in first and "identity " in first


def test_env_max_terms_bad_value(monkeypatch, capsys):
    monkeypatch.setenv("SKEWLOG_MAX_TERMS", "zero")
    assert run(["eval", "li2", "--x", "0.5"]) == 2
    assert "SKEWLOG_MAX_TERMS" in capsys.readouterr().err


def test_env_max_terms_above_the_cache_limit(monkeypatch, capsys):
    # a usage error naming the range, before any series is summed
    monkeypatch.setenv("SKEWLOG_MAX_TERMS", "2000000")
    assert run(["eval", "series", "--id", "GF_SKEW", "--t", "0.9999999",
                "--tol", "1e-12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SKEWLOG_MAX_TERMS='2000000' is not an integer from 1 to " \
        "1000000" in captured.err


def test_env_max_terms_small_cap(monkeypatch, capsys):
    monkeypatch.setenv("SKEWLOG_MAX_TERMS", "20")
    assert run(["eval", "series", "--id", "GF_SKEW", "--t", "0.99",
                "--tol", "1e-14"]) == 0
    assert "status=MAX_TERMS" in capsys.readouterr().out


def test_env_max_terms_spares_endpoint_rules(monkeypatch, capsys):
    # the cap bounds interior sums only; the alternating (EQ4) and the
    # one-signed (EQ9) endpoint rules both sum their fixed terms
    monkeypatch.setenv("SKEWLOG_MAX_TERMS", "2")
    for identity in ("EQ4", "EQ9"):
        assert run(["verify", "--id", identity]) == 0, identity
        assert "PASS=1 FAIL=0" in capsys.readouterr().out, identity


def test_missing_required_argument(capsys):
    assert run(["eval", "li2"]) == 2
    capsys.readouterr()


def test_broken_pipe_is_quiet():
    # piping a long report into a short-lived reader must not traceback
    import os
    import subprocess
    import sys
    from pathlib import Path

    import skewlog

    # the child imports the same skewlog as this process, installed or not
    home = str(Path(skewlog.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (home, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        f"{sys.executable} -m skewlog.cli report --format csv | head -1",
        shell=True, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.startswith("identity,params")
    assert "Traceback" not in proc.stderr
