"""Exit codes and output formats of the command line interface."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wqsc
from wqsc import cli, harness
from wqsc.states import IdentityReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of stdout for `exact` and `run --rounds 3001 --seed 5 --threshold
# 0.1` over every valid (scheme, attack, init, check basis) config, and for
# `identities`, each as JSON and as CSV
CLI_OUTPUTS = json.loads((Path(__file__).parent / "cli_outputs.json").read_text())


def _assert_pinned(capsys, cases):
    for case in cases:
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == 0, case["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], case["argv"]


def test_every_stdout_pinned(capsys):
    _assert_pinned(capsys, CLI_OUTPUTS)


def test_every_stdout_pinned_in_reverse_order(capsys):
    # a config's trees are built by the first call that needs them and then
    # shared: from an empty memo and in the other order, every call that
    # built them before now reads them, and the other way round
    harness._config_trees.cache_clear()
    _assert_pinned(capsys, CLI_OUTPUTS[::-1])


class TestExact:
    def test_interception_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--scheme", "present", "--attack", "ir-x")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_error_rate"] == 0.25
        assert payload["scheme"] == "present"

    def test_cao_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--scheme", "cao", "--attack", "cao-ir-z", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["total_error_rate"]) == pytest.approx(1 / 12, abs=1e-12)
        assert float(values["conditional_error_rates_x"]) == 0.25

    def test_unsupported_pair_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--scheme", "present", "--attack", "cao-ir-z")
        assert code == 1
        assert "error" in err


class TestRun:
    def test_no_attack_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scheme", "cao", "--attack", "none",
            "--rounds", "1000", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["error_rate"] == 0.0
        assert payload["recovery_accuracy"] == 1.0
        assert payload["rounds_total"] == 1000

    def test_threshold_annotation_only(self, capsys):
        args = ["run", "--scheme", "present", "--attack", "ir-z",
                "--rounds", "600", "--seed", "3"]
        code, plain_out, _ = run_cli(capsys, *args)
        code2, annotated_out, _ = run_cli(capsys, *args, "--threshold", "0.1")
        assert code == 0 and code2 == 0
        plain = json.loads(plain_out)
        annotated = json.loads(annotated_out)
        assert annotated["threshold"] == 0.1
        assert annotated["threshold_exceeded"] is True
        annotated.pop("threshold")
        annotated.pop("threshold_exceeded")
        assert annotated == plain  # statistics untouched

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scheme", "present", "--rounds", "200",
            "--seed", "1", "--format", "csv",
        )
        assert code == 0
        assert out.startswith("scheme,attack,rounds_total")

    def test_init_policy_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scheme", "present", "--attack", "ir-z",
            "--rounds", "400", "--seed", "5", "--init", "phi1",
        )
        assert code == 0
        payload = json.loads(out)
        # interception is invisible on phi1-only rounds
        assert payload["error_rate"] == 0.0
        assert payload["eve_leak_rate"] == 1.0


class TestIdentities:
    def test_all_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "identities")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["reports"]) == 7

    def test_failure_exits_two(self, capsys, monkeypatch):
        broken = [IdentityReport("fake", "forced failure", 1.0, False)]
        monkeypatch.setattr(cli, "verify_identities", lambda: broken)
        code, out, _ = run_cli(capsys, "identities")
        assert code == 2
        assert json.loads(out)["all_passed"] is False


class TestUsageErrors:
    def test_bad_choice_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--scheme", "b92"])
        assert excinfo.value.code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 1

    def test_invalid_rounds_config(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scheme", "present", "--rounds", "0")
        assert code == 1
        assert "rounds" in err

    @pytest.mark.parametrize("argv", [
        ["exact", "--scheme", "cao", "--init", "phi1"],
        ["run", "--scheme", "present", "--check-basis", "x"],
        ["run", "--scheme", "cao", "--init", "phi2", "--rounds", "200"],
        ["exact", "--scheme", "present", "--check-basis", "bell", "--format", "csv"],
    ])
    def test_other_schemes_policy_exits_one(self, capsys, argv):
        # the flag that the scheme never reads is an error, not ignored
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("wqsc: error: ") and "does not apply to" in err

    @pytest.mark.parametrize("rounds", [10**13, 10**30])
    def test_extreme_rounds_exit_one(self, capsys, rounds):
        # both lie above the 10**10-round ceiling that RunConfig enforces
        code, out, err = run_cli(
            capsys, "run", "--scheme", "present", "--attack", "ir-z", "--rounds", str(rounds)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("wqsc: error: rounds")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_one(self, capsys, threshold):
        # NaN is not valid JSON and inf is no error-rate bound
        code, out, err = run_cli(
            capsys, "run", "--scheme", "present", "--rounds", "200", f"--threshold={threshold}"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("wqsc: error: threshold")


def test_exact_only_process_never_imports_numpy_random():
    # Monte Carlo builds its generator on the first run, so a process that
    # only analyzes exactly and checks identities loads no numpy.random
    script = (
        "import sys; from wqsc import cli\n"
        "assert cli.main(['exact', '--scheme', 'cao', '--attack', 'cao-ir-z']) == 0\n"
        "assert cli.main(['identities', '--format', 'csv']) == 0\n"
        "assert 'numpy.random' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wqsc.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["identities"],
    ["exact", "--scheme", "cao", "--attack", "cao-ir-z"],
    ["run", "--scheme", "present", "--attack", "ir-z", "--rounds", "500", "--format", "csv"],
])
def test_closed_stdout_exits_one_without_traceback(argv):
    # a reader that stops early (``wqsc run ... | head -1``) closes the
    # pipe; its read end is closed here before the command writes at all
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(wqsc.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "wqsc.cli", *argv], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr, done.stderr


def test_interrupted_run_exits_130_without_traceback():
    # SIGINT about 1 s after the start of a run of 10**10 rounds (over 10
    # minutes): 0.5 s after the child reports that it has imported wqsc,
    # so the signal never lands in the interpreter's start-up
    script = (
        "import sys; from wqsc import cli\n"
        "print('ready', flush=True)\n"
        "sys.exit(cli.main(['run', '--scheme', 'cao', '--attack', 'cao-ir-z',"
        " '--rounds', '10000000000']))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wqsc.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "ready\n"
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 130, err
    assert err == "wqsc: interrupted\n"  # one line, and no traceback
    assert out == ""
