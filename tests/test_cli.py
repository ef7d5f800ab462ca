"""Exit codes and output formats of the command line interface."""

import contextlib
import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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

    def test_threshold_equal_to_the_rate_is_not_exceeded(self, capsys):
        # a clean run's error rate is 0.0: a threshold of 0 is met, not
        # exceeded, and any rate above it exceeds it
        args = ["run", "--scheme", "cao", "--rounds", "300", "--seed", "2", "--threshold", "0"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["threshold_exceeded"] is False
        code, out, _ = run_cli(capsys, *args, "--attack", "cao-ir-z")
        payload = json.loads(out)
        assert code == 0 and payload["error_rate"] > 0 and payload["threshold_exceeded"] is True

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


@pytest.mark.parametrize("inherited", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"])
def test_interrupted_run_exits_130_without_traceback(inherited):
    # SIGINT about 1 s after the start of a run of 10**10 rounds (over 10
    # minutes): 0.5 s after the child reports that it has imported wqsc,
    # so the signal never lands in the interpreter's start-up. python keeps
    # a SIGINT that it inherits ignored (as a background job does) ignored,
    # so the child installs python's handler itself: the test checks wqsc's
    # handling whatever disposition the launcher leaves
    script = (
        "import signal, sys; from wqsc import cli\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "print('ready', flush=True)\n"
        "sys.exit(cli.main(['run', '--scheme', 'cao', '--attack', 'cao-ir-z',"
        " '--rounds', '10000000000']))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wqsc.__file__).parents[1])}
    # as a context manager, so that a failing run still closes its pipes
    with subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: signal.signal(signal.SIGINT, inherited)) as child:
        try:
            assert child.stdout.readline() == "ready\n"
            time.sleep(0.5)
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()
    assert child.returncode == 130, err
    assert err == "wqsc: interrupted\n"  # one line, and no traceback
    assert out == ""


# argvs for cli.main: every subcommand and a malformed one, each flag with
# its choices, other strings and nothing at all, integers at and past each
# edge, floats at the specials, and malformed strings. A valid round count
# above 1e5 is never generated, so that no example runs for long (so
# --rounds draws _MAX_ROUNDS - 1 and _MAX_ROUNDS only where no run reads
# them); the example budget and the deadline are fixed here, before any run
_EDGE_INTS = [0, -1, 1, 2**63, 2**64 - 1, 2**64, harness._MAX_ROUNDS - 1, harness._MAX_ROUNDS,
              harness._MAX_ROUNDS + 1]
_SAFE_ROUNDS = [n for n in _EDGE_INTS if n <= 10**5 or n > harness._MAX_ROUNDS]
_FLOATS = ["nan", "inf", "-inf", "1e-320", "1e400", "0", "1", "0.5", "-0.0", "0.99999999999999999",
           "1e-5", "0x1p-3"]
_malformed = st.text(max_size=6).filter(  # help is no malformed input: it exits 0 with usage text
    lambda s: not (s.startswith("-h") or (len(s) > 2 and "--help".startswith(s))))
_RUN_COLUMNS = ["scheme", "attack", "rounds_total", "check_rounds", "check_errors", "message_rounds",
                "error_rate", "error_rate_ci95_low", "error_rate_ci95_high", "recovery_accuracy",
                "eve_leak_rate", "unknown_fraction"]
_reals = st.sampled_from(_FLOATS) | st.floats().map(repr) | _malformed


def _short(rounds: str) -> bool:
    """Whether ``rounds`` is no valid round count above 1e5 (int() reads
    " 12", "1_0" and other digits too)."""
    try:
        return not 10**5 < int(rounds) <= harness._MAX_ROUNDS
    except ValueError:
        return True


# per flag, its valid values, and its values at and past its edges
_FLAGS = {
    **{flag: (st.sampled_from(choices), _malformed) for flag, choices in (
        ("--scheme", harness.SCHEMES), ("--attack", harness.ATTACKS), ("--init", harness.INIT_POLICIES),
        ("--check-basis", harness.CHECK_BASIS_POLICIES), ("--format", ("json", "csv")))},
    "--rounds": (st.integers(1, 10**5).map(str),
                 st.sampled_from(_SAFE_ROUNDS).map(str) | st.integers(-10, 0).map(str)
                 | _malformed.filter(_short)),
    "--seed": (st.integers(0, 2**64 - 1).map(str),
               st.sampled_from(_EDGE_INTS).map(str) | st.integers().map(str) | _malformed),
    "--check-fraction": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr), _reals),
    "--threshold": (st.floats(0.0, 1.0).map(repr), _reals),
}


@st.composite
def _argvs(draw):
    """An argv, each part valid three times in four; at the edge or past it else."""
    def part(valid, edge):
        return draw(valid) if draw(st.integers(0, 3)) else draw(edge)

    command = part(st.sampled_from(["run", "exact", "identities"]), _malformed)
    flags = draw(st.lists(st.sampled_from([*_FLAGS, "--bogus"]), max_size=5))
    argv = [command, "--scheme", part(*_FLAGS["--scheme"])] if draw(st.integers(0, 3)) else [command]
    for flag in flags:
        if flag == "--rounds" and command != "run":  # no run reads them, so any count
            argv += [flag, part(_FLAGS[flag][0], st.sampled_from(_EDGE_INTS).map(str))]
        else:
            argv += [flag] if flag == "--bogus" else [flag, part(*_FLAGS[flag])]
    return argv


@settings(max_examples=200, deadline=2000)
@given(argv=_argvs())
@example(argv=["identities", "--scheme", "\n0"])  # argparse quoted it raw, over two lines
@example(argv=["exact", "--bogus", "\x85"])  # a line end to str.splitlines
def test_generated_argvs_exit_cleanly(argv):
    # exit 0 with stdout that parses, or 1 with an error line, or 2 only
    # from identities; any other exception escapes as a traceback would
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1) or (code == 2 and argv[0] == "identities"), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and "error:" in err.splitlines()[-1]
        return
    if "--format" in argv and argv[len(argv) - argv[::-1].index("--format")] == "csv":
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(header) for row in rows)
        if argv[0] == "run":
            assert header[: len(_RUN_COLUMNS)] == _RUN_COLUMNS
    else:
        payload = json.loads(out)
        assert payload["all_passed"] if argv[0] == "identities" else payload["scheme"] in harness.SCHEMES


# a run's peak RSS at 2e6 rounds may exceed its peak RSS at 2e4 rounds by
# at most this much: a run streams fixed blocks of rounds, so its memory
# does not grow with the round count (fixed before any run)
RSS_MARGIN_KB = 4096


def test_peak_rss_flat_in_round_count():
    env = {**os.environ, "PYTHONPATH": str(Path(wqsc.__file__).parents[1])}
    peaks = []
    for rounds in ("20000", "2000000"):
        child = subprocess.Popen(
            [sys.executable, "-m", "wqsc.cli", "run", "--scheme", "cao", "--attack", "cao-ir-z",
             "--rounds", rounds], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 0
        peaks.append(usage.ru_maxrss)  # in KB on Linux
    assert peaks[1] - peaks[0] <= RSS_MARGIN_KB, peaks
