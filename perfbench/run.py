"""wqsc benchmark: Monte Carlo throughput, per-call cost and exact analysis.

    python3 perfbench/run.py --workload {mc-long,mc-short,exact-sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Every workload is one worker
process with one caller in a closed loop (``worker.py``); set-up time is
measured on fresh processes. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of an outside-in traced run. Human-
readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
report is also written to ``.bench_out/`` (spans of traced runs too).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_NOMINAL_S, Timeline
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
PROBE_TIMEOUT_S = 20
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WQSC_BACKEND", None)  # the default kernel backend is measured
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a fresh interpreter to completion; return its stdout."""
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv} did not finish within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{argv} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def timed_children(argv: list[str], repeats: int) -> tuple[list[float], list[float]]:
    """Wall seconds of ``repeats`` fresh processes, raw and normalized by
    reference bursts taken before and after each."""
    timeline = Timeline()
    starts, ends = [], []
    for _ in range(repeats):
        timeline.burst()
        starts.append(time.perf_counter())
        run_child(argv, PROBE_TIMEOUT_S)
        ends.append(time.perf_counter())
    timeline.burst()
    wall = [b - a for a, b in zip(starts, ends)]
    return wall, [w * k for w, k in zip(wall, timeline.scales(starts, ends))]


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so reference bursts
    and the calls they normalize share it."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


# ---------------------------------------------------------------------------
# end-to-end metrics


def tail(latencies_ms: list[float]):
    """Latency at the highest listed percentile with at least ten samples
    beyond it (nearest rank), or None when there are too few samples."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * n) // 100))  # ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def end_to_end(m: dict, setup: tuple[list[float], list[float]], rss_kb: int,
               attempted: int, failed: int):
    """(metrics for the JSON line, notes per metric, extra report lines).

    Times are normalized by the reference bursts (``calibrate.py``); the
    wall-clock figures are printed beside them.
    """
    def per_call(latencies):
        """Each call's median over the run's cycles, in cycle order (robust
        to a slow or fast spell of the host during a few calls)."""
        return [statistics.median(column) for column in zip(*latencies)]

    norm_call, wall_call = per_call(m["latency_norm_s"]), per_call(m["latency_wall_s"])
    norm_cycle, wall_cycle = sum(norm_call), sum(wall_call)
    norm_ms = [s * 1e3 for c in m["latency_norm_s"] for s in c]
    wall_ms = [s * 1e3 for c in m["latency_wall_s"] for s in c]
    setup_wall, setup_norm = setup
    n = len(norm_ms)
    metrics = {
        "ops_per_s": (m["ops_per_cycle"] / norm_cycle, "1/s"),
        "op_p50_ms": (statistics.median(norm_call) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "ops_per_s": f"{m['cycles']} whole cycles, {m['ops']} ops; "
        f"wall {m['ops_per_cycle'] / wall_cycle:.6g}",
        "op_p50_ms": f"median of {len(norm_call)} calls' medians over {m['cycles']} cycles; "
        f"wall {statistics.median(wall_call) * 1e3:.6g}",
        "setup_s": f"median of {len(setup_norm)} fresh processes: "
        + ", ".join(f"{x:.3f}" for x in setup_norm)
        + f"; wall {statistics.median(setup_wall):.6g}",
        "peak_rss_mb": "worker process, ru_maxrss",
    }
    extra = []
    if m["rounds"]:
        extra.append(
            f"rounds_per_s = {m['rounds_per_cycle'] / norm_cycle:.6g} 1/s "
            f"({m['cycles']} cycles, {m['rounds']} rounds; "
            f"wall {m['rounds_per_cycle'] / wall_cycle:.6g})"
        )
    else:
        extra.append("rounds_per_s: not applicable (no Monte Carlo rounds)")
    t = tail(norm_ms)
    if t is None:
        extra.append(f"op_tail_ms: omitted ({n} samples; a tail needs 10 beyond it)")
    else:
        extra.append(f"op_tail_ms = {t[1]:.6g} ms (p{t[0]:g}, {n} samples, {t[2]} beyond)")
    extra.append(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    extra.append(
        f"cpu speed: wall time x {sum(norm_ms) / sum(wall_ms):.4f} "
        f"gives the normalized time (reference unit nominal {REF_NOMINAL_S * 1e3:g} ms)"
    )
    return metrics, notes, extra


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer(t: dict, import_s: tuple[list[float], list[float]]):
    units, calls = t["units"], t["calls"]
    # times normalized like the end-to-end metrics, by the traced pass's
    # reference bursts
    k = t["traced_norm_s"] / t["traced_wall_s"]
    self_ns = {kind: {layer: ns * k for layer, ns in table.items()}
               for kind, table in t["self_ns"].items()}

    def ratio(value, base):
        return value / base if base else 0.0

    def per_round(layer, what):
        table = calls if what == "calls" else self_ns
        scale = 1.0 if what == "calls" else 1e-3
        return ratio(table["mc"][layer] * scale, units["rounds"])

    metrics = {
        "kernels.calls_per_round": (per_round("kernels", "calls"), "calls/round"),
        "kernels.self_us_per_round": (per_round("kernels", "self"), "us/round"),
        "kernels.calls_per_exact": (ratio(calls["exact"]["kernels"], units["exact"]), "calls/exact"),
        "qstate.measure.calls_per_round": (per_round("qstate.measure", "calls"), "calls/round"),
        "qstate.measure.self_us_per_round": (per_round("qstate.measure", "self"), "us/round"),
        "qstate.branches.calls_per_exact": (
            ratio(calls["exact"]["qstate.branches"], units["exact"]), "calls/exact"),
        "qstate.branches.self_ms_per_exact": (
            ratio(self_ns["exact"]["qstate.branches"] / 1e6, units["exact"]), "ms/exact"),
        "protocol.round.calls_per_round": (per_round("protocol.round", "calls"), "calls/round"),
        "protocol.round.self_us_per_round": (per_round("protocol.round", "self"), "us/round"),
        "protocol.rules.self_us_per_round": (per_round("protocol.rules", "self"), "us/round"),
        "attacks.apply_attack.self_us_per_round": (
            per_round("attacks.apply_attack", "self"), "us/round"),
        "attacks.eve_guess.self_us_per_round": (per_round("attacks.eve_guess", "self"), "us/round"),
        "attacks.attack_branches.self_ms_per_exact": (
            ratio(self_ns["exact"]["attacks.attack_branches"] / 1e6, units["exact"]), "ms/exact"),
        "states.build.calls_per_round": (per_round("states.build", "calls"), "calls/round"),
        "states.build.self_us_per_round": (per_round("states.build", "self"), "us/round"),
        "harness.mc.self_us_per_round": (
            ratio(t["mc_loop_ns"] * k / 1e3, units["rounds"]), "us/round"),
        "harness.mc.self_ms_per_call": (ratio(t["mc_call_ns"] * k / 1e6, t["mc_calls"]), "ms/call"),
        "harness.draws.self_us_per_round": (per_round("harness.draws", "self"), "us/round"),
        "harness.draws.alloc_bytes_per_round": (
            ratio(t["alloc_bytes"]["harness.draws"], units["rounds"]), "B/round"),
        "harness.exact.self_ms_per_call": (
            ratio(self_ns["exact"]["harness.exact"] / 1e6, calls["exact"]["harness.exact"]), "ms/call"),
        "harness.serialize.self_us_per_op": (
            ratio(self_ns["all"]["harness.serialize"] / 1e3, units["ops"]), "us/op"),
        "cli.main.self_ms_per_op": (ratio(self_ns["all"]["cli.main"] / 1e6, units["ops"]), "ms/op"),
        "states.identities.self_ms_per_call": (
            ratio(self_ns["all"]["states.identities"] / 1e6, calls["all"]["states.identities"]),
            "ms/call"),
        "cli.import_s": (statistics.median(import_s[1]), "s"),
        "tracing.overhead_frac": (1.0 - t["untraced_norm_s"] / t["traced_norm_s"], "frac"),
    }
    notes = {}
    for name in metrics:
        layer = name.rsplit(".", 1)[0]
        if layer in t["absent"]:
            notes[name] = "ABSENT: no hook point exists at this commit"
        elif name.endswith("_per_round") and not units["rounds"]:
            notes[name] = "n/a: no Monte Carlo rounds in this workload"
        elif name.endswith("_per_exact") and not units["exact"]:
            notes[name] = "n/a: no exact ops in this workload"
    notes["cli.import_s"] = (
        f"median of {len(import_s[1])} fresh processes; wall {statistics.median(import_s[0]):.6g}"
    )
    notes["tracing.overhead_frac"] = (
        f"{t['untraced_norm_s']:.3f} s untraced vs {t['traced_norm_s']:.3f} s traced, normalized"
    )
    extra = [
        f"traced cycle 0 x {t['repeats']}: {units['ops']} ops, {units['rounds']} rounds, "
        f"{units['exact']} exact calls",
        "call counts repeat exactly in a second traced pass"
        if not t["count_mismatches"]
        else "call counts DIFFER between traced passes: " + "; ".join(t["count_mismatches"][:5]),
    ]
    return metrics, notes, extra


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, report: dict, ops: int, rounds: int, cpu: int | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "numba_importable": report["numba_importable"],
        "kernel_backend": report["backend"],
        "WQSC_BACKEND_set": "WQSC_BACKEND" in os.environ,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_counted": ops,
        "rounds_counted": rounds,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wqsc" / "__init__.py").is_file():
        print(f"run.py: no wqsc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()

    worker = [
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            import_s = timed_children(["-c", "import wqsc"], IMPORT_REPEATS)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            stdout = run_child(worker + ["--spans-out", str(spans)], 150)
        else:
            setup = timed_children(
                [str(BENCH / "worker.py"), "--workload", args.workload, "--probe"],
                SETUP_REPEATS,
            )
            stdout = run_child(worker, 150)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    report = json.loads(stdout.strip().splitlines()[-1])
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        t = report["trace"]
        metrics, notes, extra = per_layer(t, import_s)
        ops, rounds = t["units"]["ops"], t["units"]["rounds"]
        extra_ok = not t["count_mismatches"]
    else:
        m = report["measure"]
        metrics, notes, extra = end_to_end(m, setup, report["peak_rss_kb"], attempted, failed)
        ops, rounds = m["ops"], m["rounds"]
        extra_ok = True
    correct = failed == 0 and not report["self_test"] and extra_ok
    prov = provenance(args, report, ops, rounds, cpu)

    lines = [f"wqsc benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    lines.append("provenance: " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        lines.append(f"{name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    lines += extra
    lines.append(
        f"checks: {attempted} ops attempted, {failed} failed, "
        f"{report['snapshot_hits']} compared with the seeded snapshot, checker self-test "
        + ("ok" if not report["self_test"] else "FAILED: " + "; ".join(report["self_test"]))
    )
    lines += [f"problem: {p}" for p in report["problems"]]

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"result": result, "provenance": prov, "report": lines, "raw": report}, indent=1)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
