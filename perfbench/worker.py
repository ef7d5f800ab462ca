"""The benchmark's worker process: one caller, closed loop.

Runs in a fresh interpreter with ``PYTHONPATH`` set to the checkout's
``src``. Modes:

* ``--probe``: import ``wqsc``, make the workload's tiny ops and exit
  (the parent times the whole process as set-up time);
* default: warm up, measure whole cycles for ``--seconds``, check every
  output, and print one JSON object with the raw measurements;
* ``--trace 1``: repeat cycle 0 untraced for a third of ``--seconds``,
  then as often traced, then traced once more to confirm that the call
  counts repeat exactly.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from calibrate import Timeline
from layertrace import Tracer, layer_totals, split_mc_self

ROOT = Path(__file__).resolve().parent.parent


def _import_wqsc():
    import wqsc
    import wqsc.cli
    import wqsc.harness

    src = (ROOT / "src").resolve()
    if src not in Path(wqsc.__file__).resolve().parents:
        raise SystemExit(f"wqsc imported from {wqsc.__file__}, not from {src}")
    return wqsc


class Loop:
    """Closed-loop caller that times and checks every op, with reference
    bursts between ops to normalize its timings."""

    def __init__(self, wqsc, checker: checks.Checker):
        self.wqsc = wqsc
        self.checker = checker
        self.timeline = Timeline()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last: tuple | None = None  # (op, result) of the last correct op

    def run(self, ops, call=None) -> tuple[list[int], list[float]]:
        """Make each op in turn. Returns each op's wall latency in ns and
        its normalized latency in seconds."""
        latencies, starts, ends = [], [], []
        for op in ops:
            self.timeline.maybe_burst()
            self.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                if call is None:
                    result = workloads.execute(op, self.wqsc)
                else:
                    result = call(lambda: workloads.execute(op, self.wqsc))
                problems = None
            except Exception as exc:  # a failing op is counted, not fatal
                problems = [f"raised {type(exc).__name__}: {exc}"]
            t1 = time.perf_counter_ns()
            latencies.append(t1 - t0)
            starts.append(t0 / 1e9)
            ends.append(t1 / 1e9)
            if problems is None:
                problems = self.checker.check(op, result)
            if problems:
                self._fail(op, problems)
            else:
                self.last = (op, result)
        self.timeline.burst()
        scales = self.timeline.scales(starts, ends)
        return latencies, [ns / 1e9 * k for ns, k in zip(latencies, scales)]

    def _fail(self, op, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.key()}: {'; '.join(problems)}")


def checker_self_test(loop: Loop) -> list[str]:
    """Corrupt the last correct output and confirm the checker rejects it."""
    if loop.last is None:
        return ["no correct op to corrupt"]
    op, result = loop.last
    if not loop.checker.check(op, checks.corrupt(op, result)):
        return [f"corrupted output of {op.key()} passed the checks"]
    return []


def measure(args, loop: Loop) -> dict:
    cycles = []
    began = time.perf_counter()
    while True:
        ops = workloads.cycle_ops(args.workload, args.seed, len(cycles))
        wall_ns, norm_s = loop.run(ops)
        cycles.append({"ops": ops, "wall_ns": wall_ns, "norm_s": norm_s})
        elapsed = time.perf_counter() - began
        # start another cycle only if one more is expected to fit
        if elapsed * (len(cycles) + 1) / len(cycles) > args.seconds:
            break
    return {
        "cycles": len(cycles),
        "ops": sum(len(c["ops"]) for c in cycles),
        "rounds": sum(_units(c["ops"])["rounds"] for c in cycles),
        "ops_per_cycle": len(cycles[0]["ops"]),
        "rounds_per_cycle": _units(cycles[0]["ops"])["rounds"],
        # [cycle][position in the cycle]
        "latency_wall_s": [[ns / 1e9 for ns in c["wall_ns"]] for c in cycles],
        "latency_norm_s": [c["norm_s"] for c in cycles],
    }


def _units(ops) -> dict:
    return {
        "ops": len(ops),
        "rounds": sum(op.rounds for op in ops if op.monte_carlo),
        "exact": sum(1 for op in ops if op.kind == "cli" and op.command == "exact"),
    }


def _masks(ops) -> dict:
    mc = np.array([op.monte_carlo for op in ops])
    exact = np.array([op.kind == "cli" and op.command == "exact" for op in ops])
    return {"mc": mc, "exact": exact, "all": np.ones(len(ops), dtype=bool)}


def _traced_pass(loop: Loop, ops, spans_out: str | None = None):
    """Run ``ops`` with the tracer installed; return ((wall ns, normalized
    s) per op, per-kind layer totals, tracer, mc self-time split)."""
    tracer = Tracer()
    tracer.install()
    try:
        timings = loop.run(ops, call=tracer.op)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    masks = _masks(ops)
    totals = {kind: layer_totals(spans, tracer.layers, mask) for kind, mask in masks.items()}
    if spans_out:
        tracer.write(Path(spans_out))
    return timings, totals, tracer, split_mc_self(spans, tracer.layers, masks["mc"])


def trace(args, loop: Loop) -> dict:
    ops = workloads.cycle_ops(args.workload, args.seed, 0)
    untraced_s = []
    began = time.perf_counter()
    while not untraced_s or time.perf_counter() - began < args.seconds / 3:
        untraced_s += loop.run(ops)[1]
    repeats = len(untraced_s) // len(ops)

    traced_ops = ops * repeats
    (traced_ns, traced_s), totals, tracer, mc_split = _traced_pass(
        loop, traced_ops, args.spans_out
    )
    # the same cycle once more: its call counts must equal one repeat's
    _, again, _, _ = _traced_pass(loop, ops)
    mismatches = [
        f"{kind} {layer}: {totals[kind][0][layer]} calls over {repeats} repeats, "
        f"{again[kind][0][layer]} in one"
        for kind in totals
        for layer in tracer.layers
        if totals[kind][0][layer] != repeats * again[kind][0][layer]
    ]
    return {
        "repeats": repeats,
        "units": _units(traced_ops),
        "untraced_norm_s": sum(untraced_s),
        "traced_norm_s": sum(traced_s),
        "traced_wall_s": sum(traced_ns) / 1e9,
        "layers": tracer.layers,
        "absent": tracer.absent,
        "calls": {kind: t[0] for kind, t in totals.items()},
        "self_ns": {kind: t[1] for kind, t in totals.items()},
        "alloc_bytes": tracer.alloc_bytes,
        "mc_loop_ns": mc_split[0],
        "mc_call_ns": mc_split[1],
        "mc_calls": mc_split[2],
        "count_mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    wqsc = _import_wqsc()
    if args.probe:
        for op in workloads.tiny_ops(args.workload):
            result = workloads.execute(op, wqsc)
            if op.kind == "cli" and result[0] != 0:
                return 1
        return 0

    loop = Loop(wqsc, checks.Checker(wqsc, checks.load_snapshot()))
    loop.run(workloads.tiny_ops(args.workload))
    report = {
        "backend": getattr(getattr(wqsc, "_kernels", None), "BACKEND", None),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
    if args.trace:
        report["trace"] = trace(args, loop)
    else:
        report["measure"] = measure(args, loop)
    report.update(
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems,
        snapshot_hits=loop.checker.snapshot_hits,
        self_test=checker_self_test(loop),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
