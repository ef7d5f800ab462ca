"""Per-config cost of the branch-tree layers (tree build, a short run,
exact analysis) and the cost of cold ``wqsc`` processes.

Usage (from the root of a checkout):

    python benchmarks/bench.py --label NAME [--src DIR] [--parent-src DIR]

For each of the 20 valid (scheme, attack, init policy, check-basis
policy) configs, the script times on one CPU (the last one the process
may use, to which it pins itself):

* ``build_ms``: ``_round_trees(config)``, the check-round and
  message-round trees of a run, timed cold (see below), so that every
  call builds them;
* ``run_cold_ms`` and ``run_warm_ms``: ``run_monte_carlo(config)`` of a
  2000-round run at check fraction 0.5 and seed 0: its mode flags and
  draws, the walk (with the walk tables it compiles), the leaf totals and
  rates, and the trees it reads, so the same public call times the whole
  Monte Carlo path of any version;
* ``exact_cold_ms`` and ``exact_warm_ms``: ``exact_analyze`` of the
  config;
* ``phases_ms``: where a warm ``run_warm_ms`` call spends its time. For
  one more such call, each function of ``PHASES`` that the version has
  (mode flags, draws, walk; a run reads them from the module's globals)
  is wrapped in a timer. Per phase, the median of its ms, or null for a
  name the version lacks; and ``rest``, the median of the call's time
  outside them (leaf totals, rates, config and loop overhead).
  ``phases_totals_ms`` sums each over the configs.

A version that keeps each config's trees for the life of the process
(``_config_trees``, whose entries also hold what a run compiles from the
trees: the walk tables and the leaf indicators) is timed twice per call:
*cold*, with that memo emptied just before the call (outside the timed
region), which is what a one-config CLI process pays for its trees and
tables; and *warm*, right after the same call made untimed, which leaves
them built. For a version without the memo both are the same call, which
builds its trees every time.

Each figure is the median of ``REPEATS`` (31) runs. Repeats go
round-robin over the configs, so a slow spell of the host hits every
config alike. A build is timed right after other work, as in a real
run, so it includes the first calls of each numpy operation with cold
caches; on a shared host that part varies from run to run.
A shared host's CPU speed drifts within seconds, so every time is
normalized as the end-to-end benchmark does it: scaled by
``REF_NOMINAL_S`` over the mean of the reference bursts of
``perfbench/calibrate.py`` timed just before and just after it.

``--parent-src`` compares two versions in one process: the ``wqsc``
package of another checkout (its ``src`` directory, say a parent commit
exported next to this one) is imported under the package name
``wqsc_parent``, and every call of the change is timed right next to the
same call of the parent, the order of the two alternating from repeat to
repeat. Per config and per layer, the report then holds the parent's
medians and the ratio change / parent of each repeat's pair of calls,
as the median with its quartiles over the repeats; ``totals_ratio`` is
the same for each repeat's sum over the 20 configs. Two calls timed side
by side see the same host speed, so these ratios hold steady where the
ratio of two separate runs does not.

The script then runs ``wqsc run --scheme cao --attack cao-ir-z --rounds
10000000`` and ``--rounds 100000000``, and ``wqsc exact`` and ``wqsc run
--rounds 2000`` once per (scheme, attack), as cold subprocesses on the
same CPU. Each of these rows runs ``COLD_REPEATS`` (5) times per version,
the versions taking turns in an order that alternates from repeat to
repeat, since one cold run on a shared host spreads more than most
changes move it. Per row and version the report holds every run's wall
seconds (not normalized) and its own peak RSS (``ru_maxrss`` of that
process alone, from ``os.wait4`` in a small launcher process, so that it
holds none of this script's memory), and the median and quartiles of
both: the 1e7-round run as ``cold_run`` (and ``parent_cold_run``), the
1e8-round run, which shows that memory stays bounded at the largest round
counts, as ``cold_long_run`` (and ``parent_cold_long_run``), the exact
rows as ``cold_exact`` (and ``parent_cold_exact``), the short runs as
``cold_short_run`` (and ``parent_cold_short_run``); each key holds a
list of rows.

Last, ``tier1`` (and ``parent_tier1``) times the tier-1 suite of each
checkout, ``COLD_REPEATS`` times per version in the same alternating
order: ``python -m pytest -q`` on the checkout's own ``tests`` from its
root, with its ``src`` on ``PYTHONPATH``, on the same CPU. The row holds
every run's wall seconds and exit code, and the median and quartiles of
the wall seconds.

The result, with the machine's core count and the python and numpy versions,
is written to ``benchmarks/BENCH_<label>.json``. ``--src`` measures the
``wqsc`` package of another checkout instead of this one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROUNDS = 2000
REPEATS = 31
COLD_REPEATS = 5
COLD_RUN = ("run", "--scheme", "cao", "--attack", "cao-ir-z", "--rounds", "10000000")
PAIRS = [
    (scheme, attack)
    for scheme, attacks in (("present", ("none", "ir-z", "ir-x", "cnot")),
                            ("cao", ("none", "cao-ir-z")))
    for attack in attacks
]
COLD_ROWS = {
    "cold_run": [COLD_RUN],
    "cold_long_run": [(*COLD_RUN[:-1], "100000000")],
    "cold_exact": [("exact", "--scheme", scheme, "--attack", attack) for scheme, attack in PAIRS],
    "cold_short_run": [
        ("run", "--scheme", scheme, "--attack", attack, "--rounds", str(ROUNDS))
        for scheme, attack in PAIRS
    ],
}
# timed in this order: each cold call follows a call that builds trees in
# every version, so no version's build code is colder in the CPU's caches
LAYERS = ("build_ms", "run_cold_ms", "exact_cold_ms", "run_warm_ms", "exact_warm_ms")
PHASES = ("_check_flags", "_draw_block", "_walk")

sys.path.insert(0, str(HERE.parent / "perfbench"))
from calibrate import REF_NOMINAL_S, burst  # noqa: E402

CONFIGS = [
    ("present", attack, init, "random")
    for attack in ("none", "ir-z", "ir-x", "cnot")
    for init in ("random", "phi1", "phi2")
] + [
    ("cao", attack, "random", basis)
    for attack in ("none", "cao-ir-z")
    for basis in ("random", "z", "x", "bell")
]


def _src_digest(src: Path) -> str:
    """sha256 over the package's python files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((src / "wqsc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit(src: Path) -> str | None:
    """The checkout's commit, suffixed ``-dirty`` if its files differ."""
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def _harness(src: Path, name: str):
    """The ``harness`` module of the ``wqsc`` package in ``src``, imported
    as the package ``name``; its own imports are relative, so they stay
    inside that package."""
    init = src / "wqsc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return sys.modules[f"{name}.harness"]


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def _calls(harness, spec: tuple[str, str, str, str]) -> dict:
    """Per layer, the function to call before it, untimed, and the call
    that times it for one config; and ``phases_ms``, the call that times
    the phases of a run (:func:`_phase_times`)."""
    scheme, attack, init, basis = spec
    config = harness.RunConfig(
        scheme=scheme, attack=attack, rounds=ROUNDS, check_fraction=0.5,
        init_policy=init, check_basis_policy=basis,
    )
    memo = getattr(harness, "_config_trees", None)
    cold = memo.cache_clear if memo else lambda: None
    run = lambda: harness.run_monte_carlo(config)  # noqa: E731
    exact = lambda: harness.exact_analyze(scheme, attack, init, basis)  # noqa: E731
    return {
        "build_ms": (cold, lambda: harness._round_trees(config)),
        "run_cold_ms": (cold, run),
        "exact_cold_ms": (cold, exact),
        "run_warm_ms": (run, run),
        "exact_warm_ms": (exact, exact),
        "phases_ms": lambda: _phase_times(harness, config),
    }


def _phase_times(harness, config) -> dict:
    """ms of one ``run_monte_carlo(config)`` call (``total``) and of each of
    its ``PHASES`` that ``harness`` has, each wrapped in a timer for the
    call."""
    originals = {name: getattr(harness, name) for name in PHASES if hasattr(harness, name)}
    spent = dict.fromkeys(originals, 0.0)

    def timer(name):
        def timed(*args):
            start = time.perf_counter()
            try:
                return originals[name](*args)
            finally:
                spent[name] += (time.perf_counter() - start) * 1e3
        return timed

    for name in originals:
        setattr(harness, name, timer(name))
    try:
        total = _timed(lambda: harness.run_monte_carlo(config))
    finally:
        for name, call in originals.items():
            setattr(harness, name, call)
    return {"total": total, **spent}


def _timed_layers(calls: dict) -> dict:
    """Per layer, in ``LAYERS`` order, the ms of its call; then the
    phases of a warm run (:func:`_phase_times`)."""
    walls = {}
    for layer in LAYERS:
        before, call = calls[layer]
        before()
        walls[layer] = _timed(call)
    walls["phases_ms"] = calls["phases_ms"]()
    return walls


def measure(versions: list) -> tuple[list[list[dict]], float]:
    """Per version and config, the normalized times of every repeat, by
    layer; and the median wall time of a reference burst, in ms. Within a
    repeat the versions take turns per config, in an order that
    alternates from repeat to repeat."""
    calls = [[_calls(harness, spec) for spec in CONFIGS] for harness in versions]
    times = [[{layer: [] for layer in (*LAYERS, "phases_ms")} for _ in CONFIGS] for _ in versions]
    refs = [burst()]
    for repeat in range(REPEATS):
        order = list(range(len(versions)))
        if repeat % 2:
            order.reverse()
        for case in range(len(CONFIGS)):
            walls = {v: _timed_layers(calls[v][case]) for v in order}
            refs.append(burst())
            scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2.0)
            for v, wall in walls.items():
                for layer in LAYERS:
                    times[v][case][layer].append(wall[layer] * scale)
                phases = {name: ms * scale for name, ms in wall["phases_ms"].items()}
                times[v][case]["phases_ms"].append(phases)
    return times, statistics.median(refs) * 1e3


def _spread(values: list[float]) -> dict:
    """Median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _medians(cases: list[dict]) -> list[dict]:
    return [{layer: statistics.median(case[layer]) for layer in LAYERS} for case in cases]


def _phase_medians(runs: list[dict]) -> dict:
    """Per phase, the median ms over ``runs`` (None for a phase the version
    lacks), and ``rest``, the median of each call's ms outside them."""
    medians = {
        name: statistics.median(run[name] for run in runs) if name in runs[0] else None
        for name in PHASES
    }
    medians["rest"] = statistics.median(
        run["total"] - sum(run.get(name, 0.0) for name in PHASES) for run in runs
    )
    return medians


def _phase_totals(phases: list[dict]) -> dict:
    """Per phase (and ``rest``), the sum of the configs' medians, or None."""
    return {name: None if phases[0][name] is None else sum(case[name] for case in phases)
            for name in phases[0]}


# A child spawned from this process shares (or copies) its memory until
# it execs, and Linux keeps that memory's high-water mark in the child's
# ru_maxrss, so a child of this process would report at least this
# process's own peak. A small python process spawns each cold command
# instead and reports its wall seconds, exit code and ru_maxrss (KiB).
_LAUNCHER = """
import os, sys, time
start = time.perf_counter()
discard = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=discard)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cold(src: Path, argv: tuple[str, ...]) -> dict:
    """Wall seconds and peak RSS (MB) of one ``wqsc`` subprocess running
    ``argv`` from the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "-m", "wqsc.cli", *argv],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    wall, code, maxrss = launched.stdout.split()
    if int(code) != 0:
        raise SystemExit(f"wqsc {' '.join(argv)} failed with exit code {code}")
    return {"wall_s": float(wall), "peak_rss_mb": int(maxrss) / 1024}


def tier1(src: Path) -> dict:
    """Wall seconds and exit code of one run of the tier-1 suite of the
    checkout whose package directory is ``src``."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=src.parent, env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return {"wall_s": time.perf_counter() - start, "exit_code": done.returncode}


def _alternating(srcs: list[Path], run) -> list[list[dict]]:
    """Per package in ``srcs``, ``COLD_REPEATS`` results of ``run(src)``,
    the packages taking turns in an order that alternates from repeat to
    repeat."""
    runs = [[] for _ in srcs]
    for repeat in range(COLD_REPEATS):
        order = list(range(len(srcs)))
        if repeat % 2:
            order.reverse()
        for v in order:
            runs[v].append(run(srcs[v]))
    return runs


def cold_rows(srcs: list[Path], argv: tuple[str, ...]) -> list[dict]:
    """Per package in ``srcs``, ``COLD_REPEATS`` :func:`cold` runs of
    ``argv`` (:func:`_alternating`): every run, and the median and
    quartiles of each figure."""
    runs = _alternating(srcs, lambda src: cold(src, argv))
    return [
        {"argv": ["wqsc", *argv], "runs": rows,
         **{key: _spread([row[key] for row in rows]) for key in ("wall_s", "peak_rss_mb")}}
        for rows in runs
    ]


def _checkout(src: Path) -> dict:
    return {"src": str(src), "commit": _commit(src), "src_sha256": _src_digest(src)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="directory that holds the wqsc package to measure")
    parser.add_argument("--parent-src", type=Path,
                        help="directory that holds a wqsc package to time interleaved with it")
    args = parser.parse_args(argv)

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    from wqsc import harness

    parent = args.parent_src.resolve() if args.parent_src else None
    versions = [harness] + ([_harness(parent, "wqsc_parent")] if parent else [])
    times, ref_burst_ms = measure(versions)
    configs = [
        {"scheme": scheme, "attack": attack, "init": init, "check_basis": basis, **medians,
         "phases_ms": _phase_medians(case["phases_ms"])}
        for (scheme, attack, init, basis), medians, case in zip(CONFIGS, _medians(times[0]), times[0])
    ]
    totals = {layer: sum(case[layer] for case in configs) for layer in LAYERS}
    report = {
        "label": args.label,
        **_checkout(src),
        "machine": {
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": REPEATS,
        "run_rounds": ROUNDS,
        "statistic": (
            "per config, the median over repeats of wall time x REF_NOMINAL_S / "
            "mean of the reference bursts before and after it, in ms"
        ),
        "ref_nominal_ms": REF_NOMINAL_S * 1e3,
        "ref_burst_ms": ref_burst_ms,
        "totals_ms": totals,
        "phases_totals_ms": _phase_totals([case["phases_ms"] for case in configs]),
        "configs": configs,
    }
    if parent:
        ratios = [
            {layer: [a / b for a, b in zip(mine[layer], theirs[layer])] for layer in LAYERS}
            for mine, theirs in zip(times[0], times[1])
        ]
        sums = [{layer: list(map(sum, zip(*(case[layer] for case in cases)))) for layer in LAYERS}
                for cases in times]
        for case, medians, ratio, runs in zip(configs, _medians(times[1]), ratios, times[1]):
            case["parent"] = {**medians, "phases_ms": _phase_medians(runs["phases_ms"])}
            case["ratio"] = {layer: _spread(ratio[layer]) for layer in LAYERS}
        report["parent"] = _checkout(parent)
        report["parent_totals_ms"] = {
            layer: sum(case["parent"][layer] for case in configs) for layer in LAYERS
        }
        report["parent_phases_totals_ms"] = _phase_totals(
            [case["parent"]["phases_ms"] for case in configs]
        )
        report["totals_ratio"] = {
            layer: _spread([a / b for a, b in zip(sums[0][layer], sums[1][layer])])
            for layer in LAYERS
        }
    report["cold_repeats"] = COLD_REPEATS
    for key, rows in COLD_ROWS.items():
        for argv in rows:
            rows_by_version = cold_rows([path for path in (src, parent) if path], argv)
            for prefix, row in zip(("", "parent_"), rows_by_version):
                report.setdefault(f"{prefix}{key}", []).append(row)
    srcs = [path for path in (src, parent) if path]
    for prefix, rows in zip(("", "parent_"), _alternating(srcs, tier1)):
        report[f"{prefix}tier1"] = {"runs": rows, "wall_s": _spread([row["wall_s"] for row in rows])}

    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for case in configs:
        line = f"{case['scheme']:8}{case['attack']:10}{case['init']:8}{case['check_basis']:8}"
        for layer in LAYERS:
            line += f" {layer[:-3]} {case[layer]:7.3f}"
            if parent:
                line += f" (x{case['ratio'][layer]['median']:.2f})"
        print(line + " ms")
    print("totals (ms): " + ", ".join(f"{k} {v:.2f}" for k, v in totals.items()))
    for key in ("phases_totals_ms", "parent_phases_totals_ms"):
        if key in report:
            print(f"{key}: " + ", ".join(
                f"{name} {'null' if ms is None else f'{ms:.2f}'}" for name, ms in report[key].items()
            ))
    if parent:
        print("parent totals (ms): "
              + ", ".join(f"{k} {v:.2f}" for k, v in report["parent_totals_ms"].items()))
        print("change / parent per repeat, median [q1, q3]: " + ", ".join(
            f"{k} {r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}]"
            for k, r in report["totals_ratio"].items()
        ))
    for name in COLD_ROWS:
        for key in (name, f"parent_{name}"):
            for row in report.get(key, []):
                wall, rss = row["wall_s"], row["peak_rss_mb"]
                print(f"{key} {' '.join(row['argv'])}: {wall['median']:.2f} s "
                      f"[{wall['q1']:.2f}, {wall['q3']:.2f}], {rss['median']:.1f} MB")
    for key in ("tier1", "parent_tier1"):
        if key in report:
            wall, codes = report[key]["wall_s"], [row["exit_code"] for row in report[key]["runs"]]
            print(f"{key}: {wall['median']:.2f} s [{wall['q1']:.2f}, {wall['q3']:.2f}], "
                  f"exit codes {codes}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
