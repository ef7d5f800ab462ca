"""Per-config cost of the branch-tree layers (tree build, a short run,
exact analysis) and the cost of one long cold run.

Usage (from the root of a checkout):

    python benchmarks/bench.py --label NAME [--src DIR]

For each of the 20 valid (scheme, attack, init policy, check-basis
policy) configs, the script times on one CPU (the last one the process
may use, to which it pins itself):

* ``build_ms``: ``_round_trees(config)``, the check-round and
  message-round trees of a run;
* ``run_ms``: ``_run_counts(config)`` of a 2000-round run at check
  fraction 0.5 and seed 0: the tree build, its mode flags and draws, the
  walk (with the walk tables it compiles) and the leaf totals, so the
  same call times the whole Monte Carlo path of any version;
* ``exact_ms``: ``exact_analyze`` of the config.

Each figure is the median of ``REPEATS`` (31) runs. Repeats go
round-robin over the configs, so a slow spell of the host hits every
config alike. A build is timed right after other work, as in a real
run, so it includes the first calls of each numpy operation with cold
caches; on a shared host that part varies from run to run.
A shared host's CPU speed drifts within seconds, so every time is
normalized as the end-to-end benchmark does it: scaled by
``REF_NOMINAL_S`` over the mean of the reference bursts of
``perfbench/calibrate.py`` timed just before and just after it.

The script then runs ``wqsc run --scheme cao --attack cao-ir-z --rounds
10000000`` once, as a cold subprocess on the same CPU, and records its
wall seconds (not normalized) and the child's own peak RSS
(``ru_maxrss`` of that child alone, from ``os.wait4``) as ``cold_run``.

The result, with the machine's core count and the python and numpy versions,
is written to ``benchmarks/BENCH_<label>.json``. ``--src`` measures the
``wqsc`` package of another checkout (its ``src`` directory), so a parent
commit exported next to this one can be measured with the same script.
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

HERE = Path(__file__).resolve().parent
ROUNDS = 2000
REPEATS = 31
COLD_RUN = ("run", "--scheme", "cao", "--attack", "cao-ir-z", "--rounds", "10000000")

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


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def measure() -> tuple[list[dict], float]:
    """Per config, the normalized median times; and the median wall time
    of a reference burst, in ms."""
    from wqsc.harness import RunConfig, _round_trees, _run_counts, exact_analyze

    cases = [
        (
            RunConfig(
                scheme=scheme, attack=attack, rounds=ROUNDS, check_fraction=0.5,
                init_policy=init, check_basis_policy=basis,
            ),
            {"build_ms": [], "run_ms": [], "exact_ms": []},
        )
        for scheme, attack, init, basis in CONFIGS
    ]

    refs = [burst()]
    for _ in range(REPEATS):
        for config, times in cases:
            build = _timed(lambda: _round_trees(config))
            run = _timed(lambda: _run_counts(config))
            exact = _timed(
                lambda: exact_analyze(
                    config.scheme, config.attack, config.init_policy, config.check_basis_policy
                )
            )
            refs.append(burst())
            scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2.0)
            times["build_ms"].append(build * scale)
            times["run_ms"].append(run * scale)
            times["exact_ms"].append(exact * scale)

    configs = [
        {
            "scheme": config.scheme,
            "attack": config.attack,
            "init": config.init_policy,
            "check_basis": config.check_basis_policy,
            **{key: statistics.median(values) for key, values in times.items()},
        }
        for config, times in cases
    ]
    return configs, statistics.median(refs) * 1e3


def cold_run(src: Path) -> dict:
    """Wall seconds and peak RSS of one ``wqsc`` subprocess running
    ``COLD_RUN`` from the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    discard = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "wqsc.cli", *COLD_RUN], env,
        file_actions=discard,
    )
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"wqsc {' '.join(COLD_RUN)} failed with status {status}")
    # ru_maxrss is in KiB on Linux
    return {"argv": ["wqsc", *COLD_RUN], "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="directory that holds the wqsc package to measure")
    args = parser.parse_args(argv)

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    configs, ref_burst_ms = measure()
    cold = cold_run(src)
    totals = {
        key: sum(case[key] for case in configs) for key in ("build_ms", "run_ms", "exact_ms")
    }
    report = {
        "label": args.label,
        "commit": _commit(src),
        "src_sha256": _src_digest(src),
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
        "configs": configs,
        "cold_run": cold,
    }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for case in configs:
        print(
            f"{case['scheme']:8}{case['attack']:10}{case['init']:8}{case['check_basis']:8}"
            f" build {case['build_ms']:7.3f}  run {case['run_ms']:7.3f}"
            f"  exact {case['exact_ms']:7.3f} ms"
        )
    print("totals (ms): " + ", ".join(f"{k} {v:.2f}" for k, v in totals.items()))
    print(f"cold {' '.join(cold['argv'])}: {cold['wall_s']:.2f} s, {cold['peak_rss_mb']:.1f} MB")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
