"""Regenerate ``snapshot.json``, the reference outputs the checks compare against.

Records, at the current source tree:

* every exact result of the 20 configs (compared to 1e-12);
* digests of the Monte Carlo outputs of the tiny warm-up ops and of the
  first cycles of ``mc-long`` and ``mc-short`` at the default seed
  (compared bit for bit: seeded output is a contract).

Run only when a change to the seeded output is intended and explained:

    PYTHONPATH=src python3 perfbench/make_snapshot.py
"""

from __future__ import annotations

import json
import subprocess

import checks
import workloads
from worker import ROOT, _import_wqsc

# cycles of each Monte Carlo workload covered at the default seed; a run
# of the benchmark's length measures fewer than this
SNAPSHOT_CYCLES = {"mc-long": 24, "mc-short": 12}


def main() -> None:
    wqsc = _import_wqsc()
    exact = {}
    for scheme, attack, policy in workloads.CONFIGS:
        result = wqsc.harness.exact_analyze(
            scheme,
            attack,
            init_policy=policy if scheme == "present" else "random",
            check_basis_policy=policy if scheme == "cao" else "random",
        )
        row = checks.flatten(wqsc.harness.exact_result_to_dict(result))
        del row["scheme"], row["attack"]
        exact[checks.config_key(scheme, attack, policy)] = row

    ops = workloads.tiny_ops("mc-long") + workloads.tiny_ops("mc-short")
    for workload, cycles in SNAPSHOT_CYCLES.items():
        for cycle in range(cycles):
            ops += workloads.cycle_ops(workload, workloads.DEFAULT_SEED, cycle)
    outputs = {}
    for op in ops:
        result = workloads.execute(op, wqsc)
        outputs[op.key()] = checks.digest(checks.canonical_output(op, result, wqsc))

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    snapshot = {"source_commit": commit, "default_seed": workloads.DEFAULT_SEED,
                "exact": exact, "outputs": outputs}
    checks.SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
