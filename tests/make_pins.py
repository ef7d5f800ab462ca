"""Write the test suite's pins from the current source tree.

    PYTHONPATH=src python tests/make_pins.py [NAME ...]

NAME is ``exact_results``, ``mc_counts``, ``cli_outputs`` or ``walk_tables``
(all four by default); each is written to ``tests/NAME.json``, one entry a
line:

* ``exact_results``: ``exact_analyze`` of every valid config, each rate as
  ``[float hex, fraction]``, the fraction read off the integer leaf totals
  that the rate divides (:func:`exact_fractions`);
* ``mc_counts``: ``run_stats_to_dict`` of every valid config at each point
  of ``MC_POINTS``;
* ``cli_outputs``: the sha256 of the stdout of every argv of
  :func:`cli_argvs`;
* ``walk_tables``: per valid config, the sha256 of its two trees' level
  ``parent`` and ``share`` bytes and that of its compiled walk tables
  (:func:`walk_pin`): a fingerprint of what a run walks, which moves with
  any change to it, even one that a seeded pin would see only rarely.

Seeded output is a contract, so a change that rewrites ``mc_counts``,
``cli_outputs`` or ``walk_tables`` says why in CHANGES.md. pytest does
not collect this file; the tests import its tables, :func:`exact_fractions`
and the pin functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from wqsc import cli
from wqsc.harness import (
    RunConfig,
    _leaf_totals,
    _round_trees,
    exact_analyze,
    run_monte_carlo,
    run_stats_to_dict,
)

HERE = Path(__file__).resolve().parent

# every valid (scheme, attack, init policy, check-basis policy)
VALID_CONFIGS = [
    ("present", attack, init, "random")
    for attack in ("none", "ir-z", "ir-x", "cnot")
    for init in ("random", "phi1", "phi2")
] + [
    ("cao", attack, "random", basis)
    for attack in ("none", "cao-ir-z")
    for basis in ("random", "z", "x", "bell")
]

# (seed, rounds, check fraction) of the mc_counts pins: 500, 1999 and 137
# rounds; 70 000 rounds, which span two blocks; and 12 rounds at seed 0 and
# fraction 0.09, where the mode stream flags no round, so round 0 is forced
# to be a check round
MC_POINTS = ((0, 500, 0.5), (7, 1999, 0.8), (3, 137, 0.33), (9, 70000, 0.5), (0, 12, 0.09))


def _rate_fractions(totals: dict) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """``harness._rates`` of integer ``totals``, as exact fractions."""
    checks, total, known = totals["check_rounds"], totals["message_rounds"], totals["guesses_known"]
    return (
        Fraction(totals["check_errors"], checks) if checks else Fraction(0),
        Fraction(totals["recovered_correct"], total) if total else Fraction(1),
        Fraction(totals["guesses_correct"], known) if known else Fraction(0),
        Fraction(total - known, total) if total else Fraction(1),
    )


def exact_fractions(scheme: str, attack: str, init: str, basis: str) -> dict:
    """Every rate of ``exact_analyze(scheme, attack, init, basis)`` as the
    exact fraction of the integer leaf totals it divides, by field name (a
    dict of them for a conditional rate, with the result's keys)."""
    result = exact_analyze(scheme, attack, init, basis)
    trees = _round_trees(RunConfig(scheme, attack, init_policy=init, check_basis_policy=basis))
    weights, labels = trees.exact_weights
    total, *rows = _leaf_totals(trees, weights)
    groups = dict(zip([name for names in labels.values() for name in names], map(_rate_fractions, rows)))
    error, recovery, leak, unknown = _rate_fractions(total)
    return {
        "total_error_rate": error,
        "conditional_error_rates": {name: groups[name][0] for name in result.conditional_error_rates},
        "leak_rate": leak,
        "unknown_fraction": unknown,
        "conditional_leak_rates": {name: groups[name][2] for name in result.conditional_leak_rates},
        "recovery_accuracy": recovery,
    }


def exact_pin(config: tuple) -> dict:
    """The exact_results entry of a config: each rate as [float hex, fraction]."""
    fractions = exact_fractions(*config)

    def pinned(key, value):
        if isinstance(value, float):
            return [value.hex(), str(fractions[key])]
        if isinstance(value, dict):
            return [[name, [rate.hex(), str(fractions[key][name])]] for name, rate in value.items()]
        return value

    result = asdict(exact_analyze(*config))
    return {"config": list(config), "result": {key: pinned(key, value) for key, value in result.items()}}


def mc_pin(config: tuple, seed: int, rounds: int, fraction: float) -> dict:
    scheme, attack, init, basis = config
    stats = run_monte_carlo(RunConfig(
        scheme=scheme, attack=attack, rounds=rounds, check_fraction=fraction,
        master_seed=seed, init_policy=init, check_basis_policy=basis,
    ))
    return {"config": list(config), "seed": seed, "rounds": rounds, "check_fraction": fraction,
            "stats": run_stats_to_dict(stats)}


def cli_argvs() -> list[list[str]]:
    """`exact` and `run --rounds 3001 --seed 5 --threshold 0.1` of every
    valid config, then `identities`, each as JSON and as CSV."""
    argvs = []
    for command, extra in (("exact", []), ("run", ["--rounds", "3001", "--seed", "5", "--threshold", "0.1"])):
        for scheme, attack, init, basis in VALID_CONFIGS:
            for fmt in ("json", "csv"):
                argvs.append([command, "--scheme", scheme, "--attack", attack, "--init", init,
                              "--check-basis", basis, "--format", fmt, *extra])
    return argvs + [["identities", "--format", fmt] for fmt in ("json", "csv")]


def cli_pin(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return {"argv": argv, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def walk_pin(config: tuple) -> dict:
    """The walk_tables entry of a config: the digests of its trees' levels
    and of the walk compiled from them."""
    scheme, attack, init, basis = config
    trees = _round_trees(RunConfig(scheme, attack, init_policy=init, check_basis_policy=basis))
    levels, walk = hashlib.sha256(), hashlib.sha256()
    for level in (level for tree in trees for level in tree.levels):
        levels.update(level.parent.tobytes() + level.share.tobytes())
    for table in trees.walk:
        walk.update(table.tobytes())
    return {"config": list(config), "levels_sha256": levels.hexdigest(), "walk_sha256": walk.hexdigest()}


def entries(name: str) -> list[dict]:
    """The entries of the pin ``name``."""
    if name == "exact_results":
        return [exact_pin(config) for config in VALID_CONFIGS]
    if name == "mc_counts":
        return [mc_pin(config, *point) for point in MC_POINTS for config in VALID_CONFIGS]
    if name == "walk_tables":
        return [walk_pin(config) for config in VALID_CONFIGS]
    return [cli_pin(argv) for argv in cli_argvs()]


def main(names: list[str]) -> None:
    for name in names or ("exact_results", "mc_counts", "cli_outputs", "walk_tables"):
        indent = "  " if name == "cli_outputs" else ""
        lines = ",\n".join(indent + json.dumps(entry) for entry in entries(name))
        (HERE / f"{name}.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main(sys.argv[1:])
