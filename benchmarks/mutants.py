"""Mutation battery: which tier-1 tests kill which one-line defects.

Usage (from the root of a checkout):

    python benchmarks/mutants.py --label NAME [--root DIR]

``MUTANTS`` declares one-line source mutants: a file under ``src/wqsc``,
the exact old text, the new text, and the defect it models. For each, the
script copies the checkout at ``--root`` (this one by default; without
``.git`` and caches) to a temporary directory, applies the mutant there,
and runs the tier-1 suite in the copy, one run at a time:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

It records whether tier-1 failed (the mutant is *killed*), the ids of the
failing tests (its *kill set*) and the wall time. Before the mutants,
the unmutated copy must pass, or the script stops.

An old text must occur exactly once in its file, or the script fails. A
mutant may also give ``was``, the (old, new) texts of the same defect in
checkouts from before its line was rewritten; where ``old`` does not
occur but ``was`` does, that pair is applied and the result is marked
``counterpart``, so kill sets of two versions compare by mutant name.

The result, with the checkout's commit (``-dirty`` appended when tracked
files differ from it), a sha256 of its ``src`` tree and the python
version, is written to ``benchmarks/MUTANTS_<label>.json`` of this
checkout. A run takes one tier-1 run per mutant, plus one. pytest does
not collect this file. It uses the stdlib only, and ``bench.py`` imports
its tier-1 runner, source digest and commit id.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/wqsc
    old: str
    new: str
    defect: str
    was: tuple[str, str] | None = None  # (old, new) before the line was rewritten


MUTANTS = [
    Mutant("fresh-psi-minus", "attacks.py",
           'fresh = build("psi+")', 'fresh = build("psi-")',
           "cao-ir-z resends psi- for a single-excitation outcome, not psi+"),
    Mutant("notes-reversed", "attacks.py",
           "return probs, states, _basis_tables(basis, _qubit_count(amps)).labels",
           "return probs, states, _basis_tables(basis, _qubit_count(amps)).labels[::-1]",
           "Eve's notes are her outcome labels in reverse order"),
    Mutant("two-notes-swapped", "attacks.py",
           "return probs, states, _basis_tables(basis, _qubit_count(amps)).labels",
           "return probs, states, (lambda n: (n[1], n[0], *n[2:]))(_basis_tables(basis, _qubit_count(amps)).labels)",
           "Eve's notes of her first two outcomes are swapped"),
    Mutant("x-labels-swapped", "qstate.py",
           "relabel = _OUTCOME_OF_Z[basis.kind]",
           'relabel = np.arange(1 << len(basis.qubits))[::-1] if basis.kind == "x" else _OUTCOME_OF_Z[basis.kind]',
           "X-basis outcome bits are complemented: |+> reads as 1, |-> as 0"),
    Mutant("eve-never-abstains", "harness.py",
           "guesses = np.where(m1 == m0, -1, m1 > m0)",
           "guesses = np.where(False, -1, m1 > m0)",
           "Eve guesses bit 0 at a tie instead of abstaining",
           was=("guesses = np.where(np.abs(m1 - m0) <= _TIE_TOLERANCE * (m0 + m1), -1, m1 > m0)",
                "guesses = np.where(False, -1, m1 > m0)")),
    Mutant("bob-phi-minus-key", "protocol.py",
           "_BOB_KEY = (1, -1, 0, 0)", "_BOB_KEY = (1, -1, 0, 1)",
           "the receiver's key bit of phi- is flipped"),
    Mutant("cutoff-off-by-one", "harness.py",
           "q = ((words[:, column] >> 11) * SHARES >> 53)",
           "q = (((words[:, column] >> 11) - 1) * SHARES >> 53)",
           "every walk cutoff is one 53-bit unit too high: a draw reads as the one below it",
           was=("cuts = ((c - 1) << 11) | 0x7FF", "cuts = (c << 11) | 0x7FF")),
    Mutant("check-flag-strict", "harness.py",
           "flags = words <= np.uint64(", "flags = words < np.uint64(",
           "a word equal to the check cutoff makes a message round"),
    Mutant("forced-check-removed", "harness.py",
           "if start == 0 and not flags.any():", "if False:",
           "a run with no check flag gets no forced check round"),
    Mutant("indicator-rows-swapped", "harness.py",
           "guess >= 0, message & (guess == bit)])", "message & (guess == bit), guess >= 0])",
           "the guesses_known and guesses_correct counts are swapped"),
    Mutant("consistent-flipped", "protocol.py",
           '"consistent": np.where(recovered < 0, -1, 1 - recovered),',
           '"consistent": np.where(recovered < 0, -1, recovered),',
           "a present check round passes where it should fail"),
    Mutant("hadamard-sign", "qstate.py",
           "HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)",
           "HADAMARD = np.array([[1, 1], [-1, 1]], dtype=complex)",
           "the Hadamard gate has a sign in the wrong entry"),
    Mutant("bell-order-swapped", "qstate.py",
           'BELL_ORDER = ("psi+", "psi-", "phi+", "phi-")', 'BELL_ORDER = ("psi-", "psi+", "phi+", "phi-")',
           "two Bell outcomes are numbered the other way round"),
    Mutant("rounded-11-digits", "harness.py",
           'return float(f"{value:.12g}")', 'return float(f"{value:.11g}")',
           "output floats are cut to 11 significant digits, not 12"),
    Mutant("csv-columns-swapped", "harness.py",
           'flat[f"{key}_low"], flat[f"{key}_high"] = value',
           'flat[f"{key}_high"], flat[f"{key}_low"] = value',
           "the CSV columns of an interval's ends are swapped"),
    Mutant("identities-exit-code", "cli.py",
           'return 0 if payload.get("all_passed", True) else 2',
           'return 0 if payload.get("all_passed", True) else 1',
           "a failing identity check exits 1, not 2"),
    Mutant("rounds-bound-off-by-one", "harness.py",
           "if not 1 <= self.rounds <= _MAX_ROUNDS:", "if not 1 <= self.rounds < _MAX_ROUNDS:",
           "a run of exactly _MAX_ROUNDS rounds is refused"),
    Mutant("invalid-config-not-wqsc", "errors.py",
           "class InvalidConfig(WqscError):", "class InvalidConfig(ValueError):",
           "a bad config raises an error the command line does not catch"),
    Mutant("export-dropped", "__init__.py",
           '    "run_monte_carlo",\n', "",
           "run_monte_carlo is missing from the public names"),
    Mutant("phi2-minus-as-plus", "states.py",
           '"phi2": np.kron(_ket("10"), _PLUS) + np.kron(_ket("01"), _PLUS) + np.kron(_ket("00"), _MINUS),',
           '"phi2": np.kron(_ket("10"), _PLUS) + np.kron(_ket("01"), _PLUS) + np.kron(_ket("00"), _PLUS),',
           "phi2 is built with |+> where it holds |->"),
    Mutant("w4-sign", "states.py",
           '"w4": _ket("1000") + _ket("0100") + _ket("0010") + _ket("0001"),',
           '"w4": _ket("1000") + _ket("0100") + _ket("0010") - _ket("0001"),',
           "one amplitude of w4 has the wrong sign"),
    Mutant("zero-rule-keeps-zeros", "harness.py",
           "parent, outcome = counts.nonzero()", "parent, outcome = (counts >= 0).nonzero()",
           "a tree level keeps the children of zero probability",
           was=("parent, outcome = (probs > ZERO_PROB).nonzero()",
                "parent, outcome = (probs >= 0).nonzero()")),
    Mutant("check-error-inverted", "protocol.py",
           "return (joint == 0).astype(np.int64)", "return (joint != 0).astype(np.int64)",
           "a cao check flags the joint outcomes the ideal state gives, not the others",
           was=("return (joint <= ZERO_PROB).astype(np.int64)",
                "return (joint > ZERO_PROB).astype(np.int64)")),
    Mutant("unknown-fraction-inverted", "harness.py",
           "unknown_fraction = (total - known) / total if total else 1.0",
           "unknown_fraction = known / total if total else 1.0",
           "the unknown fraction reports the share of rounds Eve guesses",
           was=("unknown_fraction = 1.0 - known / total if total else 1.0",
                "unknown_fraction = known / total if total else 1.0")),
    Mutant("walk-radix-short", "harness.py",
           "node = table[node * SHARES + q]", "node = table[node * (SHARES - 1) + q]",
           "the walk steps from one node's children to the next's with one entry too few",
           was=("node *= len(cutoffs) + 1", "node *= len(cutoffs)")),
    Mutant("shares-truncated", "qstate.py",
           "counts = np.rint(probs * SHARES)", "counts = np.floor(probs * SHARES)",
           "a probability a hair below k/24 reads as k - 1 shares, not k"),
    Mutant("collapse-unnormalized", "qstate.py",
           "out = out / np.sqrt(np.where(probs > 0.0, probs, 1.0))[..., None]",
           "out = out / 1.0",
           "a measurement leaves each collapsed state unnormalized",
           was=("out = out / np.sqrt(np.where(norm2 > 0.0, norm2, 1.0))", "out = out / 1.0")),
    Mutant("threshold-inclusive", "cli.py",
           'payload["threshold_exceeded"] = payload["error_rate"] > args.threshold',
           'payload["threshold_exceeded"] = payload["error_rate"] >= args.threshold',
           "an error rate equal to the threshold counts as exceeding it"),
]


def _apply(root: Path, mutant: Mutant) -> bool:
    """Apply ``mutant`` to the copy at ``root``; whether it was its ``was``
    counterpart. Fails unless the applied old text occurs exactly once."""
    path = root / "src" / "wqsc" / mutant.file
    text = path.read_text()
    old, new, counterpart = mutant.old, mutant.new, False
    if text.count(old) == 0 and mutant.was and mutant.was[0] in text:
        (old, new), counterpart = mutant.was, True
    if text.count(old) != 1:
        raise SystemExit(f"mutant {mutant.name}: old text occurs {text.count(old)} times in {mutant.file}")
    path.write_text(text.replace(old, new))
    return counterpart


def tier1(root: Path) -> dict:
    """One tier-1 run in ``root``: exit code, failing test ids, wall seconds."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    failed = sorted({line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    return {"exit_code": done.returncode, "failed": failed, "wall_s": round(wall, 2)}


def source_digest(root: Path) -> str:
    """sha256 over the names and contents of ``src/wqsc``'s python files."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "wqsc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> str | None:
    """HEAD's sha at ``root``, with ``-dirty`` if tracked files differ from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True).stdout.strip()
    dirty = bool(head) and subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=root).returncode != 0
    return head + "-dirty" * dirty if head else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent, help="the checkout to mutate")
    args = parser.parse_args()
    root = args.root.resolve()
    results = []
    with tempfile.TemporaryDirectory(prefix="wqsc-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        shutil.copytree(root, clean, ignore=IGNORED)
        baseline = tier1(clean)
        print(f"unmutated: exit {baseline['exit_code']} in {baseline['wall_s']} s", flush=True)
        if baseline["exit_code"] != 0:
            raise SystemExit(f"the unmutated checkout fails tier-1: {baseline['failed']}")
        for mutant in MUTANTS:
            copy = Path(scratch) / mutant.name
            shutil.copytree(clean, copy)
            counterpart = _apply(copy, mutant)
            run = tier1(copy)
            shutil.rmtree(copy)
            killed = run["exit_code"] != 0
            results.append({"name": mutant.name, "file": mutant.file, "defect": mutant.defect,
                            "counterpart": counterpart, "killed": killed, "kills": len(run["failed"]), **run})
            print(f"{mutant.name}: {'killed by ' + str(len(run['failed'])) if killed else 'SURVIVED'}"
                  f" ({run['wall_s']} s)", flush=True)
    report = {
        "label": args.label,
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "tier1": " ".join(["PYTHONPATH=src", "python", *TIER1]),
        "unmutated_wall_s": baseline["wall_s"],
        "survivors": [r["name"] for r in results if not r["killed"]],
        "results": results,
    }
    out = HERE / f"MUTANTS_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{len(results) - len(report['survivors'])}/{len(results)} killed; wrote {out}")


if __name__ == "__main__":
    main()
