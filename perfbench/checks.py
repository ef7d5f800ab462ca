"""Correctness checks applied to the output of every op.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed. The checks do not call into the code under test
except ``exact_analyze``, which gives the 5-sigma centre for Monte Carlo
error rates and is itself checked against closed forms on the
``exact-sweep`` workload.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

SNAPSHOT_PATH = Path(__file__).with_name("snapshot.json")

EXACT_TOL = 1e-12
SIGMAS = 5.0


def load_snapshot() -> dict:
    return json.loads(SNAPSHOT_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def canonical_output(op, result, wqsc) -> str:
    """Text whose digest the snapshot stores: the CLI's stdout, or the
    ``run_stats_to_dict`` payload of an in-process Monte Carlo call."""
    if op.kind == "mc":
        return json.dumps(wqsc.harness.run_stats_to_dict(result), sort_keys=True)
    return result[1]


def config_key(scheme: str, attack: str, policy: str) -> str:
    return f"{scheme} {attack} {policy}"


# ---------------------------------------------------------------------------
# parsing CLI output


def _scalar(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(text: str, fmt: str):
    """JSON payload as a dict; CSV as a list of row dicts."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: _scalar(v) for k, v in row.items()} for row in rows]


def flatten(payload: dict) -> dict:
    """The CSV column layout of a JSON payload: nested dicts become
    ``key_sub`` and two-number lists become ``key_low``/``key_high``."""
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub, inner in value.items():
                flat[f"{key}_{sub}"] = inner
        elif isinstance(value, list) and len(value) == 2:
            flat[f"{key}_low"], flat[f"{key}_high"] = value
        else:
            flat[key] = value
    return flat


def _single_row(parsed, fmt: str) -> dict:
    if fmt == "json":
        return flatten(parsed)
    if len(parsed) != 1:
        raise ValueError(f"expected one CSV row, got {len(parsed)}")
    return parsed[0]


# ---------------------------------------------------------------------------
# closed forms


def closed_form(scheme: str, attack: str, policy: str) -> dict:
    """Exact rates from the paper's closed forms, flattened like the CSV.

    present: intercept-resend in Z and the CNOT probe disturb ``phi2``
    (error 0.5) and read ``phi1``; intercept-resend in X does the
    reverse. With a random initial state that gives a total error rate
    of 0.25, and Eve learns the bit exactly on the state she reads and
    abstains on the other. cao: the two-qubit intercept-resend shows
    only in the X check basis (0.25), so 1/12 overall, while Eve learns
    every message bit.
    """
    if scheme == "present":
        disturbed, read = {
            "none": (None, None),
            "ir-z": ("phi2", "phi1"),
            "ir-x": ("phi1", "phi2"),
            "cnot": ("phi2", "phi1"),
        }[attack]
        inits = ("phi1", "phi2") if policy == "random" else (policy,)
        cond_err = {i: 0.5 if i == disturbed else 0.0 for i in inits}
        cond_leak = {i: 1.0 if i == read else 0.0 for i in inits}
        total = sum(cond_err.values()) / len(inits)
        unknown = sum(0.0 if i == read else 1.0 for i in inits) / len(inits)
        leak = 1.0 if unknown < 1.0 else 0.0
        recovery = 1.0 - total
    else:
        attacked = attack == "cao-ir-z"
        per_basis = {"z": 0.0, "x": 0.25 if attacked else 0.0, "bell": 0.0}
        bases = ("z", "x", "bell") if policy == "random" else (policy,)
        cond_err = {b: per_basis[b] for b in bases}
        total = sum(cond_err.values()) / len(bases)
        leak = 1.0 if attacked else 0.0
        unknown = 0.0 if attacked else 1.0
        cond_leak = {"w4": leak}
        recovery = 1.0
    return flatten(
        {
            "total_error_rate": total,
            "conditional_error_rates": cond_err,
            "leak_rate": leak,
            "unknown_fraction": unknown,
            "conditional_leak_rates": cond_leak,
            "recovery_accuracy": recovery,
        }
    )


# ---------------------------------------------------------------------------
# per-op checks


def _compare_numbers(got: dict, want: dict, what: str) -> list[str]:
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"{what}: missing {key}")
        elif not isinstance(got[key], (int, float)) or abs(got[key] - value) > EXACT_TOL:
            problems.append(f"{what}: {key}={got[key]!r}, expected {value!r}")
    return problems


def check_monte_carlo(op, row: dict, exact_rate: float) -> list[str]:
    """Invariants of one Monte Carlo result (``row`` is flattened)."""
    problems = []
    if row.get("scheme") != op.scheme or row.get("attack") != op.attack:
        problems.append(f"scheme/attack {row.get('scheme')}/{row.get('attack')}")
    checks, messages, errors = row["check_rounds"], row["message_rounds"], row["check_errors"]
    if row["rounds_total"] != op.rounds:
        problems.append(f"rounds_total {row['rounds_total']} != {op.rounds}")
    if checks + messages != op.rounds:
        problems.append(f"check_rounds {checks} + message_rounds {messages} != {op.rounds}")
    if checks < 1 or not 0 <= errors <= checks:
        problems.append(f"check_errors {errors} outside 0..{checks}")
        return problems
    if abs(row["error_rate"] - errors / checks) > 1e-11:
        problems.append(f"error_rate {row['error_rate']} != {errors}/{checks}")
    if op.attack == "none" and (errors != 0 or row["recovery_accuracy"] != 1.0):
        problems.append(
            f"no attack but {errors} check errors, recovery {row['recovery_accuracy']}"
        )
    sigma = math.sqrt(exact_rate * (1.0 - exact_rate) / checks)
    if abs(errors / checks - exact_rate) > SIGMAS * sigma + 1e-12:
        problems.append(
            f"error rate {errors / checks:.6f} over {checks} check rounds is more "
            f"than {SIGMAS:g} sigma from the exact {exact_rate:.6f}"
        )
    return problems


def check_exact(op, row: dict, reference: dict) -> list[str]:
    """Exact rates against the closed forms and the snapshot values."""
    problems = []
    if row.get("scheme") != op.scheme or row.get("attack") != op.attack:
        problems.append(f"scheme/attack {row.get('scheme')}/{row.get('attack')}")
    numeric = {k: v for k, v in row.items() if k not in ("scheme", "attack")}
    if set(numeric) != set(reference):
        problems.append(f"fields {sorted(numeric)} != {sorted(reference)}")
    problems += _compare_numbers(row, closed_form(op.scheme, op.attack, op.policy), "closed form")
    problems += _compare_numbers(row, reference, "snapshot")
    return problems


def check_identities(parsed, fmt: str) -> list[str]:
    reports = parsed["reports"] if fmt == "json" else parsed
    problems = [f"identity {r['identity_id']} failed" for r in reports if r["passed"] is not True]
    if fmt == "json" and parsed.get("all_passed") is not True:
        problems.append("all_passed is not true")
    if not reports:
        problems.append("no identity reports")
    return problems


class Checker:
    """Checks op outputs against invariants, closed forms and the snapshot."""

    def __init__(self, wqsc, snapshot: dict):
        self.wqsc = wqsc
        self.snapshot = snapshot
        self._exact_rates: dict[str, float] = {}
        self.snapshot_hits = 0

    def _exact_rate(self, op) -> float:
        key = config_key(op.scheme, op.attack, op.policy)
        if key not in self._exact_rates:
            result = self.wqsc.harness.exact_analyze(
                op.scheme,
                op.attack,
                init_policy=op.policy if op.scheme == "present" else "random",
                check_basis_policy=op.policy if op.scheme == "cao" else "random",
            )
            self._exact_rates[key] = result.total_error_rate
        return self._exact_rates[key]

    def check(self, op, result) -> list[str]:
        """Problems with one op's result; empty when it is correct."""
        try:
            return self._check(op, result)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _check(self, op, result) -> list[str]:
        problems = []
        if op.kind == "cli":
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            parsed = parse_output(text, op.fmt)
        if op.monte_carlo:
            if op.kind == "mc":
                row = flatten(self.wqsc.harness.run_stats_to_dict(result))
            else:
                row = _single_row(parsed, op.fmt)
            problems += check_monte_carlo(op, row, self._exact_rate(op))
            want = self.snapshot["outputs"].get(op.key())
            if want is not None:
                self.snapshot_hits += 1
                if digest(canonical_output(op, result, self.wqsc)) != want:
                    problems.append("output differs from the seeded snapshot")
        elif op.command == "exact":
            reference = self.snapshot["exact"][config_key(op.scheme, op.attack, op.policy)]
            problems += check_exact(op, _single_row(parsed, op.fmt), reference)
        else:
            problems += check_identities(parsed, op.fmt)
        return problems


def corrupt(op, result):
    """A deliberately wrong copy of a correct result, for the checker's
    self-test: one count off by one, one rate off by 1e-6, or one
    identity marked failed."""
    if op.kind == "mc":
        return dataclasses.replace(result, check_rounds=result.check_rounds + 1)
    code, text = result
    if op.command == "run":
        field = "check_errors"
    elif op.command == "exact":
        field = "total_error_rate"
    else:
        return code, text.replace("True", "False", 1).replace("true", "false", 1)
    parsed = parse_output(text, op.fmt)
    if op.fmt == "json":
        parsed[field] = parsed[field] + (1 if field == "check_errors" else 1e-6)
        return code, json.dumps(parsed, indent=2)
    row = parsed[0]
    row[field] = row[field] + (1 if field == "check_errors" else 1e-6)
    header = ",".join(row)
    values = ",".join("" if v is None else str(v) for v in row.values())
    return code, f"{header}\n{values}\n"
