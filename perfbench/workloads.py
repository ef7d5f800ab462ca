"""Workload definitions: which calls each workload makes, in which order.

A workload is an endless sequence of *cycles*. One cycle calls every
config of the workload's mix once, so a run that measures whole cycles
always measures the same mix. Monte Carlo master seeds are derived from
the workload seed, the cycle index and the position in the cycle, so the
same seed always gives the same calls.

Three kinds of op exist:

* ``mc``: ``harness.run_monte_carlo(RunConfig(...), workers=1)`` in-process;
* ``cli``: ``cli.main(argv)`` in-process with stdout captured;
  ``argv[0]`` is ``run``, ``exact`` or ``identities``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass

DEFAULT_SEED = 0

PRESENT_ATTACKS = ("none", "ir-z", "ir-x", "cnot")
INITS = ("random", "phi1", "phi2")
CAO_ATTACKS = ("none", "cao-ir-z")
CHECK_BASES = ("random", "z", "x", "bell")

# (scheme, attack, policy): policy is the init policy for ``present`` and
# the check-basis policy for ``cao``
CONFIGS = tuple(
    [("present", a, i) for a in PRESENT_ATTACKS for i in INITS]
    + [("cao", a, b) for a in CAO_ATTACKS for b in CHECK_BASES]
)

# the four attacked configs of the acceptance fixture
ATTACKED = (
    ("present", "ir-z", "random"),
    ("present", "ir-x", "random"),
    ("present", "cnot", "random"),
    ("cao", "cao-ir-z", "random"),
)

MC_LONG_ROUNDS = 2_000
MC_SHORT_ROUNDS = 500
MC_SHORT_FRACTIONS = (0.2, 0.8)
TINY_ROUNDS = 100


@dataclass(frozen=True)
class Op:
    kind: str  # "mc" or "cli"
    scheme: str = ""
    attack: str = ""
    policy: str = "random"
    rounds: int = 0
    check_fraction: float = 0.5
    seed: int = 0
    command: str = "run"  # cli ops: "run", "exact" or "identities"
    fmt: str = "json"

    @property
    def monte_carlo(self) -> bool:
        return self.kind == "mc" or self.command == "run"

    def argv(self) -> list[str]:
        if self.command == "identities":
            return ["identities", "--format", self.fmt]
        argv = [self.command, "--scheme", self.scheme, "--attack", self.attack]
        argv += ["--init" if self.scheme == "present" else "--check-basis", self.policy]
        if self.command == "run":
            argv += [
                "--rounds", str(self.rounds),
                "--check-fraction", repr(self.check_fraction),
                "--seed", str(self.seed),
            ]
        return argv + ["--format", self.fmt]

    def key(self) -> str:
        """Stable identity of the call, used to look up snapshot entries."""
        if self.kind == "mc":
            return (
                f"mc {self.scheme} {self.attack} {self.policy} rounds={self.rounds} "
                f"check_fraction={self.check_fraction!r} seed={self.seed}"
            )
        return "cli " + " ".join(self.argv())


def derive_seed(workload: str, seed: int, cycle: int, position: int) -> int:
    """64-bit master seed for one call, a pure function of its position."""
    digest = hashlib.sha256(f"{workload}/{seed}/{cycle}/{position}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _mc(scheme, attack, policy, rounds, seed, check_fraction=0.5) -> Op:
    return Op("mc", scheme, attack, policy, rounds, check_fraction, seed)


def _run(scheme, attack, policy, rounds, seed, check_fraction, fmt) -> Op:
    return Op("cli", scheme, attack, policy, rounds, check_fraction, seed, "run", fmt)


def _exact(scheme, attack, policy, fmt) -> Op:
    return Op("cli", scheme, attack, policy, command="exact", fmt=fmt)


IDENTITIES = Op("cli", command="identities", fmt="json")


def cycle_ops(workload: str, seed: int, cycle: int) -> list[Op]:
    """The calls of one cycle of ``workload``."""
    if workload == "mc-long":
        return [
            _mc(s, a, p, MC_LONG_ROUNDS, derive_seed(workload, seed, cycle, k))
            for k, (s, a, p) in enumerate(ATTACKED)
        ]
    if workload == "mc-short":
        ops = []
        for fi, fraction in enumerate(MC_SHORT_FRACTIONS):
            for ci, (s, a, p) in enumerate(CONFIGS):
                k = len(ops)
                fmt = "json" if (ci + fi) % 2 == 0 else "csv"
                ops.append(
                    _run(s, a, p, MC_SHORT_ROUNDS, derive_seed(workload, seed, cycle, k), fraction, fmt)
                )
        return ops
    if workload == "exact-sweep":
        ops = [_exact(s, a, p, fmt) for s, a, p in CONFIGS for fmt in ("json", "csv")]
        return ops + [IDENTITIES]
    raise ValueError(f"unknown workload {workload!r}")


def tiny_ops(workload: str) -> list[Op]:
    """One small call per config of the workload's mix, at the default seed.

    Fresh-process set-up runs these, and every run checks them against
    the snapshot before it measures anything.
    """
    if workload == "mc-long":
        return [
            _mc(s, a, p, TINY_ROUNDS, derive_seed("tiny", DEFAULT_SEED, 0, k))
            for k, (s, a, p) in enumerate(ATTACKED)
        ]
    if workload == "mc-short":
        return [
            _run(s, a, p, TINY_ROUNDS, derive_seed("tiny", DEFAULT_SEED, 0, k), 0.5, "json")
            for k, (s, a, p) in enumerate(CONFIGS)
        ]
    if workload == "exact-sweep":
        return [_exact(s, a, p, "json") for s, a, p in CONFIGS] + [IDENTITIES]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("mc-long", "mc-short", "exact-sweep")


def execute(op: Op, wqsc):
    """Make the call. ``mc`` ops return ``RunStats``; ``cli`` ops return
    ``(exit_code, stdout)``.

    Modules are looked up as attributes on every call, so hooks installed
    by the tracer are seen.
    """
    if op.kind == "mc":
        harness = wqsc.harness
        config = harness.RunConfig(
            scheme=op.scheme,
            attack=op.attack,
            rounds=op.rounds,
            check_fraction=op.check_fraction,
            master_seed=op.seed,
            init_policy=op.policy if op.scheme == "present" else "random",
            check_basis_policy=op.policy if op.scheme == "cao" else "random",
        )
        return harness.run_monte_carlo(config, workers=1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wqsc.cli.main(op.argv())
    return code, buf.getvalue()
