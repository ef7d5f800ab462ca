"""The rules of the two W-state communication schemes.

Present scheme (three qubits, identifiers ``present``): the sender keeps
qubits 1,2 and transmits qubit 3. Each round starts from ``phi1`` or
``phi2`` chosen at random. Message rounds encode a bit on qubit 3 before
transmission (identity for 0, the double-basis flip for 1); after the
initial state is announced the receiver Hadamards qubit 3 when it was
``phi2``. Check rounds carry no encoding: both sides measure in the
computational basis and test the correlation (sender ``10``/``01`` forces
receiver ``0``, sender ``00`` forces ``1``, :func:`check_consistent`).
Message rounds publish the sender's two-qubit result and the receiver
recovers the bit from the correlation table (:func:`recover_bit`).

Cao scheme (four qubits, identifier ``cao``): each round is a fresh
``w4`` with qubits 3,4 in transit. Check rounds measure both pairs in a
randomly chosen basis (Z, X or Bell) and flag outcomes that are
impossible for the ideal state (:func:`cao_check_error`); the impossible
set is derived from the exact distribution, never hard-coded. Key rounds
Bell-measure both pairs, map the sender's label to a key bit (``psi+`` ->
0, ``phi+/-`` -> 1) and the receiver's to the complementary map
(:func:`cao_keys`), then demonstrate one-time-pad transfer of a message
bit through the announced ciphertext.

A round itself is played only as a branch tree in :mod:`wqsc.harness`,
whose leaves these rules classify; the test suite's oracle replays
rounds one at a time as an independent reference.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BasisMismatch, InvalidOutcome
from .qstate import (
    BasisKind,
    BellLabel,
    MeasurementBasis,
    Outcome,
    _basis_tables,
    bell_basis,
    branch_rows,
    x_basis,
    z_basis,
)
from .states import StateLabel, build

CHECK_BASES = ("z", "x", "bell")

# Bell-label key maps for the Cao scheme
_ALICE_KEY = {BellLabel.PSI_PLUS.value: 0, BellLabel.PHI_PLUS.value: 1, BellLabel.PHI_MINUS.value: 1}
_BOB_KEY = {BellLabel.PHI_PLUS.value: 0, BellLabel.PHI_MINUS.value: 0, BellLabel.PSI_PLUS.value: 1}


# ---------------------------------------------------------------------------
# correlation rules (present scheme)


def _require_z(outcome: Outcome, width: int, who: str) -> str:
    value = outcome.value
    if outcome.kind is not BasisKind.Z or len(value) != width or value.strip("01"):
        raise InvalidOutcome(f"{who} outcome must be a {width}-bit Z result, got {outcome}")
    return value


def check_consistent(alice_outcome: Outcome, bob_outcome: Outcome) -> bool:
    """Ideal-channel correlation: sender 10/01 pairs with receiver 0,
    sender 00 with receiver 1. A check round carries no encoding, so it
    is consistent iff it reads as message bit 0."""
    return recover_bit(alice_outcome, bob_outcome) == 0


def recover_bit(alice_outcome: Outcome, bob_outcome: Outcome) -> int:
    """Receiver's message bit from the published sender result."""
    alice = _require_z(alice_outcome, 2, "alice")
    bob_bit = int(_require_z(bob_outcome, 1, "bob"))
    if alice == "11":
        # zero amplitude under every modeled evolution; reaching it means
        # the simulator itself is broken
        raise InvalidOutcome("alice outcome 11 is impossible in a valid run")
    return bob_bit if alice in ("10", "01") else 1 - bob_bit


# ---------------------------------------------------------------------------
# check and key rules (Cao scheme)


def _pair_basis(kind: str, qa: int, qb: int) -> MeasurementBasis:
    if kind == "z":
        return z_basis(qa, qb)
    if kind == "x":
        return x_basis(qa, qb)
    return bell_basis(qa, qb)


@lru_cache(maxsize=None)
def _allowed_joint_outcomes(kind: str) -> frozenset[tuple[str, str]]:
    """Joint (sender pair, receiver pair) outcomes of nonzero probability
    for the ideal four-qubit state, derived from the exact distribution."""
    ideal = build(StateLabel.W4)[None]
    if kind in ("z", "x"):
        basis = z_basis(1, 2, 3, 4) if kind == "z" else x_basis(1, 2, 3, 4)
        labels = [outcome.value for outcome in _basis_tables(basis, 4).labels]
        found = branch_rows(ideal, basis)
        return frozenset((labels[i][:2], labels[i][2:]) for i in found.outcome.tolist())
    alice = branch_rows(ideal, bell_basis(1, 2))
    bob = branch_rows(alice.states(), bell_basis(3, 4))
    labels = [outcome.value for outcome in _basis_tables(bell_basis(1, 2), 4).labels]
    return frozenset(
        (labels[a], labels[b])
        for a, b in zip(alice.outcome[bob.parent].tolist(), bob.outcome.tolist())
    )


def cao_check_error(basis: str, alice_outcome: Outcome, bob_outcome: Outcome) -> bool:
    """True iff the joint pair outcome is impossible for the ideal state."""
    if basis not in CHECK_BASES:
        raise BasisMismatch(f"basis must be one of {CHECK_BASES}, got {basis!r}")
    expected_kind = {"z": BasisKind.Z, "x": BasisKind.X, "bell": BasisKind.BELL}[basis]
    if alice_outcome.kind is not expected_kind or bob_outcome.kind is not expected_kind:
        raise BasisMismatch(
            f"outcomes {alice_outcome.kind.value}/{bob_outcome.kind.value} "
            f"do not match check basis {basis}"
        )
    return (alice_outcome.value, bob_outcome.value) not in _allowed_joint_outcomes(basis)


def cao_keys(alice_outcome: Outcome, bob_outcome: Outcome) -> tuple[int, int]:
    """Sender's and receiver's key bits from their Bell outcomes."""
    if alice_outcome.value not in _ALICE_KEY or bob_outcome.value not in _BOB_KEY:
        raise InvalidOutcome(
            f"Bell outcomes ({alice_outcome}, {bob_outcome}) have no key "
            "encoding; impossible under the modeled channels"
        )
    return _ALICE_KEY[alice_outcome.value], _BOB_KEY[bob_outcome.value]
