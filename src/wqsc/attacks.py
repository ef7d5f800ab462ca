"""Adversary channels applied to in-transit qubits.

Each attack consumes the qubits a sender puts on the channel and yields
the forwarded state plus Eve's classical side information (:class:`EveNote`).
Two entry points exist: :func:`attack_branches` enumerates every branch of
the attack with its exact probability (the backbone of the exact
analyzer), and :func:`apply_attack` samples a single branch for Monte
Carlo rounds. Both share one branch construction, so sampled rounds and
exact analysis can never drift apart.

Intercept-resend attacks are realized as measurement collapse: for a
single-qubit Z or X interception the collapsed state IS the state after
replacing the transit qubit with a fresh copy of the observed basis
state, so no explicit swap is needed (the equivalence is asserted in the
test suite). The two-qubit variant aimed at the Cao scheme does perform
an explicit replacement: whenever Eve's pair outcome contains an
excitation she forwards a fresh ``psi+`` pair instead of her collapsed
product state.

The entangling probe ("cnot") appends an ancilla qubit in ``|0>`` and
copies the transit qubit onto it in the computational basis; the ancilla
stays entangled with the global state and is measured only when Eve forms
her guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArityMismatch, MissingTranscript
from .qstate import (
    BasisKind,
    Outcome,
    StateVector,
    _pair_rest_indices,
    _wrap,
    apply_cnot,
    basis_ket,
    branches,
    measure,
    tensor,
    x_basis,
    z_basis,
)
from .states import StateLabel, build


class AttackKind(str, Enum):
    """CLI-facing attack identifiers."""

    NONE = "none"
    INTERCEPT_RESEND_Z = "ir-z"
    INTERCEPT_RESEND_X = "ir-x"
    CNOT_ANCILLA = "cnot"
    CAO_INTERCEPT_RESEND_Z = "cao-ir-z"


@dataclass(frozen=True)
class AttackModel:
    kind: AttackKind

    @property
    def arity(self) -> int | None:
        """Number of transit qubits the attack expects (None = any)."""
        if self.kind is AttackKind.NONE:
            return None
        if self.kind is AttackKind.CAO_INTERCEPT_RESEND_Z:
            return 2
        return 1

    @property
    def samples(self) -> bool:
        """True iff :func:`apply_attack` measures the transit qubits,
        consuming one uniform from the round's stream."""
        return self.kind not in (AttackKind.NONE, AttackKind.CNOT_ANCILLA)


NO_ATTACK = AttackModel(AttackKind.NONE)

PRESENT_ATTACKS = (
    AttackKind.NONE,
    AttackKind.INTERCEPT_RESEND_Z,
    AttackKind.INTERCEPT_RESEND_X,
    AttackKind.CNOT_ANCILLA,
)
CAO_ATTACKS = (AttackKind.NONE, AttackKind.CAO_INTERCEPT_RESEND_Z)


@dataclass(frozen=True)
class EveNote:
    """Eve's classical record for one round."""

    basis: str | None = None
    observed: str | None = None
    ancilla_qubit: int | None = None
    ancilla_outcome: int | None = None


@dataclass(frozen=True)
class PublicTranscript:
    """Everything announced on the classical channel during one round."""

    scheme: str
    mode: str
    initial_label: str | None = None
    alice_published: Outcome | None = None
    bob_announced: Outcome | None = None
    ciphertext: int | None = None


Branch = tuple[StateVector, EveNote | None, float]


def _replace_pair(
    state: StateVector, qa: int, qb: int, outcome_bits: str, replacement: StateVector
) -> StateVector:
    """Swap the collapsed product pair (qa, qb) for a fresh two-qubit state."""
    idx = _pair_rest_indices(state.num_qubits, qa, qb)
    ba, bb = int(outcome_bits[0]), int(outcome_bits[1])
    rest_amps = state.amplitudes[idx[ba, bb]]
    out = np.zeros(state.dim, dtype=np.complex128)
    repl = replacement.amplitudes
    for pa in (0, 1):
        for pb in (0, 1):
            out[idx[pa, pb]] = rest_amps * repl[(pa << 1) | pb]
    # rest_amps and replacement are each unit vectors, so out already is
    return _wrap(state.num_qubits, out)


def attack_branches(
    model: AttackModel, state: StateVector, transit_qubits: tuple[int, ...]
) -> list[Branch]:
    """Enumerate the attack's outcome branches with exact probabilities."""
    arity = model.arity
    if arity is not None and len(transit_qubits) != arity:
        raise ArityMismatch(
            f"{model.kind.value} expects {arity} transit qubit(s), "
            f"got {len(transit_qubits)}"
        )

    if model.kind is AttackKind.NONE:
        return [(state, None, 1.0)]

    if model.kind in (AttackKind.INTERCEPT_RESEND_Z, AttackKind.INTERCEPT_RESEND_X):
        q = transit_qubits[0]
        if model.kind is AttackKind.INTERCEPT_RESEND_Z:
            basis, kind = z_basis(q), BasisKind.Z
        else:
            basis, kind = x_basis(q), BasisKind.X
        return [
            (collapsed, EveNote(basis=kind.value, observed=outcome.value), prob)
            for outcome, collapsed, prob in branches(state, basis)
        ]

    if model.kind is AttackKind.CNOT_ANCILLA:
        q = transit_qubits[0]
        extended = tensor(state, basis_ket("0"))
        ancilla = extended.num_qubits
        probed = apply_cnot(extended, q, ancilla)
        return [(probed, EveNote(ancilla_qubit=ancilla), 1.0)]

    # cao-ir-z: Z measurement of the transit pair, then forward |00> for
    # outcome 00 and a fresh psi+ pair for a single-excitation outcome
    qa, qb = transit_qubits
    psi_plus = build(StateLabel.BELL_PSI_PLUS)
    result = []
    for outcome, collapsed, prob in branches(state, z_basis(qa, qb)):
        bits = outcome.value
        note = EveNote(basis="z", observed=bits)
        if bits == "00":
            forwarded = collapsed
        else:
            forwarded = _replace_pair(collapsed, qa, qb, bits, psi_plus)
        result.append((forwarded, note, prob))
    return result


def apply_attack(
    model: AttackModel, state: StateVector, transit_qubits: tuple[int, ...], rng
) -> tuple[StateVector, EveNote | None]:
    """Sample one branch of the attack channel.

    Distributionally identical to drawing from :func:`attack_branches`,
    but collapses only the sampled outcome (the hot path of the Monte
    Carlo runner).
    """
    arity = model.arity
    if arity is not None and len(transit_qubits) != arity:
        raise ArityMismatch(
            f"{model.kind.value} expects {arity} transit qubit(s), "
            f"got {len(transit_qubits)}"
        )

    if model.kind is AttackKind.NONE:
        return state, None

    if model.kind in (AttackKind.INTERCEPT_RESEND_Z, AttackKind.INTERCEPT_RESEND_X):
        q = transit_qubits[0]
        basis = z_basis(q) if model.kind is AttackKind.INTERCEPT_RESEND_Z else x_basis(q)
        outcome, collapsed, _ = measure(state, basis, rng)
        return collapsed, EveNote(basis=outcome.kind.value, observed=outcome.value)

    if model.kind is AttackKind.CNOT_ANCILLA:
        q = transit_qubits[0]
        extended = tensor(state, basis_ket("0"))
        ancilla = extended.num_qubits
        return apply_cnot(extended, q, ancilla), EveNote(ancilla_qubit=ancilla)

    qa, qb = transit_qubits
    outcome, collapsed, _ = measure(state, z_basis(qa, qb), rng)
    note = EveNote(basis="z", observed=outcome.value)
    if outcome.value == "00":
        return collapsed, note
    return (
        _replace_pair(collapsed, qa, qb, outcome.value, build(StateLabel.BELL_PSI_PLUS)),
        note,
    )


def eve_guess(
    model: AttackModel, note: EveNote | None, transcript: PublicTranscript
) -> int | None:
    """Eve's message-bit estimate from her note plus the public transcript.

    Returns 0 or 1 when her side information pins the bit down, None
    (unknown) otherwise. She guesses only after every announcement of the
    round is available.
    """
    if model.kind is AttackKind.NONE or note is None:
        return None

    if model.kind is AttackKind.CAO_INTERCEPT_RESEND_Z:
        if transcript.ciphertext is None:
            raise MissingTranscript("ciphertext not announced yet")
        # pair outcome 00 means the key pair stayed with the sender (key 0);
        # any excitation means the sender's Bell outcome encodes key 1
        inferred_key = 0 if note.observed == "00" else 1
        return transcript.ciphertext ^ inferred_key

    if transcript.initial_label is None:
        raise MissingTranscript("initial state not announced yet")
    if transcript.alice_published is None:
        raise MissingTranscript("sender's measurement result not published")

    from .protocol import recover_bit  # deferred: protocol imports this module

    if model.kind is AttackKind.INTERCEPT_RESEND_Z:
        # her resent Z eigenstate survives only when no decoding happens,
        # so her bit equals the receiver's result exactly for phi1 rounds
        if transcript.initial_label == StateLabel.PHI1.value:
            bob_equiv = Outcome(BasisKind.Z, note.observed)
            return recover_bit(transcript.alice_published, bob_equiv)
        return None

    if model.kind is AttackKind.INTERCEPT_RESEND_X:
        # for phi2 rounds the receiver Hadamards her resent |+/-> back to
        # the computational basis, so her X bit predicts his result
        if transcript.initial_label == StateLabel.PHI2.value:
            bob_equiv = Outcome(BasisKind.Z, note.observed)
            return recover_bit(transcript.alice_published, bob_equiv)
        return None

    # cnot ancilla: in phi1 rounds the ancilla is a classical copy of the
    # transit qubit, hence of the receiver's measured value
    if note.ancilla_outcome is None:
        return None
    if transcript.initial_label == StateLabel.PHI1.value:
        bob_equiv = Outcome(BasisKind.Z, str(note.ancilla_outcome))
        return recover_bit(transcript.alice_published, bob_equiv)
    return None
