"""Adversary channels applied to in-transit qubits.

Each attack consumes the qubits a sender puts on the channel and yields
the forwarded state plus Eve's classical side information (:class:`EveNote`).
:func:`attack_rows` applies the attack to a stack of states at once (one
row per node of a branch-tree level) and yields every outcome's exact
probability. The branch trees of :mod:`wqsc.harness` call it once per
tree level, and :func:`attack_branches`, which enumerates the branches
of one state, is a one-row call of it; the test suite's one-round
oracle samples a branch from the same call, so sampled rounds and exact
analysis can never drift apart.

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

This module does not say how Eve guesses the message bit. The branch
trees of :mod:`wqsc.harness` read her guess off their leaves: her view
of a round is her note plus the public announcements (never the
receiver's outcome), and she guesses the bit of larger mass among the
leaves that show her that view, abstaining at a tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArityMismatch, CapacityExceeded, IndexOutOfRange
from .qstate import (
    QUBIT_CAPACITY,
    BasisKind,
    StateVector,
    _pair_rest_indices,
    _qubit_count,
    _wrap,
    apply_cnot_rows,
    basis_ket,
    measurement_rows,
    nonzero_branches,
    tensor_rows,
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
        """True iff the attack measures the transit qubits, so that a
        round spends one uniform of its draw row on Eve's outcome."""
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


Branch = tuple[StateVector, EveNote | None, float]

_KET0 = basis_ket("0").amplitudes


def attack_rows(model: AttackModel, amps: np.ndarray, transit_qubits: tuple[int, ...]):
    """The attack on every row of a stack of states: the ``(rows,
    outcomes)`` array of Eve's outcome probabilities, and
    ``forward(rows, outcomes)``, the stack of the states she forwards from
    row ``rows[i]`` after outcome ``outcomes[i]``.

    A draw-free attack has the single outcome 0, of probability 1. The
    entangling probe's forwarded states carry her ancilla as an extra,
    last qubit.
    """
    arity = model.arity
    if arity is not None and len(transit_qubits) != arity:
        raise ArityMismatch(
            f"{model.kind.value} expects {arity} transit qubit(s), "
            f"got {len(transit_qubits)}"
        )
    if model.kind is AttackKind.NONE:
        return np.ones((len(amps), 1)), lambda rows, _: amps[rows]

    if model.kind is AttackKind.CNOT_ANCILLA:
        q, ancilla = transit_qubits[0], _qubit_count(amps) + 1
        if ancilla > QUBIT_CAPACITY:
            raise CapacityExceeded(
                f"{ancilla} qubits exceed the {QUBIT_CAPACITY}-qubit capacity"
            )
        if not 1 <= q < ancilla:
            raise IndexOutOfRange(f"qubit {q} outside 1..{ancilla - 1}")
        probed = apply_cnot_rows(tensor_rows(amps, _KET0), q, ancilla)
        return np.ones((len(amps), 1)), lambda rows, _: probed[rows]

    if model.kind in (AttackKind.INTERCEPT_RESEND_Z, AttackKind.INTERCEPT_RESEND_X):
        q = transit_qubits[0]
        basis = z_basis(q) if model.kind is AttackKind.INTERCEPT_RESEND_Z else x_basis(q)
        return measurement_rows(amps, basis)

    # cao-ir-z: Z measurement of the transit pair, then forward |00> for
    # outcome 00 and a fresh psi+ pair for a single-excitation outcome
    qa, qb = transit_qubits
    probs, collapse = measurement_rows(amps, z_basis(qa, qb))

    def forward(rows: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        out = collapse(rows, outcomes)
        excited = np.flatnonzero(outcomes != 0)
        if len(excited):
            out[excited] = _replace_pair(
                out[excited], qa, qb, outcomes[excited], build(StateLabel.BELL_PSI_PLUS)
            )
        return out

    return probs, forward


def attack_note(model: AttackModel, outcome: int, num_qubits: int) -> EveNote | None:
    """Eve's note after outcome ``outcome`` of :func:`attack_rows` on
    states of ``num_qubits`` qubits."""
    if model.kind is AttackKind.NONE:
        return None
    if model.kind is AttackKind.CNOT_ANCILLA:
        return EveNote(ancilla_qubit=num_qubits + 1)
    if model.kind is AttackKind.CAO_INTERCEPT_RESEND_Z:
        return EveNote(basis="z", observed=format(outcome, "02b"))
    basis = BasisKind.Z if model.kind is AttackKind.INTERCEPT_RESEND_Z else BasisKind.X
    return EveNote(basis=basis.value, observed=str(outcome))


def _replace_pair(
    amps: np.ndarray, qa: int, qb: int, outcomes: np.ndarray, replacement: StateVector
) -> np.ndarray:
    """Swap the collapsed product pair (qa, qb) of every row, whose bits
    are the row's two-bit Z outcome, for a fresh two-qubit state."""
    idx = _pair_rest_indices(_qubit_count(amps), qa, qb)
    rest_amps = amps[np.arange(len(amps))[:, None], idx[outcomes >> 1, outcomes & 1]]
    out = np.zeros_like(amps)
    repl = replacement.amplitudes
    for pa in (0, 1):
        for pb in (0, 1):
            out[..., idx[pa, pb]] = rest_amps * repl[(pa << 1) | pb]
    # rest_amps and replacement are each unit vectors, so out already is
    return out


def attack_branches(
    model: AttackModel, state: StateVector, transit_qubits: tuple[int, ...]
) -> list[Branch]:
    """Enumerate the attack's outcome branches with exact probabilities."""
    if model.kind is AttackKind.NONE:
        return [(state, None, 1.0)]
    found = nonzero_branches(*attack_rows(model, state.amplitudes[None], transit_qubits))
    return [
        (_wrap(_qubit_count(amps), amps), attack_note(model, i, state.num_qubits), p)
        for i, amps, p in zip(found.outcome.tolist(), found.states(), found.prob.tolist())
    ]
