"""Adversary channels applied to in-transit qubits.

:func:`attack_rows` is the one description of an attack. It applies the
attack to a stack of states at once (one row per node of a branch-tree
level) and yields every outcome's exact probability, the state Eve
forwards after it and her classical side information after it (one
:class:`EveNote` per outcome). An attack with one outcome draws nothing;
one with more outcomes takes a draw of the round. The branch trees of
:mod:`wqsc.harness` call it once per tree, and the test suite's
one-round oracle samples a branch from the same call on a one-row stack,
so sampled rounds and exact analysis can never drift apart.

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

from .qstate import (
    _pair_rest_indices,
    _qubit_count,
    apply_cnot_rows,
    measurement_rows,
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


_KET0 = np.array([1.0, 0.0], dtype=np.complex128)


def attack_rows(kind: AttackKind, amps: np.ndarray, transit_qubits: tuple[int, ...]):
    """Eve's attack ``kind`` on every row of a stack of states: the
    ``(rows, outcomes)`` array of her outcome probabilities; the
    ``(rows, outcomes, 2**n)`` array of the states she forwards from each
    row after each outcome (all zeros after an outcome of zero
    probability; for no attack, a view of ``amps``); and ``notes[i]``,
    her note after outcome ``i`` (``[None]`` for no attack).

    An attack with one outcome (no attack, the entangling probe) measures
    nothing, so a round draws nothing for it. The probe's forwarded states
    carry her ancilla as an extra, last qubit, which her note names.
    """
    if kind is AttackKind.NONE:
        return np.ones((len(amps), 1)), amps[:, None], [None]

    if kind is AttackKind.CNOT_ANCILLA:
        (q,) = transit_qubits
        ancilla = _qubit_count(amps) + 1
        probed = apply_cnot_rows(tensor_rows(amps, _KET0), q, ancilla)
        return np.ones((len(amps), 1)), probed[:, None], [EveNote(ancilla_qubit=ancilla)]

    if kind is AttackKind.CAO_INTERCEPT_RESEND_Z:
        # Z measurement of the transit pair, then forward |00> for outcome
        # 00 and a fresh psi+ pair for a single-excitation outcome: the
        # state after excited outcome i is the rest of the register times
        # the pair's bits i, so the rest times psi+ replaces it (both unit)
        qa, qb = transit_qubits
        probs, states = measurement_rows(amps, z_basis(qa, qb))
        pairs = _pair_rest_indices(_qubit_count(amps), qa, qb).reshape(4, -1)
        fresh = build(StateLabel.BELL_PSI_PLUS)
        for i in range(1, 4):
            rest = states[:, i, pairs[i]]
            for pair in range(4):
                states[:, i, pairs[pair]] = rest * fresh[pair]
        notes = [EveNote(basis="z", observed=format(i, "02b")) for i in range(probs.shape[1])]
        return probs, states, notes

    # ir-z, ir-x: measuring the transit qubit is the resend
    (q,) = transit_qubits
    basis = z_basis(q) if kind is AttackKind.INTERCEPT_RESEND_Z else x_basis(q)
    probs, states = measurement_rows(amps, basis)
    return probs, states, [EveNote(basis=basis.kind, observed=str(i)) for i in (0, 1)]
