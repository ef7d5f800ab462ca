"""Adversary channels applied to in-transit qubits.

An attack is named by its command-line string, one of
``PRESENT_ATTACKS`` or ``CAO_ATTACKS``.

:func:`attack_rows` is the one description of an attack. It applies the
attack to a stack of states at once (one row per node of a branch-tree
level) and yields every outcome's exact probability, the state Eve
forwards after it and her note after it: her classical side information,
which is the outcome's plain label (``"0"``, ``"1"`` for one qubit,
``"00"``..``"11"`` for the cao pair). An attack with one outcome draws
nothing and notes nothing; one with more outcomes takes a draw of the
round. The branch trees of
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
stays entangled with the global state, and Eve measures it in Z only when
she forms her guess, so its outcome label is her note.

This module does not say how Eve guesses the message bit. The branch
trees of :mod:`wqsc.harness` read her guess off their leaves: her view
of a round is her note plus the public announcements (never the
receiver's outcome), and she guesses the bit of larger mass among the
leaves that show her that view, abstaining at a tie.
"""

from __future__ import annotations

import numpy as np

from .qstate import (
    _basis_tables,
    _qubit_count,
    apply_cnot_rows,
    measurement_rows,
    tensor_rows,
    x_basis,
    z_basis,
)
from .states import build

PRESENT_ATTACKS = ("none", "ir-z", "ir-x", "cnot")
CAO_ATTACKS = ("none", "cao-ir-z")


_KET0 = np.array([1.0, 0.0], dtype=np.complex128)


def attack_rows(kind: str, amps: np.ndarray, transit_qubits: tuple[int, ...]):
    """Eve's attack ``kind`` on every row of a stack of states: the
    ``(rows, outcomes)`` array of her outcome probabilities; the
    ``(rows, outcomes, 2**n)`` array of the states she forwards from each
    row after each outcome (all zeros after an outcome of zero
    probability; for no attack, a view of ``amps``); and ``notes[i]``,
    her note after outcome ``i``: the outcome's label, or None for an
    attack with one outcome.

    An attack with one outcome (no attack, the entangling probe) measures
    nothing, so a round draws nothing for it. The probe's forwarded states
    carry her ancilla as an extra, last qubit.
    """
    if kind == "none":
        return np.ones((len(amps), 1)), amps[:, None], [None]

    if kind == "cnot":
        (q,) = transit_qubits
        ancilla = _qubit_count(amps) + 1
        probed = apply_cnot_rows(tensor_rows(amps, _KET0), q, ancilla)
        return np.ones((len(amps), 1)), probed[:, None], [None]

    if kind == "cao-ir-z":
        qa, qb = transit_qubits
        basis = z_basis(qa, qb)
    else:  # ir-z, ir-x: measuring the transit qubit is the resend
        (q,) = transit_qubits
        basis = z_basis(q) if kind == "ir-z" else x_basis(q)
    probs, states = measurement_rows(amps, basis)
    if kind == "cao-ir-z":
        # forward |00> for outcome 00 and a fresh psi+ pair for a
        # single-excitation outcome: the state after excited outcome i is
        # the rest of the register times the pair's bits i, made unit by
        # the squared norm that is i's probability (``pairs[i]`` lists the
        # basis states of outcome i, the rest in qubit order), so the rest
        # times psi+ replaces it (both unit)
        pairs = np.argsort(_basis_tables(basis, _qubit_count(amps)).outcomes, kind="stable").reshape(4, -1)
        fresh = build("psi+")
        for i in range(1, 4):
            rest = states[:, i, pairs[i]]
            for pair in range(4):
                states[:, i, pairs[pair]] = rest * fresh[pair]
    return probs, states, _basis_tables(basis, _qubit_count(amps)).labels
