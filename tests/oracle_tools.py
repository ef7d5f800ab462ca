"""Independent oracles used to cross-check the simulator.

The dense-matrix helpers are deliberately built the slow way (full
2^n x 2^n operators via kron chains, explicit projectors) and share no
code with the package's kernels, so agreement between the two routes is
meaningful. Qubit 1 is the most significant index bit, matching the
package convention.

The scalar round reference plays a run's rounds one at a time, one
state vector per round, each round consuming its draw row in order: the
sampling the Monte Carlo runner's branch-tree walk must reproduce. Its
rounds use the package's rules and its stacked measurement and attack
calls on one-row stacks, not the branch trees, and pick each outcome
with :func:`sample_index`, a scalar Born-rule loop. Eve's guess in these
rounds comes from :func:`reference_guess`, a rule written by hand per
attack, where the package reads it off the trees.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from wqsc.attacks import AttackKind, AttackModel, attack_note, attack_rows
from wqsc.protocol import (
    CHECK_BASES,
    _pair_basis,
    cao_check_error,
    cao_keys,
    check_consistent,
    recover_bit,
)
from wqsc.qstate import (
    FLIP,
    HADAMARD,
    BasisKind,
    ZERO_PROB,
    Outcome,
    _qubit_count,
    _wrap,
    apply_1q,
    bell_basis,
    measurement_rows,
    outcome_at,
    z_basis,
)
from wqsc.states import build

I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
U_FLIP = np.array([[0, 1], [-1, 0]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

BELL_VECTORS = {
    "psi+": np.kron(KET1, KET0) + np.kron(KET0, KET1),
    "psi-": np.kron(KET1, KET0) - np.kron(KET0, KET1),
    "phi+": np.kron(KET0, KET0) + np.kron(KET1, KET1),
    "phi-": np.kron(KET0, KET0) - np.kron(KET1, KET1),
}
BELL_VECTORS = {k: v / np.sqrt(2) for k, v in BELL_VECTORS.items()}


def ket(bits: str) -> np.ndarray:
    vec = np.zeros(1 << len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def op_full(num_qubits: int, qubit: int, gate: np.ndarray) -> np.ndarray:
    """Full-register operator with ``gate`` on one qubit (1-based, MSB first)."""
    out = np.array([[1.0 + 0j]])
    for q in range(1, num_qubits + 1):
        out = np.kron(out, gate if q == qubit else I2)
    return out


def cnot_full(num_qubits: int, control: int, target: int) -> np.ndarray:
    """Dense CNOT permutation matrix."""
    dim = 1 << num_qubits
    cpos = num_qubits - control
    tpos = num_qubits - target
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        row = col ^ (1 << tpos) if (col >> cpos) & 1 else col
        mat[row, col] = 1.0
    return mat


def z_projector(num_qubits: int, qubits: tuple[int, ...], bits: str) -> np.ndarray:
    """Projector onto a Z-basis outcome of the given qubits."""
    singles = {"0": np.outer(KET0, KET0.conj()), "1": np.outer(KET1, KET1.conj())}
    out = np.array([[1.0 + 0j]])
    lookup = dict(zip(qubits, bits))
    for q in range(1, num_qubits + 1):
        out = np.kron(out, singles[lookup[q]] if q in lookup else I2)
    return out


def x_projector(num_qubits: int, qubits: tuple[int, ...], bits: str) -> np.ndarray:
    """Projector onto an X-basis outcome (bit 0 = plus, 1 = minus)."""
    singles = {"0": np.outer(PLUS, PLUS.conj()), "1": np.outer(MINUS, MINUS.conj())}
    out = np.array([[1.0 + 0j]])
    lookup = dict(zip(qubits, bits))
    for q in range(1, num_qubits + 1):
        out = np.kron(out, singles[lookup[q]] if q in lookup else I2)
    return out


def bell_projector_first_pair(label: str, rest_qubits: int) -> np.ndarray:
    """Projector |bell><bell| on qubits 1,2 with identity on the rest."""
    vec = BELL_VECTORS[label]
    return np.kron(np.outer(vec, vec.conj()), np.eye(1 << rest_qubits))


def bell_projector_second_pair(label: str, leading_qubits: int) -> np.ndarray:
    """Projector |bell><bell| on the last two qubits."""
    vec = BELL_VECTORS[label]
    return np.kron(np.eye(1 << leading_qubits), np.outer(vec, vec.conj()))


def project(vec: np.ndarray, projector: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Born probability and normalized post-measurement vector."""
    shot = projector @ vec
    prob = float(np.real(np.vdot(shot, shot)))
    if prob < 1e-15:
        return 0.0, None
    return prob, shot / np.sqrt(prob)


def max_dev_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    inner = np.vdot(b, a)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


class FixedUniform:
    """Deterministic stand-in for an rng: replays a fixed list of uniforms."""

    def __init__(self, *values: float) -> None:
        self._values = list(values)

    def random(self) -> float:
        return self._values.pop(0)


class RoundStream:
    """Positional uniform stream over one round's draw row."""

    __slots__ = ("_row", "_pos")

    def __init__(self, row: np.ndarray) -> None:
        self._row = row
        self._pos = 0

    def random(self) -> float:
        value = self._row[self._pos]
        self._pos += 1
        return float(value)


_ROW0 = np.zeros(1, dtype=np.int64)


def sample_index(probs: np.ndarray, u: float) -> int:
    """Index drawn from ``probs`` by ``u``: the first index whose running
    sum exceeds ``u``, or the last if none does. Zero-probability entries
    are unreachable."""
    acc = 0.0
    last_positive = -1
    for i, p in enumerate(probs):
        if p <= ZERO_PROB:
            continue
        acc += p
        last_positive = i
        if u < acc:
            return i
    return last_positive


def sample_measurement(state, basis, rng):
    """One sampled outcome of measuring ``state`` in ``basis``: the
    outcome and the collapsed state."""
    probs, collapse = measurement_rows(state.amplitudes[None], basis)
    i = sample_index(probs[0], float(rng.random()))
    collapsed = collapse(_ROW0, np.array([i]))[0]
    return outcome_at(basis, i), _wrap(state.num_qubits, collapsed)


def sample_attack(model: AttackModel, state, transit_qubits: tuple[int, ...], rng):
    """One sampled branch of the attack channel: the forwarded state and
    Eve's note. Only an attack that measures draws from ``rng``."""
    if model.kind is AttackKind.NONE:
        return state, None
    probs, forward = attack_rows(model, state.amplitudes[None], transit_qubits)
    i = sample_index(probs[0], float(rng.random())) if model.samples else 0
    amps = forward(_ROW0, np.array([i]))[0]
    return _wrap(_qubit_count(amps), amps), attack_note(model, i, state.num_qubits)


def reference_guess(model: AttackModel, note, initial=None, alice=None, ciphertext=None):
    """Eve's message-bit guess, by hand for each attack, from her note
    and the round's announcements: the initial state and the sender's
    published outcome (present scheme) or the ciphertext (cao scheme).
    Returns None (unknown) where her side information says nothing."""
    if model.kind is AttackKind.NONE:
        return None
    if model.kind is AttackKind.CAO_INTERCEPT_RESEND_Z:
        # pair outcome 00 means the key pair stayed with the sender (key 0);
        # any excitation means the sender's Bell outcome encodes key 1
        return ciphertext ^ (0 if note.observed == "00" else 1)
    # her resent Z eigenstate survives decoding only in phi1 rounds, her
    # resent X eigenstate only in phi2 rounds (the receiver's Hadamard
    # turns it back into a Z eigenstate), and the probe's ancilla is a
    # copy of the receiver's qubit only in phi1 rounds; there her bit is
    # the receiver's result
    if model.kind is AttackKind.CNOT_ANCILLA:
        readable, bob_value = "phi1", str(note.ancilla_outcome)
    elif model.kind is AttackKind.INTERCEPT_RESEND_Z:
        readable, bob_value = "phi1", note.observed
    else:
        readable, bob_value = "phi2", note.observed
    if initial != readable:
        return None
    return recover_bit(alice, Outcome(BasisKind.Z, bob_value))


def present_round(model: AttackModel, init_policy: str, bit: int | None, rng) -> tuple:
    """``(message_bit, check_pass, recovered_bit, eve_guess)`` of one
    round of the three-qubit scheme; ``bit`` None plays a check round."""
    initial = init_policy
    if initial == "random":
        initial = "phi1" if rng.random() < 0.5 else "phi2"
    state = build(initial)
    if bit == 1:
        state = apply_1q(state, 3, FLIP)
    state, note = sample_attack(model, state, (3,), rng)
    if initial == "phi2":
        state = apply_1q(state, 3, HADAMARD)
    alice, state = sample_measurement(state, z_basis(1, 2), rng)
    bob, state = sample_measurement(state, z_basis(3), rng)
    if bit is None:
        return (None, check_consistent(alice, bob), None, None)
    if note is not None and note.ancilla_qubit is not None:
        # Eve measures her ancilla only now, at guess time
        ancilla, state = sample_measurement(state, z_basis(note.ancilla_qubit), rng)
        note = replace(note, ancilla_outcome=int(ancilla.value))
    guess = reference_guess(model, note, initial=initial, alice=alice)
    return (bit, None, recover_bit(alice, bob), guess)


def cao_round(model: AttackModel, basis_policy: str, bit: int | None, rng) -> tuple:
    """``(message_bit, check_pass, recovered_bit, eve_guess)`` of one
    round of the four-qubit scheme; ``bit`` None plays a check round."""
    state, note = sample_attack(model, build("w4"), (3, 4), rng)
    if bit is None:
        basis = basis_policy
        if basis == "random":
            basis = CHECK_BASES[int(rng.random() * 3.0) % 3]
        alice, state = sample_measurement(state, _pair_basis(basis, 1, 2), rng)
        bob, _ = sample_measurement(state, _pair_basis(basis, 3, 4), rng)
        return (None, not cao_check_error(basis, alice, bob), None, None)
    alice, state = sample_measurement(state, bell_basis(1, 2), rng)
    bob, _ = sample_measurement(state, bell_basis(3, 4), rng)
    alice_key, bob_key = cao_keys(alice, bob)
    ciphertext = alice_key ^ bit
    guess = reference_guess(model, note, ciphertext=ciphertext)
    return (bit, None, bob_key ^ ciphertext, guess)


def scalar_round_outcomes(config, flags: np.ndarray, draws: np.ndarray) -> list[tuple]:
    """Per round ``(message_bit, check_pass, recovered_bit, eve_guess)``
    from the one-round engines, round ``i`` consuming ``draws[i]`` in
    order: a message round's first draw picks its bit (0 iff ``u < 0.5``)."""
    model = AttackModel(AttackKind(config.attack))
    if config.scheme == "present":
        play, policy = present_round, config.init_policy
    else:
        play, policy = cao_round, config.check_basis_policy
    outcomes = []
    for is_check, row in zip(flags, draws):
        rng = RoundStream(row)
        bit = None if is_check else (0 if rng.random() < 0.5 else 1)
        outcomes.append(play(model, policy, bit, rng))
    return outcomes
