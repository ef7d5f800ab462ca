"""Independent oracles used to cross-check the simulator.

The dense-matrix helpers are deliberately built the slow way (full
2^n x 2^n operators via kron chains, explicit projectors) and share no
code with the package's kernels, so agreement between the two routes is
meaningful. Qubit 1 is the most significant index bit, matching the
package convention.

The scalar round reference plays a run's rounds one at a time, one
state vector per round, each round consuming its draw row in order: the
sampling the Monte Carlo runner's branch-tree walk must reproduce. Its
rounds use the package's rules and single-state operations, not the
branch trees.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from wqsc.attacks import (
    AttackKind,
    AttackModel,
    PublicTranscript,
    attack_note,
    attack_rows,
    eve_guess,
)
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
    _qubit_count,
    _wrap,
    apply_1q,
    bell_basis,
    collapse_one,
    measure,
    sample_index,
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


def sample_attack(model: AttackModel, state, transit_qubits: tuple[int, ...], rng):
    """One sampled branch of the attack channel: the forwarded state and
    Eve's note. Only an attack that measures draws from ``rng``."""
    if model.kind is AttackKind.NONE:
        return state, None
    probs, forward = attack_rows(model, state.amplitudes[None], transit_qubits)
    i = sample_index(probs[0], float(rng.random())) if model.samples else 0
    amps = collapse_one(forward, i)
    return _wrap(_qubit_count(amps), amps), attack_note(model, i, state.num_qubits)


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
    alice, state, _ = measure(state, z_basis(1, 2), rng)
    bob, state, _ = measure(state, z_basis(3), rng)
    if bit is None:
        return (None, check_consistent(alice, bob), None, None)
    if note is not None and note.ancilla_qubit is not None:
        # Eve measures her ancilla only now, at guess time
        ancilla, state, _ = measure(state, z_basis(note.ancilla_qubit), rng)
        note = replace(note, ancilla_outcome=int(ancilla.value))
    transcript = PublicTranscript(
        scheme="present",
        mode="message",
        initial_label=initial,
        alice_published=alice,
        bob_announced=bob,
    )
    return (bit, None, recover_bit(alice, bob), eve_guess(model, note, transcript))


def cao_round(model: AttackModel, basis_policy: str, bit: int | None, rng) -> tuple:
    """``(message_bit, check_pass, recovered_bit, eve_guess)`` of one
    round of the four-qubit scheme; ``bit`` None plays a check round."""
    state, note = sample_attack(model, build("w4"), (3, 4), rng)
    if bit is None:
        basis = basis_policy
        if basis == "random":
            basis = CHECK_BASES[int(rng.random() * 3.0) % 3]
        alice, state, _ = measure(state, _pair_basis(basis, 1, 2), rng)
        bob, _, _ = measure(state, _pair_basis(basis, 3, 4), rng)
        return (None, not cao_check_error(basis, alice, bob), None, None)
    alice, state, _ = measure(state, bell_basis(1, 2), rng)
    bob, _, _ = measure(state, bell_basis(3, 4), rng)
    alice_key, bob_key = cao_keys(alice, bob)
    ciphertext = alice_key ^ bit
    transcript = PublicTranscript(scheme="cao", mode="key", ciphertext=ciphertext)
    return (bit, None, bob_key ^ ciphertext, eve_guess(model, note, transcript))


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
