"""Independent oracles used to cross-check the simulator.

The dense-matrix helpers are deliberately built the slow way (full
2^n x 2^n operators via kron chains, explicit projectors) and share no
code with the package's stacked calls, so agreement between the two routes is
meaningful. Qubit 1 is the most significant index bit, matching the
package convention.

The protocol rules are stated here again, on outcome labels and apart
from the package's outcome-index tables: the present scheme's
correlation (:data:`CORRELATION`), the cao key maps (:data:`ALICE_KEY`,
:data:`BOB_KEY`) and the cao check rule, whose allowed joint outcomes
come from the dense projectors (:func:`allowed_joint_outcomes`). A rule
raises ``KeyError`` on an outcome that no modelled round reaches.

The scalar round reference plays a run's rounds one at a time, one
state vector per round, each round consuming its draw row in order: the
sampling the Monte Carlo runner's branch-tree walk must reproduce. Its
rounds use these rules and the package's stacked measurement and attack
calls on one-row stacks, not the branch trees, and pick each outcome
with :func:`sample_index`, a scalar Born-rule loop. Eve's guess in these
rounds comes from :func:`reference_guess`, a rule written by hand per
attack, where the package reads it off the trees.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from wqsc.attacks import attack_rows
from wqsc.protocol import CHECK_BASES
from wqsc.qstate import (
    FLIP,
    HADAMARD,
    MeasurementBasis,
    apply_1q_rows,
    measurement_rows,
    outcome_at,
    z_basis,
)
from wqsc.states import build

# the reference's own zero rule, apart from the package's (a probability
# of no whole share, ``wqsc.qstate.shares``): an outcome of probability at
# most this is unreachable, so the walk replay cross-checks the two rules
ZERO_PROB = 1e-15

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


def unit(vec) -> np.ndarray:
    """``vec`` as a complex array scaled to unit norm."""
    vec = np.asarray(vec, dtype=complex)
    return vec / np.linalg.norm(vec)


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


def bell_projector(num_qubits: int, pair: tuple[int, int], label: str) -> np.ndarray:
    """Projector |bell><bell| on the ordered qubit pair ``pair`` (its first
    qubit the high bit of the Bell vector's index) with identity on the
    rest, entry by entry: two basis states meet only where their other
    qubits' bits agree."""
    vec = BELL_VECTORS[label]
    qa, qb = pair
    idx = np.arange(1 << num_qubits)
    amp = vec[2 * ((idx >> (num_qubits - qa)) & 1) + ((idx >> (num_qubits - qb)) & 1)]
    rest = idx & ~((1 << (num_qubits - qa)) | (1 << (num_qubits - qb)))
    return np.outer(amp, amp.conj()) * (rest[:, None] == rest[None, :])


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


# the present scheme's correlation: the receiver's Z bit that goes with
# each Z pair the sender can read in an ideal round; the sender's pair 11
# never occurs. A message bit 1 flips the transmitted qubit, so the
# recovered bit is whether the receiver's result departs from it
CORRELATION = {"10": "0", "01": "0", "00": "1"}

# the cao key bit of each Bell label that carries one, for either side
ALICE_KEY = {"psi+": 0, "phi+": 1, "phi-": 1}
BOB_KEY = {"phi+": 0, "phi-": 0, "psi+": 1}


def check_consistent(alice: str, bob: str) -> bool:
    """Whether a present check round's Z outcomes follow the correlation."""
    return CORRELATION[alice] == bob


def recover_bit(alice: str, bob: str) -> int:
    """The message bit the receiver reads off a Z result, given the
    sender's published Z pair."""
    return int(CORRELATION[alice] != bob)


def cao_keys(alice: str, bob: str) -> tuple[int, int]:
    """Sender's and receiver's key bits from their Bell outcomes."""
    return ALICE_KEY[alice], BOB_KEY[bob]


@lru_cache(maxsize=None)
def allowed_joint_outcomes(basis: str) -> frozenset[tuple[str, str]]:
    """The (sender pair, receiver pair) labels of a cao check round in
    ``basis`` that the ideal w4 state gives with nonzero probability, by
    the dense projectors: Z and X on all four qubits at once, Bell as the
    sender's pair projector and then the receiver's."""
    w4 = build("w4")
    if basis != "bell":
        projector = z_projector if basis == "z" else x_projector
        bits = [format(i, "04b") for i in range(16)]
        return frozenset(
            (b[:2], b[2:]) for b in bits if project(w4, projector(4, (1, 2, 3, 4), b))[0] > 0.0
        )
    allowed = set()
    for la in BELL_VECTORS:
        prob_a, collapsed = project(w4, bell_projector(4, (1, 2), la))
        if prob_a > 0.0:
            allowed |= {
                (la, lb) for lb in BELL_VECTORS
                if project(collapsed, bell_projector(4, (3, 4), lb))[0] > 0.0
            }
    return frozenset(allowed)


def cao_check_error(basis: str, alice: str, bob: str) -> bool:
    """Whether a cao check round's joint outcome is impossible for the
    ideal state."""
    return (alice, bob) not in allowed_joint_outcomes(basis)


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


def bell_basis(first: int, second: int) -> MeasurementBasis:
    """The Bell basis on the ordered qubit pair (first, second)."""
    return MeasurementBasis("bell", (first, second))


def pruned_branches(probs: np.ndarray, states: np.ndarray) -> SimpleNamespace:
    """The outcomes of a ``measurement_rows`` or ``attack_rows`` result
    whose probability exceeds ``ZERO_PROB``, in (row, outcome) order, as
    the branch trees keep them: branch ``i`` is outcome ``outcome[i]`` of
    row ``parent[i]``, of probability ``prob[i]``, and leaves ``states[i]``."""
    parent, outcome = (probs > ZERO_PROB).nonzero()
    return SimpleNamespace(
        parent=parent, outcome=outcome, prob=probs[parent, outcome], states=states[parent, outcome]
    )


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


def third(u: float) -> int:
    """The fair choice of three that a draw ``u = k * 2**-53`` picks:
    ``floor(3 * u)`` in exact integers, ``(3 * k) >> 53``. The float
    product ``u * 3`` rounds up to 2.0 at ``k = round(2**54 / 3)``, just
    below 2/3."""
    return (int(u * 2**53) * 3) >> 53


def node_values(tree, *keys) -> list[dict]:
    """Per node of a branch tree's deepest level, the dict of its values
    of ``keys``."""
    return [dict(zip(keys, row)) for row in zip(*(tree.values(key) for key in keys))]


class Leaf(NamedTuple):
    """Outcome of one round; None where the round's mode has no such field."""

    message_bit: int | None
    check_pass: bool | None
    recovered_bit: int | None
    eve_guess: int | None


def leaf_values(tree) -> list[Leaf]:
    """A finished branch tree's leaf outcomes as a round reports them:
    None for a code of -1, a check result as a bool."""
    bits, passes, recovered, guesses = (
        [None if code < 0 else code for code in column.tolist()] for column in tree.leaf_columns
    )
    passes = [passed if passed is None else bool(passed) for passed in passes]
    return list(map(Leaf, bits, passes, recovered, guesses))


def sample_measurement(state, basis, rng):
    """One sampled outcome of measuring ``state`` in ``basis``: the
    outcome, and the state collapsed by it."""
    probs, states = measurement_rows(state[None], basis)
    i = sample_index(probs[0], float(rng.random()))
    return outcome_at(basis, i), states[0, i]


# the attacks that measure the transit qubits, so that a round spends one
# uniform of its draw row on Eve's outcome; written here by hand, as the
# reference the package's attacks must agree with
MEASURING_ATTACKS = frozenset({
    "ir-z",
    "ir-x",
    "cao-ir-z",
})


def sample_attack(kind: str, state, transit_qubits: tuple[int, ...], rng):
    """One sampled branch of the attack channel: the forwarded state and
    Eve's note. Only an attack that measures draws from ``rng``."""
    if kind == "none":
        return state, None
    probs, states, notes = attack_rows(kind, state[None], transit_qubits)
    i = sample_index(probs[0], float(rng.random())) if kind in MEASURING_ATTACKS else 0
    return states[0, i], notes[i]


def reference_guess(kind: str, note, initial=None, alice=None, ciphertext=None):
    """Eve's message-bit guess, by hand for each attack, from her note
    (her outcome's label) and the round's announcements: the initial
    state and the sender's published outcome (present scheme) or the
    ciphertext (cao scheme). Returns None (unknown) where her side
    information says nothing."""
    if kind == "none":
        return None
    if kind == "cao-ir-z":
        # pair outcome 00 means the key pair stayed with the sender (key 0);
        # any excitation means the sender's Bell outcome encodes key 1
        return ciphertext ^ (0 if note == "00" else 1)
    # her note is the receiver's bit in the rounds she can read: her
    # resent Z eigenstate survives decoding only in phi1 rounds, her
    # resent X eigenstate only in phi2 rounds (the receiver's Hadamard
    # turns it back into a Z eigenstate), and the probe's ancilla is a
    # copy of the receiver's qubit only in phi1 rounds
    if initial != ("phi2" if kind == "ir-x" else "phi1"):
        return None
    return recover_bit(alice, note)


def present_round(kind: str, init_policy: str, bit: int | None, rng, seen=None) -> tuple:
    """``(message_bit, check_pass, recovered_bit, eve_guess)`` of one
    round of the three-qubit scheme; ``bit`` None plays a check round.
    ``seen``, if given, receives the initial state, Eve's note and both
    parties' outcomes."""
    seen = {} if seen is None else seen
    initial = init_policy
    if initial == "random":
        initial = "phi1" if rng.random() < 0.5 else "phi2"
    state = build(initial)
    if bit == 1:
        state = apply_1q_rows(state, 3, FLIP)
    state, note = sample_attack(kind, state, (3,), rng)
    if initial == "phi2":
        state = apply_1q_rows(state, 3, HADAMARD)
    alice, after = sample_measurement(state, z_basis(1, 2), rng)
    bob, after = sample_measurement(after, z_basis(3), rng)
    seen.update(initial=initial, note=note, alice=alice, bob=bob)
    if bit is None:
        return (None, check_consistent(alice, bob), None, None)
    if kind == "cnot":
        # Eve measures her ancilla, qubit 4, only now, at guess time
        note, _ = sample_measurement(after, z_basis(4), rng)
        seen["note"] = note
    guess = reference_guess(kind, note, initial=initial, alice=alice)
    return (bit, None, recover_bit(alice, bob), guess)


def cao_round(kind: str, basis_policy: str, bit: int | None, rng, seen=None) -> tuple:
    """``(message_bit, check_pass, recovered_bit, eve_guess)`` of one
    round of the four-qubit scheme; ``bit`` None plays a check round.
    ``seen``, if given, receives Eve's note, both parties' outcomes and,
    in a check round, its basis."""
    seen = {} if seen is None else seen
    state, note = sample_attack(kind, build("w4"), (3, 4), rng)
    if bit is None:
        basis = basis_policy
        if basis == "random":
            basis = CHECK_BASES[third(rng.random())]
        alice, after = sample_measurement(state, MeasurementBasis(basis, (1, 2)), rng)
        bob, _ = sample_measurement(after, MeasurementBasis(basis, (3, 4)), rng)
        seen.update(basis=basis, note=note, alice=alice, bob=bob)
        return (None, not cao_check_error(basis, alice, bob), None, None)
    alice, after = sample_measurement(state, bell_basis(1, 2), rng)
    bob, _ = sample_measurement(after, bell_basis(3, 4), rng)
    seen.update(note=note, alice=alice, bob=bob)
    alice_key, bob_key = cao_keys(alice, bob)
    ciphertext = alice_key ^ bit
    guess = reference_guess(kind, note, ciphertext=ciphertext)
    return (bit, None, bob_key ^ ciphertext, guess)


def scalar_round(config, is_check: bool, row: np.ndarray, seen=None) -> tuple:
    """``(message_bit, check_pass, recovered_bit, eve_guess)`` of one
    round of ``config`` from the one-round engines, consuming ``row`` in
    order: a message round's first draw picks its bit (0 iff ``u < 0.5``).
    ``seen`` receives the values the round drew, as the engine names them."""
    rng = RoundStream(row)
    bit = None if is_check else (0 if rng.random() < 0.5 else 1)
    if config.scheme == "present":
        return present_round(config.attack, config.init_policy, bit, rng, seen)
    return cao_round(config.attack, config.check_basis_policy, bit, rng, seen)


def scalar_round_outcomes(config, flags: np.ndarray, draws: np.ndarray) -> list[tuple]:
    """Per round, :func:`scalar_round`, round ``i`` consuming ``draws[i]``."""
    return [scalar_round(config, is_check, row) for is_check, row in zip(flags, draws)]
