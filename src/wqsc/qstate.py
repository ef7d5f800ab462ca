"""Dense state-vector core for small qubit registers.

Representation: a state of ``n`` qubits is a normalized
complex128 numpy array of length ``2**n``; its length gives its qubit
count. Qubits are numbered 1..n and qubit 1 is the MOST significant bit of
the basis-state index, so kets read left-to-right: ``|100>`` on three
qubits is index 4. Internally qubit ``q`` is *bit position* ``n - q``, the
weight-``2**(n - q)`` bit of the index. No function here writes into an
array it is given; each returns new arrays.

Everything works on a *stack*, a ``(rows, 2**n)`` array of states, one
per row (a flat array is taken as one state): the gates are the
``*_rows`` functions, and :func:`measurement_rows` gives every row's exact
outcome probabilities and its state after every outcome, zero-probability
outcomes included; this module prunes no outcome.
Each is plain numpy, one stacked call for all rows, and a row of a stack
goes through the same arithmetic, in the same order, as the row passed
alone, so stacked and one-row calls agree bit for bit. The branch trees
of ``harness`` measure a whole level with one such call and sample
rounds by walking the finished trees, so this module draws no random
numbers.

Measurements are supported in the computational (Z) basis, the Hadamard
(X) basis with outcomes encoded as bits (0 for ``|+>``, 1 for ``|->``),
and the Bell basis on an ordered qubit pair: a basis's kind is the
string ``"z"``, ``"x"`` or ``"bell"``. A basis's outcomes are numbered
by *outcome index*, and each has a plain string label
(:func:`outcome_at`): its bits in qubit order (``"01"``) or a Bell label
(``"psi+"``).
Every basis is measured through one path: a rotation maps it onto Z (a
Hadamard on each X qubit; CNOT(a, b), then H(a) for Bell on (a, b)), the
rotated stack is measured in Z, and each collapsed state is rotated back.
An outcome's probability is the squared norm of its projection, computed
once: the same number renormalizes the collapsed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import WqscError

# tolerance for exact algebra (all amplitudes are small rationals over
# sqrt(2), sqrt(3), sqrt(6), so double precision holds them to ~1e-16)
ATOL = 1e-12

# every outcome probability of a modelled round is k / SHARES for a whole k
# in 0..24, which its float misses by at most 1.8e-14, far inside the tolerance
SHARES = 24
_SNAP_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# gates: read-only 2x2 unitaries


# flips both the computational and the Hadamard basis (up to sign):
# |0> -> -|1>, |1> -> |0>, |+> -> |->, |-> -> -|+>
FLIP = np.array([[0, 1], [-1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / np.sqrt(2.0))
FLIP.setflags(write=False)
HADAMARD.setflags(write=False)


# ---------------------------------------------------------------------------
# bases and outcomes


# the Bell outcome indices 0..3, and the Bell outcome index of each Z
# outcome 2 * bit_a + bit_b of the rotated pair: CNOT(a, b), then H(a)
# sends phi+, psi+, phi-, psi- to 00, 01, 10, 11
BELL_ORDER = ("psi+", "psi-", "phi+", "phi-")
_BELL_OF_Z = np.array([BELL_ORDER.index(label) for label in ("phi+", "psi+", "phi-", "psi-")])

# the outcome index of each rotated Z outcome, by basis kind (None: the Z
# outcome itself); a kind not named here is a KeyError, never a Z
# measurement under another name
_OUTCOME_OF_Z = {"z": None, "x": None, "bell": _BELL_OF_Z}


@dataclass(frozen=True)
class MeasurementBasis:
    """Z or X (``kind`` ``"z"``, ``"x"``) on a set of qubits, or the Bell
    basis (``"bell"``) on an ordered pair."""

    kind: str
    qubits: tuple[int, ...]


def z_basis(*qubits: int) -> MeasurementBasis:
    """Z basis on the given qubits; outcome bits in ascending qubit order."""
    return MeasurementBasis("z", tuple(sorted(qubits)))


def x_basis(*qubits: int) -> MeasurementBasis:
    """X basis on the given qubits; outcome bit 0 is ``|+>``, 1 is ``|->``."""
    return MeasurementBasis("x", tuple(sorted(qubits)))


# ---------------------------------------------------------------------------
# basis tables


class _BasisTables(NamedTuple):
    """What measuring in a basis needs, per register width."""

    outcomes: np.ndarray  # the outcome of every basis state, once rotated onto Z
    labels: tuple[str, ...]  # the label of every outcome index


@lru_cache(maxsize=None)
def _basis_tables(basis: MeasurementBasis, num_qubits: int) -> _BasisTables:
    """The tables of a basis, read off the Z bits of its measured qubits
    after :func:`_rotate_measured` (for Bell, numbered in ``BELL_ORDER``),
    cached since the same few bases are measured in every tree build."""
    # the measured qubits' bits of every basis state, read MSB-first
    idx = np.arange(1 << num_qubits)
    outcomes = np.zeros(1 << num_qubits, dtype=np.int64)
    for q in basis.qubits:
        outcomes = (outcomes << 1) | ((idx >> (num_qubits - q)) & 1)
    relabel = _OUTCOME_OF_Z[basis.kind]
    if relabel is not None:
        outcomes = relabel[outcomes]
    outcomes.setflags(write=False)
    labels = tuple(outcome_at(basis, i) for i in range(1 << len(basis.qubits)))
    return _BasisTables(outcomes, labels)


def outcome_at(basis: MeasurementBasis, i: int) -> str:
    """The label of the outcome with outcome index ``i`` of a basis: a
    Bell label, or the measured qubits' bits in qubit order."""
    if basis.kind == "bell":
        return BELL_ORDER[i]
    return format(i, f"0{len(basis.qubits)}b")


# ---------------------------------------------------------------------------
# stacks


def _qubit_count(amps: np.ndarray) -> int:
    """The qubit count of a stack's states."""
    return amps.shape[-1].bit_length() - 1


def tensor_rows(amps: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Every row of ``amps`` tensored with the state ``other``, whose
    qubits become the low-order qubits."""
    # kron of two vectors, without np.kron's shape machinery
    return (amps[..., :, None] * other).reshape(amps.shape[:-1] + (-1,))


def apply_1q_rows(amps: np.ndarray, qubit: int, gate: np.ndarray) -> np.ndarray:
    """The 2x2 unitary ``gate`` applied to ``qubit`` of every row."""
    # axis -2 of the view is the qubit's bit; row r of the gate makes the
    # amplitudes with that bit set to r
    pos = _qubit_count(amps) - qubit
    pairs = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << pos))
    out = gate[:, 0, None] * pairs[..., 0:1, :] + gate[:, 1, None] * pairs[..., 1:2, :]
    return out.reshape(amps.shape)


def apply_cnot_rows(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """A CNOT applied to every row."""
    n = _qubit_count(amps)
    cbit, tbit = 1 << (n - control), 1 << (n - target)
    # a permutation of at most 2**8 indices, cheaper as a list than as
    # the handful of array operations it would take
    return amps[..., [i ^ tbit if i & cbit else i for i in range(amps.shape[-1])]]


def _rotate_measured(amps: np.ndarray, basis: MeasurementBasis, back: bool = False) -> np.ndarray:
    """The rotation that maps a measurement in ``basis`` onto Z, or with
    ``back`` its inverse: none for Z; a Hadamard on every X qubit (they
    commute, so one order serves both ways); for Bell on (a, b), CNOT(a, b),
    then H(a), both self-inverse, so going back is the same steps reversed."""
    if basis.kind == "bell":
        a, b = basis.qubits
        if back:
            return apply_cnot_rows(apply_1q_rows(amps, a, HADAMARD), a, b)
        return apply_1q_rows(apply_cnot_rows(amps, a, b), a, HADAMARD)
    for q in basis.qubits if basis.kind == "x" else ():
        amps = apply_1q_rows(amps, q, HADAMARD)
    return amps


def measurement_rows(amps: np.ndarray, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Measuring every row of a stack: the ``(rows, outcomes)`` array of
    outcome probabilities, and the ``(rows, outcomes, 2**n)`` array of
    each row's state after each outcome, projected and renormalized (all
    zeros after an outcome of zero probability)."""
    tables = _basis_tables(basis, _qubit_count(amps))
    work = _rotate_measured(amps, basis)
    outcomes = np.arange(len(tables.labels))[:, None]
    out = np.where(tables.outcomes == outcomes, work[..., None, :], 0.0 + 0.0j)
    # an outcome's probability is its projection's squared norm, the number
    # that renormalizes it; a rotated stack need not be C-contiguous (a
    # CNOT's fancy index puts its row axis innermost), and numpy reduces
    # another layout in another order, so a C-contiguous copy sums every
    # row as it sums one
    probs = np.add.reduce(np.ascontiguousarray(out.real ** 2 + out.imag ** 2), axis=-1)
    out = out / np.sqrt(np.where(probs > 0.0, probs, 1.0))[..., None]
    return probs, _rotate_measured(out, basis, back=True)


def shares(probs: np.ndarray) -> np.ndarray:
    """``probs`` as int64 counts of ``1 / SHARES``; raises ``WqscError``
    where a probability is not one within ``_SNAP_TOLERANCE`` (or is nan)."""
    counts = np.rint(probs * SHARES)
    if not np.all(np.abs(probs - counts / SHARES) <= _SNAP_TOLERANCE):
        raise WqscError(f"an outcome probability is not a whole number of 1/{SHARES}")
    return counts.astype(np.int64)


# ---------------------------------------------------------------------------
# comparison


def phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max amplitude deviation between two states after aligning the
    best global phase."""
    inner = np.vdot(b, a)
    mag = abs(inner)
    phase = inner / mag if mag > 0.0 else 1.0
    return float(np.max(np.abs(a - phase * b)))
