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
and the Bell basis on an ordered qubit pair. A basis's outcomes are
numbered by *outcome index* (:func:`outcome_at` gives their labels).
Every basis is measured through one path: a rotation maps it onto Z (a
Hadamard on each X qubit; CNOT(a, b), then H(a) for Bell on (a, b)), the
rotated stack is measured in Z, and each collapsed state is rotated back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidBasis, NonUnitaryGate

# tolerance for exact algebra (all amplitudes are small rationals over
# sqrt(2), sqrt(3), sqrt(6), so double precision holds them to ~1e-16)
ATOL = 1e-12

# outcome probabilities at most this are treated as exact zeros
ZERO_PROB = 1e-15


# ---------------------------------------------------------------------------
# gates


@dataclass(frozen=True)
class Gate1Q:
    """A 2x2 unitary, checked at construction."""

    entries: np.ndarray = field(repr=False)
    name: str = ""

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=np.complex128)
        if mat.shape != (2, 2):
            raise DimensionMismatch("single-qubit gate must be 2x2")
        if np.max(np.abs(mat @ mat.conj().T - np.eye(2))) > ATOL:
            raise NonUnitaryGate(f"gate {self.name or mat} is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


_SQRT2_INV = 1.0 / np.sqrt(2.0)

# flips both the computational and the Hadamard basis (up to sign):
# |0> -> -|1>, |1> -> |0>, |+> -> |->, |-> -> -|+>
FLIP = Gate1Q(np.array([[0, 1], [-1, 0]], dtype=complex), name="U")
HADAMARD = Gate1Q(np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV, name="H")


# ---------------------------------------------------------------------------
# bases and outcomes


class BasisKind(str, Enum):
    Z = "z"
    X = "x"
    BELL = "bell"


# the Bell outcome indices 0..3, and the Bell outcome index of each Z
# outcome 2 * bit_a + bit_b of the rotated pair: CNOT(a, b), then H(a)
# sends phi+, psi+, phi-, psi- to 00, 01, 10, 11
BELL_ORDER = ("psi+", "psi-", "phi+", "phi-")
_BELL_OF_Z = np.array([BELL_ORDER.index(label) for label in ("phi+", "psi+", "phi-", "psi-")])


@dataclass(frozen=True)
class MeasurementBasis:
    """Z or X on a set of qubits, or the Bell basis on an ordered pair."""

    kind: BasisKind
    qubits: tuple[int, ...]

@lru_cache(maxsize=None)
def z_basis(*qubits: int) -> MeasurementBasis:
    """Z basis on the given qubits; outcome bits in ascending qubit order."""
    return MeasurementBasis(BasisKind.Z, tuple(sorted(qubits)))


@lru_cache(maxsize=None)
def x_basis(*qubits: int) -> MeasurementBasis:
    """X basis on the given qubits; outcome bit 0 is ``|+>``, 1 is ``|->``."""
    return MeasurementBasis(BasisKind.X, tuple(sorted(qubits)))


@lru_cache(maxsize=None)
def bell_basis(first: int, second: int) -> MeasurementBasis:
    return MeasurementBasis(BasisKind.BELL, (first, second))


@dataclass(frozen=True)
class Outcome:
    """Measurement result: bit string for Z/X, Bell label for Bell."""

    kind: BasisKind
    value: str

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# basis tables


class _BasisTables(NamedTuple):
    """What measuring in a basis needs, per register width."""

    outcomes: np.ndarray  # the outcome of every basis state, once rotated onto Z
    order: np.ndarray  # the basis states, grouped by outcome
    labels: tuple[Outcome, ...]  # the Outcome of every outcome index


@lru_cache(maxsize=None)
def _basis_tables(basis: MeasurementBasis, num_qubits: int) -> _BasisTables:
    """Validated tables of a basis, read off the Z bits of its measured
    qubits after :func:`_rotate_measured` (for Bell, numbered in
    ``BELL_ORDER``), cached since the same few bases are measured in
    every tree build."""
    if len(set(basis.qubits)) != len(basis.qubits):
        raise InvalidBasis(f"duplicate qubit in {basis.qubits}")
    if basis.kind is BasisKind.BELL and len(basis.qubits) != 2:
        raise InvalidBasis("Bell basis requires exactly two qubits")
    if not basis.qubits:
        raise InvalidBasis("empty qubit set")
    for q in basis.qubits:
        if not 1 <= q <= num_qubits:
            raise IndexOutOfRange(f"qubit {q} outside 1..{num_qubits}")
    # the measured qubits' bits of every basis state, read MSB-first
    idx = np.arange(1 << num_qubits)
    outcomes = np.zeros(1 << num_qubits, dtype=np.int64)
    for q in basis.qubits:
        outcomes = (outcomes << 1) | ((idx >> (num_qubits - q)) & 1)
    if basis.kind is BasisKind.BELL:
        outcomes = _BELL_OF_Z[outcomes]
    order = np.argsort(outcomes, kind="stable")
    outcomes.setflags(write=False)
    order.setflags(write=False)
    labels = tuple(outcome_at(basis, i) for i in range(1 << len(basis.qubits)))
    return _BasisTables(outcomes, order, labels)


def _pair_rest_indices(num_qubits: int, qa: int, qb: int) -> np.ndarray:
    """Flat indices by (bit_a, bit_b, rest); rest bits keep qubit order."""
    pair = MeasurementBasis(BasisKind.Z, (qa, qb))  # outcome 2 * bit_a + bit_b
    return _basis_tables(pair, num_qubits).order.reshape(2, 2, -1)


def outcome_at(basis: MeasurementBasis, i: int) -> Outcome:
    """The outcome with outcome index ``i`` of a basis."""
    if basis.kind is BasisKind.BELL:
        return Outcome(BasisKind.BELL, BELL_ORDER[i])
    return Outcome(basis.kind, format(i, f"0{len(basis.qubits)}b"))


# ---------------------------------------------------------------------------
# stacks
#
# Measurements check their basis (``_basis_tables``), gates their qubit
# numbers (``_qubit_count``).


def _qubit_count(amps: np.ndarray, *qubits: int) -> int:
    """The qubit count of a stack's states; ``qubits`` must be distinct ones."""
    n = amps.shape[-1].bit_length() - 1
    if qubits and (min(qubits) < 1 or max(qubits) > n or len(set(qubits)) < len(qubits)):
        raise IndexOutOfRange(f"qubits {qubits} must be distinct qubits of 1..{n}")
    return n


def tensor_rows(amps: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Every row of ``amps`` tensored with the state ``other``, whose
    qubits become the low-order qubits."""
    # kron of two vectors, without np.kron's shape machinery
    return (amps[..., :, None] * other).reshape(amps.shape[:-1] + (-1,))


def apply_1q_rows(amps: np.ndarray, qubit: int, gate: Gate1Q) -> np.ndarray:
    """``gate`` applied to ``qubit`` of every row."""
    # axis -2 of the view is the qubit's bit; row r of the gate makes the
    # amplitudes with that bit set to r
    pos = _qubit_count(amps, qubit) - qubit
    pairs = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << pos))
    g = gate.entries
    out = g[:, 0, None] * pairs[..., 0:1, :] + g[:, 1, None] * pairs[..., 1:2, :]
    return out.reshape(amps.shape)


def apply_cnot_rows(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """A CNOT applied to every row."""
    n = _qubit_count(amps, control, target)
    cbit, tbit = 1 << (n - control), 1 << (n - target)
    # a permutation of at most 2**8 indices, cheaper as a list than as
    # the handful of array operations it would take
    return amps[..., [i ^ tbit if i & cbit else i for i in range(amps.shape[-1])]]


def _rotate_measured(amps: np.ndarray, basis: MeasurementBasis, back: bool = False) -> np.ndarray:
    """The rotation that maps a measurement in ``basis`` onto Z, or with
    ``back`` its inverse: none for Z; a Hadamard on every X qubit (they
    commute, so one order serves both ways); for Bell on (a, b), CNOT(a, b),
    then H(a), both self-inverse, so going back is the same steps reversed."""
    if basis.kind is BasisKind.BELL:
        a, b = basis.qubits
        if back:
            return apply_cnot_rows(apply_1q_rows(amps, a, HADAMARD), a, b)
        return apply_1q_rows(apply_cnot_rows(amps, a, b), a, HADAMARD)
    for q in basis.qubits if basis.kind is BasisKind.X else ():
        amps = apply_1q_rows(amps, q, HADAMARD)
    return amps


def measurement_rows(amps: np.ndarray, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Measuring every row of a stack: the ``(rows, outcomes)`` array of
    outcome probabilities, and the ``(rows, outcomes, 2**n)`` array of
    each row's state after each outcome, projected and renormalized (all
    zeros after an outcome of zero probability)."""
    tables = _basis_tables(basis, _qubit_count(amps))
    work = _rotate_measured(amps, basis)
    # ``order`` lists the basis states outcome by outcome, and a running
    # sum adds an outcome's weights one by one in index order, as a
    # per-outcome bincount does, so each sum has the same bits
    weights = work.real ** 2 + work.imag ** 2
    grouped = weights.take(tables.order, axis=-1).reshape(work.shape[:-1] + (len(tables.labels), -1))
    outcomes = np.arange(len(tables.labels))[:, None]
    out = np.where(tables.outcomes == outcomes, work[..., None, :], 0.0 + 0.0j)
    # a rotated stack need not be C-contiguous (a CNOT's fancy index puts
    # its row axis innermost), and numpy reduces another layout in
    # another order; a C-contiguous copy sums every row as it sums one
    squares = np.ascontiguousarray(out.real ** 2 + out.imag ** 2)
    norm2 = np.add.reduce(squares, axis=-1, keepdims=True)
    out = out / np.sqrt(np.where(norm2 > 0.0, norm2, 1.0))
    return np.add.accumulate(grouped, axis=-1)[..., -1], _rotate_measured(out, basis, back=True)


# ---------------------------------------------------------------------------
# comparison


def phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max amplitude deviation between two states after aligning the
    best global phase."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot compare states of shapes {a.shape} and {b.shape}")
    inner = np.vdot(b, a)
    mag = abs(inner)
    phase = inner / mag if mag > 0.0 else 1.0
    return float(np.max(np.abs(a - phase * b)))
