"""Dense state-vector core for small qubit registers.

Representation: a register of ``n`` qubits (n <= 8) is a normalized
complex128 array of length ``2**n``. Qubits are numbered 1..n and qubit 1
is the MOST significant bit of the basis-state index, so kets read
left-to-right: ``|100>`` on three qubits is index 4. States are immutable;
every operation returns a new value.

Measurements are supported in the computational (Z) basis, the Hadamard
(X) basis with outcomes encoded as bits (0 for ``|+>``, 1 for ``|->``),
and the Bell basis on an ordered qubit pair. Bell measurement is done by
direct projection onto the four Bell states, which keeps branch
probabilities exact.

Measurement works on a *stack*, a ``(rows, 2**n)`` array of states, one
per row: :func:`measurement_rows` gives every row's exact outcome
probabilities (zero-probability outcomes included) and collapses rows on
demand, and :func:`branch_rows` gives the nonzero-probability branches.
The branch trees of ``harness`` measure a whole level with one such call
and sample rounds by walking the finished trees, so this module draws no
random numbers. Gates have stack forms too (the ``*_rows`` functions),
of which the single-state gates are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidBasis,
    NonUnitaryGate,
    SameQubit,
    ZeroVector,
)

QUBIT_CAPACITY = 8

# tolerance for exact algebra (all amplitudes are small rationals over
# sqrt(2), sqrt(3), sqrt(6), so double precision holds them to ~1e-16)
ATOL = 1e-12

# inputs with norm below this are rejected rather than renormalized
MIN_NORM = 1e-9

# branch probabilities below this are treated as exact zeros
ZERO_PROB = 1e-15


@dataclass(frozen=True)
class StateVector:
    """Immutable normalized amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def bit_position(self, qubit: int) -> int:
        """Index-bit position of a 1-based qubit (qubit 1 = MSB)."""
        if not 1 <= qubit <= self.num_qubits:
            raise IndexOutOfRange(
                f"qubit {qubit} outside 1..{self.num_qubits}"
            )
        return self.num_qubits - qubit


def _wrap(num_qubits: int, amplitudes: np.ndarray) -> StateVector:
    """Package an already-normalized array without copying or checking."""
    amplitudes.setflags(write=False)
    return StateVector(num_qubits=num_qubits, amplitudes=amplitudes)


def make_state(num_qubits: int, amplitudes: Sequence[complex]) -> StateVector:
    """Validate, normalize and freeze an amplitude sequence.

    Rejects length mismatches and vectors of norm below ``MIN_NORM``;
    anything else is scaled to unit norm.
    """
    if not 1 <= num_qubits <= QUBIT_CAPACITY:
        raise CapacityExceeded(
            f"num_qubits must be in 1..{QUBIT_CAPACITY}, got {num_qubits}"
        )
    arr = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
    if arr.shape[0] != 1 << num_qubits:
        raise DimensionMismatch(
            f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
            f"got {arr.shape[0]}"
        )
    norm = np.linalg.norm(arr)
    if norm < MIN_NORM:
        raise ZeroVector("amplitude vector has (near-)zero norm")
    return _wrap(num_qubits, arr / norm)


def basis_ket(bits: str) -> StateVector:
    """Computational basis state from a bit string, e.g. ``'010'``."""
    n = len(bits)
    if not 1 <= n <= QUBIT_CAPACITY:
        raise CapacityExceeded(f"ket width must be in 1..{QUBIT_CAPACITY}, got {n}")
    arr = np.zeros(1 << n, dtype=np.complex128)
    arr[int(bits, 2)] = 1.0
    return _wrap(n, arr)


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

    def dagger(self) -> "Gate1Q":
        return Gate1Q(self.entries.conj().T.copy(), name=self.name + "+")


_SQRT2_INV = 1.0 / np.sqrt(2.0)

IDENTITY = Gate1Q(np.array([[1, 0], [0, 1]], dtype=complex), name="I")
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


class BellLabel(str, Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


# kernel outcome order; the component table itself lives in _kernels
BELL_ORDER = (
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
)


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
# state operations


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; ``a``'s qubits become the high-order qubits."""
    total = a.num_qubits + b.num_qubits
    if total > QUBIT_CAPACITY:
        raise CapacityExceeded(
            f"{total} qubits exceed the {QUBIT_CAPACITY}-qubit capacity"
        )
    return _wrap(total, tensor_rows(a.amplitudes, b.amplitudes))


def apply_1q(state: StateVector, qubit: int, gate: Gate1Q) -> StateVector:
    """Apply a single-qubit unitary to one tensor factor."""
    state.bit_position(qubit)
    return _wrap(state.num_qubits, apply_1q_rows(state.amplitudes, qubit, gate))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit on every basis state whose control bit is 1."""
    if control == target:
        raise SameQubit("control and target must differ")
    state.bit_position(control)
    state.bit_position(target)
    return _wrap(state.num_qubits, apply_cnot_rows(state.amplitudes, control, target))


class _BasisTables(NamedTuple):
    """What measuring in a basis needs, per register width."""

    outcomes: np.ndarray  # Z/X: the outcome of every basis state
    order: np.ndarray  # Z/X: the basis states, grouped by outcome
    labels: tuple[Outcome, ...]  # the Outcome of every kernel index


@lru_cache(maxsize=None)
def _basis_tables(basis: MeasurementBasis, num_qubits: int) -> _BasisTables:
    """Validated tables of a basis (for a Bell basis, only its labels),
    cached since the same few bases are measured millions of times."""
    if len(set(basis.qubits)) != len(basis.qubits):
        raise InvalidBasis(f"duplicate qubit in {basis.qubits}")
    if basis.kind is BasisKind.BELL and len(basis.qubits) != 2:
        raise InvalidBasis("Bell basis requires exactly two qubits")
    if not basis.qubits:
        raise InvalidBasis("empty qubit set")
    for q in basis.qubits:
        if not 1 <= q <= num_qubits:
            raise IndexOutOfRange(f"qubit {q} outside 1..{num_qubits}")
    outcomes = _kernels.outcome_index(1 << num_qubits, [num_qubits - q for q in basis.qubits])
    order = np.argsort(outcomes, kind="stable")
    outcomes.setflags(write=False)
    order.setflags(write=False)
    count = 4 if basis.kind is BasisKind.BELL else 1 << len(basis.qubits)
    return _BasisTables(outcomes, order, tuple(outcome_at(basis, i) for i in range(count)))


@lru_cache(maxsize=None)
def _pair_rest_indices(num_qubits: int, qa: int, qb: int) -> np.ndarray:
    """Flat indices by (bit_a, bit_b, rest); rest bits keep qubit order."""
    rest = [q for q in range(1, num_qubits + 1) if q not in (qa, qb)]
    rest_positions = [num_qubits - q for q in rest]
    m = len(rest)
    r = np.arange(1 << m, dtype=np.int64)
    base = np.zeros(1 << m, dtype=np.int64)
    for j, p in enumerate(rest_positions):
        base |= ((r >> (m - 1 - j)) & 1) << p
    pos_a = num_qubits - qa
    pos_b = num_qubits - qb
    idx = np.empty((2, 2, 1 << m), dtype=np.int64)
    for ba in (0, 1):
        for bb in (0, 1):
            idx[ba, bb] = base | (ba << pos_a) | (bb << pos_b)
    idx.setflags(write=False)
    return idx


def outcome_at(basis: MeasurementBasis, i: int) -> Outcome:
    """The outcome with kernel index ``i`` of a basis."""
    if basis.kind is BasisKind.BELL:
        return Outcome(BasisKind.BELL, BELL_ORDER[i].value)
    return Outcome(basis.kind, format(i, f"0{len(basis.qubits)}b"))


# ---------------------------------------------------------------------------
# stacks
#
# A stack is a ``(rows, 2**n)`` amplitude array that holds one n-qubit
# state per row. Each stack operation is one kernel call per step for all
# rows, and a row gets bit-identical results whether it is a one-row
# stack (as in the StateVector gates above) or a row of a larger stack.
# Measurements check their basis (``_basis_tables``); the qubit numbers of
# gates are checked only by the StateVector operations.


def _qubit_count(amps: np.ndarray) -> int:
    return amps.shape[-1].bit_length() - 1


def tensor_rows(amps: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Every row of ``amps`` tensored with the state ``other``, whose
    qubits become the low-order qubits."""
    # kron of two vectors, without np.kron's shape machinery
    return (amps[..., :, None] * other).reshape(amps.shape[:-1] + (-1,))


def apply_1q_rows(amps: np.ndarray, qubit: int, gate: Gate1Q) -> np.ndarray:
    """``gate`` applied to ``qubit`` of every row."""
    return _kernels.apply_gate_1q(amps, _qubit_count(amps) - qubit, gate.entries)


def apply_cnot_rows(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """A CNOT applied to every row."""
    n = _qubit_count(amps)
    return _kernels.apply_cnot(amps, n - control, n - target)


def _rotate_measured(amps: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """Hadamard every measured qubit, mapping an X measurement onto Z."""
    for q in basis.qubits:
        amps = apply_1q_rows(amps, q, HADAMARD)
    return amps


def measurement_rows(amps: np.ndarray, basis: MeasurementBasis):
    """Measuring every row of a stack: the ``(rows, outcomes)`` array of
    outcome probabilities, and ``collapse(rows, outcomes)``, the stack of
    the states of row ``rows[i]`` after outcome ``outcomes[i]``.

    The probabilities are computed once, however many rows are collapsed.
    """
    n = _qubit_count(amps)
    tables = _basis_tables(basis, n)
    if basis.kind is BasisKind.BELL:
        idx = _pair_rest_indices(n, *basis.qubits)

        def collapse(rows: np.ndarray, which: np.ndarray) -> np.ndarray:
            return _kernels.bell_collapse(amps[rows], idx, which)

        return _kernels.bell_probabilities(amps, idx), collapse
    work = amps if basis.kind is BasisKind.Z else _rotate_measured(amps, basis)

    def collapse(rows: np.ndarray, which: np.ndarray) -> np.ndarray:
        out = _kernels.collapse_z(work[rows], tables.outcomes, which)
        return out if basis.kind is BasisKind.Z else _rotate_measured(out, basis)

    return _kernels.z_probabilities(work, tables.order, len(tables.labels)), collapse


class Branches(NamedTuple):
    """The nonzero-probability branches of every row of a stack, in
    (row, outcome) order: branch ``i`` is outcome ``outcome[i]`` of row
    ``parent[i]``, of probability ``prob[i]``. ``states()`` computes the
    stack of the branches' states; nothing is collapsed until it is
    called."""

    parent: np.ndarray
    outcome: np.ndarray
    prob: np.ndarray
    states: Callable[[], np.ndarray]


def nonzero_branches(probs: np.ndarray, collapse) -> Branches:
    """The branches of a ``measurement_rows`` result whose probability
    exceeds ``ZERO_PROB``."""
    parent, outcome = (probs > ZERO_PROB).nonzero()
    return Branches(parent, outcome, probs[parent, outcome], lambda: collapse(parent, outcome))


def branch_rows(amps: np.ndarray, basis: MeasurementBasis) -> Branches:
    """The nonzero-probability branches of measuring every row."""
    return nonzero_branches(*measurement_rows(amps, basis))


# ---------------------------------------------------------------------------
# comparison


def phase_deviation(a: StateVector, b: StateVector) -> float:
    """Max amplitude deviation after aligning the best global phase."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatch(
            f"cannot compare {a.num_qubits}- and {b.num_qubits}-qubit states"
        )
    inner = np.vdot(b.amplitudes, a.amplitudes)
    mag = abs(inner)
    phase = inner / mag if mag > 0.0 else 1.0
    return float(np.max(np.abs(a.amplitudes - phase * b.amplitudes)))


def states_equal(a: StateVector, b: StateVector, tol: float = ATOL) -> bool:
    """True iff ``a`` equals ``b`` up to a global phase, within ``tol``."""
    return phase_deviation(a, b) <= tol
