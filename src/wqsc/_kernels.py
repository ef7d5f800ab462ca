"""Amplitude-array kernels behind the state-vector operations.

Every kernel is plain numpy. Kernels take a flat complex128 amplitude
array plus either *bit positions* (position ``p`` is the weight-``2**p``
bit of the basis-state index) or an *outcome index* (the measurement
outcome of every basis state, as ``qstate`` caches it per basis) and
return new arrays; inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "apply_gate_1q",
    "apply_cnot",
    "outcome_index",
    "z_probabilities",
    "collapse_z",
    "bell_probabilities",
    "bell_collapse",
]


def apply_gate_1q(amps: np.ndarray, pos: int, gate: np.ndarray) -> np.ndarray:
    # axis 1 of the view is the bit at ``pos``
    pairs = amps.reshape(-1, 2, 1 << pos)
    a0 = pairs[:, 0]
    a1 = pairs[:, 1]
    out = np.empty_like(pairs)
    out[:, 0] = gate[0, 0] * a0 + gate[0, 1] * a1
    out[:, 1] = gate[1, 0] * a0 + gate[1, 1] * a1
    return out.reshape(-1)


def apply_cnot(amps: np.ndarray, control_pos: int, target_pos: int) -> np.ndarray:
    cbit = 1 << control_pos
    tbit = 1 << target_pos
    idx = np.arange(amps.shape[0])
    src = np.where((idx & cbit) != 0, idx ^ tbit, idx)
    return amps[src]


def outcome_index(size: int, positions: list[int]) -> np.ndarray:
    """Outcome of every basis state: listed positions read MSB-first."""
    idx = np.arange(size)
    out = np.zeros(size, dtype=np.int64)
    for p in positions:
        out = (out << 1) | ((idx >> p) & 1)
    return out


def z_probabilities(amps: np.ndarray, outcomes: np.ndarray, count: int) -> np.ndarray:
    """Probabilities of the ``count`` outcomes that ``outcomes`` assigns."""
    weights = amps.real ** 2 + amps.imag ** 2
    return np.bincount(outcomes, weights=weights, minlength=count)


def collapse_z(amps: np.ndarray, outcomes: np.ndarray, outcome: int) -> np.ndarray:
    out = np.where(outcomes == outcome, amps, 0.0 + 0.0j)
    norm2 = float(np.sum(out.real ** 2 + out.imag ** 2))
    if norm2 > 0.0:
        out = out / np.sqrt(norm2)
    return out


_SQRT2_INV = 1.0 / np.sqrt(2.0)

# Bell states indexed 0..3 (psi+, psi-, phi+, phi-) as two basis components
# (bit_a, bit_b, sign) each weighted 1/sqrt(2)
_BELL_TABLE = np.array(
    [
        [1, 0, 1.0, 0, 1, 1.0],
        [1, 0, 1.0, 0, 1, -1.0],
        [0, 0, 1.0, 1, 1, 1.0],
        [0, 0, 1.0, 1, 1, -1.0],
    ],
    dtype=np.float64,
)


def bell_probabilities(amps: np.ndarray, pair_idx: np.ndarray) -> np.ndarray:
    """Probabilities of the four Bell outcomes on the indexed qubit pair.

    ``pair_idx[ba, bb, r]`` is the flat amplitude index with pair bits
    (ba, bb) and remaining-qubit configuration ``r``.
    """
    a10 = amps[pair_idx[1, 0]]
    a01 = amps[pair_idx[0, 1]]
    a00 = amps[pair_idx[0, 0]]
    a11 = amps[pair_idx[1, 1]]
    probs = np.empty(4)
    for i, c in enumerate((a10 + a01, a10 - a01, a00 + a11, a00 - a11)):
        probs[i] = 0.5 * float(np.sum(c.real ** 2 + c.imag ** 2))
    return probs


def bell_collapse(amps: np.ndarray, pair_idx: np.ndarray, which: int) -> np.ndarray:
    row = _BELL_TABLE[which]
    b1a, b1b, s1 = int(row[0]), int(row[1]), row[2]
    b2a, b2b, s2 = int(row[3]), int(row[4]), row[5]
    overlap = (s1 * amps[pair_idx[b1a, b1b]] + s2 * amps[pair_idx[b2a, b2b]]) * _SQRT2_INV
    norm2 = float(np.sum(overlap.real ** 2 + overlap.imag ** 2))
    out = np.zeros_like(amps)
    if norm2 > 0.0:
        scale = _SQRT2_INV / np.sqrt(norm2)
        out[pair_idx[b1a, b1b]] = s1 * overlap * scale
        out[pair_idx[b2a, b2b]] = s2 * overlap * scale
    return out
