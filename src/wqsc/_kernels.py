"""Amplitude-array kernels behind the stack calls of ``qstate``.

Every kernel is plain numpy and takes a stack of states: a complex128
amplitude array of shape ``(..., dim)``, one state per row (a flat array
is a single state). Kernels take *bit positions* (position ``p`` is the
weight-``2**p`` bit of the basis-state index), an *outcome index* (the
measurement outcome of every basis state) or an *order* (the basis
states grouped by outcome), as ``qstate`` caches them per basis, and
return new arrays; inputs are never mutated. A row of a
stack goes through the same arithmetic, in the same order, as the row
passed alone, so stacked and one-row calls agree bit for bit.
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
    # axis -2 of the view is the bit at ``pos``; row r of the gate makes
    # the amplitudes with that bit set to r
    pairs = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << pos))
    out = gate[:, 0, None] * pairs[..., 0:1, :] + gate[:, 1, None] * pairs[..., 1:2, :]
    return out.reshape(amps.shape)


def apply_cnot(amps: np.ndarray, control_pos: int, target_pos: int) -> np.ndarray:
    cbit = 1 << control_pos
    tbit = 1 << target_pos
    # a permutation of at most 2**8 indices, cheaper as a list than as
    # the handful of array operations it would take
    src = [i ^ tbit if i & cbit else i for i in range(amps.shape[-1])]
    return amps[..., src]


def outcome_index(size: int, positions: list[int]) -> np.ndarray:
    """Outcome of every basis state: listed positions read MSB-first."""
    idx = np.arange(size)
    out = np.zeros(size, dtype=np.int64)
    for p in positions:
        out = (out << 1) | ((idx >> p) & 1)
    return out


def z_probabilities(amps: np.ndarray, order: np.ndarray, count: int) -> np.ndarray:
    """Probabilities of ``count`` outcomes, shape ``(..., count)``.
    ``order`` lists the basis states outcome by outcome, each outcome's
    states in index order, and every outcome has as many states."""
    weights = amps.real ** 2 + amps.imag ** 2
    grouped = weights.take(order, axis=-1).reshape(amps.shape[:-1] + (count, -1))
    # a running sum adds an outcome's weights one by one in index order,
    # as a per-outcome bincount does, so each sum has the same bits
    return np.add.accumulate(grouped, axis=-1)[..., -1]


def collapse_z(amps: np.ndarray, outcomes: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Every row projected onto its outcome ``which`` (one per row) and
    renormalized; a row of zero norm stays zero."""
    out = np.where(outcomes == which[..., None], amps, 0.0 + 0.0j)
    norm2 = np.add.reduce(out.real ** 2 + out.imag ** 2, axis=-1, keepdims=True)
    return out / np.sqrt(np.where(norm2 > 0.0, norm2, 1.0))


_SQRT2_INV = 1.0 / np.sqrt(2.0)

# Bell states indexed 0..3 (psi+, psi-, phi+, phi-) as two basis
# components each weighted 1/sqrt(2): the pair bits (2 * bit_a + bit_b)
# of each component, and its sign
_BELL_COMPONENTS = np.array([[2, 1], [2, 1], [0, 3], [0, 3]])
_BELL_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])


def bell_probabilities(amps: np.ndarray, pair_idx: np.ndarray) -> np.ndarray:
    """Probabilities of the four Bell outcomes on the indexed qubit pair,
    shape ``(..., 4)``.

    ``pair_idx[ba, bb, r]`` is the flat amplitude index with pair bits
    (ba, bb) and remaining-qubit configuration ``r``.
    """
    pairs = amps[..., pair_idx]
    # (a10, a00) and (a01, a11): their sums are psi+ and phi+, their
    # differences psi- and phi-, so c[..., i, j] is Bell state 2i + j
    first, second = pairs[..., ::-1, 0, :], pairs[..., :, 1, :]
    c = np.empty(pairs.shape, dtype=amps.dtype)
    np.add(first, second, out=c[..., 0, :])
    np.subtract(first, second, out=c[..., 1, :])
    sums = np.add.reduce(c.real ** 2 + c.imag ** 2, axis=-1)
    return 0.5 * sums.reshape(amps.shape[:-1] + (4,))


def bell_collapse(amps: np.ndarray, pair_idx: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Every row projected onto its Bell state ``which`` (one per row) of
    the indexed pair and renormalized."""
    flat = amps.reshape(-1, amps.shape[-1])
    which = np.reshape(which, -1)
    # (row, component, rest): flat indices of both components of each row
    rows = np.arange(len(flat))[:, None, None]
    where = pair_idx.reshape(4, -1)[_BELL_COMPONENTS[which]]
    signs = _BELL_SIGNS[which][..., None]
    parts = flat[rows, where]
    s1, s2 = signs[:, 0], signs[:, 1]
    overlap = (s1 * parts[:, 0] + s2 * parts[:, 1]) * _SQRT2_INV
    norm2 = np.add.reduce(overlap.real ** 2 + overlap.imag ** 2, axis=-1, keepdims=True)
    scale = _SQRT2_INV / np.sqrt(np.where(norm2 > 0.0, norm2, 1.0))
    out = np.zeros(flat.shape, dtype=flat.dtype)
    out[rows, where] = signs * overlap[:, None] * scale[:, None]
    return out.reshape(amps.shape)
