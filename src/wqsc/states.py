"""Named entangled states and machine-checked decomposition identities.

Two families are provided: the three-qubit states used by the present
scheme (``phi1``, ``phi2``), and the four-qubit symmetric single-excitation
state ``w4`` used by the Cao scheme, plus the four Bell pairs (``psi+``,
``psi-``, ``phi+``, ``phi-``); a state is named by that string. Canonical
amplitudes are placed directly (``phi2`` by literal expansion of ``|+>``
and ``|->`` on qubit 3), not built from circuits, so each constructor is
an independent anchor for the rest of the package.

``verify_identities`` re-derives every multi-basis rewriting these schemes
rely on and reports the numerical deviation of each, so a single call
certifies the algebra the protocol and attack analyses stand on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import ATOL, apply_cnot_rows, phase_deviation, tensor_rows

_SQRT2 = np.sqrt(2.0)


def _normalized(vec: np.ndarray) -> np.ndarray:
    """``vec`` scaled to unit norm, as a new read-only array."""
    state = vec / np.linalg.norm(vec)
    state.setflags(write=False)
    return state


def _ket(bits: str) -> np.ndarray:
    arr = np.zeros(1 << len(bits), dtype=np.complex128)
    arr[int(bits, 2)] = 1.0
    return arr


_PLUS = np.array([1.0, 1.0], dtype=np.complex128) / _SQRT2
_MINUS = np.array([1.0, -1.0], dtype=np.complex128) / _SQRT2


# every named state's amplitudes, before normalization
_VECTORS = {
    # (|100> + |010> + |001>) / sqrt(3)
    "phi1": _ket("100") + _ket("010") + _ket("001"),
    # (|10+> + |01+> + |00->) / sqrt(3), |+-> expanded literally
    "phi2": np.kron(_ket("10"), _PLUS) + np.kron(_ket("01"), _PLUS) + np.kron(_ket("00"), _MINUS),
    "w4": _ket("1000") + _ket("0100") + _ket("0010") + _ket("0001"),
    "psi+": _ket("10") + _ket("01"),
    "psi-": _ket("10") - _ket("01"),
    "phi+": _ket("00") + _ket("11"),
    "phi-": _ket("00") - _ket("11"),
}


@lru_cache(maxsize=None)
def build(label: str) -> np.ndarray:
    """Canonical normalized state named ``label`` (exact amplitudes, not
    merely up to phase), as a read-only complex128 array; a name with no
    state raises ``KeyError``. Values are cached and shared by every
    caller, so they are frozen against writes."""
    return _normalized(_VECTORS[label])


@dataclass(frozen=True)
class IdentityReport:
    """Result of comparing two constructions of the same (or a deliberately
    different) state up to global phase."""

    identity_id: str
    description: str
    deviation: float
    passed: bool
    expect: str = "equal"  # "equal" or "distinct"


_DISTINCT_MARGIN = 0.3


def _compare(identity_id: str, description: str, forms: list[np.ndarray],
             expect: str = "equal") -> IdentityReport:
    """How far ``forms[0]`` lies from the others; it passes if each is equal
    to it within ``ATOL``, or (``expect="distinct"``) more than
    ``_DISTINCT_MARGIN`` away."""
    deviation = max(phase_deviation(forms[0], other) for other in forms[1:])
    passed = deviation <= ATOL if expect == "equal" else deviation > _DISTINCT_MARGIN
    return IdentityReport(identity_id, description, deviation, passed, expect)


# the pieces of the expansions below: the single excitation of a pair in
# Z, in the Bell basis (psi+ against phi+ + phi-) and in X (|++>, ...)
_PAIR_SUM = _ket("10") + _ket("01")
_PSI_PLUS = build("psi+")
_PHI_SUM = build("phi+") + build("phi-")
_PP, _PM, _MP, _MM = (np.kron(a, b) for a in (_PLUS, _MINUS) for b in (_PLUS, _MINUS))


def _w4_z_form() -> np.ndarray:
    return _normalized(np.kron(_PAIR_SUM, _ket("00")) + np.kron(_ket("00"), _PAIR_SUM))


def _w4_bell_form() -> np.ndarray:
    return _normalized(np.kron(_PSI_PLUS, _PHI_SUM) + np.kron(_PHI_SUM, _PSI_PLUS))


def _w4_x_form() -> np.ndarray:
    vec = (
        np.kron(_PP, 2 * _PP + _PM + _MP)
        - np.kron(_MM, 2 * _MM + _PM + _MP)
        + np.kron(_PM, _PP - _MM)
        + np.kron(_MP, _PP - _MM)
    )
    return _normalized(vec)


def _collapsed_forms(excited_pair: int) -> list[np.ndarray]:
    """Post-attack state with the excitation on pair ``excited_pair`` (0
    the first, 1 the second), three ways: in Z, Bell and Hadamard bases."""

    def form(excited: np.ndarray, empty: np.ndarray) -> np.ndarray:
        pairs = (excited, empty) if excited_pair == 0 else (empty, excited)
        return _normalized(np.kron(*pairs))

    return [
        form(_PAIR_SUM, _ket("00")),
        form(_PSI_PLUS, _PHI_SUM),
        form(_PP - _MM, _PP + _PM + _MP + _MM),
    ]


def _entangled_ancilla_form() -> np.ndarray:
    """Literal form of phi2 with a fourth qubit copying qubit 3 in Z."""
    vec = np.kron(_PAIR_SUM, _ket("00") + _ket("11")) + np.kron(
        _ket("00"), _ket("00") - _ket("11")
    )
    return _normalized(vec)


def _phi1_split_form() -> np.ndarray:
    vec = np.kron(_PAIR_SUM, _ket("0")) + np.kron(_ket("00"), _ket("1"))
    return _normalized(vec)


def _phi2_split_form() -> np.ndarray:
    vec = np.kron(_PAIR_SUM, _PLUS) + np.kron(_ket("00"), _MINUS)
    return _normalized(vec)


def verify_identities() -> list[IdentityReport]:
    """Check every decomposition identity the schemes rely on.

    Reports (a)-(f) compare constructions that must agree to within
    ``ATOL`` up to global phase. The final report compares the split
    ``|+>/|->`` form against ``phi1`` and must come out DISTINCT (the form
    belongs to ``phi2``); ``passed`` there means the mismatch is real.
    """
    return [
        _compare(
            "w4_three_bases",
            "w4: computational form = Bell-pair form = Hadamard form",
            [build("w4"), _w4_z_form(), _w4_bell_form(), _w4_x_form()],
        ),
        _compare(
            "collapse_excitation_first_pair",
            "post-measurement branch psi+ x |00>: direct, Bell and Hadamard "
            "expansions agree (normalized)",
            _collapsed_forms(0),
        ),
        _compare(
            "collapse_excitation_second_pair",
            "post-measurement branch |00> x psi+: direct, Bell and Hadamard "
            "expansions agree (normalized)",
            _collapsed_forms(1),
        ),
        _compare(
            "entangling_probe_output",
            "copying qubit 3 of phi2 onto a fresh ancilla via CNOT matches "
            "the literal four-qubit expansion",
            [
                _entangled_ancilla_form(),
                apply_cnot_rows(tensor_rows(build("phi2"), _ket("0")), 3, 4),
            ],
        ),
        _compare(
            "phi1_split_z",
            "phi1 equals its two-qubit/one-qubit split with |0>,|1> on qubit 3",
            [build("phi1"), _phi1_split_form()],
        ),
        _compare(
            "phi2_split_x",
            "the split form with |+>,|-> on qubit 3 equals phi2",
            [build("phi2"), _phi2_split_form()],
        ),
        # the |+>/|-> split is sometimes mislabeled as phi1; record the mismatch
        _compare(
            "phi2_split_x_vs_phi1",
            "the |+>/|-> split form is NOT phi1 (deviation must exceed %.1f)" % _DISTINCT_MARGIN,
            [_phi2_split_form(), build("phi1")],
            expect="distinct",
        ),
    ]
