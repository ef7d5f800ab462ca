"""The rules of the two W-state communication schemes, as outcome-index tables.

Present scheme (three qubits, identifiers ``present``): the sender keeps
qubits 1,2 and transmits qubit 3. Each round starts from ``phi1`` or
``phi2`` chosen at random. Message rounds encode a bit on qubit 3 before
transmission (identity for 0, the double-basis flip for 1); after the
initial state is announced the receiver Hadamards qubit 3 when it was
``phi2``. Check rounds carry no encoding: both sides measure in the
computational basis and test the correlation (sender ``10``/``01`` forces
receiver ``0``, sender ``00`` forces ``1``). Message rounds publish the
sender's two-qubit result and the receiver recovers the bit from the
same correlation.

Cao scheme (four qubits, identifier ``cao``): each round is a fresh
``w4`` with qubits 3,4 in transit. Check rounds measure both pairs in a
randomly chosen basis (Z, X or Bell) and flag outcomes that are
impossible for the ideal state; the impossible set is derived from the
exact distribution, never hard-coded. Key rounds Bell-measure both
pairs, map the sender's label to a key bit (``psi+`` -> 0, ``phi+/-`` ->
1) and the receiver's to the complementary map, then demonstrate
one-time-pad transfer of a message bit through the announced ciphertext.

Each rule is one table (:func:`_rule_tables`), indexed by the outcome
indices of the outcomes it reads (:func:`~wqsc.qstate.outcome_at` gives
their label strings, such as ``"01"`` or ``"psi+"``), with -1 at the
outcomes that no modelled round reaches.
A round itself is played only as a branch tree in :mod:`wqsc.harness`,
whose leaves read their entries; the test suite's oracle states each
rule again, on outcome labels, and replays rounds one at a time as an
independent reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qstate import MeasurementBasis, measurement_rows, shares
from .states import build

CHECK_BASES = ("z", "x", "bell")

# the correlation of the present scheme, [sender Z pair 00, 01, 10, 11]
# [receiver Z bit]: the message bit the receiver recovers. Sender 10/01
# goes with receiver 0 and 00 with receiver 1, so a bit-1 flip turns
# either into the other; sender 11 never occurs
_RECOVERED = ((1, 0), (0, 1), (0, 1), (-1, -1))

# the cao key bits by Bell index (psi+, psi-, phi+, phi-): the sender's
# psi+ is 0 and phi+/- is 1, the receiver's the complement; psi- has no key
_ALICE_KEY = (0, -1, 1, 1)
_BOB_KEY = (1, -1, 0, 0)


def _check_error(basis: str) -> np.ndarray:
    """Whether a cao check round in ``basis`` flags an error, by [sender
    pair, receiver pair] outcome: 1 where the ideal w4 state gives the
    joint outcome no share (:func:`~wqsc.qstate.shares`), else 0. The
    sender's pair is measured first, and each of its outcomes collapsed,
    one of zero probability to a zero state."""
    probs, after = measurement_rows(build("w4")[None], MeasurementBasis(basis, (1, 2)))
    joint = shares(probs.T) * shares(measurement_rows(after[0], MeasurementBasis(basis, (3, 4)))[0])
    return (joint == 0).astype(np.int64)


@lru_cache(maxsize=None)
def _rule_tables() -> dict[str, np.ndarray]:
    """The rules that classify leaves, once per process, by outcome index:
    ``consistent`` and ``recovered`` [sender Z pair, receiver Z bit],
    ``check_error`` [check basis, sender pair, receiver pair] and ``keys``
    [sender Bell pair, receiver Bell pair, key side]. A check round carries
    no encoding, so it is consistent iff it reads as bit 0."""
    recovered = np.array(_RECOVERED)
    keys = [[(a, b) if min(a, b) >= 0 else (-1, -1) for b in _BOB_KEY] for a in _ALICE_KEY]
    return {
        "consistent": np.where(recovered < 0, -1, 1 - recovered),
        "recovered": recovered,
        "check_error": np.array([_check_error(basis) for basis in CHECK_BASES]),
        "keys": np.array(keys),
    }
