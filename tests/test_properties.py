"""Property-based checks of the simulator's structural invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle_tools import (
    bell_projector,
    pruned_branches,
    unit,
    z_projector,
    x_projector,
    project as dense_project,
)
from wqsc.attacks import AttackKind, attack_rows
from wqsc.harness import _BranchTree, _walk, _walk_tables
from wqsc.qstate import (
    ATOL,
    FLIP,
    ZERO_PROB,
    Gate1Q,
    HADAMARD,
    apply_1q_rows,
    apply_cnot_rows,
    bell_basis,
    measurement_rows,
    outcome_at,
    phase_deviation,
    tensor_rows,
    x_basis,
    z_basis,
)
from wqsc.states import build


def random_state(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return unit(amps)


def random_gate(seed: int) -> Gate1Q:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(raw)
    return Gate1Q(q)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
def test_norm_preserved_by_all_operations(seed, n, data):
    state = random_state(seed, n)
    qubit = data.draw(st.integers(1, n))
    gate = random_gate(seed ^ 0xA5A5)
    assert np.linalg.norm(apply_1q_rows(state, qubit, gate)) == pytest.approx(1.0, abs=ATOL)
    if n >= 2:
        target = data.draw(st.integers(1, n).filter(lambda q: q != qubit))
        assert np.linalg.norm(apply_cnot_rows(state, qubit, target)) == pytest.approx(
            1.0, abs=ATOL
        )
    collapsed = pruned_branches(*measurement_rows(state[None], z_basis(qubit))).states
    assert np.linalg.norm(collapsed, axis=1) == pytest.approx(1.0, abs=ATOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
def test_unitary_round_trip(seed, n, data):
    state = random_state(seed, n)
    qubit = data.draw(st.integers(1, n))
    gate = random_gate(seed)
    back = apply_1q_rows(apply_1q_rows(state, qubit, gate), qubit, Gate1Q(gate.entries.conj().T))
    assert np.max(np.abs(back - state)) <= ATOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cnot_self_inverse(seed, data):
    state = random_state(seed, 4)
    control = data.draw(st.integers(1, 4))
    target = data.draw(st.integers(1, 4).filter(lambda q: q != control))
    back = apply_cnot_rows(apply_cnot_rows(state, control, target), control, target)
    assert np.max(np.abs(back - state)) <= ATOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), theta=st.floats(0, 2 * np.pi))
def test_global_phase_equality(seed, theta):
    state = random_state(seed, 3)
    rotated = unit(state * np.exp(1j * theta))
    assert phase_deviation(state, rotated) <= ATOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), data=st.data())
def test_bell_completeness(seed, n, data):
    state = random_state(seed, n)
    qa = data.draw(st.integers(1, n))
    qb = data.draw(st.integers(1, n).filter(lambda q: q != qa))
    probs, _ = measurement_rows(state[None], bell_basis(qa, qb))
    assert probs.sum() == pytest.approx(1.0, abs=ATOL)


# each kind's basis maker and its dense projector
_DENSE_KINDS = {
    "z": (z_basis, z_projector),
    "x": (x_basis, x_projector),
    "bell": (bell_basis, bell_projector),
}


@settings(max_examples=45, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_measurement_branches_match_dense_projectors(seed, data):
    """Branch probabilities and collapsed states agree with explicit
    projector arithmetic in the Z and X bases on three qubits, and in
    the Bell basis on an ordered pair of two to five."""
    kind = data.draw(st.sampled_from(sorted(_DENSE_KINDS)))
    if kind == "bell":
        n = data.draw(st.integers(2, 5))
        qubits = tuple(data.draw(st.permutations(range(1, n + 1)))[:2])
    else:
        n = 3
        qubits = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=1, max_size=2)
        )))
    make_basis, projector_fn = _DENSE_KINDS[kind]
    basis = make_basis(*qubits)
    state = random_state(seed, n)
    probs, states = measurement_rows(state[None], basis)
    found = pruned_branches(probs, states)
    collapsed = dict(zip(found.outcome.tolist(), found.states))
    for i, prob in enumerate(probs[0]):
        dense_prob, dense_state = dense_project(
            state, projector_fn(n, qubits, outcome_at(basis, i).value)
        )
        assert prob == pytest.approx(dense_prob, abs=ATOL)
        if dense_state is None:
            assert i not in collapsed
        else:
            inner = np.vdot(dense_state, collapsed[i])
            phase = inner / abs(inner)
            assert np.max(np.abs(collapsed[i] - phase * dense_state)) <= ATOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_collapse_average_reconstructs_distribution(seed):
    """Mixing the collapsed branches with their probabilities reproduces
    the original Z statistics on the untouched qubits."""
    amps = random_state(seed, 3)[None]
    before, _ = measurement_rows(amps, z_basis(1, 2))
    found = pruned_branches(*measurement_rows(amps, z_basis(3)))
    after, _ = measurement_rows(found.states, z_basis(1, 2))
    assert found.prob @ after == pytest.approx(before[0], abs=ATOL)


def test_empirical_frequencies_match_exact_distribution():
    """1e5 sender outcomes of phi1, sampled by walking a one-level branch
    tree of the measurement, against the dense-projector law at 5 sigma."""
    state = build("phi1")
    exact = {
        bits: dense_project(state, z_projector(3, (1, 2), bits))[0]
        for bits in ("00", "01", "10", "11")
    }
    tree = _BranchTree()
    tree.prepare([state])
    tree.measure("outcome", (z_basis(1, 2),))
    rng = np.random.default_rng(123)
    n = 100_000
    words = (rng.random((n, 1)) * 2**53).astype(np.int64)  # each draw's exact word
    leaves = _walk(_walk_tables([tree]), np.zeros(n, dtype=np.int64), words)
    counts = dict.fromkeys(exact, 0)
    outcomes = tree.values("outcome")
    for outcome, hits in zip(outcomes, np.bincount(leaves, minlength=len(outcomes)).tolist()):
        counts[outcome.value] = hits
    for value, p in exact.items():
        if p == 0.0:
            assert counts[value] == 0
            continue
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(counts[value] / n - p) <= 5 * sigma


def test_flip_commutation_with_decode():
    # H U = (Z-basis flip) H up to a global sign, the algebra behind
    # announcing the initial state after transmission
    hu = HADAMARD.entries @ FLIP.entries
    flip_then = (np.diag([1, -1]) @ np.array([[0, 1], [1, 0]])) @ HADAMARD.entries
    ratio = hu / flip_then
    assert np.allclose(ratio, ratio[0, 0], atol=ATOL)
    assert abs(abs(ratio[0, 0]) - 1.0) <= ATOL


def sparse_states(seed: int, n: int, m: int) -> list:
    """``m`` random normalized n-qubit states, with about 40% of their
    amplitudes zeroed so that outcomes of zero probability get pruned."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(m):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps[rng.random(1 << n) < 0.4] = 0.0
        amps[rng.integers(1 << n)] += 1.0
        states.append(unit(amps))
    return states


def _same_rows(stacked, per_row) -> None:
    """A stacked ``(probs, states, ...)`` result equals the results of its
    rows alone, bit for bit: the ``(rows, outcomes)`` probabilities and
    the ``(rows, outcomes, 2**n)`` states of every outcome, pruned or not.
    An outcome of probability at most ``ZERO_PROB`` leaves an all-zero,
    finite state."""
    probs, states = stacked[:2]
    assert states.shape[:2] == probs.shape
    for field, array in enumerate((probs, states)):
        assert np.array_equal(array, np.concatenate([one[field] for one in per_row]))
    pruned = states[probs <= ZERO_PROB]
    assert np.isfinite(pruned).all() and not pruned.any()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 6), data=st.data()
)
def test_stacked_measurement_equals_one_row(seed, n, m, data):
    stack = np.stack(sparse_states(seed, n, m))
    qubits = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    bases = [z_basis(*qubits), x_basis(*qubits)]
    if n >= 2:
        qa, qb = data.draw(st.permutations(range(1, n + 1)))[:2]
        bases.append(bell_basis(qa, qb))
    for basis in bases:
        per_row = [measurement_rows(amps[None], basis) for amps in stack]
        _same_rows(measurement_rows(stack, basis), per_row)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 6), data=st.data()
)
def test_stacked_gates_equal_one_row(seed, n, m, data):
    # each stacked gate gives every row the bits of a one-row call
    stack = np.stack(sparse_states(seed, n, m))
    gate, qubit = random_gate(seed), data.draw(st.integers(1, n))
    other = sparse_states(seed ^ 0x5A5A, data.draw(st.integers(1, 2)), 1)[0]
    operations = [
        lambda amps: apply_1q_rows(amps, qubit, gate),
        lambda amps: tensor_rows(amps, other),
    ]
    if n >= 2:
        control, target = data.draw(st.permutations(range(1, n + 1)))[:2]
        operations.append(lambda amps: apply_cnot_rows(amps, control, target))
    for operation in operations:
        stacked = operation(stack)
        for row, amps in enumerate(stack):
            assert np.array_equal(stacked[row], operation(amps[None])[0])


# transit qubits each attack is given (no attack takes any number; one here)
_TRANSIT_QUBITS = {
    AttackKind.NONE: 1,
    AttackKind.INTERCEPT_RESEND_Z: 1,
    AttackKind.INTERCEPT_RESEND_X: 1,
    AttackKind.CNOT_ANCILLA: 1,
    AttackKind.CAO_INTERCEPT_RESEND_Z: 2,
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    kind=st.sampled_from(list(AttackKind)),
    data=st.data(),
)
def test_stacked_attack_equals_one_row(seed, n, m, kind, data):
    arity = _TRANSIT_QUBITS[kind]
    assume(arity <= n)
    stack = np.stack(sparse_states(seed, n, m))
    transit = tuple(data.draw(st.permutations(range(1, n + 1)))[:arity])
    if kind is AttackKind.CAO_INTERCEPT_RESEND_Z:
        transit = tuple(sorted(transit))
    per_row = [attack_rows(kind, amps[None], transit) for amps in stack]
    stacked = attack_rows(kind, stack, transit)
    _same_rows(stacked, per_row)
