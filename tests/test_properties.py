"""Property-based checks of the simulator's structural invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle_tools import z_projector, x_projector, project as dense_project
from wqsc.attacks import AttackKind, AttackModel, attack_branches, attack_note, attack_rows
from wqsc.qstate import (
    ATOL,
    FLIP,
    Gate1Q,
    HADAMARD,
    Outcome,
    apply_1q,
    apply_1q_rows,
    apply_cnot,
    bell_basis,
    branch_rows,
    branches,
    distribution,
    make_state,
    measure,
    measurement_rows,
    nonzero_branches,
    outcome_at,
    project,
    states_equal,
    x_basis,
    z_basis,
)
from wqsc.states import build


def random_state(seed: int, n: int):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return make_state(n, amps)


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
    assert apply_1q(state, qubit, gate).norm() == pytest.approx(1.0, abs=ATOL)
    if n >= 2:
        target = data.draw(st.integers(1, n).filter(lambda q: q != qubit))
        assert apply_cnot(state, qubit, target).norm() == pytest.approx(1.0, abs=ATOL)
    outcome, collapsed, _ = measure(
        state, z_basis(qubit), np.random.default_rng(seed)
    )
    assert collapsed.norm() == pytest.approx(1.0, abs=ATOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
def test_unitary_round_trip(seed, n, data):
    state = random_state(seed, n)
    qubit = data.draw(st.integers(1, n))
    gate = random_gate(seed)
    back = apply_1q(apply_1q(state, qubit, gate), qubit, gate.dagger())
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= ATOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cnot_self_inverse(seed, data):
    state = random_state(seed, 4)
    control = data.draw(st.integers(1, 4))
    target = data.draw(st.integers(1, 4).filter(lambda q: q != control))
    back = apply_cnot(apply_cnot(state, control, target), control, target)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= ATOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), theta=st.floats(0, 2 * np.pi))
def test_global_phase_equality(seed, theta):
    state = random_state(seed, 3)
    rotated = make_state(3, state.amplitudes * np.exp(1j * theta))
    assert states_equal(state, rotated)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), data=st.data())
def test_bell_completeness(seed, n, data):
    state = random_state(seed, n)
    qa = data.draw(st.integers(1, n))
    qb = data.draw(st.integers(1, n).filter(lambda q: q != qa))
    total = sum(distribution(state, bell_basis(qa, qb)).values())
    assert total == pytest.approx(1.0, abs=ATOL)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_measurement_branches_match_dense_projectors(seed, data):
    """Branch probabilities and collapsed states agree with explicit
    projector arithmetic in both Z and X bases."""
    n = 3
    state = random_state(seed, n)
    qubits = tuple(sorted(data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=2)
    )))
    kind = data.draw(st.sampled_from(["z", "x"]))
    basis = z_basis(*qubits) if kind == "z" else x_basis(*qubits)
    projector_fn = z_projector if kind == "z" else x_projector
    for outcome, prob in distribution(state, basis).items():
        dense_prob, dense_state = dense_project(
            state.amplitudes, projector_fn(n, qubits, outcome.value)
        )
        assert prob == pytest.approx(dense_prob, abs=ATOL)
        got_prob, collapsed = project(state, basis, outcome)
        if dense_state is None:
            assert collapsed is None
        else:
            assert got_prob == pytest.approx(dense_prob, abs=ATOL)
            inner = np.vdot(dense_state, collapsed.amplitudes)
            phase = inner / abs(inner)
            assert np.max(np.abs(collapsed.amplitudes - phase * dense_state)) <= ATOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_collapse_average_reconstructs_distribution(seed):
    """Mixing the collapsed branches with their probabilities reproduces
    the original Z statistics on the untouched qubits."""
    state = random_state(seed, 3)
    before = distribution(state, z_basis(1, 2))
    mixed: dict[Outcome, float] = {o: 0.0 for o in before}
    for outcome, prob in distribution(state, z_basis(3)).items():
        if prob <= 1e-15:
            continue
        _, collapsed = project(state, z_basis(3), outcome)
        for pair_outcome, pair_prob in distribution(collapsed, z_basis(1, 2)).items():
            mixed[pair_outcome] += prob * pair_prob
    for outcome in before:
        assert mixed[outcome] == pytest.approx(before[outcome], abs=ATOL)


def test_empirical_frequencies_match_exact_distribution():
    """1e5 samples of the three-outcome sender distribution, 5-sigma gate."""
    state = build("phi1")
    exact = {o.value: p for o, p in distribution(state, z_basis(1, 2)).items()}
    rng = np.random.default_rng(123)
    n = 100_000
    counts = {value: 0 for value in exact}
    for _ in range(n):
        outcome, _, _ = measure(state, z_basis(1, 2), rng)
        counts[outcome.value] += 1
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
        states.append(make_state(n, amps))
    return states


def _same_branches(stacked, per_row, label) -> None:
    """A stacked result equals the one-row results, bit for bit: the
    per-row branches in (row, outcome) order with their outcomes (as
    ``label`` names them), probabilities and post-measurement states."""
    parent = [row for row, found in enumerate(per_row) for _ in found]
    assert np.array_equal(stacked.parent, parent)
    assert [label(i) for i in stacked.outcome.tolist()] == [
        branch[1] for found in per_row for branch in found
    ]
    assert np.array_equal(stacked.prob, [p for found in per_row for *_, p in found])
    assert np.array_equal(
        stacked.states(), [branch[0].amplitudes for found in per_row for branch in found]
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 6), data=st.data()
)
def test_stacked_measurement_equals_one_row(seed, n, m, data):
    states = sparse_states(seed, n, m)
    stack = np.stack([state.amplitudes for state in states])
    qubits = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    bases = [z_basis(*qubits), x_basis(*qubits)]
    if n >= 2:
        qa, qb = data.draw(st.permutations(range(1, n + 1)))[:2]
        bases.append(bell_basis(qa, qb))
    for basis in bases:
        probs, _ = measurement_rows(stack, basis)
        for row, state in enumerate(states):
            assert np.array_equal(probs[row], list(distribution(state, basis).values()))
        per_row = [
            [(collapsed, outcome, p) for outcome, collapsed, p in branches(state, basis)]
            for state in states
        ]
        _same_branches(branch_rows(stack, basis), per_row, lambda i: outcome_at(basis, i))
    gate = random_gate(seed)
    qubit = data.draw(st.integers(1, n))
    assert np.array_equal(
        apply_1q_rows(stack, qubit, gate),
        [apply_1q(state, qubit, gate).amplitudes for state in states],
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 6),
    kind=st.sampled_from(list(AttackKind)),
    data=st.data(),
)
def test_stacked_attack_equals_one_row(seed, n, m, kind, data):
    model = AttackModel(kind)
    assume((model.arity or 1) <= n)
    states = sparse_states(seed, n, m)
    stack = np.stack([state.amplitudes for state in states])
    transit = tuple(data.draw(st.permutations(range(1, n + 1)))[: model.arity or 1])
    if kind is AttackKind.CAO_INTERCEPT_RESEND_Z:
        transit = tuple(sorted(transit))
    per_row = [attack_branches(model, state, transit) for state in states]
    _same_branches(
        nonzero_branches(*attack_rows(model, stack, transit)),
        per_row,
        lambda i: attack_note(model, i, n),
    )
