"""Property-based checks of the simulator's structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle_tools import (
    ZERO_PROB,
    bell_basis,
    bell_projector,
    pruned_branches,
    unit,
    z_projector,
    x_projector,
    project as dense_project,
)
from wqsc import RunConfig, WqscError, exact_analyze
from wqsc.attacks import CAO_ATTACKS, PRESENT_ATTACKS, attack_rows
from wqsc.harness import (
    _MAX_ROUNDS,
    CHECK_BASIS_POLICIES,
    INIT_POLICIES,
    _BranchTree,
    _walk,
    _walk_tables,
)
from wqsc.qstate import (
    ATOL,
    FLIP,
    HADAMARD,
    apply_1q_rows,
    apply_cnot_rows,
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


def random_gate(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(raw)
    return q


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
    back = apply_1q_rows(apply_1q_rows(state, qubit, gate), qubit, gate.conj().T)
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
            state, projector_fn(n, qubits, outcome_at(basis, i))
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
    words = (rng.random((n, 1)) * 2**53).astype(np.uint64) << 11  # each draw's raw word
    leaves = _walk(_walk_tables([tree]), np.zeros(n, dtype=np.int64), words)
    counts = dict.fromkeys(exact, 0)
    outcomes = tree.values("outcome")
    for outcome, hits in zip(outcomes, np.bincount(leaves, minlength=len(outcomes)).tolist()):
        counts[outcome] = hits
    for value, p in exact.items():
        if p == 0.0:
            assert counts[value] == 0
            continue
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(counts[value] / n - p) <= 5 * sigma


def test_flip_commutation_with_decode():
    # H U = (Z-basis flip) H up to a global sign, the algebra behind
    # announcing the initial state after transmission
    hu = HADAMARD @ FLIP
    flip_then = (np.diag([1, -1]) @ np.array([[0, 1], [1, 0]])) @ HADAMARD
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
    "none": 1,
    "ir-z": 1,
    "ir-x": 1,
    "cnot": 1,
    "cao-ir-z": 2,
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    kind=st.sampled_from(list(_TRANSIT_QUBITS)),
    data=st.data(),
)
def test_stacked_attack_equals_one_row(seed, n, m, kind, data):
    arity = _TRANSIT_QUBITS[kind]
    assume(arity <= n)
    stack = np.stack(sparse_states(seed, n, m))
    transit = tuple(data.draw(st.permutations(range(1, n + 1)))[:arity])
    if kind == "cao-ir-z":
        transit = tuple(sorted(transit))
    per_row = [attack_rows(kind, amps[None], transit) for amps in stack]
    stacked = attack_rows(kind, stack, transit)
    _same_rows(stacked, per_row)


# every input a caller can hand RunConfig or exact_analyze: the valid names
# and other strings, non-strings, integers at and past each edge (rounds
# 1.._MAX_ROUNDS, seeds below 2**64), bools, numpy scalars, floats of each
# width, Fractions and the float specials; the example budget and the
# deadline are fixed here, before any run
_VALID_NAMES = [
    *({"scheme": "present", "attack": attack, "init_policy": init, "check_basis_policy": "random"}
      for attack in PRESENT_ATTACKS for init in INIT_POLICIES),
    *({"scheme": "cao", "attack": attack, "init_policy": "random", "check_basis_policy": basis}
      for attack in CAO_ATTACKS for basis in CHECK_BASIS_POLICIES),
]
_NAMES = sorted({name for names in _VALID_NAMES for name in names.values()})
_EDGE_INTS = [0, -1, 1, 2**63, 2**64 - 1, 2**64, _MAX_ROUNDS - 1, _MAX_ROUNDS, _MAX_ROUNDS + 1]
_SPECIAL_FLOATS = [0.0, -0.0, 0.5, 1 / 3, 1.0, 1e-320, 1e400, -math.inf, math.nan]
_names = st.one_of(
    st.sampled_from(_NAMES),
    st.sampled_from(_NAMES).map(np.str_),
    st.text(max_size=8),
    st.none(),
    st.tuples(st.sampled_from(_NAMES)),
    st.just(np.array(["present", "none"])),
)
_integers = st.one_of(
    st.sampled_from(_EDGE_INTS),
    st.integers(-1, 2**64),
    st.integers(),
    st.sampled_from([v for v in _EDGE_INTS if 0 <= v < 2**64]).map(np.uint64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.just(np.True_),
)
_fractions = st.one_of(  # in (0, 1), of every type
    *(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, width=width)
      .map(np.dtype(f"f{width // 8}").type) for width in (16, 32, 64)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.fractions(0, 1).filter(lambda f: 0 < f < 1),
)
_reals = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    _fractions,
    *(st.floats(width=width).map(np.dtype(f"f{width // 8}").type) for width in (16, 32, 64)),
    st.floats(),
    st.fractions(),
)
_anything = st.one_of(_names, _integers, _reals)
# per RunConfig field, in order: its valid inputs (None for a name, which
# comes from one of the valid configs), and its inputs at and past its
# edges (a name's are other strings and non-strings)
_FIELDS = {
    "scheme": (None, _names),
    "attack": (None, _names),
    "rounds": (st.integers(1, _MAX_ROUNDS), _integers),
    "check_fraction": (_fractions, _reals),
    "master_seed": (st.integers(0, 2**64 - 1), _integers),
    "init_policy": (None, _names),
    "check_basis_policy": (None, _names),
}


@settings(max_examples=400, deadline=1000)
@given(
    names=st.sampled_from(_VALID_NAMES),
    changed=st.sets(st.sampled_from(list(_FIELDS))),
    data=st.data(),
)
def test_config_and_exact_inputs_fail_only_as_wqsc_errors(names, changed, data):
    # a valid config with the fields ``changed`` drawn from their edges or
    # from any input at all: building it or analyzing it exactly either
    # succeeds or raises WqscError, never a TypeError, ValueError,
    # OverflowError or numpy warning
    values = {
        field: data.draw(edges | _anything, label=field) if field in changed
        else names[field] if valid is None else data.draw(valid, label=field)
        for field, (valid, edges) in _FIELDS.items()
    }
    try:
        RunConfig(**values)
    except WqscError:
        pass
    try:
        exact_analyze(**{field: values[field] for field in names})
    except WqscError:
        pass
