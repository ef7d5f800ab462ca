"""State-vector core: construction, gates, measurement, comparison."""

import numpy as np
import pytest

from oracle_tools import (
    FixedUniform,
    H,
    U_FLIP,
    ket,
    max_dev_up_to_phase,
    op_full,
)
from wqsc import errors
from wqsc.qstate import (
    ATOL,
    FLIP,
    Gate1Q,
    HADAMARD,
    IDENTITY,
    Outcome,
    BasisKind,
    apply_1q,
    apply_cnot,
    basis_ket,
    bell_basis,
    distribution,
    make_state,
    measure,
    project,
    states_equal,
    tensor,
    x_basis,
    z_basis,
)
from wqsc.states import build

SQRT3 = np.sqrt(3.0)


class TestMakeState:
    def test_basis_state(self):
        state = make_state(1, [1, 0])
        assert np.array_equal(state.amplitudes, [1, 0])

    def test_three_qubit_single_excitation(self):
        # equal weight on |100>, |010>, |001>: indices 4, 2, 1
        state = make_state(3, [0, 1, 1, 0, 1, 0, 0, 0])
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / SQRT3
        assert np.allclose(state.amplitudes, expected, atol=ATOL)
        assert states_equal(state, build("phi1"))

    def test_normalization_forced(self):
        state = make_state(1, [3, 4])
        assert np.allclose(state.amplitudes, [0.6, 0.8], atol=ATOL)

    def test_length_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            make_state(2, [1, 0, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(errors.ZeroVector):
            make_state(1, [0, 0])
        with pytest.raises(errors.ZeroVector):
            make_state(1, [1e-10, 0])

    def test_capacity(self):
        with pytest.raises(errors.CapacityExceeded):
            make_state(9, [0] * 512)


class TestTensor:
    def test_product_basis(self):
        out = tensor(basis_ket("0"), basis_ket("1"))
        assert np.array_equal(out.amplitudes, ket("01"))

    def test_append_ancilla(self):
        out = tensor(build("phi2"), basis_ket("0"))
        assert out.num_qubits == 4
        # qubit 4 is |0>: odd indices all empty
        assert np.all(out.amplitudes[1::2] == 0)
        assert np.allclose(
            out.amplitudes[0::2], build("phi2").amplitudes, atol=ATOL
        )

    def test_plus_plus_uniform(self):
        plus = make_state(1, [1, 1])
        out = tensor(plus, plus)
        assert np.allclose(out.amplitudes, [0.5] * 4, atol=ATOL)

    def test_capacity_guard(self):
        five = make_state(5, [1] + [0] * 31)
        four = make_state(4, [1] + [0] * 15)
        with pytest.raises(errors.CapacityExceeded):
            tensor(five, four)


class TestApply1Q:
    def test_flip_zero(self):
        out = apply_1q(basis_ket("0"), 1, FLIP)
        assert np.array_equal(out.amplitudes, [0, -1])  # exactly -|1>

    def test_flip_plus(self):
        plus = make_state(1, [1, 1])
        out = apply_1q(plus, 1, FLIP)
        minus = make_state(1, [1, -1])
        assert np.allclose(out.amplitudes, minus.amplitudes, atol=ATOL)

    def test_hadamard_on_phi2_matches_dense_oracle(self):
        phi2 = build("phi2")
        fast = apply_1q(phi2, 3, HADAMARD)
        dense = op_full(3, 3, H) @ phi2.amplitudes
        assert np.max(np.abs(fast.amplitudes - dense)) <= ATOL
        # and equals the correlated split form (|10>+|01>)|0> + |00>|1>
        split = make_state(3, np.kron(ket("10") + ket("01"), ket("0")) + np.kron(ket("00"), ket("1")))
        assert states_equal(fast, split)

    def test_gate_unitarity_enforced(self):
        with pytest.raises(errors.NonUnitaryGate):
            Gate1Q(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_index_out_of_range(self):
        with pytest.raises(errors.IndexOutOfRange):
            apply_1q(basis_ket("0"), 2, IDENTITY)


class TestApplyCnot:
    def test_flips_target(self):
        out = apply_cnot(basis_ket("10"), 1, 2)
        assert np.array_equal(out.amplitudes, ket("11"))

    def test_identity_on_zero_control(self):
        out = apply_cnot(basis_ket("00"), 1, 2)
        assert np.array_equal(out.amplitudes, ket("00"))

    def test_probe_yields_entangled_ancilla_expansion(self):
        # CNOT(3 -> 4) on phi2 x |0> equals the literal four-qubit form
        extended = tensor(build("phi2"), basis_ket("0"))
        probed = apply_cnot(extended, 3, 4)
        expected = (
            np.kron(ket("10") + ket("01"), ket("00") + ket("11"))
            + np.kron(ket("00"), ket("00") - ket("11"))
        ) / np.sqrt(6)
        assert np.max(np.abs(probed.amplitudes - expected)) <= ATOL

    def test_same_qubit_rejected(self):
        with pytest.raises(errors.SameQubit):
            apply_cnot(basis_ket("00"), 1, 1)

    def test_range_check(self):
        with pytest.raises(errors.IndexOutOfRange):
            apply_cnot(basis_ket("00"), 1, 3)


class TestDistribution:
    def test_phi1_first_pair(self):
        dist = {o.value: p for o, p in distribution(build("phi1"), z_basis(1, 2)).items()}
        assert dist == pytest.approx(
            {"10": 1 / 3, "01": 1 / 3, "00": 1 / 3, "11": 0.0}, abs=ATOL
        )

    def test_w4_second_pair(self):
        dist = {o.value: p for o, p in distribution(build("w4"), z_basis(3, 4)).items()}
        assert dist == pytest.approx(
            {"00": 0.5, "10": 0.25, "01": 0.25, "11": 0.0}, abs=ATOL
        )

    def test_w4_all_plus(self):
        # the Hadamard-basis expansion carries amplitude 2/4 on |++++>
        dist = distribution(build("w4"), x_basis(1, 2, 3, 4))
        all_plus = Outcome(BasisKind.X, "0000")
        assert dist[all_plus] == pytest.approx(0.25, abs=ATOL)

    def test_probabilities_sum_to_one(self):
        for state, basis in [
            (build("phi2"), z_basis(1, 2, 3)),
            (build("w4"), x_basis(1, 2)),
            (build("w4"), bell_basis(3, 4)),
        ]:
            assert sum(distribution(state, basis).values()) == pytest.approx(1.0, abs=ATOL)

    def test_zero_outcomes_included(self):
        dist = distribution(basis_ket("00"), z_basis(1, 2))
        assert len(dist) == 4
        assert dist[Outcome(BasisKind.Z, "11")] == 0.0

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(errors.InvalidBasis):
            distribution(build("phi1"), z_basis(1, 1))


class TestMeasure:
    def test_bell_eigenstate(self):
        psi_plus = build("psi+")
        outcome, collapsed, prob = measure(psi_plus, bell_basis(1, 2), FixedUniform(0.7))
        assert outcome.value == "psi+"
        assert prob == pytest.approx(1.0, abs=ATOL)
        assert states_equal(collapsed, psi_plus)

    def test_phi2_transit_zero_branch(self):
        # forcing the 0 branch of a Z measurement on qubit 3
        outcome, collapsed, prob = measure(build("phi2"), z_basis(3), FixedUniform(0.0))
        assert outcome.value == "0"
        assert prob == pytest.approx(0.5, abs=ATOL)
        expected = make_state(
            3, np.kron(ket("10") + ket("01") + ket("00"), ket("0"))
        )
        assert states_equal(collapsed, expected)

    def test_phi1_transit_plus_branch(self):
        outcome, collapsed, prob = measure(build("phi1"), x_basis(3), FixedUniform(0.0))
        assert outcome.value == "0"  # 0 encodes |+>
        assert prob == pytest.approx(0.5, abs=ATOL)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        expected = make_state(3, np.kron(ket("10") + ket("01") + ket("00"), plus))
        assert states_equal(collapsed, expected)

    def test_zero_probability_branch_unreachable(self):
        # |00> measured in Z: only outcome 00 may ever be drawn
        state = basis_ket("00")
        for u in np.linspace(0.0, 0.999999, 23):
            outcome, _, prob = measure(state, z_basis(1, 2), FixedUniform(float(u)))
            assert outcome.value == "00"
            assert prob == pytest.approx(1.0, abs=ATOL)

    def test_branch_probability_matches_distribution(self):
        state = build("phi2")
        dist = distribution(state, z_basis(1, 2))
        outcome, _, prob = measure(state, z_basis(1, 2), FixedUniform(0.9))
        assert prob == dist[outcome]


class TestProject:
    def test_zero_branch_is_none(self):
        prob, collapsed = project(basis_ket("00"), z_basis(1, 2), Outcome(BasisKind.Z, "11"))
        assert prob == 0.0 and collapsed is None

    def test_kind_mismatch(self):
        with pytest.raises(errors.InvalidBasis):
            project(basis_ket("00"), z_basis(1, 2), Outcome(BasisKind.X, "00"))


class TestStatesEqual:
    def test_global_phase_ignored(self):
        phi1 = build("phi1")
        rotated = make_state(3, phi1.amplitudes * np.exp(1j * np.pi / 3))
        assert states_equal(phi1, rotated)

    def test_distinct_states(self):
        # direct-expansion overlap: <phi1|phi2> = (1 + 1 - 1) / sqrt(18)
        overlap = np.vdot(build("phi1").amplitudes, build("phi2").amplitudes)
        assert abs(overlap) == pytest.approx(1 / np.sqrt(18), abs=ATOL)
        assert abs(overlap) < 1.0
        assert not states_equal(build("phi1"), build("phi2"))

    def test_w4_forms_equal(self):
        from wqsc.states import _w4_x_form, _w4_z_form

        assert states_equal(_w4_z_form(), _w4_x_form())

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            states_equal(build("phi1"), build("w4"))


def test_flip_relations_componentwise():
    # U|0> = -|1>, U|1> = |0>, U|+> = |->, U|-> = -|+>, as stated
    sqrt2 = np.sqrt(2.0)
    u = FLIP.entries
    assert np.array_equal(u @ [1, 0], [0, -1])
    assert np.array_equal(u @ [0, 1], [1, 0])
    assert np.allclose(u @ np.array([1, 1]) / sqrt2, np.array([1, -1]) / sqrt2, atol=ATOL)
    assert np.allclose(u @ np.array([1, -1]) / sqrt2, -np.array([1, 1]) / sqrt2, atol=ATOL)
    assert np.array_equal(u, U_FLIP)


def test_unitarity_round_trip_dense_oracle():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(raw)
    gate = Gate1Q(q)
    state = make_state(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    roundtrip = apply_1q(apply_1q(state, 2, gate), 2, gate.dagger())
    assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) <= ATOL
    for n in (1, 2, 3, 4):
        state = make_state(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        for qubit in range(1, n + 1):
            dense = op_full(n, qubit, q) @ state.amplitudes
            assert max_dev_up_to_phase(apply_1q(state, qubit, gate).amplitudes, dense) <= ATOL
