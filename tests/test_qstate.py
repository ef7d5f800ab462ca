"""State-vector core: construction, gates, stacked measurement, comparison."""

import numpy as np
import pytest

from oracle_tools import (
    H,
    U_FLIP,
    ket,
    max_dev_up_to_phase,
    op_full,
)
from wqsc import errors
from wqsc.harness import _BranchTree, _walk, _walk_tables
from wqsc.qstate import (
    ATOL,
    FLIP,
    Gate1Q,
    HADAMARD,
    IDENTITY,
    apply_1q,
    apply_cnot,
    basis_ket,
    bell_basis,
    branch_rows,
    make_state,
    measurement_rows,
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


# outcome probabilities come in kernel order: bit strings in binary
# order, Bell labels as psi+, psi-, phi+, phi-
_ROW0 = np.zeros(1, dtype=np.int64)


class TestDistribution:
    def test_phi1_first_pair(self):
        # outcomes 00, 01, 10, 11
        probs, _ = measurement_rows(build("phi1").amplitudes[None], z_basis(1, 2))
        assert probs[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=ATOL)

    def test_w4_second_pair(self):
        probs, _ = measurement_rows(build("w4").amplitudes[None], z_basis(3, 4))
        assert probs[0] == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=ATOL)

    def test_w4_all_plus(self):
        # the Hadamard-basis expansion carries amplitude 2/4 on |++++>,
        # outcome 0000
        probs, _ = measurement_rows(build("w4").amplitudes[None], x_basis(1, 2, 3, 4))
        assert probs[0, 0] == pytest.approx(0.25, abs=ATOL)

    def test_probabilities_sum_to_one(self):
        for state, basis in [
            (build("phi2"), z_basis(1, 2, 3)),
            (build("w4"), x_basis(1, 2)),
            (build("w4"), bell_basis(3, 4)),
        ]:
            probs, _ = measurement_rows(state.amplitudes[None], basis)
            assert probs.sum() == pytest.approx(1.0, abs=ATOL)

    def test_zero_outcomes_included(self):
        probs, _ = measurement_rows(basis_ket("00").amplitudes[None], z_basis(1, 2))
        assert probs.shape == (1, 4)
        assert probs[0, 3] == 0.0

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(errors.InvalidBasis):
            measurement_rows(build("phi1").amplitudes[None], z_basis(1, 1))


class TestMeasure:
    def test_bell_eigenstate(self):
        psi_plus = build("psi+")
        probs, collapse = measurement_rows(psi_plus.amplitudes[None], bell_basis(1, 2))
        assert probs[0] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=ATOL)
        collapsed = collapse(_ROW0, np.array([0]))[0]
        assert max_dev_up_to_phase(collapsed, psi_plus.amplitudes) <= ATOL

    def test_phi2_transit_zero_branch(self):
        probs, collapse = measurement_rows(build("phi2").amplitudes[None], z_basis(3))
        assert probs[0, 0] == pytest.approx(0.5, abs=ATOL)
        expected = make_state(
            3, np.kron(ket("10") + ket("01") + ket("00"), ket("0"))
        )
        collapsed = collapse(_ROW0, np.array([0]))[0]
        assert max_dev_up_to_phase(collapsed, expected.amplitudes) <= ATOL

    def test_phi1_transit_plus_branch(self):
        # outcome 0 encodes |+>
        probs, collapse = measurement_rows(build("phi1").amplitudes[None], x_basis(3))
        assert probs[0, 0] == pytest.approx(0.5, abs=ATOL)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        expected = make_state(3, np.kron(ket("10") + ket("01") + ket("00"), plus))
        collapsed = collapse(_ROW0, np.array([0]))[0]
        assert max_dev_up_to_phase(collapsed, expected.amplitudes) <= ATOL

    def test_zero_probability_branch_unreachable(self):
        # |00> measured in Z: a walk of the measurement reaches only 00
        tree = _BranchTree()
        tree.prepare(lambda node: basis_ket("00"))
        tree.measure("outcome", lambda node: z_basis(1, 2))
        assert [node["outcome"].value for node in tree.nodes] == ["00"]
        u = np.linspace(0.0, 0.999999, 23)
        walked = _walk(_walk_tables([tree]), np.zeros(len(u), dtype=np.int64), u[:, None])
        assert np.array_equal(walked, np.zeros(len(u)))

    def test_branch_probability_matches_distribution(self):
        amps = build("phi2").amplitudes[None]
        probs, _ = measurement_rows(amps, z_basis(1, 2))
        found = branch_rows(amps, z_basis(1, 2))
        assert np.array_equal(found.prob, probs[0, found.outcome])


class TestProject:
    def test_zero_branch_is_none(self):
        amps = basis_ket("00").amplitudes[None]
        probs, _ = measurement_rows(amps, z_basis(1, 2))
        assert probs[0, 3] == 0.0
        assert 3 not in branch_rows(amps, z_basis(1, 2)).outcome


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
