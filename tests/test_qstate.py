"""State-vector core: normalization, gates, stacked measurement, comparison.

A state is a complex128 array; the gates are the ``*_rows`` stack calls,
here mostly on a single (flat) state."""

import numpy as np
import pytest

from oracle_tools import (
    H,
    U_FLIP,
    bell_basis,
    ket,
    max_dev_up_to_phase,
    op_full,
    unit,
)
from wqsc import WqscError
from wqsc.harness import _BranchTree, _walk, _walk_tables
from wqsc.qstate import (
    ATOL,
    FLIP,
    HADAMARD,
    MeasurementBasis,
    apply_1q_rows,
    apply_cnot_rows,
    measurement_rows,
    phase_deviation,
    shares,
    tensor_rows,
    x_basis,
    z_basis,
)
from wqsc.states import _normalized, build

SQRT3 = np.sqrt(3.0)


class TestMakeState:
    """``states._normalized``: the normalization every named state uses."""

    def test_basis_state(self):
        state = _normalized(np.array([1, 0], dtype=complex))
        assert state.dtype == np.complex128
        assert np.array_equal(state, [1, 0])

    def test_three_qubit_single_excitation(self):
        # equal weight on |100>, |010>, |001>: indices 4, 2, 1
        state = _normalized(np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex))
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / SQRT3
        assert np.allclose(state, expected, atol=ATOL)
        assert phase_deviation(state, build("phi1")) <= ATOL

    def test_normalization_forced(self):
        state = _normalized(np.array([3, 4], dtype=complex))
        assert np.allclose(state, [0.6, 0.8], atol=ATOL)
        assert not state.flags.writeable


class TestTensor:
    def test_product_basis(self):
        out = tensor_rows(ket("0"), ket("1"))
        assert np.array_equal(out, ket("01"))

    def test_append_ancilla(self):
        out = tensor_rows(build("phi2"), ket("0"))
        assert out.shape == (16,)
        # qubit 4 is |0>: odd indices all empty
        assert np.all(out[1::2] == 0)
        assert np.allclose(out[0::2], build("phi2"), atol=ATOL)

    def test_plus_plus_uniform(self):
        plus = unit([1, 1])
        out = tensor_rows(plus, plus)
        assert np.allclose(out, [0.5] * 4, atol=ATOL)


class TestApply1Q:
    def test_flip_zero(self):
        out = apply_1q_rows(ket("0"), 1, FLIP)
        assert np.array_equal(out, [0, -1])  # exactly -|1>

    def test_flip_plus(self):
        plus = unit([1, 1])
        out = apply_1q_rows(plus, 1, FLIP)
        minus = unit([1, -1])
        assert np.allclose(out, minus, atol=ATOL)

    def test_hadamard_on_phi2_matches_dense_oracle(self):
        phi2 = build("phi2")
        fast = apply_1q_rows(phi2, 3, HADAMARD)
        dense = op_full(3, 3, H) @ phi2
        assert np.max(np.abs(fast - dense)) <= ATOL
        # and equals the correlated split form (|10>+|01>)|0> + |00>|1>
        split = unit(np.kron(ket("10") + ket("01"), ket("0")) + np.kron(ket("00"), ket("1")))
        assert phase_deviation(fast, split) <= ATOL

    def test_gate_unitarity_enforced(self):
        # the gates are unitary constants that nothing can overwrite
        for gate in (FLIP, HADAMARD):
            assert gate.shape == (2, 2) and gate.dtype == np.complex128
            assert np.allclose(gate.conj().T @ gate, np.eye(2), atol=ATOL)
            with pytest.raises(ValueError):
                gate[1, 1] = 2.0

    @pytest.mark.parametrize("qubit", [0, 4, -1])
    def test_qubit_outside_register_rejected(self, qubit):
        # a qubit with no bit in the register fails, never acts on another
        with pytest.raises(ValueError):
            apply_1q_rows(build("phi1")[None], qubit, HADAMARD)


class TestApplyCnot:
    def test_flips_target(self):
        out = apply_cnot_rows(ket("10"), 1, 2)
        assert np.array_equal(out, ket("11"))

    def test_identity_on_zero_control(self):
        out = apply_cnot_rows(ket("00"), 1, 2)
        assert np.array_equal(out, ket("00"))

    def test_probe_yields_entangled_ancilla_expansion(self):
        # CNOT(3 -> 4) on phi2 x |0> equals the literal four-qubit form
        extended = tensor_rows(build("phi2"), ket("0"))
        probed = apply_cnot_rows(extended, 3, 4)
        expected = (
            np.kron(ket("10") + ket("01"), ket("00") + ket("11"))
            + np.kron(ket("00"), ket("00") - ket("11"))
        ) / np.sqrt(6)
        assert np.max(np.abs(probed - expected)) <= ATOL


# outcome probabilities come in outcome-index order: bit strings in binary
# order, Bell labels as psi+, psi-, phi+, phi-


class TestDistribution:
    def test_phi1_first_pair(self):
        # outcomes 00, 01, 10, 11
        probs, _ = measurement_rows(build("phi1")[None], z_basis(1, 2))
        assert probs[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=ATOL)

    def test_w4_second_pair(self):
        probs, _ = measurement_rows(build("w4")[None], z_basis(3, 4))
        assert probs[0] == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=ATOL)

    def test_w4_all_plus(self):
        # the Hadamard-basis expansion carries amplitude 2/4 on |++++>,
        # outcome 0000
        probs, _ = measurement_rows(build("w4")[None], x_basis(1, 2, 3, 4))
        assert probs[0, 0] == pytest.approx(0.25, abs=ATOL)

    def test_probabilities_sum_to_one(self):
        for state, basis in [
            (build("phi2"), z_basis(1, 2, 3)),
            (build("w4"), x_basis(1, 2)),
            (build("w4"), bell_basis(3, 4)),
        ]:
            probs, _ = measurement_rows(state[None], basis)
            assert probs.sum() == pytest.approx(1.0, abs=ATOL)

    def test_zero_outcomes_included(self):
        probs, _ = measurement_rows(ket("00")[None], z_basis(1, 2))
        assert probs.shape == (1, 4)
        assert probs[0, 3] == 0.0

    @pytest.mark.parametrize("kind", ["y", "Z", "", "bells"])
    def test_unknown_kind_rejected(self, kind):
        # a kind is one of the strings "z", "x" and "bell"; any other is
        # no basis, never a Z measurement under another name
        with pytest.raises(KeyError):
            measurement_rows(build("phi1")[None], MeasurementBasis(kind, (1,)))


class TestMeasure:
    def test_bell_eigenstate(self):
        psi_plus = build("psi+")
        probs, states = measurement_rows(psi_plus[None], bell_basis(1, 2))
        assert probs[0] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=ATOL)
        collapsed = states[0, 0]
        assert max_dev_up_to_phase(collapsed, psi_plus) <= ATOL

    def test_phi2_transit_zero_branch(self):
        probs, states = measurement_rows(build("phi2")[None], z_basis(3))
        assert probs[0, 0] == pytest.approx(0.5, abs=ATOL)
        expected = unit(np.kron(ket("10") + ket("01") + ket("00"), ket("0")))
        collapsed = states[0, 0]
        assert max_dev_up_to_phase(collapsed, expected) <= ATOL

    def test_phi1_transit_plus_branch(self):
        # outcome 0 encodes |+>
        probs, states = measurement_rows(build("phi1")[None], x_basis(3))
        assert probs[0, 0] == pytest.approx(0.5, abs=ATOL)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        expected = unit(np.kron(ket("10") + ket("01") + ket("00"), plus))
        collapsed = states[0, 0]
        assert max_dev_up_to_phase(collapsed, expected) <= ATOL

    def test_zero_probability_branch_unreachable(self):
        # |00> measured in Z: a walk of the measurement reaches only 00
        tree = _BranchTree()
        tree.prepare([ket("00")])
        tree.measure("outcome", (z_basis(1, 2),))
        assert tree.values("outcome") == ["00"]
        w = np.append(np.linspace(0, 0.999999 * 2**53, 23), 2**53 - 1).astype(np.uint64)
        walked = _walk(_walk_tables([tree]), np.zeros(len(w), dtype=np.int64), (w << 11)[:, None])
        assert np.array_equal(walked, np.zeros(len(w)))

    def test_branch_probability_matches_distribution(self):
        amps = build("phi2")[None]
        probs, _ = measurement_rows(amps, z_basis(1, 2))
        tree = _BranchTree()
        tree.prepare(amps)
        tree.measure("outcome", (z_basis(1, 2),))
        assert np.array_equal(tree.levels[0].prob, probs[0, tree.column("outcome")])


class TestShares:
    def test_halves(self):
        counts = shares(np.array([[0.5, 0.5]]))
        assert counts.dtype == np.int64 and counts.tolist() == [[12, 12]]

    def test_float_thirds_and_eighths_snap(self):
        # the float probabilities of the modelled rounds, and a zero that
        # float arithmetic left a little above 0
        probs = np.array([1 / 3, 1 / 8, 3 / 8, 1 / 6 + 1e-14, 2 / 3 - 1e-14, 1e-17])
        assert shares(probs).tolist() == [8, 3, 9, 4, 16, 0]

    @pytest.mark.parametrize("prob", [0.3, 1e-6, 1 / 24 + 1e-8, float("nan")])
    def test_no_whole_share_raises(self, prob):
        with pytest.raises(WqscError):
            shares(np.array([[prob, 1.0 - prob]]))

    def test_tree_of_no_whole_shares_raises(self):
        # a level of another state's probabilities cannot be counted in
        # shares, so no tree, and no wrong exact rate, is built from it
        tree = _BranchTree()
        tree.prepare([unit(np.array([0.3, 0.7], dtype=complex) ** 0.5)])
        with pytest.raises(WqscError):
            tree.measure("outcome", (z_basis(1),))


class TestProject:
    def test_zero_branch_is_none(self):
        amps = ket("00")[None]
        probs, states = measurement_rows(amps, z_basis(1, 2))
        assert probs[0, 3] == 0.0 and not states[0, 3].any()


class TestStatesEqual:
    def test_global_phase_ignored(self):
        phi1 = build("phi1")
        rotated = unit(phi1 * np.exp(1j * np.pi / 3))
        assert phase_deviation(phi1, rotated) <= ATOL

    def test_distinct_states(self):
        # direct-expansion overlap: <phi1|phi2> = (1 + 1 - 1) / sqrt(18)
        overlap = np.vdot(build("phi1"), build("phi2"))
        assert abs(overlap) == pytest.approx(1 / np.sqrt(18), abs=ATOL)
        assert abs(overlap) < 1.0
        assert phase_deviation(build("phi1"), build("phi2")) > ATOL

    def test_w4_forms_equal(self):
        from wqsc.states import _w4_x_form, _w4_z_form

        assert phase_deviation(_w4_z_form(), _w4_x_form()) <= ATOL

    def test_dimension_mismatch(self):
        # states of different widths are never compared
        with pytest.raises(ValueError):
            phase_deviation(build("phi1"), build("w4"))


def test_flip_relations_componentwise():
    # U|0> = -|1>, U|1> = |0>, U|+> = |->, U|-> = -|+>, as stated
    sqrt2 = np.sqrt(2.0)
    u = FLIP
    assert np.array_equal(u @ [1, 0], [0, -1])
    assert np.array_equal(u @ [0, 1], [1, 0])
    assert np.allclose(u @ np.array([1, 1]) / sqrt2, np.array([1, -1]) / sqrt2, atol=ATOL)
    assert np.allclose(u @ np.array([1, -1]) / sqrt2, -np.array([1, 1]) / sqrt2, atol=ATOL)
    assert np.array_equal(u, U_FLIP)


def test_unitarity_round_trip_dense_oracle():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gate, _ = np.linalg.qr(raw)
    state = unit(rng.normal(size=8) + 1j * rng.normal(size=8))
    roundtrip = apply_1q_rows(apply_1q_rows(state, 2, gate), 2, gate.conj().T)
    assert np.max(np.abs(roundtrip - state)) <= ATOL
    for n in (1, 2, 3, 4):
        state = unit(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        for qubit in range(1, n + 1):
            dense = op_full(n, qubit, gate) @ state
            assert max_dev_up_to_phase(apply_1q_rows(state, qubit, gate), dense) <= ATOL
