"""Adversary channels: branch enumeration, sampling, Eve's guesses."""

import numpy as np
import pytest

from oracle_tools import (
    FixedUniform,
    ket,
    sample_attack,
    x_projector,
    z_projector,
    project as dense_project,
)
from wqsc import errors
from wqsc.attacks import (
    AttackKind,
    AttackModel,
    NO_ATTACK,
    attack_branches,
)
from wqsc.harness import RunConfig, _round_trees, exact_analyze
from wqsc.protocol import cao_keys, recover_bit
from wqsc.qstate import (
    ATOL,
    BasisKind,
    Outcome,
    bell_basis,
    branches,
    make_state,
    states_equal,
    z_basis,
)
from wqsc.states import build

IR_Z = AttackModel(AttackKind.INTERCEPT_RESEND_Z)
IR_X = AttackModel(AttackKind.INTERCEPT_RESEND_X)
CNOT_PROBE = AttackModel(AttackKind.CNOT_ANCILLA)
CAO_IR = AttackModel(AttackKind.CAO_INTERCEPT_RESEND_Z)


class TestBranches:
    def test_no_attack_transparent(self):
        state = build("phi1")
        options = attack_branches(NO_ATTACK, state, (3,))
        assert options == [(state, None, 1.0)]
        forwarded, note = sample_attack(NO_ATTACK, state, (3,), FixedUniform(0.5))
        assert forwarded is state and note is None

    def test_ir_z_on_phi2(self):
        options = attack_branches(IR_Z, build("phi2"), (3,))
        assert len(options) == 2
        by_bit = {note.observed: (state, prob) for state, note, prob in options}
        assert by_bit["0"][1] == pytest.approx(0.5, abs=ATOL)
        assert by_bit["1"][1] == pytest.approx(0.5, abs=ATOL)
        expected0 = make_state(3, np.kron(ket("10") + ket("01") + ket("00"), ket("0")))
        expected1 = make_state(3, np.kron(ket("10") + ket("01") - ket("00"), ket("1")))
        assert states_equal(by_bit["0"][0], expected0)
        assert states_equal(by_bit["1"][0], expected1)

    def test_cao_branch_structure(self):
        options = attack_branches(CAO_IR, build("w4"), (3, 4))
        by_bits = {note.observed: (state, prob) for state, note, prob in options}
        assert set(by_bits) == {"00", "10", "01"}
        assert by_bits["00"][1] == pytest.approx(0.5, abs=ATOL)
        assert by_bits["10"][1] == pytest.approx(0.25, abs=ATOL)
        assert by_bits["01"][1] == pytest.approx(0.25, abs=ATOL)
        # forwarded states: psi+ x |00> after outcome 00, |00> x psi+ otherwise
        kept = make_state(4, np.kron(ket("10") + ket("01"), ket("00")))
        swapped = make_state(4, np.kron(ket("00"), ket("10") + ket("01")))
        assert states_equal(by_bits["00"][0], kept)
        assert states_equal(by_bits["10"][0], swapped)
        assert states_equal(by_bits["01"][0], swapped)

    def test_probe_extends_register(self):
        options = attack_branches(CNOT_PROBE, build("phi2"), (3,))
        assert len(options) == 1
        state, note, prob = options[0]
        assert prob == 1.0
        assert state.num_qubits == 4
        assert note.ancilla_qubit == 4
        expected = (
            np.kron(ket("10") + ket("01"), ket("00") + ket("11"))
            + np.kron(ket("00"), ket("00") - ket("11"))
        ) / np.sqrt(6)
        assert np.max(np.abs(state.amplitudes - expected)) <= ATOL

    def test_arity_checks(self):
        with pytest.raises(errors.ArityMismatch):
            attack_branches(IR_Z, build("w4"), (3, 4))
        with pytest.raises(errors.ArityMismatch):
            attack_branches(CAO_IR, build("phi1"), (3,))
        with pytest.raises(errors.ArityMismatch):
            sample_attack(CAO_IR, build("phi1"), (3,), FixedUniform(0.1))


class TestResendEquivalence:
    """Collapse-in-place must equal explicit discard-and-replace."""

    @pytest.mark.parametrize("initial", ["phi1", "phi2"])
    @pytest.mark.parametrize("model,projector,fresh", [
        (IR_Z, z_projector, {"0": ket("0"), "1": ket("1")}),
        (IR_X, x_projector, {
            "0": np.array([1, 1], dtype=complex) / np.sqrt(2),
            "1": np.array([1, -1], dtype=complex) / np.sqrt(2),
        }),
    ])
    def test_branch_states_match_discard_and_replace(self, initial, model, projector, fresh):
        state = build(initial)
        for forwarded, note, prob in attack_branches(model, state, (3,)):
            proj = projector(3, (3,), note.observed)
            dense_prob, collapsed = dense_project(state.amplitudes, proj)
            assert prob == pytest.approx(dense_prob, abs=ATOL)
            # discard qubit 3 (contract against the observed state) and
            # append a fresh copy of it
            kept = collapsed.reshape(4, 2) @ fresh[note.observed].conj()
            kept = kept / np.linalg.norm(kept)
            replaced = np.kron(kept, fresh[note.observed])
            assert np.max(np.abs(forwarded.amplitudes - replaced)) <= ATOL

    def test_sampling_agrees_with_enumeration(self):
        state = build("phi2")
        options = attack_branches(IR_Z, state, (3,))
        sampled0, note0 = sample_attack(IR_Z, state, (3,), FixedUniform(0.2))
        sampled1, note1 = sample_attack(IR_Z, state, (3,), FixedUniform(0.9))
        assert note0 == options[0][1]
        assert states_equal(sampled0, options[0][0])
        assert note1 == options[1][1]
        assert states_equal(sampled1, options[1][0])


class TestInvisibility:
    """Attack kinds that leave one initial state entirely unperturbed."""

    def test_exact_conditional_error_zeros(self):
        assert exact_analyze("present", "ir-z").conditional_error_rates["phi1"] == 0.0
        assert exact_analyze("present", "cnot").conditional_error_rates["phi1"] == 0.0
        assert exact_analyze("present", "ir-x").conditional_error_rates["phi2"] == 0.0

    def test_ir_z_leaves_phi1_z_statistics_intact(self):
        ideal = {
            (a.value, b.value): pa * pb
            for a, s, pa in branches(build("phi1"), z_basis(1, 2))
            for b, _, pb in branches(s, z_basis(3))
        }
        attacked: dict[tuple[str, str], float] = {}
        for forwarded, _, p_attack in attack_branches(IR_Z, build("phi1"), (3,)):
            for a, s, pa in branches(forwarded, z_basis(1, 2)):
                for b, _, pb in branches(s, z_basis(3)):
                    key = (a.value, b.value)
                    attacked[key] = attacked.get(key, 0.0) + p_attack * pa * pb
        assert set(ideal) == set(attacked)
        for key, p in ideal.items():
            assert attacked[key] == pytest.approx(p, abs=ATOL)


def _message_leaves(scheme: str, attack: str, **policy):
    """(node, leaf) pairs of the message tree of a config."""
    _, tree = _round_trees(RunConfig(scheme=scheme, attack=attack, **policy))
    return list(zip(tree.nodes, tree.leaves, strict=True))


class TestEveGuess:
    def test_cao_guess_from_pair_outcome(self):
        # pair outcome 00 leaves the sender key 0, so the ciphertext is
        # the bit; any excitation means key 1
        for node, leaf in _message_leaves("cao", "cao-ir-z"):
            ciphertext = cao_keys(node["alice"], node["bob"])[0] ^ leaf.message_bit
            key = 0 if node["note"].observed == "00" else 1
            assert leaf.eve_guess == ciphertext ^ key

    def test_no_attack_unknown(self):
        for scheme in ("present", "cao"):
            for _, leaf in _message_leaves(scheme, "none"):
                assert leaf.eve_guess is None

    def test_ir_z_phi1_guess_follows_recovery_table(self):
        # her resent Z eigenstate is the receiver's result in phi1 rounds
        leaves = _message_leaves("present", "ir-z", init_policy="phi1")
        for node, leaf in leaves:
            eve_as_bob = Outcome(BasisKind.Z, node["note"].observed)
            assert leaf.eve_guess == recover_bit(node["alice"], eve_as_bob)
        assert {leaf.eve_guess for _, leaf in leaves} == {0, 1}

    def test_ir_z_phi2_round_unknown(self):
        for _, leaf in _message_leaves("present", "ir-z", init_policy="phi2"):
            assert leaf.eve_guess is None

    def test_cao_guess_always_correct_by_enumeration(self):
        # every attack branch x sender Bell outcome x message bit
        seen = set()
        for node, leaf in _message_leaves("cao", "cao-ir-z"):
            assert leaf.eve_guess == leaf.message_bit
            seen.add((node["note"].observed, node["alice"].value, leaf.message_bit))
        alice_outcomes = {
            (note.observed, alice_out.value)
            for forwarded, note, _ in attack_branches(CAO_IR, build("w4"), (3, 4))
            for alice_out, _, _ in branches(forwarded, bell_basis(1, 2))
        }
        assert seen == {(*pair, bit) for pair in alice_outcomes for bit in (0, 1)}

    def test_phi2_side_information_is_message_independent(self):
        # joint law of (Eve's bit, Alice's outcome) under ir-z on phi2 is
        # identical for both message bits, so "unknown" is forced
        from wqsc.qstate import FLIP, apply_1q

        laws = []
        for bit in (0, 1):
            state = build("phi2")
            if bit:
                state = apply_1q(state, 3, FLIP)
            law: dict[tuple[str, str], float] = {}
            for forwarded, note, p_attack in attack_branches(IR_Z, state, (3,)):
                for a, _, pa in branches(forwarded, z_basis(1, 2)):
                    key = (note.observed, a.value)
                    law[key] = law.get(key, 0.0) + p_attack * pa
            laws.append(law)
        assert set(laws[0]) == set(laws[1])
        for key in laws[0]:
            assert laws[0][key] == pytest.approx(laws[1][key], abs=ATOL)

    def test_exact_leak_rates(self):
        ir_z = exact_analyze("present", "ir-z")
        assert ir_z.conditional_leak_rates["phi1"] == pytest.approx(1.0, abs=ATOL)
        assert ir_z.unknown_fraction == pytest.approx(0.5, abs=ATOL)
        cao = exact_analyze("cao", "cao-ir-z")
        assert cao.leak_rate == pytest.approx(1.0, abs=ATOL)
        assert cao.unknown_fraction == pytest.approx(0.0, abs=ATOL)
