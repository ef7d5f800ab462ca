"""Adversary channels: branch enumeration, sampling, Eve's guesses."""

import numpy as np
import pytest

from oracle_tools import (
    FixedUniform,
    ket,
    max_dev_up_to_phase,
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
    attack_note,
    attack_rows,
)
from wqsc.harness import RunConfig, _round_trees, exact_analyze
from wqsc.protocol import cao_keys, recover_bit
from wqsc.qstate import (
    ATOL,
    BasisKind,
    Outcome,
    bell_basis,
    branch_rows,
    make_state,
    nonzero_branches,
    outcome_at,
)
from wqsc.states import build

IR_Z = AttackModel(AttackKind.INTERCEPT_RESEND_Z)
IR_X = AttackModel(AttackKind.INTERCEPT_RESEND_X)
CNOT_PROBE = AttackModel(AttackKind.CNOT_ANCILLA)
CAO_IR = AttackModel(AttackKind.CAO_INTERCEPT_RESEND_Z)


_ROW0 = np.zeros(1, dtype=np.int64)


class TestBranches:
    def test_no_attack_transparent(self):
        state = build("phi1")
        probs, forward = attack_rows(NO_ATTACK, state.amplitudes[None], (3,))
        assert np.array_equal(probs, [[1.0]])
        assert np.array_equal(forward(_ROW0, _ROW0), state.amplitudes[None])
        assert attack_note(NO_ATTACK, 0, 3) is None
        forwarded, note = sample_attack(NO_ATTACK, state, (3,), FixedUniform(0.5))
        assert forwarded is state and note is None

    def test_ir_z_on_phi2(self):
        probs, forward = attack_rows(IR_Z, build("phi2").amplitudes[None], (3,))
        assert probs[0] == pytest.approx([0.5, 0.5], abs=ATOL)
        assert [attack_note(IR_Z, i, 3).observed for i in (0, 1)] == ["0", "1"]
        forwarded = forward(np.zeros(2, dtype=np.int64), np.arange(2))
        expected0 = make_state(3, np.kron(ket("10") + ket("01") + ket("00"), ket("0")))
        expected1 = make_state(3, np.kron(ket("10") + ket("01") - ket("00"), ket("1")))
        assert max_dev_up_to_phase(forwarded[0], expected0.amplitudes) <= ATOL
        assert max_dev_up_to_phase(forwarded[1], expected1.amplitudes) <= ATOL

    def test_cao_branch_structure(self):
        found = nonzero_branches(*attack_rows(CAO_IR, build("w4").amplitudes[None], (3, 4)))
        assert [attack_note(CAO_IR, i, 4).observed for i in found.outcome] == ["00", "01", "10"]
        assert found.prob == pytest.approx([0.5, 0.25, 0.25], abs=ATOL)
        # forwarded states: psi+ x |00> after outcome 00, |00> x psi+ otherwise
        kept = make_state(4, np.kron(ket("10") + ket("01"), ket("00")))
        swapped = make_state(4, np.kron(ket("00"), ket("10") + ket("01")))
        forwarded = found.states()
        assert max_dev_up_to_phase(forwarded[0], kept.amplitudes) <= ATOL
        assert max_dev_up_to_phase(forwarded[1], swapped.amplitudes) <= ATOL
        assert max_dev_up_to_phase(forwarded[2], swapped.amplitudes) <= ATOL

    def test_probe_extends_register(self):
        probs, forward = attack_rows(CNOT_PROBE, build("phi2").amplitudes[None], (3,))
        assert np.array_equal(probs, [[1.0]])
        assert attack_note(CNOT_PROBE, 0, 3).ancilla_qubit == 4
        probed = forward(_ROW0, _ROW0)[0]
        expected = (
            np.kron(ket("10") + ket("01"), ket("00") + ket("11"))
            + np.kron(ket("00"), ket("00") - ket("11"))
        ) / np.sqrt(6)
        assert np.max(np.abs(probed - expected)) <= ATOL

    def test_arity_checks(self):
        with pytest.raises(errors.ArityMismatch):
            attack_rows(IR_Z, build("w4").amplitudes[None], (3, 4))
        with pytest.raises(errors.ArityMismatch):
            attack_rows(CAO_IR, build("phi1").amplitudes[None], (3,))
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
        found = nonzero_branches(*attack_rows(model, state.amplitudes[None], (3,)))
        for i, forwarded, prob in zip(found.outcome, found.states(), found.prob):
            observed = attack_note(model, i, 3).observed
            proj = projector(3, (3,), observed)
            dense_prob, collapsed = dense_project(state.amplitudes, proj)
            assert prob == pytest.approx(dense_prob, abs=ATOL)
            # discard qubit 3 (contract against the observed state) and
            # append a fresh copy of it
            kept = collapsed.reshape(4, 2) @ fresh[observed].conj()
            kept = kept / np.linalg.norm(kept)
            replaced = np.kron(kept, fresh[observed])
            assert np.max(np.abs(forwarded - replaced)) <= ATOL

    def test_sampling_agrees_with_enumeration(self):
        state = build("phi2")
        found = nonzero_branches(*attack_rows(IR_Z, state.amplitudes[None], (3,)))
        for u, i, forwarded in zip((0.2, 0.9), found.outcome, found.states()):
            sampled, note = sample_attack(IR_Z, state, (3,), FixedUniform(u))
            assert note == attack_note(IR_Z, i, 3)
            assert np.array_equal(sampled.amplitudes, forwarded)


class TestInvisibility:
    """Attack kinds that leave one initial state entirely unperturbed."""

    def test_exact_conditional_error_zeros(self):
        assert exact_analyze("present", "ir-z").conditional_error_rates["phi1"] == 0.0
        assert exact_analyze("present", "cnot").conditional_error_rates["phi1"] == 0.0
        assert exact_analyze("present", "ir-x").conditional_error_rates["phi2"] == 0.0

    def test_ir_z_leaves_phi1_z_statistics_intact(self):
        # the joint law of both check outcomes, over every branch of the
        # check tree with and without the interception
        laws = []
        for attack in ("none", "ir-z"):
            check, _ = _round_trees(RunConfig(scheme="present", attack=attack, init_policy="phi1"))
            law: dict[tuple[str, str], float] = {}
            for node, mass in zip(check.nodes, check.masses, strict=True):
                key = (node["alice"].value, node["bob"].value)
                law[key] = law.get(key, 0.0) + mass
            laws.append(law)
        ideal, attacked = laws
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
        attacked = nonzero_branches(*attack_rows(CAO_IR, build("w4").amplitudes[None], (3, 4)))
        alice = branch_rows(attacked.states(), bell_basis(1, 2))
        alice_outcomes = {
            (attack_note(CAO_IR, note, 4).observed, outcome_at(bell_basis(1, 2), out).value)
            for note, out in zip(attacked.outcome[alice.parent].tolist(), alice.outcome.tolist())
        }
        assert seen == {(*pair, bit) for pair in alice_outcomes for bit in (0, 1)}

    def test_phi2_side_information_is_message_independent(self):
        # joint law of (Eve's bit, Alice's outcome) under ir-z on phi2 is
        # identical for both message bits, so "unknown" is forced
        _, tree = _round_trees(RunConfig(scheme="present", attack="ir-z", init_policy="phi2"))
        laws: list[dict[tuple[str, str], float]] = [{}, {}]
        for node, mass in zip(tree.nodes, tree.masses, strict=True):
            key = (node["note"].observed, node["alice"].value)
            law = laws[node["bit"]]
            law[key] = law.get(key, 0.0) + mass
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
