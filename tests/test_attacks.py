"""Adversary channels: branch enumeration, sampling, Eve's guesses."""

from fractions import Fraction

import numpy as np
import pytest

from oracle_tools import (
    MEASURING_ATTACKS,
    FixedUniform,
    bell_basis,
    cao_keys,
    ket,
    leaf_values,
    max_dev_up_to_phase,
    node_values,
    sample_attack,
    unit,
    x_projector,
    z_projector,
    project as dense_project,
    pruned_branches,
    recover_bit,
)
from wqsc.attacks import CAO_ATTACKS, PRESENT_ATTACKS, attack_rows
from wqsc.harness import RunConfig, _round_trees, exact_analyze
from wqsc.qstate import (
    ATOL,
    SHARES,
    measurement_rows,
    outcome_at,
)
from wqsc.states import build

NONE = "none"
IR_Z = "ir-z"
IR_X = "ir-x"
CNOT_PROBE = "cnot"
CAO_IR = "cao-ir-z"



def _attack_branches(kind, state, transit):
    """The nonzero-probability branches of ``kind`` on ``state``, and
    Eve's note (her outcome's label) per outcome."""
    probs, states, notes = attack_rows(kind, state[None], transit)
    return pruned_branches(probs, states), notes


class TestBranches:
    def test_no_attack_transparent(self):
        state = build("phi1")
        probs, states, notes = attack_rows(NONE, state[None], (3,))
        assert np.array_equal(probs, [[1.0]])
        assert np.array_equal(states, state[None, None])
        assert notes == [None]
        forwarded, note = sample_attack(NONE, state, (3,), FixedUniform(0.5))
        assert forwarded is state and note is None

    def test_ir_z_on_phi2(self):
        probs, states, notes = attack_rows(IR_Z, build("phi2")[None], (3,))
        assert probs[0] == pytest.approx([0.5, 0.5], abs=ATOL)
        assert list(notes) == ["0", "1"]
        forwarded = states[0]
        expected0 = unit(np.kron(ket("10") + ket("01") + ket("00"), ket("0")))
        expected1 = unit(np.kron(ket("10") + ket("01") - ket("00"), ket("1")))
        assert max_dev_up_to_phase(forwarded[0], expected0) <= ATOL
        assert max_dev_up_to_phase(forwarded[1], expected1) <= ATOL

    def test_cao_branch_structure(self):
        found, notes = _attack_branches(CAO_IR, build("w4"), (3, 4))
        assert list(notes) == ["00", "01", "10", "11"]
        assert [notes[i] for i in found.outcome] == ["00", "01", "10"]
        assert found.prob == pytest.approx([0.5, 0.25, 0.25], abs=ATOL)
        # forwarded states: psi+ x |00> after outcome 00, |00> x psi+ otherwise
        kept = unit(np.kron(ket("10") + ket("01"), ket("00")))
        swapped = unit(np.kron(ket("00"), ket("10") + ket("01")))
        forwarded = found.states
        assert max_dev_up_to_phase(forwarded[0], kept) <= ATOL
        assert max_dev_up_to_phase(forwarded[1], swapped) <= ATOL
        assert max_dev_up_to_phase(forwarded[2], swapped) <= ATOL

    def test_probe_extends_register(self):
        probs, states, notes = attack_rows(CNOT_PROBE, build("phi2")[None], (3,))
        assert np.array_equal(probs, [[1.0]])
        assert notes == [None]
        probed = states[0, 0]
        expected = (
            np.kron(ket("10") + ket("01"), ket("00") + ket("11"))
            + np.kron(ket("00"), ket("00") - ket("11"))
        ) / np.sqrt(6)
        assert np.max(np.abs(probed - expected)) <= ATOL

    def test_draw_rule_read_off_the_outcomes(self):
        # one note per outcome, and more than one outcome (a draw of the
        # round) exactly for the attacks the oracle lists as measuring
        cases = [
            *((kind, initial, (3,)) for kind in PRESENT_ATTACKS for initial in ("phi1", "phi2")),
            *((kind, "w4", (3, 4)) for kind in CAO_ATTACKS),
        ]
        assert {kind for kind, _, _ in cases} == {NONE, IR_Z, IR_X, CNOT_PROBE, CAO_IR}
        for kind, initial, transit in cases:
            probs, _, notes = attack_rows(kind, build(initial)[None], transit)
            assert len(notes) == probs.shape[1], (kind, initial)
            assert (len(notes) > 1) == (kind in MEASURING_ATTACKS), (kind, initial)

    def test_arity_checks(self):
        # an attack unpacks the transit qubits it takes, so a wrong count
        # fails at once
        with pytest.raises(ValueError, match="unpack"):
            attack_rows(IR_Z, build("w4")[None], (3, 4))
        with pytest.raises(ValueError, match="unpack"):
            attack_rows(CAO_IR, build("phi1")[None], (3,))
        with pytest.raises(ValueError, match="unpack"):
            sample_attack(CAO_IR, build("phi1"), (3,), FixedUniform(0.1))


class TestResendEquivalence:
    """Collapse-in-place must equal explicit discard-and-replace."""

    @pytest.mark.parametrize("initial", ["phi1", "phi2"])
    @pytest.mark.parametrize("kind,projector,fresh", [
        (IR_Z, z_projector, {"0": ket("0"), "1": ket("1")}),
        (IR_X, x_projector, {
            "0": np.array([1, 1], dtype=complex) / np.sqrt(2),
            "1": np.array([1, -1], dtype=complex) / np.sqrt(2),
        }),
    ], ids=["model0-z_projector-fresh0", "model1-x_projector-fresh1"])  # stable test ids
    def test_branch_states_match_discard_and_replace(self, initial, kind, projector, fresh):
        state = build(initial)
        found, notes = _attack_branches(kind, state, (3,))
        for i, forwarded, prob in zip(found.outcome, found.states, found.prob):
            observed = notes[i]
            proj = projector(3, (3,), observed)
            dense_prob, collapsed = dense_project(state, proj)
            assert prob == pytest.approx(dense_prob, abs=ATOL)
            # discard qubit 3 (contract against the observed state) and
            # append a fresh copy of it
            kept = collapsed.reshape(4, 2) @ fresh[observed].conj()
            kept = kept / np.linalg.norm(kept)
            replaced = np.kron(kept, fresh[observed])
            assert np.max(np.abs(forwarded - replaced)) <= ATOL

    def test_sampling_agrees_with_enumeration(self):
        state = build("phi2")
        found, notes = _attack_branches(IR_Z, state, (3,))
        for u, i, forwarded in zip((0.2, 0.9), found.outcome, found.states):
            sampled, note = sample_attack(IR_Z, state, (3,), FixedUniform(u))
            assert note == notes[i]
            assert np.array_equal(sampled, forwarded)


class TestInvisibility:
    """Attack kinds that leave one initial state entirely unperturbed."""

    def test_exact_conditional_error_zeros(self):
        assert exact_analyze("present", "ir-z").conditional_error_rates["phi1"] == 0.0
        assert exact_analyze("present", "cnot").conditional_error_rates["phi1"] == 0.0
        assert exact_analyze("present", "ir-x").conditional_error_rates["phi2"] == 0.0

    def test_ir_z_leaves_phi1_z_statistics_intact(self):
        # the joint law of both check outcomes, over every branch of the
        # check tree with and without the interception, as exact fractions
        # (the interception adds a level, so a mass counts finer shares)
        laws = []
        for attack in ("none", "ir-z"):
            check, _ = _round_trees(RunConfig(scheme="present", attack=attack, init_policy="phi1"))
            law: dict[tuple[str, str], Fraction] = {}
            whole = SHARES ** len(check.levels)
            for node, mass in zip(node_values(check, "alice", "bob"), check.masses.tolist(), strict=True):
                key = (node["alice"], node["bob"])
                law[key] = law.get(key, 0) + Fraction(mass, whole)
            laws.append(law)
        ideal, attacked = laws
        assert attacked == ideal


def _message_leaves(scheme: str, attack: str, **policy):
    """(node, leaf) pairs of the message tree of a config."""
    _, tree = _round_trees(RunConfig(scheme=scheme, attack=attack, **policy))
    nodes = node_values(tree, "note", "alice", "bob")
    return list(zip(nodes, leaf_values(tree), strict=True))


class TestEveGuess:
    def test_cao_guess_from_pair_outcome(self):
        # pair outcome 00 leaves the sender key 0, so the ciphertext is
        # the bit; any excitation means key 1
        for node, leaf in _message_leaves("cao", "cao-ir-z"):
            ciphertext = cao_keys(node["alice"], node["bob"])[0] ^ leaf.message_bit
            key = 0 if node["note"] == "00" else 1
            assert leaf.eve_guess == ciphertext ^ key

    def test_no_attack_unknown(self):
        for scheme in ("present", "cao"):
            for _, leaf in _message_leaves(scheme, "none"):
                assert leaf.eve_guess is None

    def test_ir_z_phi1_guess_follows_recovery_table(self):
        # her resent Z eigenstate is the receiver's result in phi1 rounds
        leaves = _message_leaves("present", "ir-z", init_policy="phi1")
        for node, leaf in leaves:
            assert leaf.eve_guess == recover_bit(node["alice"], node["note"])
        assert {leaf.eve_guess for _, leaf in leaves} == {0, 1}

    def test_ir_z_phi2_round_unknown(self):
        for _, leaf in _message_leaves("present", "ir-z", init_policy="phi2"):
            assert leaf.eve_guess is None

    def test_cao_guess_always_correct_by_enumeration(self):
        # every attack branch x sender Bell outcome x message bit
        seen = set()
        for node, leaf in _message_leaves("cao", "cao-ir-z"):
            assert leaf.eve_guess == leaf.message_bit
            seen.add((node["note"], node["alice"], leaf.message_bit))
        attacked, notes = _attack_branches(CAO_IR, build("w4"), (3, 4))
        alice = pruned_branches(*measurement_rows(attacked.states, bell_basis(1, 2)))
        alice_outcomes = {
            (notes[note], outcome_at(bell_basis(1, 2), out))
            for note, out in zip(attacked.outcome[alice.parent].tolist(), alice.outcome.tolist())
        }
        assert seen == {(*pair, bit) for pair in alice_outcomes for bit in (0, 1)}

    def test_phi2_side_information_is_message_independent(self):
        # joint law of (Eve's bit, Alice's outcome) under ir-z on phi2 is
        # identical for both message bits, so "unknown" is forced
        _, tree = _round_trees(RunConfig(scheme="present", attack="ir-z", init_policy="phi2"))
        laws: list[dict[tuple[str, str], int]] = [{}, {}]
        nodes = node_values(tree, "bit", "note", "alice")
        for node, mass in zip(nodes, tree.masses.tolist(), strict=True):
            key = (node["note"], node["alice"])
            law = laws[node["bit"]]
            law[key] = law.get(key, 0) + mass
        assert laws[0] == laws[1]

    def test_exact_leak_rates(self):
        ir_z = exact_analyze("present", "ir-z")
        assert ir_z.conditional_leak_rates["phi1"] == pytest.approx(1.0, abs=ATOL)
        assert ir_z.unknown_fraction == pytest.approx(0.5, abs=ATOL)
        cao = exact_analyze("cao", "cao-ir-z")
        assert cao.leak_rate == pytest.approx(1.0, abs=ATOL)
        assert cao.unknown_fraction == pytest.approx(0.0, abs=ATOL)
