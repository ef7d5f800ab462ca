"""Correlation rules, derived check tables, the rules module's imports."""

import ast
from pathlib import Path

import numpy as np
import pytest

from oracle_tools import (
    BELL_VECTORS,
    H,
    U_FLIP,
    X,
    Z,
    bell_projector_first_pair,
    bell_projector_second_pair,
    max_dev_up_to_phase,
    project as dense_project,
    x_projector,
    z_projector,
)
from wqsc import attacks, errors, protocol
from wqsc.harness import RunConfig, _round_trees, exact_analyze
from wqsc.protocol import (
    _allowed_joint_outcomes,
    cao_check_error,
    check_consistent,
    recover_bit,
)
from wqsc.qstate import ATOL, BasisKind, FLIP, Outcome, branch_rows, outcome_at, z_basis
from wqsc.states import build


def z_out(bits: str) -> Outcome:
    return Outcome(BasisKind.Z, bits)


class TestCorrelationRules:
    def test_check_consistent_table(self):
        assert check_consistent(z_out("10"), z_out("0"))
        assert check_consistent(z_out("01"), z_out("0"))
        assert check_consistent(z_out("00"), z_out("1"))
        assert not check_consistent(z_out("00"), z_out("0"))
        assert not check_consistent(z_out("10"), z_out("1"))
        assert not check_consistent(z_out("01"), z_out("1"))

    def test_recovery_table(self):
        assert recover_bit(z_out("10"), z_out("0")) == 0
        assert recover_bit(z_out("01"), z_out("0")) == 0
        assert recover_bit(z_out("10"), z_out("1")) == 1
        assert recover_bit(z_out("01"), z_out("1")) == 1
        assert recover_bit(z_out("00"), z_out("0")) == 1
        assert recover_bit(z_out("00"), z_out("1")) == 0

    def test_impossible_alice_outcome_flags_simulator_bug(self):
        with pytest.raises(errors.InvalidOutcome):
            check_consistent(z_out("11"), z_out("0"))
        with pytest.raises(errors.InvalidOutcome):
            recover_bit(z_out("11"), z_out("1"))

    def test_wrong_kind_rejected(self):
        with pytest.raises(errors.InvalidOutcome):
            check_consistent(Outcome(BasisKind.X, "10"), z_out("0"))

    @pytest.mark.parametrize("rule", [check_consistent, recover_bit])
    def test_receiver_value_must_be_a_bit(self, rule):
        for alice in ("10", "01", "00"):
            for bob in ("2", "x", "-"):
                with pytest.raises(errors.InvalidOutcome):
                    rule(z_out(alice), z_out(bob))


class TestPresentRound:
    @pytest.mark.parametrize("initial", ["phi1", "phi2"])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_no_attack_message_rounds_always_recover(self, initial, bit):
        # every branch of the message tree that sends ``bit``, weighted by
        # its probability, so no unsampled round can hide a failure
        config = RunConfig(scheme="present", init_policy=initial)
        _, message_tree = _round_trees(config)
        mass = 0.0
        for node, leaf, m in zip(
            message_tree.nodes, message_tree.leaves, message_tree.masses, strict=True
        ):
            if leaf.message_bit != bit:
                continue
            assert node["initial"] == initial
            assert leaf.recovered_bit == bit
            assert node["alice"].value != "11"
            assert leaf.eve_guess is None
            mass += m
        assert mass == pytest.approx(0.5, abs=ATOL)

    def test_flip_encoding_branch_enumeration(self):
        # encoded bit 1 on phi1: whenever the sender reads 00 the receiver
        # must read 0, and the table recovers 1
        from wqsc.qstate import apply_1q

        encoded = apply_1q(build("phi1"), 3, FLIP)
        alice = branch_rows(encoded.amplitudes[None], z_basis(1, 2))
        bob = branch_rows(alice.states(), z_basis(3))
        seen_00 = False
        for a, b in zip(alice.outcome[bob.parent].tolist(), bob.outcome.tolist()):
            alice_out, bob_out = outcome_at(z_basis(1, 2), a), outcome_at(z_basis(3), b)
            assert recover_bit(alice_out, bob_out) == 1
            if alice_out.value == "00":
                seen_00 = True
                assert bob_out.value == "0"
        assert seen_00

    def test_phi2_check_error_under_interception_is_half(self):
        result = exact_analyze("present", "ir-z")
        assert result.conditional_error_rates["phi2"] == pytest.approx(0.5, abs=ATOL)

    def test_announcement_independence_matrix_relation(self):
        # encode-then-decode equals decode-then-classical-flip up to phase
        assert max_dev_up_to_phase((H @ U_FLIP).ravel(), (Z @ X @ H).ravel()) <= ATOL
        # and Z@X is itself the Z-basis flip (up to sign)
        assert np.array_equal(Z @ X, U_FLIP)


class TestCaoRound:
    def test_key_branch_support(self):
        # only (psi+, phi+/-) and (phi+/-, psi+) carry probability
        from wqsc.qstate import bell_basis

        alice = branch_rows(build("w4").amplitudes[None], bell_basis(1, 2))
        bob = branch_rows(alice.states(), bell_basis(3, 4))
        assert alice.prob[bob.parent] * bob.prob == pytest.approx([0.25] * 4, abs=ATOL)
        seen = {
            (outcome_at(bell_basis(1, 2), a).value, outcome_at(bell_basis(3, 4), b).value)
            for a, b in zip(alice.outcome[bob.parent].tolist(), bob.outcome.tolist())
        }
        assert seen == {
            ("psi+", "phi+"), ("psi+", "phi-"), ("phi+", "psi+"), ("phi-", "psi+"),
        }


class TestCaoCheckError:
    def test_allowed_and_forbidden_examples(self):
        assert cao_check_error("z", z_out("10"), z_out("00")) is False
        x_out = lambda bits: Outcome(BasisKind.X, bits)
        assert cao_check_error("x", x_out("00"), x_out("11")) is True  # ++ vs --
        bell = lambda v: Outcome(BasisKind.BELL, v)
        assert cao_check_error("bell", bell("psi+"), bell("psi+")) is True

    def test_basis_mismatch(self):
        with pytest.raises(errors.BasisMismatch):
            cao_check_error("y", z_out("10"), z_out("00"))
        with pytest.raises(errors.BasisMismatch):
            cao_check_error("z", Outcome(BasisKind.X, "10"), z_out("00"))

    def test_derived_tables_match_dense_projector_oracle(self):
        w4 = build("w4").amplitudes
        # Z and X: all sixteen joint outcomes via explicit projectors
        for kind, projector in (("z", z_projector), ("x", x_projector)):
            expected = set()
            for a in range(4):
                for b in range(4):
                    bits = format(a, "02b") + format(b, "02b")
                    prob, _ = dense_project(w4, projector(4, (1, 2, 3, 4), bits))
                    if prob > 1e-15:
                        expected.add((bits[:2], bits[2:]))
            assert _allowed_joint_outcomes(kind) == expected
        # Bell: chained pair projectors
        expected = set()
        for la in BELL_VECTORS:
            proj_a = bell_projector_first_pair(la, 2)
            prob_a, collapsed = dense_project(w4, proj_a)
            if prob_a <= 1e-15:
                continue
            for lb in BELL_VECTORS:
                prob_b, _ = dense_project(collapsed, bell_projector_second_pair(lb, 2))
                if prob_b > 1e-15:
                    expected.add((la, lb))
        assert _allowed_joint_outcomes("bell") == expected

    def test_interception_error_rates_per_basis(self):
        result = exact_analyze("cao", "cao-ir-z")
        assert result.conditional_error_rates["z"] == pytest.approx(0.0, abs=ATOL)
        assert result.conditional_error_rates["bell"] == pytest.approx(0.0, abs=ATOL)
        assert result.conditional_error_rates["x"] == pytest.approx(0.25, abs=ATOL)

    def test_bell_forbidden_joint_probability_is_zero(self):
        # P(psi+ on 1,2 AND psi+ on 3,4) computed densely
        w4 = build("w4").amplitudes
        prob_a, collapsed = dense_project(w4, bell_projector_first_pair("psi+", 2))
        prob_b, _ = dense_project(collapsed, bell_projector_second_pair("psi+", 2))
        assert prob_a == pytest.approx(0.5, abs=ATOL)
        assert prob_b <= 1e-15


def test_rules_import_neither_attacks_nor_harness():
    # the rules and the attacks sit side by side below the branch trees,
    # and neither reads the other, so importing them cannot form a cycle
    layers = {
        protocol: {"wqsc.attacks", "wqsc.harness"},
        attacks: {"wqsc.protocol", "wqsc.harness"},
    }
    for module, forbidden in layers.items():
        imported = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative to the wqsc package
                    base = f"wqsc.{base}" if base else "wqsc"
                imported |= {base, *(f"{base}.{alias.name}" for alias in node.names)}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert not imported & forbidden, module.__name__
