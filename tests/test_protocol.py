"""Correlation rules, derived check tables, the modules' imports and exports."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracle_tools import (
    BELL_VECTORS,
    H,
    U_FLIP,
    X,
    Z,
    allowed_joint_outcomes,
    bell_basis,
    bell_projector,
    leaf_values,
    max_dev_up_to_phase,
    node_values,
    project as dense_project,
    pruned_branches,
)
import wqsc
from wqsc import attacks, errors, harness, protocol, qstate, states
from wqsc.harness import RunConfig, _round_trees, exact_analyze
from wqsc.protocol import CHECK_BASES, _rule_tables
from wqsc.qstate import ATOL, FLIP, SHARES, MeasurementBasis, measurement_rows, outcome_at, z_basis
from wqsc.states import build


def _entry(table: str, *labels: str, basis: str | None = None) -> int:
    """The package's ``table`` at the outcomes ``labels``: a present table
    at a sender Z pair and a receiver Z bit, the cao check table at the
    sender's and the receiver's pair outcomes in ``basis``."""
    if basis is None:
        bases, entries = (z_basis(1, 2), z_basis(3)), _rule_tables()[table]
    else:
        bases = (MeasurementBasis(basis, (1, 2)), MeasurementBasis(basis, (3, 4)))
        entries = _rule_tables()[table][CHECK_BASES.index(basis)]
    index = tuple(
        next(i for i in range(4) if outcome_at(b, i) == label)
        for b, label in zip(bases, labels)
    )
    return entries[index].tolist()


class TestCorrelationRules:
    def test_check_consistent_table(self):
        assert _entry("consistent", "10", "0") == 1
        assert _entry("consistent", "01", "0") == 1
        assert _entry("consistent", "00", "1") == 1
        assert _entry("consistent", "00", "0") == 0
        assert _entry("consistent", "10", "1") == 0
        assert _entry("consistent", "01", "1") == 0

    def test_recovery_table(self):
        assert _entry("recovered", "10", "0") == 0
        assert _entry("recovered", "01", "0") == 0
        assert _entry("recovered", "10", "1") == 1
        assert _entry("recovered", "01", "1") == 1
        assert _entry("recovered", "00", "0") == 1
        assert _entry("recovered", "00", "1") == 0

    def test_impossible_alice_outcome_has_no_entry(self):
        # sender 11 has zero amplitude under every modelled evolution, so
        # both tables hold -1 there, which no leaf reads
        for bob in ("0", "1"):
            assert _entry("consistent", "11", bob) == _entry("recovered", "11", bob) == -1


class TestPresentRound:
    @pytest.mark.parametrize("initial", ["phi1", "phi2"])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_no_attack_message_rounds_always_recover(self, initial, bit):
        # every branch of the message tree that sends ``bit``, weighted by
        # its probability, so no unsampled round can hide a failure
        config = RunConfig(scheme="present", init_policy=initial)
        _, message_tree = _round_trees(config)
        mass = 0
        nodes = node_values(message_tree, "initial", "alice")
        leaves = leaf_values(message_tree)
        for node, leaf, m in zip(nodes, leaves, message_tree.masses.tolist(), strict=True):
            if leaf.message_bit != bit:
                continue
            assert node["initial"] == initial
            assert leaf.recovered_bit == bit
            assert node["alice"] != "11"
            assert leaf.eve_guess is None
            mass += m
        assert Fraction(mass, SHARES ** len(message_tree.levels)) == Fraction(1, 2)

    def test_flip_encoding_branch_enumeration(self):
        # encoded bit 1 on phi1: whenever the sender reads 00 the receiver
        # must read 0, and the table recovers 1
        from wqsc.qstate import apply_1q_rows

        encoded = apply_1q_rows(build("phi1"), 3, FLIP)
        alice = pruned_branches(*measurement_rows(encoded[None], z_basis(1, 2)))
        bob = pruned_branches(*measurement_rows(alice.states, z_basis(3)))
        seen_00 = False
        for a, b in zip(alice.outcome[bob.parent].tolist(), bob.outcome.tolist()):
            alice_out, bob_out = outcome_at(z_basis(1, 2), a), outcome_at(z_basis(3), b)
            assert _rule_tables()["recovered"][a, b] == 1
            if alice_out == "00":
                seen_00 = True
                assert bob_out == "0"
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
        alice = pruned_branches(*measurement_rows(build("w4")[None], bell_basis(1, 2)))
        bob = pruned_branches(*measurement_rows(alice.states, bell_basis(3, 4)))
        assert alice.prob[bob.parent] * bob.prob == pytest.approx([0.25] * 4, abs=ATOL)
        seen = {
            (outcome_at(bell_basis(1, 2), a), outcome_at(bell_basis(3, 4), b))
            for a, b in zip(alice.outcome[bob.parent].tolist(), bob.outcome.tolist())
        }
        assert seen == {
            ("psi+", "phi+"), ("psi+", "phi-"), ("phi+", "psi+"), ("phi-", "psi+"),
        }


class TestCaoCheckError:
    def test_allowed_and_forbidden_examples(self):
        assert _entry("check_error", "10", "00", basis="z") == 0
        assert _entry("check_error", "00", "11", basis="x") == 1  # ++ vs --
        assert _entry("check_error", "psi+", "psi+", basis="bell") == 1

    @pytest.mark.parametrize("basis", CHECK_BASES)
    def test_derived_tables_match_dense_projector_oracle(self, basis):
        # the pairs the package's w4-derived table allows are those the
        # oracle's dense projectors give nonzero probability
        first, second = MeasurementBasis(basis, (1, 2)), MeasurementBasis(basis, (3, 4))
        table = _rule_tables()["check_error"][CHECK_BASES.index(basis)]
        allowed = {
            (outcome_at(first, a), outcome_at(second, b))
            for a, b in zip(*(table == 0).nonzero())
        }
        assert allowed == allowed_joint_outcomes(basis)

    def test_interception_error_rates_per_basis(self):
        result = exact_analyze("cao", "cao-ir-z")
        assert result.conditional_error_rates["z"] == pytest.approx(0.0, abs=ATOL)
        assert result.conditional_error_rates["bell"] == pytest.approx(0.0, abs=ATOL)
        assert result.conditional_error_rates["x"] == pytest.approx(0.25, abs=ATOL)

    def test_bell_forbidden_joint_probability_is_zero(self):
        # P(psi+ on 1,2 AND psi+ on 3,4) computed densely
        w4 = build("w4")
        prob_a, collapsed = dense_project(w4, bell_projector(4, (1, 2), "psi+"))
        prob_b, _ = dense_project(collapsed, bell_projector(4, (3, 4), "psi+"))
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

    # the trees know an attack only through attack_rows: harness names one
    # attack, the probe whose ancilla Eve measures at guess time, and
    # beyond that only RunConfig's default
    tree = ast.parse(Path(harness.__file__).read_text())
    (default,) = (
        stmt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig"
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id == "attack"
    )
    attack_names = set(attacks.PRESENT_ATTACKS + attacks.CAO_ATTACKS)
    named = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in attack_names and node is not default
    ]
    assert default.value == "none"
    assert [node.value for node in named] == ["cnot"]


def test_package_exports_resolve():
    # the public API is what the command line uses: a config, the three
    # calls, their results and the base error; the rest is internal
    assert set(wqsc.__all__) == {
        "RunConfig", "RunStats", "ExactResult", "IdentityReport",
        "run_monte_carlo", "exact_analyze", "verify_identities", "WqscError",
    }
    missing = [name for name in wqsc.__all__ if not hasattr(wqsc, name)]
    assert missing == []
    # a state is a plain array, a gate a read-only 2x2 array, and the
    # ``*_rows`` calls are the only gates; states and attacks are named by
    # strings, the interval has no width knob, and the guards that only
    # outside callers could trip are gone with their error classes
    retired = (
        "StateVector", "make_state", "tensor", "apply_1q", "apply_cnot", "states_equal",
        "Gate1Q", "bell_basis", "StateLabel", "AttackKind", "binomial_ci",
        "DimensionMismatch", "NonUnitaryGate", "InvalidBasis", "IndexOutOfRange",
        "UnknownLabel", "InvalidCounts",
    )
    modules = (wqsc, qstate, states, attacks, errors)
    assert [name for name in retired if any(hasattr(module, name) for module in modules)] == []
