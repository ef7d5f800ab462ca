"""Exact analyzer structure, Monte Carlo determinism, statistics, formats."""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oracle_tools import scalar_round_outcomes
from wqsc import _kernels, errors, harness
from wqsc.harness import (
    RunConfig,
    _check_flags,
    _draw_block,
    _round_trees,
    _run_counts,
    binomial_ci,
    exact_analyze,
    exact_result_to_dict,
    identity_reports_to_dict,
    run_monte_carlo,
    run_stats_to_dict,
    to_csv,
    to_json,
)
from wqsc.states import verify_identities

ATOL = 1e-12

# every valid (scheme, attack, init policy, check-basis policy)
VALID_CONFIGS = [
    ("present", attack, init, "random")
    for attack in ("none", "ir-z", "ir-x", "cnot")
    for init in ("random", "phi1", "phi2")
] + [
    ("cao", attack, "random", basis)
    for attack in ("none", "cao-ir-z")
    for basis in ("random", "z", "x", "bell")
]

# the most kernel calls that building one level of a branch tree may make
# (a measurement in three bases, each rotated and collapsed, takes most)
KERNEL_CALLS_PER_LEVEL = 6

# exact_analyze of every valid config, floats as float.hex, dicts as
# ordered pairs, as the scheme-specific branch enumerators computed them
EXACT_RESULTS = json.loads((Path(__file__).parent / "exact_results.json").read_text())


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[key, rate.hex()] for key, rate in value.items()]
    return value


# counts of the seed-42, 1e5-round acceptance fixture, as the per-round
# scalar engines produced them
SEED42_COUNTS = {
    ("present", "ir-z"): {
        "check_rounds": 50043, "check_errors": 12450, "message_rounds": 49957,
        "recovered_correct": 37556, "guesses_known": 25045, "guesses_correct": 25045,
    },
    ("present", "ir-x"): {
        "check_rounds": 50043, "check_errors": 12625, "message_rounds": 49957,
        "recovered_correct": 37447, "guesses_known": 24912, "guesses_correct": 24912,
    },
    ("present", "cnot"): {
        "check_rounds": 50043, "check_errors": 12397, "message_rounds": 49957,
        "recovered_correct": 37454, "guesses_known": 25045, "guesses_correct": 25045,
    },
    ("cao", "cao-ir-z"): {
        "check_rounds": 50043, "check_errors": 4076, "message_rounds": 49957,
        "recovered_correct": 49957, "guesses_known": 49957, "guesses_correct": 49957,
    },
}


class TestBinomialCi:
    def test_zero_successes_clamps(self):
        assert binomial_ci(0, 100, 1.96) == (0.0, 0.0)

    def test_quarter_by_hand(self):
        # 0.25 +- 1.96 * sqrt(0.25*0.75/100)
        low, high = binomial_ci(25, 100, 1.96)
        assert low == pytest.approx(0.16513, abs=1e-3)
        assert high == pytest.approx(0.33487, abs=1e-3)

    def test_zero_width(self):
        assert binomial_ci(50, 100, 0.0) == (0.5, 0.5)

    def test_invalid_counts(self):
        with pytest.raises(errors.InvalidCounts):
            binomial_ci(1, 0)
        with pytest.raises(errors.InvalidCounts):
            binomial_ci(5, 4)
        with pytest.raises(errors.InvalidCounts):
            binomial_ci(-1, 4)


class TestExactAnalyze:
    @pytest.mark.parametrize("case", EXACT_RESULTS, ids=lambda case: "-".join(case["config"]))
    def test_results_bit_identical_to_enumerators(self, case):
        result = exact_analyze(*case["config"])
        assert {key: _hexed(value) for key, value in asdict(result).items()} == case["result"]

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_leaf_masses_sum_to_one(self, scheme, attack, init, basis):
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        for tree in _round_trees(config):
            assert len(tree.masses) == len(tree.leaves)
            assert math.fsum(tree.masses) == pytest.approx(1.0, abs=ATOL)

    def test_total_is_weighted_sum_of_conditionals(self):
        for scheme, attack, weight in [
            ("present", "ir-z", 0.5),
            ("present", "ir-x", 0.5),
            ("present", "cnot", 0.5),
            ("cao", "cao-ir-z", 1.0 / 3.0),
            ("present", "none", 0.5),
            ("cao", "none", 1.0 / 3.0),
        ]:
            result = exact_analyze(scheme, attack)
            recombined = weight * sum(result.conditional_error_rates.values())
            assert result.total_error_rate == pytest.approx(recombined, abs=ATOL)

    def test_fixed_initial_policy(self):
        result = exact_analyze("present", "ir-z", init_policy="phi2")
        assert result.total_error_rate == pytest.approx(0.5, abs=ATOL)
        assert list(result.conditional_error_rates) == ["phi2"]

    def test_fixed_basis_policy(self):
        result = exact_analyze("cao", "cao-ir-z", check_basis_policy="x")
        assert result.total_error_rate == pytest.approx(0.25, abs=ATOL)

    def test_unsupported_pairs(self):
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("present", "cao-ir-z")
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("cao", "ir-z")
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("bb84", "none")
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("present", "pns")

    def test_branch_tree_mass_sums_to_one(self):
        # path probabilities through attack x sender x receiver multiply
        # and exhaust the distribution
        from wqsc.attacks import AttackKind, AttackModel, attack_branches
        from wqsc.qstate import HADAMARD, apply_1q, branches, z_basis
        from wqsc.states import build

        for initial in ("phi1", "phi2"):
            for kind in (AttackKind.INTERCEPT_RESEND_Z, AttackKind.CNOT_ANCILLA):
                total = 0.0
                state = build(initial)
                for forwarded, _, p_attack in attack_branches(
                    AttackModel(kind), state, (3,)
                ):
                    decoded = (
                        apply_1q(forwarded, 3, HADAMARD) if initial == "phi2" else forwarded
                    )
                    for _, after, p_a in branches(decoded, z_basis(1, 2)):
                        for _, _, p_b in branches(after, z_basis(3)):
                            total += p_attack * p_a * p_b
                assert total == pytest.approx(1.0, abs=ATOL)


class TestRoundTrees:
    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_leaves_obey_rules(self, scheme, attack, init, basis):
        # every branch of both trees, so no sampled round can hide one
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        for tree in _round_trees(config):
            for node, leaf in zip(tree.nodes, tree.leaves, strict=True):
                if scheme == "present":
                    assert node["alice"].value != "11"
                if attack != "none":
                    continue
                if leaf.check_pass is None:
                    assert leaf.recovered_bit == leaf.message_bit
                else:
                    assert leaf.check_pass is True
                assert leaf.eve_guess is None


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(errors.InvalidConfig):
            RunConfig(scheme="present", rounds=0)
        with pytest.raises(errors.InvalidConfig):
            RunConfig(scheme="present", check_fraction=0.0)
        with pytest.raises(errors.InvalidConfig):
            RunConfig(scheme="present", check_fraction=1.0)
        with pytest.raises(errors.InvalidConfig):
            RunConfig(scheme="present", rounds=2, check_fraction=0.1)
        with pytest.raises(errors.UnsupportedPair):
            RunConfig(scheme="present", attack="cao-ir-z")

    def test_at_least_one_check_round_forced(self, monkeypatch):
        # fraction small enough that some seeds draw no check round
        configs = [
            RunConfig(scheme="present", rounds=12, check_fraction=0.09, master_seed=seed)
            for seed in range(30)
        ]
        for config in configs:
            assert _check_flags(config, 0, config.rounds).sum() >= 1
        whole = [_run_counts(config) for config in configs]
        # in blocks of 4 the rule still looks at the whole run
        monkeypatch.setattr(harness, "_BLOCK_ROUNDS", 4)
        for config, counts in zip(configs, whole):
            blocked = [_check_flags(config, lo, 4) for lo in range(0, 12, 4)]
            assert np.array_equal(np.concatenate(blocked), _check_flags(config, 0, config.rounds))
            assert _run_counts(config) == counts


class TestDeterminism:
    def test_identical_configs_identical_serialized_stats(self):
        config = RunConfig(scheme="present", attack="ir-z", rounds=2000, master_seed=9)
        a = run_monte_carlo(config)
        b = run_monte_carlo(config)
        assert to_json(run_stats_to_dict(a)) == to_json(run_stats_to_dict(b))

    def test_workers_other_than_one_raise(self):
        config = RunConfig(scheme="cao", attack="cao-ir-z", rounds=1500, master_seed=3)
        with pytest.raises(errors.InvalidConfig, match="pool was removed"):
            run_monte_carlo(config, workers=2)

    def test_different_seeds_differ(self):
        a = run_monte_carlo(RunConfig(scheme="present", attack="ir-z", rounds=3000, master_seed=0))
        b = run_monte_carlo(RunConfig(scheme="present", attack="ir-z", rounds=3000, master_seed=1))
        assert a.check_errors != b.check_errors or a.check_rounds != b.check_rounds


class TestTreeWalk:
    @staticmethod
    def _walk(config, flags, draws):
        """Per-round outcomes of the tree walk, and the leaves it reached."""
        outcomes = [None] * len(flags)
        reached = set()
        for which, (tree, mask) in enumerate(zip(_round_trees(config), (flags, ~flags))):
            rows = np.flatnonzero(mask)
            for row, leaf in zip(rows, tree.walk(draws[rows]).tolist()):
                outcomes[row] = tuple(tree.leaves[leaf])
                reached.add((which, leaf))
        return outcomes, reached

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_walk_replays_scalar_rounds(self, scheme, attack, init, basis):
        reached = set()
        for seed in (0, 7):
            for fraction in (0.4, 0.8):
                config = RunConfig(
                    scheme=scheme, attack=attack, rounds=500, check_fraction=fraction,
                    master_seed=seed, init_policy=init, check_basis_policy=basis,
                )
                flags = _check_flags(config, 0, config.rounds)
                draws = _draw_block(seed, 0, config.rounds)
                walked, hit = self._walk(config, flags, draws)
                assert walked == scalar_round_outcomes(config, flags, draws), (seed, fraction)
                reached |= hit
        # the replay compared every path of both trees
        check_tree, message_tree = _round_trees(config)
        assert len(reached) == len(check_tree.leaves) + len(message_tree.leaves)

    @pytest.mark.parametrize(
        "scheme,attack,init,basis",
        [
            ("present", "ir-x", "random", "random"),
            ("present", "cnot", "phi2", "random"),
            ("cao", "cao-ir-z", "random", "random"),
        ],
    )
    @pytest.mark.parametrize("block", [4, 8, 4096, 8192])
    def test_chunked_counts_equal_whole_run(
        self, monkeypatch, scheme, attack, init, basis, block
    ):
        # 5003 rounds: a multiple of neither 4 nor any block size
        config = RunConfig(
            scheme=scheme, attack=attack, rounds=5003, master_seed=11,
            init_policy=init, check_basis_policy=basis,
        )
        whole = _run_counts(config)
        monkeypatch.setattr(harness, "_BLOCK_ROUNDS", block)
        assert _run_counts(config) == whole

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_tree_build_kernel_calls_bounded_per_level(
        self, monkeypatch, scheme, attack, init, basis
    ):
        # a level's nodes are built by stacked calls, so the kernel calls
        # grow with the levels of a tree, not with its nodes
        calls = []
        for name in _kernels.__all__:
            kernel = getattr(_kernels, name)
            monkeypatch.setattr(
                _kernels, name, lambda *a, _k=kernel, _n=name: calls.append(_n) or _k(*a)
            )
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        trees = _round_trees(config)
        # outcome_index builds a basis's lookup table once (qstate caches it)
        stacked = [name for name in calls if name != "outcome_index"]
        assert len(stacked) <= KERNEL_CALLS_PER_LEVEL * sum(len(tree.levels) for tree in trees)

    def test_seed_42_fixture_counts_pinned(self, attack_mc_runs):
        results, _ = attack_mc_runs
        for (scheme, attack), pinned in SEED42_COUNTS.items():
            config = RunConfig(scheme=scheme, attack=attack, rounds=100_000, master_seed=42)
            assert _run_counts(config) == pinned
            stats = results[(scheme, attack)]
            assert stats.check_rounds == pinned["check_rounds"]
            assert stats.check_errors == pinned["check_errors"]
            assert stats.message_rounds == pinned["message_rounds"]
            assert stats.recovery_accuracy == pinned["recovered_correct"] / pinned["message_rounds"]
            assert stats.eve_leak_rate == pinned["guesses_correct"] / pinned["guesses_known"]


class TestMonteCarloAgainstExact:
    def test_attacked_configs_within_five_sigma(self, attack_mc_runs):
        results, _ = attack_mc_runs
        for (scheme, attack), stats in results.items():
            exact = exact_analyze(scheme, attack)
            p = exact.total_error_rate
            sigma = math.sqrt(p * (1 - p) / stats.check_rounds)
            assert abs(stats.error_rate - p) <= 5 * sigma, (scheme, attack)

    def test_no_attack_configs_have_zero_errors(self):
        for scheme in ("present", "cao"):
            stats = run_monte_carlo(
                RunConfig(scheme=scheme, attack="none", rounds=100_000, master_seed=42)
            )
            assert stats.check_errors == 0
            assert stats.error_rate == 0.0
            assert stats.recovery_accuracy == 1.0
            assert stats.unknown_fraction == 1.0

    def test_rates_within_bounds_and_ci_contains_rate(self, attack_mc_runs):
        results, _ = attack_mc_runs
        for stats in results.values():
            for rate in (
                stats.error_rate,
                stats.recovery_accuracy,
                stats.eve_leak_rate,
                stats.unknown_fraction,
            ):
                assert 0.0 <= rate <= 1.0
            low, high = stats.error_rate_ci95
            assert low <= stats.error_rate <= high

    def test_check_basis_policy_reaches_rounds(self):
        # the two-qubit interception is invisible to z checks but caught
        # by x checks at rate 1/4
        invisible = run_monte_carlo(RunConfig(
            scheme="cao", attack="cao-ir-z", rounds=3000, master_seed=5,
            check_basis_policy="z",
        ))
        assert invisible.check_errors == 0
        caught = run_monte_carlo(RunConfig(
            scheme="cao", attack="cao-ir-z", rounds=3000, master_seed=5,
            check_basis_policy="x",
        ))
        assert caught.error_rate == pytest.approx(0.25, abs=0.05)

    def test_init_policy_reaches_rounds(self):
        stats = run_monte_carlo(RunConfig(
            scheme="present", attack="ir-z", rounds=3000, master_seed=6,
            init_policy="phi1",
        ))
        assert stats.check_errors == 0
        assert stats.eve_leak_rate == 1.0
        assert stats.unknown_fraction == 0.0

    def test_unknown_as_half_scoring(self):
        base = RunConfig(scheme="present", attack="ir-z", rounds=4000, master_seed=2)
        halved = RunConfig(
            scheme="present", attack="ir-z", rounds=4000, master_seed=2, unknown_as_half=True
        )
        plain = run_monte_carlo(base)
        scored = run_monte_carlo(halved)
        known = round((1 - plain.unknown_fraction) * plain.message_rounds)
        correct = round(plain.eve_leak_rate * known)
        expected = (correct + 0.5 * (plain.message_rounds - known)) / plain.message_rounds
        assert scored.eve_leak_rate == pytest.approx(expected, abs=ATOL)


class TestSerialization:
    def test_twelve_significant_digits(self):
        result = exact_analyze("cao", "cao-ir-z")
        payload = exact_result_to_dict(result)
        assert payload["total_error_rate"] == float(f"{1/12:.12g}")
        text = to_json(payload)
        assert json.loads(text)["conditional_error_rates"]["x"] == 0.25

    def test_run_stats_csv_columns_frozen(self):
        stats = run_monte_carlo(RunConfig(scheme="present", attack="none", rounds=200, master_seed=0))
        csv_text = to_csv(run_stats_to_dict(stats))
        header = csv_text.splitlines()[0]
        assert header == (
            "scheme,attack,rounds_total,check_rounds,check_errors,message_rounds,"
            "error_rate,error_rate_ci95_low,error_rate_ci95_high,"
            "recovery_accuracy,eve_leak_rate,unknown_fraction"
        )

    def test_identity_reports_payload(self):
        payload = identity_reports_to_dict(verify_identities())
        assert payload["all_passed"] is True
        csv_text = to_csv(payload)
        assert csv_text.startswith("identity_id,description,deviation,passed,expect")
        assert len(csv_text.strip().splitlines()) == len(payload["reports"]) + 1
