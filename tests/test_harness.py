"""Exact analyzer structure, Monte Carlo determinism, statistics, formats."""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oracle_tools import reference_guess, sample_index, scalar_round_outcomes
from wqsc import _kernels, errors, harness
from wqsc.attacks import AttackKind, AttackModel
from wqsc.harness import (
    RunConfig,
    _BranchTree,
    _check_flags,
    _draw_block,
    _round_trees,
    _run_counts,
    _walk,
    _walk_tables,
    binomial_ci,
    exact_analyze,
    exact_result_to_dict,
    identity_reports_to_dict,
    run_monte_carlo,
    run_stats_to_dict,
    to_csv,
    to_json,
)
from wqsc.protocol import CHECK_BASES, cao_keys
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


def _announced(scheme: str, node: dict) -> dict:
    """The public announcements of a message-tree node that Eve's guess
    may read: the initial state and the sender's published outcome
    (present scheme) or the ciphertext (cao scheme)."""
    if scheme == "present":
        return {"initial": node["initial"], "alice": node["alice"]}
    return {"ciphertext": cao_keys(node["alice"], node["bob"])[0] ^ node["bit"]}


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[key, rate.hex()] for key, rate in value.items()]
    return value


# run_stats_to_dict of every valid config at five (seed, rounds, check
# fraction) points: 500, 1999 and 137 rounds; 70 000 rounds, which span
# two blocks; and 12 rounds at seed 0 and fraction 0.09, where the mode
# stream flags no round, so round 0 is forced to be a check round
MC_COUNTS = json.loads((Path(__file__).parent / "mc_counts.json").read_text())

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

    def test_policies_checked_as_run_config_checks_them(self):
        # each scheme reads one policy, yet both must be valid, as in RunConfig
        for scheme, attack in (("present", "none"), ("cao", "none")):
            for policies in ({"init_policy": "bogus"}, {"check_basis_policy": "bogus"}):
                with pytest.raises(errors.InvalidConfig):
                    RunConfig(scheme=scheme, attack=attack, **policies)
                with pytest.raises(errors.InvalidConfig):
                    exact_analyze(scheme, attack, **policies)

    def test_branch_tree_mass_sums_to_one(self):
        # path probabilities through attack x sender x receiver multiply
        # and exhaust the distribution
        from wqsc.attacks import attack_rows
        from wqsc.qstate import HADAMARD, apply_1q_rows, branch_rows, nonzero_branches, z_basis
        from wqsc.states import build

        for initial in ("phi1", "phi2"):
            for kind in (AttackKind.INTERCEPT_RESEND_Z, AttackKind.CNOT_ANCILLA):
                amps = build(initial).amplitudes[None]
                attacked = nonzero_branches(*attack_rows(AttackModel(kind), amps, (3,)))
                decoded = attacked.states()
                if initial == "phi2":
                    decoded = apply_1q_rows(decoded, 3, HADAMARD)
                alice = branch_rows(decoded, z_basis(1, 2))
                bob = branch_rows(alice.states(), z_basis(3))
                masses = attacked.prob[alice.parent][bob.parent] * alice.prob[bob.parent] * bob.prob
                assert math.fsum(masses) == pytest.approx(1.0, abs=ATOL)


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

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_guess_matches_reference_rule(self, scheme, attack, init, basis):
        # the guess read off the tree equals the rule written by hand for
        # each attack, on every message leaf
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        model = AttackModel(AttackKind(attack))
        _, message = _round_trees(config)
        mismatches = [
            (node, leaf.eve_guess)
            for node, leaf in zip(message.nodes, message.leaves, strict=True)
            if leaf.eve_guess != reference_guess(model, node["note"], **_announced(scheme, node))
        ]
        assert message.leaves and mismatches == []

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_view_posteriors_are_zero_half_or_one(self, scheme, attack, init, basis):
        # every view Eve can hold pins the bit down or says nothing of it,
        # so abstaining at a tie loses her nothing
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        _, message = _round_trees(config)
        masses: dict = {}
        for node, leaf, mass in zip(message.nodes, message.leaves, message.masses, strict=True):
            view = (node["note"], *_announced(scheme, node).values())
            masses.setdefault(view, [0.0, 0.0])[leaf.message_bit] += mass
        for m0, m1 in masses.values():
            posterior = m1 / (m0 + m1)
            assert min(abs(posterior - p) for p in (0.0, 0.5, 1.0)) <= harness._TIE_TOLERANCE


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

    @pytest.mark.parametrize(
        "field,value", [("rounds", 1000.0), ("master_seed", 1.5), ("master_seed", "7")]
    )
    def test_non_integer_rejected(self, field, value):
        # int(1.5) would run seed 1's stream under another seed's name
        with pytest.raises(errors.InvalidConfig, match=f"{field} must be an integer"):
            RunConfig(scheme="present", **{field: value})

    def test_numpy_integers_accepted(self):
        as_int = RunConfig(scheme="present", rounds=500, master_seed=3)
        as_numpy = RunConfig(scheme="present", rounds=np.int64(500), master_seed=np.uint64(3))
        assert _run_counts(as_numpy) == _run_counts(as_int)

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
    def _replay(config, flags, draws):
        """Per-round outcomes of the run's walk, down the one table of both
        trees from each round's root as ``_run_counts`` walks them, and the
        joint leaves it reached."""
        trees = _round_trees(config)
        leaves = [leaf for tree in trees for leaf in tree.leaves]
        reached = _walk(_walk_tables(trees), ~flags, draws).tolist()
        return [tuple(leaves[leaf]) for leaf in reached], set(reached)

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
                walked, hit = self._replay(config, flags, draws)
                assert walked == scalar_round_outcomes(config, flags, draws), (seed, fraction)
                reached |= hit
        # the replay compared every path of both trees: the joint leaves are
        # the check leaves, then the message leaves
        check_tree, message_tree = _round_trees(config)
        assert len(reached) == len(check_tree.leaves) + len(message_tree.leaves)

    def test_three_way_choice_picks_as_int_u_times_3(self):
        # every u = k * 2**-53 within 2**17 steps of 1/3 and of 2/3, and
        # both ends of [0, 1): the Born thresholds of a fair three-way
        # choice, also as a walked tree level, pick int(u * 3) % 3, the
        # oracle's check basis
        steps = np.arange(-(2**17), 2**17 + 1)
        k = np.concatenate([round(2**53 / 3) + steps, round(2**54 / 3) + steps, [0, 2**53 - 1]])
        u = k * 2.0**-53
        thirds = (u * 3).astype(np.int64) % 3
        born = (np.cumsum(np.full(3, 1 / 3))[:, None] <= u).sum(axis=0)
        assert np.array_equal(born, thirds)
        tree = _BranchTree()
        tree.choose("basis", CHECK_BASES)
        tree.finish(lambda node: node["basis"])
        walked = _walk(_walk_tables([tree]), np.zeros(len(u), dtype=np.int64), u[:, None])
        assert np.array_equal(walked, thirds)

    def test_walk_table_picks_as_reference(self):
        # at every node of every config's walk table, for draws at both
        # ends of [0, 1) and at and beside each cumulative threshold, the
        # walk's pick equals the scalar Born-rule reference on the node's
        # child probabilities
        mismatches = []
        for scheme, attack, init, basis in VALID_CONFIGS:
            trees = _round_trees(RunConfig(
                scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
            ))
            thresholds, successor, _ = _walk_tables(trees)
            stride = len(thresholds) + 1
            # node probabilities in the tables' numbering, roots excluded:
            # depth by depth, each tree's children in tree order, and one
            # pass-through child per leaf of a tree that ended above
            probs = np.concatenate([
                tree.levels[depth].prob if depth < len(tree.levels) else np.ones(len(tree.leaves))
                for depth in range(max(len(tree.levels) for tree in trees))
                for tree in trees
            ])
            for node in range(len(trees) + len(probs) - sum(len(tree.leaves) for tree in trees)):
                finite = thresholds[np.isfinite(thresholds[:, node]), node]
                children = successor[node * stride + np.arange(len(finite) + 1)]
                child_probs = probs[children - len(trees)]
                us = [0.0, np.nextafter(1.0, 0.0)]
                for t in finite.tolist():
                    us += [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]
                mismatches += [
                    (scheme, attack, init, basis, node, u)
                    for u in us
                    if (thresholds[:, node] <= u).sum() != sample_index(child_probs, u)
                ]
        assert mismatches == []

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

    def test_seeded_stats_of_every_config_pinned(self):
        for case in MC_COUNTS:
            scheme, attack, init, basis = case["config"]
            config = RunConfig(
                scheme=scheme, attack=attack, rounds=case["rounds"],
                check_fraction=case["check_fraction"], master_seed=case["seed"],
                init_policy=init, check_basis_policy=basis,
            )
            assert run_stats_to_dict(run_monte_carlo(config)) == case["stats"], case["config"]
        forced = [case["stats"] for case in MC_COUNTS if case["rounds"] == 12]
        assert forced and all(stats["check_rounds"] == 1 for stats in forced)

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
