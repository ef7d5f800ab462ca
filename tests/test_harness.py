"""Exact analyzer structure, Monte Carlo determinism, statistics, formats."""

import itertools
import json
import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from make_pins import VALID_CONFIGS, exact_fractions, exact_pin, walk_pin
from oracle_tools import (
    bell_basis,
    cao_check_error,
    cao_keys,
    check_consistent,
    leaf_values,
    node_values,
    recover_bit,
    reference_guess,
    scalar_round,
    third,
    scalar_round_outcomes,
)
from philox_ref import draw_words, mode_word
from wqsc import errors, harness, protocol
from wqsc.harness import (
    RunConfig,
    _BranchTree,
    _binomial_ci,
    _check_flags,
    _draw_block,
    _leaf_totals,
    _rates,
    _round_trees,
    _run_hits,
    _walk,
    _walk_tables,
    exact_analyze,
    exact_result_to_dict,
    identity_reports_to_dict,
    run_monte_carlo,
    run_stats_to_dict,
    to_csv,
    to_json,
)
from wqsc.protocol import CHECK_BASES, _rule_tables
from wqsc.qstate import SHARES, MeasurementBasis, outcome_at, z_basis
from wqsc.states import verify_identities

ATOL = 1e-12

# the most stacked calls that building one level of a branch tree may
# make, on average over a tree: a cao check tree of random basis makes the
# most, 7 in 3 levels (the attack, which adds no level, then the basis
# choice, and each party's measurement, one call per check basis)
STACKED_CALLS_PER_LEVEL = 3

# the bindings through which the tree builders make their stacked calls
# (the gates and measurements inside an attack go through attack_rows)
_STACKED_CALLS = (
    (harness, "measurement_rows"),
    (harness, "apply_1q_rows"),
    (harness, "attack_rows"),
    (protocol, "measurement_rows"),
)


def _count_stacked_calls(monkeypatch, bindings=_STACKED_CALLS) -> list[str]:
    """The names of the stacked calls made through ``bindings`` from now
    on, in call order."""
    calls = []
    for module, name in bindings:
        function = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _f=function, _n=name: calls.append(_n) or _f(*a)
        )
    return calls


# exact_analyze of every valid config (tests/make_pins.py), each rate as
# [float.hex, exact fraction], dicts as ordered pairs: the mass-weighted
# sums over the config's own branch trees
EXACT_RESULTS = json.loads((Path(__file__).parent / "exact_results.json").read_text())


def _nodes(scheme: str, tree) -> list[dict]:
    """The values of a message tree's leaves that Eve's guess and
    :func:`_announced` read."""
    keys = ("initial", "alice") if scheme == "present" else ("bit", "alice", "bob")
    return node_values(tree, "note", *keys)


def _announced(scheme: str, node: dict) -> dict:
    """The public announcements of a message-tree node that Eve's guess
    may read: the initial state and the sender's published outcome
    (present scheme) or the ciphertext (cao scheme)."""
    if scheme == "present":
        return {"initial": node["initial"], "alice": node["alice"]}
    return {"ciphertext": cao_keys(node["alice"], node["bob"])[0] ^ node["bit"]}


# run_stats_to_dict of every valid config at five (seed, rounds, check
# fraction) points: 500, 1999 and 137 rounds; 70 000 rounds, which span
# two blocks; and 12 rounds at seed 0 and fraction 0.09, where the mode
# stream flags no round, so round 0 is forced to be a check round
MC_COUNTS = json.loads((Path(__file__).parent / "mc_counts.json").read_text())

# the digests of every valid config's tree levels and of the walk tables
# compiled from them (tests/make_pins.py): any change to a level's parents
# or shares, or to how the tables hold them, moves one
WALK_TABLES = json.loads((Path(__file__).parent / "walk_tables.json").read_text())

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
        assert _binomial_ci(0, 100) == (0.0, 0.0)

    def test_quarter_by_hand(self):
        # 0.25 +- 1.96 * sqrt(0.25*0.75/100)
        low, high = _binomial_ci(25, 100)
        assert low == pytest.approx(0.16513, abs=1e-3)
        assert high == pytest.approx(0.33487, abs=1e-3)

    def test_all_successes_clamps(self):
        assert _binomial_ci(100, 100) == (1.0, 1.0)

    def test_invalid_counts(self):
        # counts no interval exists for fail, never give an interval
        with pytest.raises(ZeroDivisionError):
            _binomial_ci(1, 0)
        with pytest.raises(ValueError):
            _binomial_ci(5, 4)
        with pytest.raises(ValueError):
            _binomial_ci(-1, 4)


class TestRates:
    def test_unknown_fraction_rounded_once(self):
        # 1 - 477/478 rounds twice and prints 0.0020920502092
        totals = {"check_rounds": 1, "check_errors": 0, "message_rounds": 478,
                  "recovered_correct": 478, "guesses_known": 477, "guesses_correct": 477}
        assert _rates(totals)[3] == 1 / 478
        assert harness._rounded(_rates(totals)[3]) == 0.00209205020921


class TestExactAnalyze:
    @pytest.mark.parametrize("case", EXACT_RESULTS, ids=lambda case: "-".join(case["config"]))
    def test_results_bit_identical_to_enumerators(self, case):
        assert exact_pin(tuple(case["config"])) == case

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_leaf_masses_sum_to_one(self, scheme, attack, init, basis):
        # in whole shares: a tree of d levels holds SHARES**d of them, every
        # leaf at least one
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        for tree in _round_trees(config):
            assert len(tree.masses) == len(leaf_values(tree))
            assert tree.masses.dtype == np.int64 and tree.masses.min() > 0
            assert int(tree.masses.sum()) == SHARES ** len(tree.levels)

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_rates_are_correctly_rounded_fractions(self, scheme, attack, init, basis):
        # each rate is the float nearest the exact fraction of the integer
        # leaf totals that it divides
        result = exact_analyze(scheme, attack, init, basis)
        fractions = exact_fractions(scheme, attack, init, basis)
        for field in fields(result):
            value = getattr(result, field.name)
            if isinstance(value, dict):
                assert value == {name: float(rate) for name, rate in fractions[field.name].items()}
            elif isinstance(value, float):
                assert value == float(fractions[field.name]), field.name

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_rates_are_twelfths(self, scheme, attack, init, basis):
        # a bound that reads no pin: each rate is the float of a multiple
        # of 1/12, exactly
        result = exact_analyze(scheme, attack, init, basis)
        for field in fields(result):
            value = getattr(result, field.name)
            for rate in value.values() if isinstance(value, dict) else [value]:
                if isinstance(rate, float):
                    assert rate == float(Fraction(round(rate * 12), 12)), (field.name, rate)

    def test_paper_detection_rates_exactly(self):
        # 25% for the present scheme under every attack, 1/12 for cao's
        for attack in ("ir-z", "ir-x", "cnot"):
            assert exact_analyze("present", attack).total_error_rate == 0.25
        assert exact_analyze("cao", "cao-ir-z").total_error_rate == 1 / 12

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
        assert result.total_error_rate == 0.5
        assert list(result.conditional_error_rates) == ["phi2"]

    def test_fixed_basis_policy(self):
        result = exact_analyze("cao", "cao-ir-z", check_basis_policy="x")
        assert result.total_error_rate == 0.25

    def test_unsupported_pairs(self):
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("present", "cao-ir-z")
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("cao", "ir-z")
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("bb84", "none")
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("present", "pns")
        # an array of names is no attack, and no numpy truth-value error
        with pytest.raises(errors.UnsupportedPair):
            exact_analyze("present", np.array(["none", "cnot"]))

    def test_policies_checked_as_run_config_checks_them(self):
        # each scheme reads one policy, yet both must be valid, as in RunConfig
        for scheme, attack in (("present", "none"), ("cao", "none")):
            for policies in ({"init_policy": "bogus"}, {"check_basis_policy": "bogus"}):
                with pytest.raises(errors.InvalidConfig):
                    RunConfig(scheme=scheme, attack=attack, **policies)
                with pytest.raises(errors.InvalidConfig):
                    exact_analyze(scheme, attack, **policies)


class TestRoundTrees:
    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_leaves_obey_rules(self, scheme, attack, init, basis):
        # every branch of both trees, so no sampled round can hide one
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        tables = _rule_tables()
        check, message = _round_trees(config)
        pair = lambda tree: (tree.column("alice"), tree.column("bob"))
        if scheme == "present":
            read = [tables["consistent"][pair(check)], tables["recovered"][pair(message)]]
        else:
            read = [tables["check_error"][(check.column("basis"), *pair(check))],
                    tables["keys"][pair(message)]]
        # no leaf reads an entry of -1, which marks outcomes no round reaches
        assert all((entries >= 0).all() for entries in read)
        if attack != "none":
            return
        for leaf in leaf_values(check) + leaf_values(message):
            if leaf.check_pass is None:
                assert leaf.recovered_bit == leaf.message_bit
            else:
                assert leaf.check_pass is True
            assert leaf.eve_guess is None

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_values_are_plain_data(self, scheme, attack, init, basis):
        # every key decodes to plain strings and ints, or None: the outcome
        # labels (Eve's note among them, None where she has no outcome), the
        # initial state, the check basis, the bits
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        for tree in _round_trees(config):
            keys = list(tree._columns)
            assert {"note", "alice", "bob", "initial" if scheme == "present" else "basis"} <= set(keys)
            assert "ancilla" not in keys
            for key in keys:
                values = tree.values(key)
                assert {type(value) for value in values} <= {str, int, type(None)}, key
                assert json.loads(json.dumps(values)) == values, key

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_guess_matches_reference_rule(self, scheme, attack, init, basis):
        # the guess read off the tree equals the rule written by hand for
        # each attack, on every message leaf
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        _, message = _round_trees(config)
        mismatches = [
            (node, leaf.eve_guess)
            for node, leaf in zip(_nodes(scheme, message), leaf_values(message), strict=True)
            if leaf.eve_guess != reference_guess(attack, node["note"], **_announced(scheme, node))
        ]
        assert leaf_values(message) and mismatches == []

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_view_posteriors_are_zero_half_or_one(self, scheme, attack, init, basis):
        # every view Eve can hold pins the bit down or says nothing of it,
        # so abstaining at a tie loses her nothing
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        _, message = _round_trees(config)
        masses: dict = {}
        nodes = _nodes(scheme, message)
        for node, leaf, mass in zip(nodes, leaf_values(message), message.masses.tolist(), strict=True):
            view = (node["note"], *_announced(scheme, node).values())
            masses.setdefault(view, [0, 0])[leaf.message_bit] += mass
        for m0, m1 in masses.values():
            assert Fraction(m1, m0 + m1) in (0, Fraction(1, 2), 1)

    @pytest.mark.parametrize("scheme,attack", sorted({config[:2] for config in VALID_CONFIGS}))
    def test_random_policy_tree_is_union_of_fixed_policy_trees(self, scheme, attack):
        # a random policy's tree, cut to the leaves where the policy's key
        # has code g, is fixed policy g's tree leaf by leaf, in the same
        # order, each leaf of 1/len(policies) of its mass, in the shares of
        # one more level; the key is drawn
        # in both present trees, but only in cao's check tree
        key, policies, drawn_in = {
            "present": ("initial", harness.INIT_POLICIES[1:], (0, 1)),
            "cao": ("basis", CHECK_BASES, (0,)),
        }[scheme]
        random_trees = harness._config_trees(scheme, attack, "random")
        for code, policy in enumerate(policies):
            fixed_trees = harness._config_trees(scheme, attack, policy)
            for tree, fixed in [(random_trees[t], fixed_trees[t]) for t in drawn_in]:
                at = tree.column(key) == code
                assert tree._columns.keys() == fixed._columns.keys()
                for name in fixed._columns:
                    assert np.array_equal(tree.column(name)[at], fixed.column(name)), name
                for column, expected in zip(tree.leaf_columns, fixed.leaf_columns, strict=True):
                    assert np.array_equal(column[at], expected)
                assert np.array_equal(tree.masses[at], fixed.masses * (SHARES // len(policies)))
            # so each group's conditional rates are its fixed policy's
            mixed = exact_analyze(scheme, attack)
            fixed = exact_analyze(scheme, attack, **{
                "present": {"init_policy": policy}, "cao": {"check_basis_policy": policy}
            }[scheme])
            for rates, fixed_rates in (
                (mixed.conditional_error_rates, fixed.conditional_error_rates),
                (mixed.conditional_leak_rates, fixed.conditional_leak_rates),
            ):
                for group, rate in fixed_rates.items():
                    assert rates[group] == rate, group


def _oracle_table(rule, first, second, absent=-1) -> np.ndarray:
    """The oracle's ``rule`` at ``[a, b]`` for outcome ``a`` of ``first`` and
    ``b`` of ``second``, or ``absent`` where it finds no such round."""
    def entry(a: int, b: int):
        try:
            return rule(outcome_at(first, a), outcome_at(second, b))
        except KeyError:
            return absent

    rows, columns = (2 ** len(basis.qubits) for basis in (first, second))
    return np.array([[entry(a, b) for b in range(columns)] for a in range(rows)], dtype=np.int64)


# the package's rule tables as the oracle states them, on outcome labels
ORACLE_TABLES = {
    "consistent": lambda: _oracle_table(check_consistent, z_basis(1, 2), z_basis(3)),
    "recovered": lambda: _oracle_table(recover_bit, z_basis(1, 2), z_basis(3)),
    "check_error": lambda: np.array([
        _oracle_table(partial(cao_check_error, basis),
                      MeasurementBasis(basis, (1, 2)), MeasurementBasis(basis, (3, 4)))
        for basis in CHECK_BASES
    ]),
    "keys": lambda: _oracle_table(cao_keys, bell_basis(1, 2), bell_basis(3, 4), (-1, -1)),
}


class TestRuleTables:
    @pytest.mark.parametrize("name", ORACLE_TABLES)
    def test_entries_equal_oracle_rules(self, name):
        # every outcome pair of a table, -1 entries included, against the
        # oracle's own statement of its rule
        assert _same(_rule_tables()[name], ORACLE_TABLES[name]())

    def test_tables_derived_once_per_process(self, monkeypatch):
        # the first build derives the check-error tables from the w4
        # state's measurements; once the tables exist, building the same
        # configs again measures nothing for them. The tree memo is emptied
        # before each build, so that each one builds
        calls = []
        measure = protocol.measurement_rows
        monkeypatch.setattr(protocol, "measurement_rows", lambda *a: calls.append(a) or measure(*a))
        _rule_tables.cache_clear()
        configs = [
            RunConfig(scheme="present", attack="cnot"),
            RunConfig(scheme="cao", attack="cao-ir-z"),
        ]
        built = []
        for config in configs:
            harness._config_trees.cache_clear()
            built.append(_round_trees(config))
        assert len(calls) == 2 * len(CHECK_BASES)
        calls.clear()
        for config, first in zip(configs, built):
            harness._config_trees.cache_clear()
            assert all(tree is not old for tree, old in zip(_round_trees(config), first))
        assert calls == [] and _rule_tables.cache_info().misses == 1


def _policy(scheme: str, init: str, basis: str) -> str:
    return init if scheme == "present" else basis


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays are equal byte for byte, dtype and shape too."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _bit0_branch(tree, depth: int):
    """The first ``depth`` levels, as (parent, share), of the subtree
    under a message tree's first root child (bit 0); that subtree's masses
    in whole shares from 1 at its root; and a function that gives a key's codes at its
    deepest nodes. At every depth the subtree's nodes come first, in
    (parent, outcome) order, so each of its levels is a prefix of the tree's."""
    counts, levels, masses = [None, 1], [], np.ones(1, dtype=np.int64)
    for level in tree.levels[1 : depth + 1]:
        count = int(np.searchsorted(level.parent, counts[-1]))
        parent, share = level.parent[:count], level.share[:count]
        levels.append((parent, share))
        masses = masses[parent] * share
        counts.append(count)

    def codes(key: str) -> np.ndarray:
        # the tree keeps codes at its leaves; scattered back up through
        # the deeper levels' parents (every measured node has a child),
        # they are the codes of the subtree's deepest depth
        codes = tree.column(key)
        for level in reversed(tree.levels[depth + 1 :]):
            codes, children = np.empty(level.parent[-1] + 1, codes.dtype), codes
            codes[level.parent] = children
        return codes[: counts[-1]]

    return levels, masses, codes


class TestConfigTrees:
    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_second_run_and_analysis_build_nothing(
        self, monkeypatch, scheme, attack, init, basis
    ):
        # after a config's first run and analysis, another run at another
        # seed and round count, and another analysis, read the trees that
        # the first ones built: no stacked call is made again, and the rule
        # tables are not derived again from the w4 state's measurements
        calls = _count_stacked_calls(monkeypatch)
        harness._config_trees.cache_clear()
        _rule_tables.cache_clear()
        config = RunConfig(
            scheme=scheme, attack=attack, rounds=500, master_seed=3,
            init_policy=init, check_basis_policy=basis,
        )
        run_monte_carlo(config)
        expected = exact_analyze(scheme, attack, init, basis)
        assert "measurement_rows" in calls and set(calls) - {"measurement_rows"}
        calls.clear()
        run_monte_carlo(replace(config, rounds=777, master_seed=4))
        assert exact_analyze(scheme, attack, init, basis) == expected
        assert calls == []

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_memoized_trees_are_read_only(self, scheme, attack, init, basis):
        key = (scheme, attack, _policy(scheme, init, basis))
        trees = harness._config_trees(*key)
        assert harness._config_trees(*key) is trees
        for tree in trees:
            levels = [array for level in tree.levels for array in (level.parent, level.share)]
            codes = [entry[0] for entry in tree._columns.values()]
            for array in (tree.masses, *tree.leaf_columns, *levels, *codes):
                with pytest.raises(ValueError):
                    array[...] = 0

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_walk_compiled_once_with_the_trees(self, monkeypatch, scheme, attack, init, basis):
        # exact analysis compiles no walk; a config's first run compiles
        # one, and later runs at other seeds and round counts (one longer
        # than a block) compile none, until the memo is emptied
        calls = []
        compile_walk = harness._walk_tables
        monkeypatch.setattr(
            harness, "_walk_tables", lambda trees: calls.append(trees) or compile_walk(trees)
        )
        harness._config_trees.cache_clear()
        config = RunConfig(scheme=scheme, attack=attack, rounds=500, master_seed=3,
                           init_policy=init, check_basis_policy=basis)
        exact_analyze(scheme, attack, init, basis)
        assert calls == []
        run_monte_carlo(config)
        assert len(calls) == 1 and calls[0] is _round_trees(config)
        for seed, rounds in ((4, 777), (5, harness._BLOCK_ROUNDS + 13)):
            run_monte_carlo(replace(config, rounds=rounds, master_seed=seed))
        assert len(calls) == 1
        harness._config_trees.cache_clear()
        run_monte_carlo(config)
        assert len(calls) == 2 and calls[1] is not calls[0]

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_compiled_walk_and_indicators_are_read_only(self, scheme, attack, init, basis):
        trees = harness._config_trees(scheme, attack, _policy(scheme, init, basis))
        tables = trees.walk
        assert trees.walk is tables  # kept in the entry, not compiled per read
        count = sum(len(tree.masses) for tree in trees)
        assert trees.indicators.dtype == bool and trees.indicators.shape == (6, count)
        assert isinstance(tables, tuple)
        # exact analysis's weight rows too: the masses, then one row per group
        weights, labels = trees.exact_weights
        assert trees.exact_weights is trees.exact_weights
        assert weights.shape == (1 + sum(map(len, labels.values())), count)
        for array in (*tables, trees.indicators, weights):
            with pytest.raises(ValueError):
                array[...] = 0

    @pytest.mark.parametrize(
        "scheme,attack,init,basis",
        [config for config in VALID_CONFIGS if config[0] == "present" or config[3] == "bell"],
    )
    def test_check_tree_is_the_message_trees_bit0_branch(self, scheme, attack, init, basis):
        # a check round is a message round of bit 0 that ends at Bob's
        # measurement (the present scheme), or a key round without the
        # ciphertext (cao's Bell basis), so the check tree built from its
        # own root is the message tree's bit-0 branch down to that level
        check, message = harness._config_trees(
            scheme, attack, _policy(scheme, init, basis)
        )
        assert message.levels[0].share.tolist() == [SHARES // 2] * 2  # the message bit
        # ends at Bob: his measurement is the last step that sets a key
        # (``_columns`` keeps its keys in the order the build first set them)
        assert len(check.levels) > 0 and list(check._columns)[-1] == "bob"
        levels, masses, codes = _bit0_branch(message, len(check.levels))
        assert len(levels) == len(check.levels)
        for level, (parent, share) in zip(check.levels, levels):
            assert _same(level.parent, parent) and _same(level.share, share)
        assert _same(check.masses, masses)
        for key in ("alice", "bob"):
            assert _same(check.column(key), codes(key)), key

    @pytest.mark.parametrize(
        "scheme,attack,init,basis", [config for config in VALID_CONFIGS if config[0] == "cao"]
    )
    def test_cao_message_tree_is_the_same_for_every_check_basis(self, scheme, attack, init, basis):
        # each config builds its own message tree; a key round's basis is
        # Bell whatever the check-basis policy, so all four are one tree
        message = harness._config_trees(scheme, attack, basis)[1]
        bell = harness._config_trees(scheme, attack, "bell")[1]
        assert (message is bell) == (basis == "bell")
        assert list(message._columns) == list(bell._columns)
        for key in bell._columns:
            assert _same(message.column(key), bell.column(key)), key
            assert message.values(key) == bell.values(key), key
        assert _same(message.masses, bell.masses)
        assert len(message.leaf_columns) == len(bell.leaf_columns) == 4
        for ours, theirs in zip(message.leaf_columns, bell.leaf_columns):
            assert _same(ours, theirs)

    def test_seed_sweep_keeps_one_entry(self):
        harness._config_trees.cache_clear()
        for seed, rounds in itertools.product(range(50), (10, 100, 1000)):
            run_monte_carlo(RunConfig(scheme="present", attack="cnot", rounds=rounds,
                                      master_seed=seed))
        assert harness._config_trees.cache_info().currsize == 1

    def test_entries_are_the_configs_keys(self):
        # a config's exact analysis reads its own trees, the one entry its
        # runs walk, whatever its policy: a random policy's groups are
        # read off its own trees, not off the fixed policies' entries
        for scheme, attack, init, basis in VALID_CONFIGS:
            harness._config_trees.cache_clear()
            exact_analyze(scheme, attack, init, basis)
            assert harness._config_trees.cache_info().currsize == 1
        harness._config_trees.cache_clear()
        for scheme, attack, init, basis in VALID_CONFIGS:
            run_monte_carlo(RunConfig(scheme=scheme, attack=attack, rounds=100,
                                      init_policy=init, check_basis_policy=basis))
            exact_analyze(scheme, attack, init, basis)
        assert harness._config_trees.cache_info().currsize == len(VALID_CONFIGS) == 20

    def test_leaf_counts_tell_a_wrong_guess_from_a_right_one(self):
        # Eve's guess is right wherever she guesses in every modelled
        # attack, so no config's leaves tell guesses_known from
        # guesses_correct; hand-made trees where she guesses 1 whatever
        # the bit, and a check tree of one failing leaf, do
        check, message = _BranchTree(), _BranchTree()
        check.finish(check_pass=np.array([0]))
        message.choose("bit", (0, 1))
        message.finish(message_bit=message.column("bit"), recovered_bit=np.array([0, 0]),
                       eve_guess=np.array([1, 1]))
        trees = harness._ConfigTrees((check, message))
        assert _leaf_totals(trees, np.array([[1, 2, 3]])) == [{
            "check_rounds": 1, "check_errors": 1, "message_rounds": 5,
            "recovered_correct": 2, "guesses_known": 5, "guesses_correct": 3,
        }]


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

    @pytest.mark.parametrize("field,error,match", [
        ("scheme", errors.UnsupportedPair, "unknown scheme"),
        ("attack", errors.UnsupportedPair, "unknown attack"),
        ("init_policy", errors.InvalidConfig, "init_policy .* invalid"),
        ("check_basis_policy", errors.InvalidConfig, "check_basis_policy .* invalid"),
    ], ids=["scheme", "attack", "init", "basis"])
    @pytest.mark.parametrize("value", [1, None, ("none",), np.array(["random", "none"])],
                             ids=["int", "none", "tuple", "array"])
    def test_non_string_name_rejected(self, field, error, match, value):
        # a scheme, attack or policy is named by its string; anything else
        # names nothing, and an array is no numpy truth-value error
        with pytest.raises(error, match=match):
            RunConfig(**{"scheme": "present", field: value})

    @pytest.mark.parametrize("scheme,policies,rejected", [
        ("cao", {"init_policy": "phi1"}, "init_policy 'phi1'"),
        ("cao", {"init_policy": "phi2", "check_basis_policy": "x"}, "init_policy 'phi2'"),
        ("present", {"check_basis_policy": "x"}, "check_basis_policy 'x'"),
        ("present", {"init_policy": "phi1", "check_basis_policy": "bell"},
         "check_basis_policy 'bell'"),
    ])
    def test_other_schemes_policy_rejected(self, scheme, policies, rejected):
        # a policy that the scheme never reads is an error, not ignored
        match = f"{rejected} does not apply to '{scheme}'"
        with pytest.raises(errors.InvalidConfig, match=match):
            RunConfig(scheme=scheme, **policies)
        with pytest.raises(errors.InvalidConfig, match=match):
            exact_analyze(scheme, "none", **policies)

    @pytest.mark.parametrize(
        "field,value", [("rounds", 1000.0), ("master_seed", 1.5), ("master_seed", "7")]
    )
    def test_non_integer_rejected(self, field, value):
        # int(1.5) would run seed 1's stream under another seed's name
        with pytest.raises(errors.InvalidConfig, match=f"{field} must be an integer"):
            RunConfig(scheme="present", **{field: value})

    @pytest.mark.parametrize("field", ["rounds", "master_seed"])
    def test_bool_rejected(self, field):
        # bool is an int subclass: True would run as 1 (rounds then fails
        # the check-round rule with a misleading message)
        for value in (True, False, np.True_):
            with pytest.raises(errors.InvalidConfig, match=f"{field} must be an integer"):
                RunConfig(scheme="present", **{field: value})

    def test_non_real_check_fraction_rejected(self):
        # a string or None would fail the range comparison with a TypeError
        for value in ("0.5", None, 0.5j):
            with pytest.raises(errors.InvalidConfig, match="check_fraction must be a real"):
                RunConfig(scheme="present", check_fraction=value)
        as_float = RunConfig(scheme="present", rounds=500, check_fraction=0.25)
        for as_numpy in (np.float64(0.25), np.float32(0.25), np.float16(0.25)):
            config = RunConfig(scheme="present", rounds=500, check_fraction=as_numpy)
            assert np.array_equal(_run_hits(config), _run_hits(as_float))
        # a Fraction just below 1 is real and in (0, 1) too; its cutoff
        # ceil(f * 2**53) << 11 is 2**64, one past the largest word, so
        # every round is a check round, as the float rule u < f says
        nearly_one = Fraction(2**60 - 1, 2**60)
        config = RunConfig(scheme="present", rounds=10, check_fraction=nearly_one)
        assert run_monte_carlo(config).check_rounds == 10

    def test_check_round_rule_in_float64(self):
        # 3 x float16(1/3) is 4095/4096, below one check round, though a
        # float16 product rounds it up to 1; at 10**10 rounds a float16
        # product would overflow with a RuntimeWarning
        with pytest.raises(errors.InvalidConfig, match="at least one check round"):
            RunConfig(scheme="present", rounds=3, check_fraction=np.float16(1 / 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RunConfig(scheme="present", rounds=10**10, check_fraction=np.float16(1 / 3))
        # float64 products of 1 stay accepted, though the exact ratio of
        # 3 x (1/3 as a float64) is below 1
        RunConfig(scheme="present", rounds=3, check_fraction=1 / 3)
        RunConfig(scheme="present", rounds=7, check_fraction=1 / 7)

    def test_numpy_integers_accepted(self):
        as_int = RunConfig(scheme="present", rounds=500, master_seed=3)
        as_numpy = RunConfig(scheme="present", rounds=np.int64(500), master_seed=np.uint64(3))
        assert np.array_equal(_run_hits(as_numpy), _run_hits(as_int))

    def test_at_least_one_check_round_forced(self, monkeypatch):
        # fraction small enough that some seeds draw no check round
        configs = [
            RunConfig(scheme="present", rounds=12, check_fraction=0.09, master_seed=seed)
            for seed in range(30)
        ]
        for config in configs:
            assert _check_flags(config, 0, config.rounds, np.random.Philox()).sum() >= 1
        whole = [_run_hits(config) for config in configs]
        # in blocks of 4 the rule still looks at the whole run
        monkeypatch.setattr(harness, "_BLOCK_ROUNDS", 4)
        for config, hits in zip(configs, whole):
            bitgen = np.random.Philox()
            blocked = [_check_flags(config, lo, 4, bitgen) for lo in range(0, 12, 4)]
            whole_run = _check_flags(config, 0, config.rounds, bitgen)
            assert np.array_equal(np.concatenate(blocked), whole_run)
            harness._philox().random_raw(3)  # left mid-buffer, re-keyed by the rescan too
            assert np.array_equal(_run_hits(config), hits)


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
    def _replay(config, flags, words):
        """Per-round outcomes of the run's walk, down the one table of both
        trees from each round's root as ``_run_hits`` walks them, and the
        joint leaves it reached."""
        trees = _round_trees(config)
        leaves = [leaf for tree in trees for leaf in leaf_values(tree)]
        reached = _walk(_walk_tables(trees), ~flags, words).tolist()
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
                bitgen = np.random.Philox()
                flags = _check_flags(config, 0, config.rounds, bitgen)
                words = _draw_block(seed, 0, config.rounds, bitgen)
                walked, hit = self._replay(config, flags, words)
                draws = (words >> 11) * 2.0**-53  # the doubles of Generator.random
                assert walked == scalar_round_outcomes(config, flags, draws), (seed, fraction)
                reached |= hit
        # the replay compared every path of both trees: the joint leaves are
        # the check leaves, then the message leaves
        check_tree, message_tree = _round_trees(config)
        assert len(reached) == len(check_tree.masses) + len(message_tree.masses)

    @staticmethod
    def _midpoint_row(tree, leaf: int) -> np.ndarray:
        """A draw row that follows the path to ``leaf``: at each level, the
        midpoint ``(C(i-1) + C(i)) / 48`` of the chosen child ``i``'s
        interval, ``C`` its siblings' running shares; 0.5 in the columns
        below the tree's deepest level."""
        row = np.full(harness._DRAWS_PER_ROUND, 0.5)
        node = leaf
        for depth in reversed(range(len(tree.levels))):
            level = tree.levels[depth]
            first = np.flatnonzero(level.parent == level.parent[node])[0]
            before = int(level.share[first:node].sum())
            row[depth] = (2 * before + int(level.share[node])) / (2 * SHARES)
            node = level.parent[node]
        return row

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_midpoint_draws_reach_each_leaf(self, scheme, attack, init, basis):
        # at leaf resolution, for every leaf of both trees: a draw row down
        # the middle of the leaf's path walks to that leaf, and the oracle's
        # round on the same row ends with its outcome and draws its values
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        trees = _round_trees(config)
        tables = _walk_tables(trees)
        keys = ("note", "alice", "bob", "initial" if scheme == "present" else "basis")
        first = 0
        for root, tree in enumerate(trees):
            nodes = node_values(tree, *keys)
            for leaf, (node, outcome) in enumerate(zip(nodes, leaf_values(tree), strict=True)):
                # the word of the midpoint draw, and that word's own draw
                words = (self._midpoint_row(tree, leaf) * 2**53).astype(np.uint64)
                assert _walk(tables, np.array([root]), (words << 11)[None]).tolist() == [first + leaf]
                seen = {}
                assert scalar_round(config, root == 0, words * 2.0**-53, seen) == tuple(outcome)
                assert seen == {key: node[key] for key in seen}
            first += len(tree.masses)

    def test_three_way_choice_picks_exact_thirds(self):
        # every u = k * 2**-53 within 2**17 steps of 1/3 and of 2/3, and
        # both ends of [0, 1): a fair three-way choice, as a walked tree
        # level and as the oracle's check basis, picks floor(3u) in exact
        # integers, (3k) >> 53. Just below 2/3, at k = round(2**54 / 3),
        # the float product u * 3 rounds up to 2.0
        steps = np.arange(-(2**17), 2**17 + 1)
        k = np.concatenate([round(2**53 / 3) + steps, round(2**54 / 3) + steps, [0, 2**53 - 1]])
        thirds = (k * 3) >> 53
        edge = round(2**54 / 3)
        assert edge * 2.0**-53 * 3 == 2.0 and thirds[k == edge].tolist() == [1]
        tree = _BranchTree()
        tree.choose("basis", CHECK_BASES)
        raw = k.astype(np.uint64) << 11
        walked = _walk(_walk_tables([tree]), np.zeros(len(k), dtype=np.int64), raw[:, None])
        assert np.array_equal(walked, thirds)
        assert [third(u) for u in (k * 2.0**-53).tolist()] == thirds.tolist()
        # the oracle's cao check round draws its basis by that rule
        config = RunConfig(scheme="cao", attack="none")
        for word in (2**53 // 3, 2**53 // 3 + 1, 2**54 // 3, 2**54 // 3 + 1):
            seen = {}
            scalar_round(config, True, np.array([word * 2.0**-53, 0.5, 0.5]), seen)
            assert seen["basis"] == CHECK_BASES[(word * 3) >> 53], word

    def test_walk_table_picks_as_reference(self):
        # at every depth of every config's walk table, in integers: node
        # n's entries n * 24 .. n * 24 + 23 hold each of its children
        # exactly its share times; and from every node, the first and the
        # last 53-bit word of each bucket q of 0..23, ceil(q * 2**53 / 24)
        # and ceil((q + 1) * 2**53 / 24) - 1, each with its low 11 raw
        # bits clear and set, walk to the child whose running shares
        # bracket q
        q = np.arange(SHARES)
        first, last = -(-q * 2**53 // SHARES), -(-(q + 1) * 2**53 // SHARES) - 1
        assert first[0] == 0 and last[-1] == 2**53 - 1 and (first[1:] == last[:-1] + 1).all()
        m = np.concatenate([first, last, first, last]).astype(np.uint64) << 11
        raw = m | np.repeat(np.uint64([0, 0x7FF]), 2 * SHARES)
        bucket = np.tile(q, 4)
        mismatches = []
        for scheme, attack, init, basis in VALID_CONFIGS:
            trees = _round_trees(RunConfig(
                scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
            ))
            tables = _walk_tables(trees)
            assert len(tables) == max(len(tree.levels) for tree in trees)
            # the joined depth: each tree's nodes after the trees' before
            # it; a tree that ended above passes each leaf on, share 24
            nodes = [1] * len(trees)
            for depth, table in enumerate(tables):
                levels = [
                    (tree.levels[depth].parent, tree.levels[depth].share) if depth < len(tree.levels)
                    else (np.arange(count), np.full(count, SHARES))
                    for tree, count in zip(trees, nodes)
                ]
                starts = np.cumsum([0] + nodes)
                parents = np.concatenate([start + parent for start, (parent, _) in zip(starts, levels)])
                share = np.concatenate([share for _, share in levels])
                assert table.dtype.kind == "i" and len(table) == SHARES * starts[-1]
                for node in range(starts[-1]):
                    children = np.flatnonzero(parents == node)
                    held = np.bincount(table[node * SHARES : (node + 1) * SHARES], minlength=len(share))
                    assert held[children].tolist() == share[children].tolist()
                    assert held[children].sum() == SHARES  # so no other child is held
                    picks = children[np.searchsorted(np.cumsum(share[children]), bucket, side="right")]
                    walked = _walk((table,), np.full(len(raw), node), raw[:, None])
                    mismatches += [
                        (scheme, attack, init, basis, depth, node, int(w))
                        for w, child, pick in zip(raw, walked.tolist(), picks.tolist())
                        if child != pick
                    ]
                nodes = [len(parent) for parent, _ in levels]
            # the deepest children are the joined leaves, trees in order
            assert nodes == [len(tree.masses) for tree in trees]
        assert mismatches == []

    @pytest.mark.parametrize("fraction", [
        0.09, 0.1, 0.2, 1 / 3, 0.5, 0.8, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
    ])
    def test_check_flags_cut_as_float_rule(self, monkeypatch, fraction):
        # a round is a check round iff its word w < ceil(f * 2**53), the
        # float rule u < f at u = w * 2**-53: at both ends of the words, at
        # and beside the cutoff, and on whole blocks of the mode stream
        # (runs of 4096 rounds, which no RunConfig allows at the smallest f)
        for seed in (0, 5, 2**64 - 1):
            run = SimpleNamespace(master_seed=seed, check_fraction=fraction, rounds=4096)
            key = np.array([seed, harness._MODE_STREAM_TAG], np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).random(4096) < fraction
            expected[0] |= not expected.any()  # the forced check round
            assert np.array_equal(_check_flags(run, 0, 4096, np.random.Philox()), expected)
        cutoff = math.ceil(fraction * 2**53)
        raw = (0, (cutoff - 1) << 11, (cutoff << 11) - 1, cutoff << 11, (cutoff + 1) << 11, 2**64 - 1)
        words = np.array([w for w in raw if w < 2**64], dtype=np.uint64)
        monkeypatch.setattr(harness, "_words", lambda *_: words)
        run = SimpleNamespace(master_seed=0, check_fraction=fraction, rounds=len(words))
        expected = (words >> 11) * 2.0**-53 < fraction
        expected[0] |= not expected.any()
        assert np.array_equal(_check_flags(run, 0, len(words), None), expected), words

    def test_words_are_generator_random(self):
        # the walk's words rest on numpy's double being (raw >> 11) * 2**-53:
        # for the same key and advance, raw words give Generator.random's
        # doubles, and a block's words give the float draw table's rows
        for seed, start, count in ((0, 0, 1), (7, 12, 1001), (2**64 - 1, 2**40 + 4, 64)):
            for tag in (harness._DRAW_STREAM_TAG, harness._MODE_STREAM_TAG):
                key = np.array([seed, tag], np.uint64)
                raw = np.random.Philox(key=key).advance(start).random_raw(count)
                generator = np.random.Generator(np.random.Philox(key=key).advance(start))
                assert np.array_equal((raw >> 11) * 2.0**-53, generator.random(count))
            key = np.array([seed, harness._DRAW_STREAM_TAG], np.uint64)
            generator = np.random.Generator(np.random.Philox(key=key).advance(2 * start))
            table = generator.random((count, harness._DRAWS_PER_ROUND))
            words = _draw_block(seed, start, count, np.random.Philox())
            assert words.dtype == np.uint64 and np.array_equal((words >> 11) * 2.0**-53, table)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_draws_follow_the_stated_scheme(self, seed):
        # philox4x64-10/v1, as a pure-Python Philox states it: round r's
        # draw words and mode word, at the first rounds, across the edge of
        # the first block and near the largest round count
        for start, count in ((0, 2), (harness._BLOCK_ROUNDS - 1, 3), (harness._MAX_ROUNDS - 2, 2)):
            words = _draw_block(seed, start, count, np.random.Philox())
            expected = [draw_words(seed, r) for r in range(start, start + count)]
            assert (words >> 11).tolist() == expected, (seed, start)
        for start in (0, harness._BLOCK_ROUNDS - 32, harness._MAX_ROUNDS - 64):
            run = SimpleNamespace(master_seed=seed, check_fraction=0.5, rounds=harness._MAX_ROUNDS)
            flags = _check_flags(run, start, 64, np.random.Philox())
            expected = [mode_word(seed, r) < 2**52 for r in range(start, start + 64)]
            assert flags.tolist() == expected, (seed, start)

    def test_shared_generator_carries_nothing_between_runs(self):
        # every block re-keys the process's one generator, so a run counts
        # the same after one that left it mid-buffer or at another config's
        # last block as it does on a new one
        configs = [RunConfig(scheme="cao", attack="cao-ir-z", rounds=rounds, master_seed=9)
                   for rounds in (2000, 20001)]
        fresh = []
        for config in configs:
            harness._philox.cache_clear()
            fresh.append(_run_hits(config))
        assert harness._philox() is harness._philox()
        other = RunConfig(scheme="present", attack="cnot", rounds=20001, master_seed=3)
        for disturb in (lambda: harness._philox().random_raw(3), lambda: _run_hits(other)):
            for config, hits in zip(configs, fresh):
                disturb()
                assert np.array_equal(_run_hits(config), hits)

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
        whole = _run_hits(config)
        # every round ends at one leaf, and every check round at one of the check tree's
        flags = _check_flags(config, 0, config.rounds, np.random.Philox())
        assert whole.sum() == config.rounds
        assert whole[: len(_round_trees(config)[0].masses)].sum() == flags.sum()
        monkeypatch.setattr(harness, "_BLOCK_ROUNDS", block)
        assert np.array_equal(_run_hits(config), whole)

    @pytest.mark.parametrize("scheme,attack,init,basis", VALID_CONFIGS)
    def test_tree_build_stacked_calls_bounded_per_level(
        self, monkeypatch, scheme, attack, init, basis
    ):
        # a level's nodes are built by stacked calls, so the stacked calls
        # grow with the levels of a tree, not with its nodes. The rule
        # tables' measurements are not counted: a process derives them once
        calls = _count_stacked_calls(monkeypatch, _STACKED_CALLS[:3])
        config = RunConfig(
            scheme=scheme, attack=attack, init_policy=init, check_basis_policy=basis
        )
        harness._config_trees.cache_clear()  # so that the trees are built here
        trees = _round_trees(config)
        assert 0 < len(calls) <= STACKED_CALLS_PER_LEVEL * sum(len(tree.levels) for tree in trees)

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

    def test_walk_tables_of_every_config_pinned(self):
        assert [case["config"] for case in WALK_TABLES] == [list(config) for config in VALID_CONFIGS]
        for case in WALK_TABLES:
            assert walk_pin(tuple(case["config"])) == case, case["config"]

    def test_seed_42_fixture_counts_pinned(self, attack_mc_runs):
        results, _ = attack_mc_runs
        for (scheme, attack), pinned in SEED42_COUNTS.items():
            config = RunConfig(scheme=scheme, attack=attack, rounds=100_000, master_seed=42)
            assert _leaf_totals(_round_trees(config), _run_hits(config)[None]) == [pinned]
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
