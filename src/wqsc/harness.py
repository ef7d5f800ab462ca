"""Branch trees of a round, exact analyzer, deterministic Monte Carlo runner.

A round of either scheme is described once, as the finite branch tree of
a check round and of a message round (message bit x initial state or
check basis x attack outcome x both parties' measurement outcomes x, for
the entangling probe, the ancilla outcome). Every leaf carries its
outcome and its mass, the product of the branch probabilities on its
path. A tree is built one level at a time: the states of a level's nodes
are the rows of one amplitude array, and each gate, attack or
measurement is one stacked call for the whole level, so the kernel calls
of a build grow with the trees' depth, not with their node count. A
check tree whose rounds are message rounds of bit 0 cut short (every
present round, and cao rounds checked in the Bell basis) is read off the
message tree instead of being built again. No tree or result is cached;
every run and every exact analysis builds the trees it reads. Both
analyses read the same trees:

* the exact analyzer sums the leaves' outcomes weighted by their masses,
  so its check-error and leak rates carry no sampling error;
* the Monte Carlo runner samples every round by walking the trees with
  numpy array operations: each tree level matches one column of the
  round's draw row against its nodes' cumulative probabilities, so no
  Python code runs per round, and the leaves are weighted by their hit
  counts. Levels consume draws in the order of the round's steps, with
  fixed selection rules, so a walk reproduces the round that the test
  suite's one-round oracle plays on the same draw row.
  The draws come from a keyed counter generator: Philox keyed by the
  master seed, with every round owning a fixed block of counter
  positions. A run streams its rounds in fixed blocks, so its memory does
  not grow with the round count, and its results are bit-identical for a
  given config whatever the block size.

Rate conventions: ``error_rate`` is a check-round statistic;
``recovery_accuracy`` and ``eve_leak_rate`` are message-round statistics.
Leak excludes rounds where Eve abstains ("unknown") from both numerator
and denominator by default and reports the abstention fraction
separately; set ``unknown_as_half`` to score abstentions as coin flips
instead.

Serialization: every public result type has a ``*_to_dict`` companion,
numbers are emitted with 12 significant digits, and ``to_json``/``to_csv``
render those dicts.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .attacks import (
    AttackKind,
    AttackModel,
    CAO_ATTACKS,
    PRESENT_ATTACKS,
    PublicTranscript,
    attack_note,
    attack_rows,
    eve_guess,
)
from .errors import InvalidConfig, InvalidCounts, UnsupportedPair
from .protocol import (
    CHECK_BASES,
    _pair_basis,
    cao_check_error,
    cao_keys,
    check_consistent,
    recover_bit,
)
from .qstate import (
    FLIP,
    HADAMARD,
    Branches,
    _basis_tables,
    apply_1q_rows,
    bell_basis,
    branch_rows,
    nonzero_branches,
    z_basis,
)
from .states import IdentityReport, StateLabel, build

SCHEMES = ("present", "cao")

_MODE_STREAM_TAG = 0xFFFFFFFFFFFFFFFF
_DRAW_STREAM_TAG = 0xFFFFFFFFFFFFFFFE


# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class RunConfig:
    scheme: str
    attack: str = AttackKind.NONE.value
    rounds: int = 100_000
    check_fraction: float = 0.5
    master_seed: int = 0
    init_policy: str = "random"  # present scheme: "random", "phi1", "phi2"
    check_basis_policy: str = "random"  # cao scheme: "random", "z", "x", "bell"
    output_format: str = "json"
    unknown_as_half: bool = False

    def __post_init__(self) -> None:
        _validate_pair(self.scheme, self.attack)
        if not 1 <= self.rounds <= _MAX_ROUNDS:
            raise InvalidConfig(f"rounds must lie in 1..{_MAX_ROUNDS}, got {self.rounds}")
        if not 0.0 < self.check_fraction < 1.0:
            raise InvalidConfig(
                f"check_fraction must lie in (0, 1), got {self.check_fraction}"
            )
        if self.rounds * self.check_fraction < 1.0:
            raise InvalidConfig("check_fraction must yield at least one check round")
        if not 0 <= self.master_seed < 2**64:
            raise InvalidConfig("master_seed must fit in 64 bits")
        if self.init_policy not in ("random", "phi1", "phi2"):
            raise InvalidConfig(f"init_policy {self.init_policy!r} invalid")
        if self.check_basis_policy not in ("random", *CHECK_BASES):
            raise InvalidConfig(f"check_basis_policy {self.check_basis_policy!r} invalid")
        if self.output_format not in ("json", "csv"):
            raise InvalidConfig(f"output_format {self.output_format!r} invalid")


@dataclass(frozen=True)
class RunStats:
    """Aggregated Monte Carlo counts and rates for one run."""

    scheme: str
    attack: str
    rounds_total: int
    check_rounds: int
    check_errors: int
    message_rounds: int
    error_rate: float
    error_rate_ci95: tuple[float, float]
    recovery_accuracy: float
    eve_leak_rate: float
    unknown_fraction: float


@dataclass(frozen=True)
class ExactResult:
    """Sampling-free rates from full branch enumeration."""

    scheme: str
    attack: str
    total_error_rate: float
    conditional_error_rates: dict[str, float]
    leak_rate: float
    unknown_fraction: float
    conditional_leak_rates: dict[str, float]
    recovery_accuracy: float


def _validate_pair(scheme: str, attack: str) -> AttackModel:
    if scheme not in SCHEMES:
        raise UnsupportedPair(f"unknown scheme {scheme!r}")
    try:
        kind = AttackKind(attack)
    except ValueError:
        raise UnsupportedPair(f"unknown attack {attack!r}") from None
    allowed = PRESENT_ATTACKS if scheme == "present" else CAO_ATTACKS
    if kind not in allowed:
        raise UnsupportedPair(f"attack {attack!r} does not apply to scheme {scheme!r}")
    return AttackModel(kind)


def binomial_ci(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Normal-approximation binomial interval, clamped to [0, 1]."""
    if trials < 1:
        raise InvalidCounts(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidCounts(f"successes {successes} outside 0..{trials}")
    p = successes / trials
    half = z * math.sqrt(p * (1.0 - p) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


# ---------------------------------------------------------------------------
# branch trees

# how a tree level turns a uniform u into a child index
_BORN = "born"  # first child whose cumulative probability exceeds u
_THIRDS = "thirds"  # int(u * 3) % 3, the Cao engine's basis choice


class _Level(NamedTuple):
    """One draw of a round: the children of every node at one depth, in
    (parent, outcome) order."""

    rule: str
    nodes: int  # nodes at the depth above
    parent: np.ndarray  # per child, the index of its parent node
    prob: np.ndarray  # per child, its branch probability


def _walk_tables(levels: list[_Level]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The tables that walk a tree, with nodes numbered root first, depth
    by depth: ``thresholds[k, n]``, node ``n``'s cumulative probability up
    to its child ``k`` (+inf past its last child); ``successor[n, s]``
    (flattened), the number of node ``n``'s child ``s``, or of its last
    child for ``s`` beyond it; and per level, the most children a node
    has."""
    # the children of all depths, in node order, are nodes 1, 2, ...
    offsets = np.cumsum([0] + [level.nodes for level in levels])
    parent = np.concatenate([start + level.parent for start, level in zip(offsets, levels)])
    count = np.bincount(parent, minlength=offsets[-1])
    first = 1 + np.cumsum(count) - count
    table = np.zeros((offsets[-1], count.max()))
    table[parent, np.arange(1, len(parent) + 1) - first[parent]] = np.concatenate(
        [level.prob for level in levels]
    )
    # zeros pad each row after its children, so a row's sums up to its
    # last child are those of its children alone
    thresholds = np.cumsum(table, axis=1)
    slots = np.arange(table.shape[1] + 1)
    thresholds[slots[:-1] >= count[:, None]] = np.inf
    successor = first[:, None] + np.minimum(slots, count[:, None] - 1)
    widths = [int(count[lo:hi].max()) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return thresholds.T.copy(), successor.ravel(), widths


class _Leaf(NamedTuple):
    """Outcome of one round; None where the round's mode has no such field."""

    message_bit: int | None
    check_pass: bool | None
    recovered_bit: int | None
    eve_guess: int | None


def _branch_rows_by_basis(amps: np.ndarray, groups: dict) -> Branches:
    """:func:`~wqsc.qstate.branch_rows` with the rows ``groups[basis]`` of
    ``amps`` measured in ``basis``: one stacked measurement per basis,
    branches in (row, outcome) order."""
    if len(groups) == 1:
        (basis,) = groups
        return branch_rows(amps, basis)
    parts = [(np.array(rows), branch_rows(amps[rows], basis)) for basis, rows in groups.items()]
    parent = np.concatenate([rows[found.parent] for rows, found in parts])
    outcome = np.concatenate([found.outcome for _, found in parts])
    order = np.lexsort((outcome, parent))
    return Branches(
        parent[order],
        outcome[order],
        np.concatenate([found.prob for _, found in parts])[order],
        lambda: np.concatenate([found.states() for _, found in parts])[order],
    )


class _BranchTree:
    """Finite branch tree of one round, built one level at a time.

    Level ``j`` consumes column ``j`` of the round's draw row, so levels
    are added in the order in which a round takes its random steps (a
    present message round: its bit, its initial state, Eve's outcome,
    the sender's and the receiver's measurements); a step that draws
    nothing (preparing states, a gate, a draw-free attack) adds no level.

    The nodes of the deepest level are built together. Their states are
    the rows of one ``(nodes, 2**n)`` amplitude stack, and each operation
    is one stacked call for the whole level: a gate on the rows it applies
    to, the attack (:func:`~wqsc.attacks.attack_rows`), or a measurement
    (:func:`~wqsc.qstate.branch_rows`, once per distinct basis). These
    compute every node's outcome probabilities, ``ZERO_PROB`` pruning and
    collapse with the code that :func:`~wqsc.qstate.measure` and
    :func:`~wqsc.attacks.attack_branches` run on one row, so a walk
    reaches the leaf that a round played one state at a time (the test
    suite's oracle) reaches on the same draw row. A level's collapsed
    states are computed only when a later operation reads them, so the
    last measurement of a round collapses nothing. Nothing is cached:
    every run and every exact analysis builds its own trees.

    A node's classical values (message bit, outcomes, Eve's note) are a
    dict per node; :meth:`finish` turns the last level's nodes into
    :class:`_Leaf` values. ``masses[i]`` is the probability of the path to
    node (finally leaf) ``i``: the product of its branch probabilities,
    root first. :meth:`first_branch` reads a subtree off a tree as it
    grows. The walk's tables are compiled on the first :meth:`walk`.
    """

    def __init__(self, **root) -> None:
        self.levels: list[_Level] = []
        self.nodes: list[dict] = [root]
        self.masses = np.ones(1)
        self.leaves: list[_Leaf] = []
        self._states = None  # the stack, or a function that computes it
        self._tables = None

    @property
    def states(self) -> np.ndarray:
        """The ``(nodes, 2**n)`` stack of the deepest level's states."""
        if callable(self._states):
            self._states = self._states()
        return self._states

    def _grow(self, rule: str, parent: np.ndarray, prob: np.ndarray, children: list, states):
        self.levels.append(_Level(rule, len(self.nodes), parent, prob))
        self.masses = self.masses[parent] * prob
        self.nodes = children
        self._states = states

    def choose(self, key: str, values: tuple, rule: str = _BORN) -> None:
        """A fair choice of ``key`` among ``values``: one child per value
        under every node, each of probability ``1 / len(values)``. By the
        Born rule a coin picks ``values[0]`` iff ``u < 0.5``; the thirds
        rule picks ``values[int(u * 3) % 3]``."""
        parent = np.arange(len(self.nodes)).repeat(len(values))
        children = [{**node, key: v} for node in self.nodes for v in values]
        states = None if self._states is None else self.states[parent]
        self._grow(rule, parent, np.full(len(parent), 1.0 / len(values)), children, states)

    def _branch(self, found: Branches, key: str, values: list) -> None:
        """Add the level of ``found``; a child's ``key`` is
        ``values[parent][outcome]``."""
        children = [
            {**self.nodes[p], key: values[p][i]}
            for p, i in zip(found.parent.tolist(), found.outcome.tolist())
        ]
        self._grow(_BORN, found.parent, found.prob, children, found.states)

    def step(self, update) -> None:
        """Apply a draw-free transition; ``update(node)`` returns new items."""
        self.nodes = [{**node, **update(node)} for node in self.nodes]

    def prepare(self, state_of) -> None:
        """Give every node the state ``state_of(node)``."""
        self._states = np.array([state_of(node).amplitudes for node in self.nodes])

    def gate(self, qubit: int, gate, where) -> None:
        """Apply ``gate`` to ``qubit`` of every node where ``where(node)``."""
        rows = [i for i, node in enumerate(self.nodes) if where(node)]
        if not rows:
            return
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        # the stack belongs to this tree alone, so it is updated in place
        self.states[rows] = apply_1q_rows(self.states[rows], qubit, gate)

    def measure(self, key: str, basis_of) -> None:
        """Measure every node's state in ``basis_of(node)``, with one
        stacked measurement per distinct basis."""
        groups: dict = {}
        for row, node in enumerate(self.nodes):
            groups.setdefault(basis_of(node), []).append(row)
        num_qubits = self.states.shape[1].bit_length() - 1
        labels = [None] * len(self.nodes)
        for basis, rows in groups.items():
            outcomes = _basis_tables(basis, num_qubits).labels
            for row in rows:
                labels[row] = outcomes
        self._branch(_branch_rows_by_basis(self.states, groups), key, labels)

    def attack(self, model: AttackModel, transit: tuple[int, ...]) -> None:
        if model.kind is AttackKind.NONE:
            # no attack leaves the states as they are
            self.nodes = [{**node, "note": None} for node in self.nodes]
            return
        num_qubits = self.states.shape[1].bit_length() - 1
        probs, forward = attack_rows(model, self.states, transit)
        notes = [attack_note(model, i, num_qubits) for i in range(probs.shape[1])]
        if model.samples:
            self._branch(nonzero_branches(probs, forward), "note", [notes] * len(self.nodes))
            return
        # a draw-free attack has a single branch, of probability 1
        rows = np.arange(len(self.nodes))
        self._states = forward(rows, np.zeros_like(rows))
        self.nodes = [{**node, "note": notes[0]} for node in self.nodes]

    def first_branch(self) -> "_BranchTree":
        """The subtree under the root's first child, down to the deepest
        level: its levels, nodes and masses (from 1 at the new root). At
        every depth that child's descendants are the first nodes, since
        children come in (parent, outcome) order."""
        tree = _BranchTree()
        count = 1  # the subtree's nodes at the depth above
        for level in self.levels[1:]:
            above, count = count, bisect_left(level.parent.tolist(), count)
            parent, prob = level.parent[:count], level.prob[:count]
            tree.levels.append(_Level(level.rule, above, parent, prob))
            tree.masses = tree.masses[parent] * prob
        tree.nodes = self.nodes[:count]
        return tree

    def finish(self, leaf) -> "_BranchTree":
        self.leaves = [leaf(node) for node in self.nodes]
        self.masses = self.masses.tolist()
        self._states = None
        return self

    def walk(self, draws: np.ndarray) -> np.ndarray:
        """Leaf index reached by each row of ``draws``."""
        if self._tables is None:
            self._tables = _walk_tables(self.levels)
        thresholds, successor, widths = self._tables
        stride = len(thresholds) + 1
        node = np.zeros(len(draws), dtype=np.int64)
        for column, (level, width) in enumerate(zip(self.levels, widths)):
            u = draws[:, column]
            pick = node * stride
            if level.rule == _THIRDS:
                pick += (u * 3.0).astype(np.int64) % 3
            else:
                # searchsorted(cumsum, u, side="right"), node by node; a u
                # beyond the last cumulative sum falls to the last child,
                # as in qstate.sample_index
                for child_thresholds in thresholds[:width]:
                    pick += child_thresholds[node] <= u
            node = successor[pick]
        return node - (len(successor) // stride)


def _present_trees(model: AttackModel, init_policy: str) -> tuple[_BranchTree, _BranchTree]:
    """(check-round tree, message-round tree) of the present scheme.

    A check round is a message round of bit 0 (whose encoding is the
    identity) that ends at Bob's measurement, so the check tree is the
    message tree's bit-0 branch down to that level.
    """
    tree = _BranchTree(initial=init_policy)
    tree.choose("bit", (0, 1))
    if init_policy == "random":
        tree.choose("initial", (StateLabel.PHI1.value, StateLabel.PHI2.value))
    tree.prepare(lambda node: build(node["initial"]))
    tree.gate(3, FLIP, lambda node: node["bit"] == 1)
    tree.attack(model, (3,))
    tree.gate(3, HADAMARD, lambda node: node["initial"] == StateLabel.PHI2.value)
    tree.measure("alice", lambda node: z_basis(1, 2))
    tree.measure("bob", lambda node: z_basis(3))
    check = tree.first_branch().finish(
        lambda node: _Leaf(None, check_consistent(node["alice"], node["bob"]), None, None)
    )

    if model.kind is AttackKind.CNOT_ANCILLA:
        # Eve measures her ancilla only at guess time; every node holds
        # the probe's one note, which gets one update per ancilla outcome
        (note,) = {node["note"] for node in tree.nodes}
        tree.measure("ancilla", lambda node: z_basis(note.ancilla_qubit))
        notes = {
            outcome: replace(note, ancilla_outcome=int(outcome.value))
            for outcome in {node["ancilla"] for node in tree.nodes}
        }
        tree.step(lambda node: {"note": notes[node["ancilla"]]})

    def leaf(node):
        guess = None
        if node["note"] is not None:
            transcript = PublicTranscript(
                scheme="present",
                mode="message",
                initial_label=node["initial"],
                alice_published=node["alice"],
                bob_announced=node["bob"],
            )
            guess = eve_guess(model, node["note"], transcript)
        return _Leaf(node["bit"], None, recover_bit(node["alice"], node["bob"]), guess)

    return check, tree.finish(leaf)


def _cao_check_tree(model: AttackModel, basis_policy: str) -> _BranchTree:
    """Check-round tree of the cao scheme."""
    tree = _BranchTree(basis=basis_policy)
    tree.prepare(lambda node: build(StateLabel.W4))
    tree.attack(model, (3, 4))
    if basis_policy == "random":
        tree.choose("basis", CHECK_BASES, _THIRDS)
    tree.measure("alice", lambda node: _pair_basis(node["basis"], 1, 2))
    tree.measure("bob", lambda node: _pair_basis(node["basis"], 3, 4))
    return _cao_finish_check(tree)


def _cao_finish_check(tree: _BranchTree) -> _BranchTree:
    """Classify the leaves of a cao check-round tree."""
    return tree.finish(
        lambda node: _Leaf(
            None, not cao_check_error(node["basis"], node["alice"], node["bob"]), None, None
        )
    )


def _cao_trees(model: AttackModel, basis_policy: str) -> tuple[_BranchTree, _BranchTree]:
    """(check-round tree, message-round tree) of the cao scheme.

    The message bit of a key round enters only its ciphertext, so the
    quantum part of a key round is that of a Bell-basis check round, and
    for the Bell check-basis policy the check tree is the message tree's
    bit-0 branch.
    """
    tree = _BranchTree(basis="bell")
    tree.choose("bit", (0, 1))
    tree.prepare(lambda node: build(StateLabel.W4))
    tree.attack(model, (3, 4))
    tree.measure("alice", lambda node: bell_basis(1, 2))
    tree.measure("bob", lambda node: bell_basis(3, 4))
    if basis_policy == "bell":
        check = _cao_finish_check(tree.first_branch())
    else:
        check = _cao_check_tree(model, basis_policy)

    def leaf(node):
        alice_key, bob_key = cao_keys(node["alice"], node["bob"])
        ciphertext = alice_key ^ node["bit"]
        guess = None
        if node["note"] is not None:
            transcript = PublicTranscript(scheme="cao", mode="key", ciphertext=ciphertext)
            guess = eve_guess(model, node["note"], transcript)
        return _Leaf(node["bit"], None, bob_key ^ ciphertext, guess)

    return check, tree.finish(leaf)


def _round_trees(config: RunConfig) -> tuple[_BranchTree, _BranchTree]:
    """(check-round tree, message-round tree) of a run's config."""
    model = AttackModel(AttackKind(config.attack))
    if config.scheme == "present":
        return _present_trees(model, config.init_policy)
    return _cao_trees(model, config.check_basis_policy)


_COUNTS = (
    "check_rounds",
    "check_errors",
    "message_rounds",
    "recovered_correct",
    "guesses_known",
    "guesses_correct",
)


def _leaf_totals(tree: _BranchTree, weights) -> dict:
    """The run counts of ``tree``'s rounds, leaf ``i`` weighted by
    ``weights[i]``: its hit count (Monte Carlo) or its mass (exact)."""
    totals = dict.fromkeys(_COUNTS, 0)
    for leaf, w in zip(tree.leaves, weights):
        if leaf.check_pass is not None:
            totals["check_rounds"] += w
            totals["check_errors"] += 0 if leaf.check_pass else w
            continue
        totals["message_rounds"] += w
        if leaf.recovered_bit == leaf.message_bit:
            totals["recovered_correct"] += w
        if leaf.eve_guess is not None:
            totals["guesses_known"] += w
            if leaf.eve_guess == leaf.message_bit:
                totals["guesses_correct"] += w
    return totals


# ---------------------------------------------------------------------------
# exact analyzer


def exact_analyze(
    scheme: str,
    attack: str,
    init_policy: str = "random",
    check_basis_policy: str = "random",
) -> ExactResult:
    """Exact rates for a (scheme, attack) pair: the leaves of the round's
    branch trees, weighted by their masses.

    A random policy is analyzed one concrete group at a time (``phi1`` and
    ``phi2``, or the three check bases) and the groups are weighted
    equally, which yields the per-group conditional rates.
    """
    model = _validate_pair(scheme, attack)
    if scheme == "present":
        if init_policy not in ("random", "phi1", "phi2"):
            raise InvalidConfig(f"init_policy {init_policy!r} invalid")
        groups = (
            (StateLabel.PHI1.value, StateLabel.PHI2.value)
            if init_policy == "random"
            else (init_policy,)
        )
        trees = {g: _present_trees(model, g) for g in groups}
        check_trees = {g: check for g, (check, _) in trees.items()}
        message_trees = {g: message for g, (_, message) in trees.items()}
    else:
        if check_basis_policy not in ("random", *CHECK_BASES):
            raise InvalidConfig(f"check_basis_policy {check_basis_policy!r} invalid")
        groups = CHECK_BASES if check_basis_policy == "random" else (check_basis_policy,)
        bell_check, message = _cao_trees(model, "bell")
        check_trees = {
            b: bell_check if b == "bell" else _cao_check_tree(model, b) for b in groups
        }
        message_trees = {"w4": message}

    conditional_error = {}
    total_error = 0.0
    for group, tree in check_trees.items():
        # float(): the count is the int 0 when no leaf fails
        conditional_error[group] = float(_leaf_totals(tree, tree.masses)["check_errors"])
        total_error += (1.0 / len(check_trees)) * conditional_error[group]

    conditional_leak = {}
    message = dict.fromkeys(_COUNTS, 0.0)
    for group, tree in message_trees.items():
        totals = _leaf_totals(tree, tree.masses)
        known = totals["guesses_known"]
        conditional_leak[group] = totals["guesses_correct"] / known if known > 0.0 else 0.0
        for key in _COUNTS:
            message[key] += (1.0 / len(message_trees)) * totals[key]

    known, total = message["guesses_known"], message["message_rounds"]
    return ExactResult(
        scheme=scheme,
        attack=model.kind.value,
        total_error_rate=total_error,
        conditional_error_rates=conditional_error,
        leak_rate=message["guesses_correct"] / known if known > 0.0 else 0.0,
        unknown_fraction=1.0 - known / total if total > 0.0 else 1.0,
        conditional_leak_rates=conditional_leak,
        recovery_accuracy=message["recovered_correct"] / total if total > 0.0 else 1.0,
    )


# ---------------------------------------------------------------------------
# Monte Carlo runner

# each round owns a fixed block of uniforms; Philox emits 4 doubles per
# 128-bit counter step, so 8 draws = 2 counter steps keeps blocks aligned
_DRAWS_PER_ROUND = 8
_BLOCKS_PER_ROUND = 2

# rounds a run streams at a time; a multiple of 4, so that every block of
# mode flags starts on a Philox counter step
_BLOCK_ROUNDS = 2**16

# about 48 minutes of rounds at 3.5e6 rounds/s (cao-ir-z, one core of a
# 2-core VM); larger counts would run for hours to months
_MAX_ROUNDS = 10**10


def _draw_block(master_seed: int, start: int, count: int) -> np.ndarray:
    """Uniform matrix for rounds [start, start+count): row i of the full
    run's draw table, regardless of blocking."""
    bitgen = np.random.Philox(key=np.array([master_seed, _DRAW_STREAM_TAG], dtype=np.uint64))
    bitgen.advance(_BLOCKS_PER_ROUND * start)
    return np.random.Generator(bitgen).random((count, _DRAWS_PER_ROUND))


def _check_flags(config: RunConfig, start: int, count: int) -> np.ndarray:
    """Check/message assignment of rounds [start, start+count) from the
    master mode stream; ``start`` is a multiple of 4. If the stream flags
    no round of the run, round 0 is a check round: a block 0 with no check
    flag scans later blocks for one."""
    bitgen = np.random.Philox(key=np.array([config.master_seed, _MODE_STREAM_TAG], np.uint64))
    bitgen.advance(start // 4)
    flags = np.random.Generator(bitgen).random(count) < config.check_fraction
    if start == 0 and not flags.any():
        later = range(count, config.rounds, _BLOCK_ROUNDS)
        blocks = (_check_flags(config, lo, min(_BLOCK_ROUNDS, config.rounds - lo)) for lo in later)
        flags[0] = not any(block.any() for block in blocks)
    return flags


def _run_counts(config: RunConfig) -> dict[str, int]:
    """The run's counts: its rounds, ``_BLOCK_ROUNDS`` at a time, walked
    down the trees, and each tree's leaf hits summed over the blocks."""
    trees = _round_trees(config)
    hits = [np.zeros(len(tree.leaves), dtype=np.int64) for tree in trees]
    for start in range(0, config.rounds, _BLOCK_ROUNDS):
        count = min(_BLOCK_ROUNDS, config.rounds - start)
        flags = _check_flags(config, start, count)
        draws = _draw_block(config.master_seed, start, count)
        for tree, total, rows in zip(trees, hits, (draws[flags], draws[~flags])):
            total += np.bincount(tree.walk(rows), minlength=len(total))
    counts = dict.fromkeys(_COUNTS, 0)
    for tree, total in zip(trees, hits):
        for key, n in _leaf_totals(tree, total.tolist()).items():
            counts[key] += n
    return counts


def run_monte_carlo(config: RunConfig, workers: int = 1) -> RunStats:
    """Execute ``config.rounds`` independent rounds and aggregate counts.

    Rounds stream in fixed blocks, so memory stays constant whatever the
    round count. Every round draws from its own counter-keyed stream and
    the counts merge is a plain sum, so the result is the same for any
    block size. ``workers`` remains only as 1: the process pool is gone.
    """
    if workers != 1:
        raise InvalidConfig(f"workers={workers}: the process pool was removed")
    counts = _run_counts(config)

    check_rounds = counts["check_rounds"]
    message_rounds = counts["message_rounds"]
    error_rate = counts["check_errors"] / check_rounds if check_rounds else 0.0
    ci = binomial_ci(counts["check_errors"], check_rounds) if check_rounds else (0.0, 0.0)
    recovery = counts["recovered_correct"] / message_rounds if message_rounds else 1.0
    known = counts["guesses_known"]
    if config.unknown_as_half and message_rounds:
        leak = (counts["guesses_correct"] + 0.5 * (message_rounds - known)) / message_rounds
    else:
        leak = counts["guesses_correct"] / known if known else 0.0
    unknown_fraction = 1.0 - known / message_rounds if message_rounds else 1.0

    return RunStats(
        scheme=config.scheme,
        attack=config.attack,
        rounds_total=config.rounds,
        check_rounds=check_rounds,
        check_errors=counts["check_errors"],
        message_rounds=message_rounds,
        error_rate=error_rate,
        error_rate_ci95=ci,
        recovery_accuracy=recovery,
        eve_leak_rate=leak,
        unknown_fraction=unknown_fraction,
    )


# ---------------------------------------------------------------------------
# serialization


def _sig12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def run_stats_to_dict(stats: RunStats) -> dict:
    return {
        "scheme": stats.scheme,
        "attack": stats.attack,
        "rounds_total": stats.rounds_total,
        "check_rounds": stats.check_rounds,
        "check_errors": stats.check_errors,
        "message_rounds": stats.message_rounds,
        "error_rate": _sig12(stats.error_rate),
        "error_rate_ci95": [_sig12(stats.error_rate_ci95[0]), _sig12(stats.error_rate_ci95[1])],
        "recovery_accuracy": _sig12(stats.recovery_accuracy),
        "eve_leak_rate": _sig12(stats.eve_leak_rate),
        "unknown_fraction": _sig12(stats.unknown_fraction),
    }


def exact_result_to_dict(result: ExactResult) -> dict:
    return {
        "scheme": result.scheme,
        "attack": result.attack,
        "total_error_rate": _sig12(result.total_error_rate),
        "conditional_error_rates": {
            k: _sig12(v) for k, v in result.conditional_error_rates.items()
        },
        "leak_rate": _sig12(result.leak_rate),
        "unknown_fraction": _sig12(result.unknown_fraction),
        "conditional_leak_rates": {
            k: _sig12(v) for k, v in result.conditional_leak_rates.items()
        },
        "recovery_accuracy": _sig12(result.recovery_accuracy),
    }


def identity_reports_to_dict(reports: list[IdentityReport]) -> dict:
    return {
        "reports": [
            {
                "identity_id": r.identity_id,
                "description": r.description,
                "deviation": _sig12(r.deviation),
                "passed": r.passed,
                "expect": r.expect,
            }
            for r in reports
        ],
        "all_passed": all(r.passed for r in reports),
    }


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)


def _flatten(payload: dict) -> dict:
    flat: dict = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            for sub, inner in value.items():
                flat[f"{key}_{sub}"] = inner
        elif isinstance(value, (list, tuple)) and len(value) == 2 and all(
            isinstance(v, (int, float)) for v in value
        ):
            flat[f"{key}_low"], flat[f"{key}_high"] = value
        else:
            flat[key] = value
    return flat


def to_csv(payload: dict) -> str:
    """Single-object payloads become header+row; report lists become rows."""
    if "reports" in payload:
        lines = ["identity_id,description,deviation,passed,expect"]
        for report in payload["reports"]:
            desc = '"%s"' % report["description"].replace('"', '""')
            lines.append(
                f"{report['identity_id']},{desc},{report['deviation']},"
                f"{report['passed']},{report['expect']}"
            )
        return "\n".join(lines) + "\n"
    flat = _flatten(payload)
    header = ",".join(flat)
    row = ",".join("" if v is None else str(v) for v in flat.values())
    return f"{header}\n{row}\n"
