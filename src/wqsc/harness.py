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
* the Monte Carlo runner compiles the check and message trees into one
  walk table with two roots and walks each block of rounds down it once,
  a check round from the check tree's root and a message round from the
  message tree's, with numpy array operations: each level matches one
  column of the rounds' draw rows against its nodes' cumulative
  probabilities, so no Python code runs per round, and the leaves are
  weighted by their hit counts. Levels consume draws in the order of the
  round's steps, every level with the same selection rule, so a walk
  reproduces the round that the test suite's one-round oracle plays on
  the same draw row.
  The draws come from a keyed counter generator: Philox keyed by the
  master seed, with every round owning a fixed block of counter
  positions. A run streams its rounds in fixed blocks, so its memory does
  not grow with the round count, and its results are bit-identical for a
  given config whatever the block size.

Eve's guess is read off a message tree, one rule for every attack. Her
view of a round is what she sees of it: for the present scheme the
announced initial state, the sender's published outcome and her note;
for the cao scheme the ciphertext and her note. Neither view holds the
receiver's outcome or the sender's Bell label. Among the leaves that
show her the same view she guesses the message bit of larger mass (the
Bayes-optimal guess), and abstains where the two masses tie within
``_TIE_TOLERANCE`` of the view's mass.

Rate conventions: ``error_rate`` is a check-round statistic;
``recovery_accuracy`` and ``eve_leak_rate`` are message-round statistics.
Leak excludes rounds where Eve abstains ("unknown") from both numerator
and denominator and reports the abstention fraction separately. An
abstention is a view whose posterior is exactly 1/2, so scoring it as a
coin flip instead gives ``eve_leak_rate * (1 - unknown_fraction) +
unknown_fraction / 2``.

Serialization: a result is output as its fields in order, floats cut to
12 significant digits and tuples as lists (``_rounded``); every public
result type has a ``*_to_dict`` companion that applies this one rule, and
``to_json``/``to_csv`` render those dicts.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from .attacks import (
    AttackKind,
    AttackModel,
    CAO_ATTACKS,
    PRESENT_ATTACKS,
    attack_note,
    attack_rows,
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
ATTACKS = tuple(kind.value for kind in AttackKind)
INIT_POLICIES = ("random", "phi1", "phi2")  # present scheme
CHECK_BASIS_POLICIES = ("random", *CHECK_BASES)  # cao scheme

_MODE_STREAM_TAG = 0xFFFFFFFFFFFFFFFF
_DRAW_STREAM_TAG = 0xFFFFFFFFFFFFFFFE

# Eve abstains when her view's two message-bit masses differ by at most
# this share of the view's mass; every posterior of the modelled attacks
# is exactly 0, 1/2 or 1, so a tie is a posterior of 1/2
_TIE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class RunConfig:
    scheme: str
    attack: str = AttackKind.NONE.value
    rounds: int = 100_000
    check_fraction: float = 0.5
    master_seed: int = 0
    init_policy: str = "random"  # one of INIT_POLICIES
    check_basis_policy: str = "random"  # one of CHECK_BASIS_POLICIES

    def __post_init__(self) -> None:
        _validate(self.scheme, self.attack, self.init_policy, self.check_basis_policy)
        for name in ("rounds", "master_seed"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise InvalidConfig(f"{name} must be an integer, got {value!r}") from None
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


def _validate(scheme: str, attack: str, init_policy: str, check_basis_policy: str) -> AttackModel:
    if scheme not in SCHEMES:
        raise UnsupportedPair(f"unknown scheme {scheme!r}")
    try:
        kind = AttackKind(attack)
    except ValueError:
        raise UnsupportedPair(f"unknown attack {attack!r}") from None
    allowed = PRESENT_ATTACKS if scheme == "present" else CAO_ATTACKS
    if kind not in allowed:
        raise UnsupportedPair(f"attack {attack!r} does not apply to scheme {scheme!r}")
    if init_policy not in INIT_POLICIES:
        raise InvalidConfig(f"init_policy {init_policy!r} invalid")
    if check_basis_policy not in CHECK_BASIS_POLICIES:
        raise InvalidConfig(f"check_basis_policy {check_basis_policy!r} invalid")
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

class _Level(NamedTuple):
    """One draw of a round: the children of every node at one depth, in
    (parent, outcome) order."""

    nodes: int  # nodes at the depth above
    parent: np.ndarray  # per child, the index of its parent node
    prob: np.ndarray  # per child, its branch probability


def _walk_tables(trees) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The tables that walk ``trees`` as one, tree ``t``'s root being node
    ``t``: nodes are numbered roots first, depth by depth, and at every
    depth the first tree's nodes come first. A tree that ends above the
    deepest level gets one pass-through child (probability 1) per leaf
    and level, so its leaves stay leaves, and the leaves of all trees, in
    tree order, are the deepest nodes. The tables are
    ``thresholds[k, n]``, node ``n``'s cumulative probability up to its
    child ``k``, for every child but its last (+inf from there on);
    ``successor[n, s]`` (flattened), the number of node ``n``'s child
    ``s``; and per depth, the most children a node has."""
    levels = [
        tree.levels[depth] if depth < len(tree.levels)
        else _Level(len(tree.leaves), np.arange(len(tree.leaves)), np.ones(len(tree.leaves)))
        for depth in range(max(len(tree.levels) for tree in trees))
        for tree in trees
    ]
    offsets = np.cumsum([0] + [level.nodes for level in levels])
    parent = np.concatenate([start + level.parent for start, level in zip(offsets, levels)])
    count = np.bincount(parent, minlength=offsets[-1])
    # the children of all levels, in this order, follow the roots; node
    # n's first child is the child first[n] among them
    first = np.cumsum(count) - count
    table = np.zeros((offsets[-1], count.max()))
    table[parent, np.arange(len(parent)) - first[parent]] = np.concatenate(
        [level.prob for level in levels]
    )
    # zeros pad each row after its children, so a row's sums up to its
    # next to last child are those of its children alone
    thresholds = np.cumsum(table[:, :-1], axis=1)
    thresholds[np.arange(table.shape[1] - 1) >= count[:, None] - 1] = np.inf
    successor = len(trees) + first[:, None] + np.arange(table.shape[1])
    depths = offsets[:: len(trees)]
    widths = [int(count[lo:hi].max()) for lo, hi in zip(depths[:-1], depths[1:])]
    return thresholds.T.copy(), successor.ravel(), widths


def _walk(tables, roots: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Leaf index reached by each row of ``draws``, row ``i`` walked from
    root ``roots[i]`` down :func:`_walk_tables`'s ``tables``. Every level
    picks by the Born rule: the first child whose cumulative probability
    exceeds ``draws[i, level]``, or the last child if none does."""
    thresholds, successor, widths = tables
    stride = len(thresholds) + 1
    node = roots.astype(np.int64)
    for column, width in enumerate(widths):
        u = draws[:, column]
        pick = node * stride
        for child_thresholds in thresholds[: width - 1]:
            pick += child_thresholds[node] <= u
        node = successor[pick]
    return node - len(successor) // stride


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
    calls give a row the same outcome probabilities, ``ZERO_PROB`` pruning
    and collapse whether it is alone or one of many, so a walk reaches the
    leaf that a round played one state at a time on one-row stacks (the
    test suite's oracle) reaches on the same draw row. A level's collapsed
    states are computed only when a later operation reads them, so the
    last measurement of a round collapses nothing. Nothing is cached:
    every run and every exact analysis builds its own trees.

    A node's classical values (message bit, outcomes, Eve's note) are a
    dict per node; :meth:`guess` adds Eve's guess to a message tree's
    nodes, and :meth:`finish` turns the last level's nodes into
    :class:`_Leaf` values. ``masses[i]`` is the probability of the path to
    node (finally leaf) ``i``: the product of its branch probabilities,
    root first. :meth:`first_branch` reads a subtree off a tree as it
    grows. A run walks its trees down the tables that :func:`_walk_tables`
    compiles from their levels, once per run.
    """

    def __init__(self, **root) -> None:
        self.levels: list[_Level] = []
        self.nodes: list[dict] = [root]
        self.masses = np.ones(1)
        self.leaves: list[_Leaf] = []
        self._states = None  # the stack, or a function that computes it

    @property
    def states(self) -> np.ndarray:
        """The ``(nodes, 2**n)`` stack of the deepest level's states."""
        if callable(self._states):
            self._states = self._states()
        return self._states

    def _grow(self, parent: np.ndarray, prob: np.ndarray, children: list, states):
        self.levels.append(_Level(len(self.nodes), parent, prob))
        self.masses = self.masses[parent] * prob
        self.nodes = children
        self._states = states

    def choose(self, key: str, values: tuple) -> None:
        """A fair choice of ``key`` among ``values``: one child per value
        under every node, each of probability ``1 / len(values)``. By the
        Born rule a coin picks ``values[0]`` iff ``u < 0.5``, and a choice
        of three picks ``values[int(u * 3) % 3]``."""
        parent = np.arange(len(self.nodes)).repeat(len(values))
        children = [{**node, key: v} for node in self.nodes for v in values]
        states = None if self._states is None else self.states[parent]
        self._grow(parent, np.full(len(parent), 1.0 / len(values)), children, states)

    def _branch(self, found: Branches, key: str, values: list) -> None:
        """Add the level of ``found``; a child's ``key`` is
        ``values[parent][outcome]``."""
        children = [
            {**self.nodes[p], key: values[p][i]}
            for p, i in zip(found.parent.tolist(), found.outcome.tolist())
        ]
        self._grow(found.parent, found.prob, children, found.states)

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
            tree.levels.append(_Level(above, parent, prob))
            tree.masses = tree.masses[parent] * prob
        tree.nodes = self.nodes[:count]
        return tree

    def guess(self, view: tuple[str, ...]) -> None:
        """Give every node of a message tree Eve's guess: the message bit
        of larger mass among the nodes whose values of the keys ``view``
        equal its own, or None (she abstains) where the two masses tie."""
        masses: dict = {}
        for node, mass in zip(self.nodes, self.masses.tolist()):
            masses.setdefault(tuple(node[key] for key in view), [0.0, 0.0])[node["bit"]] += mass
        guesses = {
            seen: None if abs(m1 - m0) <= _TIE_TOLERANCE * (m0 + m1) else int(m1 > m0)
            for seen, (m0, m1) in masses.items()
        }
        self.step(lambda node: {"guess": guesses[tuple(node[key] for key in view)]})

    def finish(self, leaf) -> "_BranchTree":
        self.leaves = [leaf(node) for node in self.nodes]
        self.masses = self.masses.tolist()
        self._states = None
        return self


def _present_trees(model: AttackModel, init_policy: str) -> tuple[_BranchTree, _BranchTree]:
    """(check-round tree, message-round tree) of the present scheme.

    A check round is a message round of bit 0 (whose encoding is the
    identity) that ends at Bob's measurement, so the check tree is the
    message tree's bit-0 branch down to that level.
    """
    tree = _BranchTree(initial=init_policy)
    tree.choose("bit", (0, 1))
    if init_policy == "random":
        tree.choose("initial", INIT_POLICIES[1:])
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

    tree.guess(("initial", "alice", "note"))
    return check, tree.finish(
        lambda node: _Leaf(
            node["bit"], None, recover_bit(node["alice"], node["bob"]), node["guess"]
        )
    )


def _cao_check_tree(model: AttackModel, basis_policy: str) -> _BranchTree:
    """Check-round tree of the cao scheme."""
    tree = _BranchTree(basis=basis_policy)
    tree.prepare(lambda node: build(StateLabel.W4))
    tree.attack(model, (3, 4))
    if basis_policy == "random":
        tree.choose("basis", CHECK_BASES)
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

    tree.step(lambda node: {"keys": cao_keys(node["alice"], node["bob"])})
    tree.step(lambda node: {"ciphertext": node["keys"][0] ^ node["bit"]})
    tree.guess(("ciphertext", "note"))
    return check, tree.finish(
        lambda node: _Leaf(node["bit"], None, node["keys"][1] ^ node["ciphertext"], node["guess"])
    )


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


def _leaf_totals(leaves: list[_Leaf], weights) -> dict:
    """The run counts of rounds ending at ``leaves``, leaf ``i`` weighted
    by ``weights[i]``: its hit count (Monte Carlo) or its mass (exact)."""
    totals = dict.fromkeys(_COUNTS, 0)
    for leaf, w in zip(leaves, weights):
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


def _message_rates(totals: dict) -> tuple[float, float, float]:
    """(recovery accuracy, leak rate, unknown fraction) of the message
    rounds in ``totals``; the leak rate counts only the rounds in which
    Eve guesses."""
    total, known = totals["message_rounds"], totals["guesses_known"]
    recovery = totals["recovered_correct"] / total if total else 1.0
    leak = totals["guesses_correct"] / known if known else 0.0
    unknown_fraction = 1.0 - known / total if total else 1.0
    return recovery, leak, unknown_fraction


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
    model = _validate(scheme, attack, init_policy, check_basis_policy)
    if scheme == "present":
        groups = INIT_POLICIES[1:] if init_policy == "random" else (init_policy,)
        trees = {g: _present_trees(model, g) for g in groups}
        check_trees = {g: check for g, (check, _) in trees.items()}
        message_trees = {g: message for g, (_, message) in trees.items()}
    else:
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
        conditional_error[group] = float(_leaf_totals(tree.leaves, tree.masses)["check_errors"])
        total_error += (1.0 / len(check_trees)) * conditional_error[group]

    conditional_leak = {}
    message = dict.fromkeys(_COUNTS, 0.0)
    for group, tree in message_trees.items():
        totals = _leaf_totals(tree.leaves, tree.masses)
        conditional_leak[group] = _message_rates(totals)[1]
        for key in _COUNTS:
            message[key] += (1.0 / len(message_trees)) * totals[key]

    recovery, leak, unknown_fraction = _message_rates(message)
    return ExactResult(
        scheme=scheme,
        attack=model.kind.value,
        total_error_rate=total_error,
        conditional_error_rates=conditional_error,
        leak_rate=leak,
        unknown_fraction=unknown_fraction,
        conditional_leak_rates=conditional_leak,
        recovery_accuracy=recovery,
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
    down one table of both trees, a check round from the check tree's
    root (node 0) and a message round from the message tree's (node 1),
    and the leaf hits summed over the blocks."""
    trees = _round_trees(config)
    tables = _walk_tables(trees)
    leaves = [leaf for tree in trees for leaf in tree.leaves]
    hits = np.zeros(len(leaves), dtype=np.int64)
    for start in range(0, config.rounds, _BLOCK_ROUNDS):
        count = min(_BLOCK_ROUNDS, config.rounds - start)
        roots = ~_check_flags(config, start, count)
        draws = _draw_block(config.master_seed, start, count)
        hits += np.bincount(_walk(tables, roots, draws), minlength=len(leaves))
    return _leaf_totals(leaves, hits.tolist())


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
    recovery, leak, unknown_fraction = _message_rates(counts)

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


def _rounded(value):
    """``value`` as output: a float cut to 12 significant digits, a tuple
    as a list, a dataclass as the dict of its fields in order (its
    ``vars``: ``__init__`` sets them in that order)."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_rounded(inner) for inner in value]
    if isinstance(value, dict):
        return {key: _rounded(inner) for key, inner in value.items()}
    if is_dataclass(value):
        return _rounded(vars(value))
    return value


def run_stats_to_dict(stats: RunStats) -> dict:
    return _rounded(stats)


def exact_result_to_dict(result: ExactResult) -> dict:
    return _rounded(result)


def identity_reports_to_dict(reports: list[IdentityReport]) -> dict:
    return {"reports": _rounded(reports), "all_passed": all(r.passed for r in reports)}


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
        lines = [",".join(field.name for field in fields(IdentityReport))]
        for report in payload["reports"]:
            lines.append(",".join(
                '"%s"' % value.replace('"', '""') if key == "description" else str(value)
                for key, value in report.items()
            ))
        return "\n".join(lines) + "\n"
    flat = _flatten(payload)
    header = ",".join(flat)
    row = ",".join("" if v is None else str(v) for v in flat.values())
    return f"{header}\n{row}\n"
