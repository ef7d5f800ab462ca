"""Branch trees of a round, exact analyzer, deterministic Monte Carlo runner.

A round of either scheme is described once, as the finite branch tree of
a check round and of a message round (message bit x initial state or
check basis x attack outcome x both parties' measurement outcomes x, for
the entangling probe, the ancilla outcome). Every leaf carries its
outcome and its mass, the product of the branch probabilities on its
path. A tree is built level by level with stacked calls, and its nodes'
values are columns of codes (:class:`_BranchTree`), so neither the
stacked calls nor the Python code of a build grow with its node count.
The protocol rules classify the leaves through their outcome-index
tables (:func:`~wqsc.protocol._rule_tables`), built once per process.
Each scheme has one builder (:func:`_present_tree`, :func:`_cao_tree`)
that makes either tree from its root: a check round is a message round
with its bit fixed at 0 that ends at the measurements, before the bit is
decoded. A config's two trees depend only on its scheme, attack and
policy, so each process builds them once (:func:`_config_trees`, the one
way to a config's trees), and every run and every exact analysis of that
config reads the same read-only trees; no result is ever cached. Both
analyses sum the trees' joined leaves with one function
(:func:`_leaf_totals`):

* the exact analyzer weights each leaf by its mass, so its check-error
  and leak rates carry no sampling error;
* the Monte Carlo runner weights each leaf by the rounds that reach it.
  The two trees are compiled once into one walk table with two roots,
  down which a run walks each block of rounds with numpy array
  operations, a check round from the check tree's root and a message
  round from the message tree's: each level matches one column of the
  rounds' words against its nodes' cumulative probabilities as integer
  cutoffs, in the order of the round's steps, so a walk reproduces the
  round that the test suite's one-round oracle plays on the same draws.
  A run streams its rounds in fixed blocks: its memory does not grow
  with the round count, nor do its results depend on the block size.

Draw scheme ``philox4x64-10/v1``: round ``r`` draws the 4-word outputs of
Philox4x64-10 at counters ``2r+1``, ``2r+2`` under key ``(seed, 2**64-2)``,
and is a check round iff word ``r mod 4`` at counter ``r//4 + 1`` under key
``(seed, 2**64-1)`` is below ``ceil(check_fraction * 2**53)`` (or no round
is and ``r`` is 0), each word as ``raw >> 11``. A process builds one
generator, on its first run, re-keyed in full per block; not thread-safe.

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
import numbers
import operator
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .attacks import AttackKind, CAO_ATTACKS, PRESENT_ATTACKS, attack_rows
from .errors import InvalidConfig, InvalidCounts, UnsupportedPair
from .protocol import CHECK_BASES, _pair_basis, _rule_tables
from .qstate import (
    FLIP,
    HADAMARD,
    ZERO_PROB,
    _basis_tables,
    apply_1q_rows,
    measurement_rows,
    z_basis,
)
from .states import IdentityReport, StateLabel, build

SCHEMES = ("present", "cao")
ATTACKS = tuple(kind.value for kind in AttackKind)
INIT_POLICIES = ("random", "phi1", "phi2")  # present scheme
CHECK_BASIS_POLICIES = ("random", *CHECK_BASES)  # cao scheme

_MODE_STREAM_TAG = 0xFFFFFFFFFFFFFFFF
_DRAW_STREAM_TAG = 0xFFFFFFFFFFFFFFFE
_WORD = 2**53  # Generator.random() is (raw >> 11) / _WORD of a raw Philox word

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
                if isinstance(value, bool):  # an int subclass, but no count or seed
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise InvalidConfig(f"{name} must be an integer, got {value!r}") from None
        if not isinstance(self.check_fraction, numbers.Real):
            raise InvalidConfig(
                f"check_fraction must be a real number, got {self.check_fraction!r}"
            )
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


def _validate(scheme: str, attack: str, init_policy: str, check_basis_policy: str) -> AttackKind:
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
    return kind


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


def _walk_tables(trees) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], int]:
    """The tables that walk ``trees`` as one, tree ``t``'s root being node
    ``t``: nodes are numbered roots first, depth by depth, and at every
    depth the first tree's nodes come first. A tree that ends above the
    deepest level gets one pass-through child (probability 1) per leaf
    and level, so its leaves stay leaves, and the leaves of all trees, in
    tree order, are the deepest nodes. A walk holds node ``n`` as its row
    offset ``n * stride`` (``stride``: the most children of any node) and
    reads child ``k`` at ``+ k`` of two flat read-only tables: ``thresholds``,
    ``ceil(min(t, 1) * _WORD)`` for cumulative probability ``t`` up to child
    ``k`` (``t <= w / _WORD`` iff ``w >=`` it), but ``_WORD`` (no word reaches
    it) from the last child on; and ``successor``, child ``k``'s row offset,
    or leaf number. Then per depth, the most children, and ``stride``."""
    levels = [
        tree.levels[depth] if depth < len(tree.levels)
        else _Level(len(tree.masses), np.arange(len(tree.masses)), np.ones(len(tree.masses)))
        for depth in range(max(len(tree.levels) for tree in trees))
        for tree in trees
    ]
    offsets = np.cumsum([0] + [level.nodes for level in levels])
    parent = np.concatenate([start + level.parent for start, level in zip(offsets, levels)])
    count = np.bincount(parent, minlength=offsets[-1])
    # the children of all levels, in this order, follow the roots; node
    # n's first child is the child first[n] among them
    first = np.cumsum(count) - count
    stride = int(count.max())
    table = np.zeros((offsets[-1], stride))
    table[parent, np.arange(len(parent)) - first[parent]] = np.concatenate(
        [level.prob for level in levels]
    )
    # zeros pad each row after its children, so a row's sums up to its
    # next to last child are those of its children alone
    thresholds = np.cumsum(table, axis=1)
    thresholds[np.arange(stride) >= count[:, None] - 1] = 1.0
    cutoffs = np.ceil(np.minimum(thresholds, 1.0) * _WORD).astype(np.int64).ravel()
    child = len(trees) + first[:, None] + np.arange(stride)
    successor = np.where(child < offsets[-1], child * stride, child - offsets[-1]).ravel()
    depths = offsets[:: len(trees)]
    widths = tuple(np.maximum.reduceat(count, depths[:-1]).tolist())
    for array in (cutoffs, successor):
        array.setflags(write=False)
    return cutoffs, successor, widths, stride


def _walk(tables, roots: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Leaf index reached by each row of ``words``, row ``i`` walked from
    root ``roots[i]`` down :func:`_walk_tables`'s ``tables``. Every level
    picks by the Born rule: the first child whose threshold exceeds the
    word ``words[i, level]``, or the last child if none does: it adds the
    ``uint8`` count of thresholds at or below the word to the row offset."""
    thresholds, successor, widths, stride = tables
    node = roots * np.int64(stride)
    for column, width in enumerate(widths):
        w = words[:, column]
        if width > 1:
            steps = (thresholds[node] <= w).view(np.uint8)
            for k in range(1, width - 1):
                steps += (thresholds[k:][node] <= w).view(np.uint8)
            node = node + steps
        node = successor[node]
    return node


class _BranchTree:
    """Finite branch tree of one round, built one level at a time.

    Level ``j`` consumes column ``j`` of the round's draw row, so levels
    are added in the order in which a round takes its random steps (a
    present message round: its bit, its initial state, Eve's outcome,
    the sender's and the receiver's measurements); a step that draws
    nothing (a choice that a policy fixes, such as a check round's bit,
    preparing states, a gate, an attack that
    :func:`~wqsc.attacks.attack_rows` gives one outcome) adds no level.

    The nodes of the deepest level are built together. Their states are
    the rows of one ``(nodes, 2**n)`` amplitude stack, and each operation
    is one stacked call for the whole level: a gate on the rows it applies
    to, the attack (:func:`~wqsc.attacks.attack_rows`), or a measurement
    (:func:`~wqsc.qstate.measurement_rows`, once per distinct basis). These
    calls give a row the same outcome probabilities and collapse whether
    it is alone or one of many, and every level grows from one table of
    all its nodes' outcomes (:meth:`_grow`, the one place that prunes
    outcomes of probability at most ``ZERO_PROB``), so a walk reaches the
    leaf that a round played one state at a time on one-row stacks (the
    test suite's oracle) reaches on the same draw row.

    A node's classical values are integer codes per key: a level's
    outcome indices, a value every node shares, or a value computed from
    other keys. Each key's codes are kept for the deepest level's nodes,
    so every new level re-indexes them by its ``parent`` array;
    :meth:`column` reads them, and :meth:`values` decodes them.
    ``masses[i]`` is the probability of the path to node (finally leaf)
    ``i``: the product of its branch probabilities, root first.

    A finished tree is frozen: every array it holds is read-only, so no
    caller can change what later calls read off a tree that
    :func:`_config_trees` keeps for the life of the process.
    """

    def __init__(self) -> None:
        self.levels: list[_Level] = []
        self.masses = np.ones(1)
        self.leaf_columns: tuple[np.ndarray, ...] = ()
        # key -> (codes, labels, by): the deepest level's node i has
        # labels[codes[i]], or labels[g][codes[i]], g its code of ``by``
        self._columns: dict[str, tuple] = {}
        self.states = None  # the (nodes, 2**n) stack of the deepest level's states

    def column(self, key: str) -> np.ndarray:
        """The codes of ``key`` at the deepest level's nodes."""
        return self._columns[key][0]

    def values(self, key: str) -> list:
        """The values of ``key`` at the deepest level's nodes."""
        _, labels, by = self._columns[key]
        codes = self.column(key).tolist()
        if by:
            return [labels[group][code] for group, code in zip(self.column(by).tolist(), codes)]
        return [labels[code] for code in codes]

    def assign(self, key: str, codes: np.ndarray, labels: tuple) -> None:
        """Give the deepest level's node ``i`` the value ``labels[codes[i]]``."""
        self._columns[key] = (codes, labels, None)

    def _grow(self, key, probs, states, labels, by=None) -> None:
        """Add a level from every node's ``(nodes, outcomes)`` outcome
        probabilities and ``(nodes, outcomes, 2**n)`` states after them (or
        None): a child per outcome of probability above ``ZERO_PROB``, in
        (node, outcome) order, whose code of ``key`` is its outcome index."""
        parent, outcome = (probs > ZERO_PROB).nonzero()
        prob = probs[parent, outcome]
        for array in (parent, prob):
            array.setflags(False)  # write=False, which numpy parses more slowly
        self.levels.append(_Level(len(self.masses), parent, prob))
        self.masses = self.masses[parent] * prob
        self.states = None if states is None else states[parent, outcome]
        for name, (codes, *rest) in self._columns.items():
            self._columns[name] = (codes[parent], *rest)
        self._columns[key] = (outcome, labels, by)

    def choose(self, key: str, values: tuple, policy="random") -> None:
        """``key`` is ``policy`` if that is one of ``values``; else a fair
        choice: one child per value under every node, each of probability
        ``1 / len(values)``. By the Born rule a coin picks ``values[0]``
        iff ``u < 0.5``, and a choice of three ``values[int(u * 3) % 3]``."""
        if policy in values:
            self.assign(key, np.full(len(self.masses), values.index(policy)), values)
            return
        probs = np.full((len(self.masses), len(values)), 1.0 / len(values))
        states = None if self.states is None else self.states[:, None].repeat(len(values), axis=1)
        self._grow(key, probs, states, values)

    def prepare(self, states: list, by: str | None = None) -> None:
        """Give each node the state ``states[g]``, ``g`` its code of ``by``
        (0 without ``by``)."""
        self.states = np.asarray(states)[self.column(by) if by else np.zeros(len(self.masses), int)]

    def gate(self, qubit: int, gate, where: np.ndarray) -> None:
        """Apply ``gate`` to ``qubit`` of every node where ``where`` holds."""
        rows = where.nonzero()[0]
        if not len(rows):
            return
        # the stack belongs to this tree alone, so it is updated in place
        self.states[rows] = apply_1q_rows(self.states[rows], qubit, gate)

    def measure(self, key: str, bases: tuple, by: str | None = None) -> None:
        """Measure each node's state in ``bases[g]``, ``g`` its code of
        ``by`` (0 without ``by``), one stacked call per distinct basis
        filling the rows of its nodes in one table of the level."""
        num_qubits = self.states.shape[1].bit_length() - 1
        labels = tuple(_basis_tables(basis, num_qubits).labels for basis in bases)
        which = self.column(by) if by else np.zeros(len(self.masses), int)
        probs = np.zeros((len(self.masses), len(labels[0])))
        states = np.zeros(probs.shape + self.states.shape[1:], self.states.dtype)
        for group in set(which.tolist()):
            at = (which == group).nonzero()[0]
            probs[at], states[at] = measurement_rows(self.states[at], bases[group])
        self._grow(key, probs, states, labels if by else labels[0], by)

    def attack(self, kind: AttackKind, transit: tuple[int, ...]) -> None:
        """Eve's attack ``kind`` on the qubits ``transit``, her note under
        ``note``. One with a single outcome adds no level: each node
        forwards its whole row, and every node holds the one note."""
        probs, states, notes = attack_rows(kind, self.states, transit)
        if len(notes) > 1:
            self._grow("note", probs, states, notes)
            return
        self.states = states[:, 0]
        self.assign("note", np.zeros(len(self.masses), int), notes)

    def guess(self, view: tuple[str, ...]) -> np.ndarray:
        """Eve's guess at each node of a message tree: the message bit of
        larger mass among the nodes whose codes of the keys ``view`` (read
        as one number in mixed radix) equal its own, or -1 (she abstains)
        where the two masses tie."""
        seen, views = 0, 1
        for key in view:
            radix = len(self._columns[key][1])
            seen, views = seen * radix + self.column(key), views * radix
        # bincount adds each view's masses in node order, one by one
        m0, m1 = np.bincount(2 * seen + self.column("bit"), self.masses, 2 * views).reshape(-1, 2).T
        guesses = np.where(np.abs(m1 - m0) <= _TIE_TOLERANCE * (m0 + m1), -1, m1 > m0)
        return guesses[seen]

    def finish(self, message_bit=None, check_pass=None, recovered_bit=None, eve_guess=None):
        """Set the leaves' outcome columns, -1 for a field that the round's
        mode lacks (or where Eve abstains), drop the states, and make the
        masses, the codes and those columns read-only, as the levels are."""
        absent = np.full(len(self.masses), -1)
        columns = (message_bit, check_pass, recovered_bit, eve_guess)
        self.leaf_columns = tuple(absent if column is None else column for column in columns)
        self.states = None
        codes = [entry[0] for entry in self._columns.values()]
        for array in (self.masses, *self.leaf_columns, *codes):
            array.setflags(False)
        return self


def _present_tree(kind: AttackKind, init_policy: str, message: bool) -> _BranchTree:
    """The present scheme's message-round tree, or (``message`` false) its
    check-round tree: a message round of bit 0, whose encoding is the
    identity, that ends at Bob's measurement."""
    rules = _rule_tables()
    initials = INIT_POLICIES[1:]
    tree = _BranchTree()
    tree.choose("bit", (0, 1), "random" if message else 0)
    tree.choose("initial", initials, init_policy)
    tree.prepare([build(label) for label in initials], by="initial")
    tree.gate(3, FLIP, tree.column("bit") == 1)
    tree.attack(kind, (3,))
    tree.gate(3, HADAMARD, tree.column("initial") == initials.index(StateLabel.PHI2.value))
    tree.measure("alice", (z_basis(1, 2),))
    tree.measure("bob", (z_basis(3),))
    if not message:
        return tree.finish(check_pass=rules["consistent"][tree.column("alice"), tree.column("bob")])

    if kind is AttackKind.CNOT_ANCILLA:
        # Eve measures her ancilla only at guess time; every node holds the
        # probe's one note until then
        note = tree.values("note")[0]
        tree.measure("ancilla", (z_basis(note.ancilla_qubit),))
        notes = tuple(replace(note, ancilla_outcome=outcome) for outcome in (0, 1))
        tree.assign("note", tree.column("ancilla"), notes)

    return tree.finish(
        message_bit=tree.column("bit"),
        recovered_bit=rules["recovered"][tree.column("alice"), tree.column("bob")],
        eve_guess=tree.guess(("initial", "alice", "note")),
    )


def _cao_tree(kind: AttackKind, basis_policy: str, message: bool) -> _BranchTree:
    """The cao scheme's check-round tree of ``basis_policy``, or (``message``
    true) its message-round tree: the w4 state, the attack, the check basis
    (a key round's is the Bell basis) and each party's measurement of its
    pair in it. A message round's bit enters only the ciphertext, so its
    quantum part is that of a Bell-basis check round."""
    rules = _rule_tables()
    tree = _BranchTree()
    tree.choose("bit", (0, 1), "random" if message else 0)
    tree.prepare([build(StateLabel.W4)])
    tree.attack(kind, (3, 4))
    tree.choose("basis", CHECK_BASES, "bell" if message else basis_policy)
    for key, pair in (("alice", (1, 2)), ("bob", (3, 4))):
        tree.measure(key, tuple(_pair_basis(basis, *pair) for basis in CHECK_BASES), by="basis")
    if not message:
        columns = tuple(tree.column(key) for key in ("basis", "alice", "bob"))
        return tree.finish(check_pass=1 - rules["check_error"][columns])

    keys = rules["keys"][tree.column("alice"), tree.column("bob")]
    bit = tree.column("bit")
    tree.assign("ciphertext", keys[:, 0] ^ bit, (0, 1))
    return tree.finish(
        message_bit=bit,
        recovered_bit=keys[:, 1] ^ tree.column("ciphertext"),
        eve_guess=tree.guess(("ciphertext", "note")),
    )


class _ConfigTrees(tuple):
    """A config's (check-round tree, message-round tree), with what runs read
    off both, compiled on first use, read-only: the walk tables, and
    ``indicators[c, i]``, whether joined leaf ``i`` counts towards ``_COUNTS[c]``."""

    @cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], int]:
        return _walk_tables(self)

    @cached_property
    def indicators(self) -> np.ndarray:
        bit, passed, recovered, guess = map(np.concatenate, zip(*(tree.leaf_columns for tree in self)))
        message = bit >= 0
        indicators = np.array([~message, passed == 0, message, message & (recovered == bit),
                               guess >= 0, message & (guess == bit)])
        indicators.setflags(write=False)
        return indicators


@lru_cache(maxsize=None)
def _config_trees(scheme: str, kind: AttackKind, policy: str) -> _ConfigTrees:
    """(check-round tree, message-round tree) of ``scheme`` under attack
    ``kind`` and the scheme's init or check-basis ``policy``, built once per
    process, each from its root. The keys are the 20 valid configs, not a
    :class:`RunConfig`, whose seed and round count would grow the memo
    without bound. The cao message tree is the same for every check-basis
    policy, so each cao config reads that of its attack's Bell config."""
    build_tree = _present_tree if scheme == "present" else _cao_tree
    check = build_tree(kind, policy, False)
    if scheme == "cao" and policy != "bell":
        return _ConfigTrees((check, _config_trees(scheme, kind, "bell")[1]))
    return _ConfigTrees((check, build_tree(kind, policy, True)))


def _round_trees(config: RunConfig) -> _ConfigTrees:
    """(check-round tree, message-round tree) of a run's config, from the
    memo of :func:`_config_trees`."""
    policy = config.init_policy if config.scheme == "present" else config.check_basis_policy
    return _config_trees(config.scheme, AttackKind(config.attack), policy)


_COUNTS = ("check_rounds", "check_errors", "message_rounds",
           "recovered_correct", "guesses_known", "guesses_correct")


def _leaf_totals(trees: _ConfigTrees, weights: np.ndarray) -> dict:
    """The run counts of rounds ending at the joined leaves of a config's
    (check, message) ``trees``, leaf ``i`` weighted by ``weights[i]``: its
    hit count (Monte Carlo) or its mass (exact). Each count is an indicator
    row dotted with the weights as a running sum in leaf order, to which
    a leaf of indicator 0 adds an exact 0.0."""
    totals = np.add.accumulate(trees.indicators * weights, axis=1)[:, -1]
    return dict(zip(_COUNTS, totals.tolist()))


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
    kind = _validate(scheme, attack, init_policy, check_basis_policy)
    if scheme == "present":
        groups = INIT_POLICIES[1:] if init_policy == "random" else (init_policy,)
    else:
        groups = CHECK_BASES if check_basis_policy == "random" else (check_basis_policy,)
    totals, total_error = {}, 0.0
    for group in groups:
        trees = _config_trees(scheme, kind, group)
        totals[group] = _leaf_totals(trees, np.concatenate([tree.masses for tree in trees]))
        total_error += (1.0 / len(groups)) * totals[group]["check_errors"]
    conditional_error = {group: counts["check_errors"] for group, counts in totals.items()}

    # the cao scheme has one message tree, whatever the check basis
    messages = totals if scheme == "present" else {"w4": totals[groups[0]]}
    conditional_leak = {group: _message_rates(counts)[1] for group, counts in messages.items()}
    message = dict.fromkeys(_COUNTS, 0.0)
    for counts in messages.values():
        for key in _COUNTS:
            message[key] += (1.0 / len(messages)) * counts[key]

    recovery, leak, unknown_fraction = _message_rates(message)
    return ExactResult(
        scheme=scheme,
        attack=kind.value,
        total_error_rate=total_error,
        conditional_error_rates=conditional_error,
        leak_rate=leak,
        unknown_fraction=unknown_fraction,
        conditional_leak_rates=conditional_leak,
        recovery_accuracy=recovery,
    )


# ---------------------------------------------------------------------------
# Monte Carlo runner

_DRAWS_PER_ROUND = 8
_BLOCKS_PER_ROUND = 2

# rounds a run streams at a time; a multiple of 4, so that every block of
# mode flags starts on a Philox counter step
_BLOCK_ROUNDS = 2**13

# about 10 minutes of rounds at 1.7e7 rounds/s (a cold 1e8-round cao-ir-z
# run took a median 5.81 s on a 2-core VM, benchmarks/BENCH_table-levels.json);
# larger counts would run for hours to months
_MAX_ROUNDS = 10**10


def _words(bitgen: np.random.Philox, key: list[int], steps: int, count: int) -> np.ndarray:
    """``count`` int64 words ``raw >> 11`` of ``bitgen``, its whole state first set
    to ``Philox(key=key, counter=[steps, 0, 0, 0])``'s (as ints numpy reads)."""
    bitgen.state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                    "uinteger": 0, "state": {"counter": [steps, 0, 0, 0], "key": key}}
    words = bitgen.random_raw(count)
    words >>= 11
    return words.view(np.int64)


def _draw_block(master_seed: int, start: int, count: int, bitgen) -> np.ndarray:
    """Word matrix for rounds [start, start+count): row i of the full
    run's draw table, regardless of blocking."""
    key, steps = [master_seed, _DRAW_STREAM_TAG], _BLOCKS_PER_ROUND * start
    return _words(bitgen, key, steps, count * _DRAWS_PER_ROUND).reshape(count, -1)


def _check_flags(config: RunConfig, start: int, count: int, bitgen) -> np.ndarray:
    """Check/message assignment of rounds [start, start+count), ``start`` a
    multiple of 4, by the draw scheme (``u < f`` iff ``w < ceil(f * _WORD)``);
    a block 0 with no check flag scans later blocks for one."""
    words = _words(bitgen, [config.master_seed, _MODE_STREAM_TAG], start // 4, count)
    flags = words < math.ceil(config.check_fraction * _WORD)
    if start == 0 and not flags.any():
        blocks = (_check_flags(config, lo, min(_BLOCK_ROUNDS, config.rounds - lo), bitgen)
                  for lo in range(count, config.rounds, _BLOCK_ROUNDS))
        flags[0] = not any(block.any() for block in blocks)
    return flags


@lru_cache(maxsize=None)
def _philox() -> np.random.Philox:
    """The process's one Philox, which :func:`_words` re-keys for every block."""
    return np.random.Philox(0)


def _run_counts(config: RunConfig) -> dict[str, int]:
    """The run's counts: its rounds, ``_BLOCK_ROUNDS`` at a time, walked
    down one table of both trees, a check round from the check tree's
    root (node 0) and a message round from the message tree's (node 1),
    and the leaf hits summed over the blocks."""
    trees, bitgen = _round_trees(config), _philox()
    hits = np.zeros(trees.indicators.shape[1], dtype=np.int64)
    for start in range(0, config.rounds, _BLOCK_ROUNDS):
        count = min(_BLOCK_ROUNDS, config.rounds - start)
        roots = ~_check_flags(config, start, count, bitgen)
        words = _draw_block(config.master_seed, start, count, bitgen)
        hits += np.bincount(_walk(trees.walk, roots, words), minlength=len(hits))
    return _leaf_totals(trees, hits)


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
