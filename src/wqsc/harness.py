"""Branch trees of a round, exact analyzer, deterministic Monte Carlo runner.

A round of either scheme is described once, as the finite branch tree of
a check round and of a message round (message bit x initial state or
check basis x attack outcome x both parties' measurement outcomes x, for
the entangling probe, Eve's ancilla outcome). Every leaf carries its
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
analyses fold a weight row over the trees' joined leaves into counts with
one function (:func:`_leaf_totals`):

* the exact analyzer weights each leaf by its mass (one weight row per
  group of a conditional rate), so its rates carry no sampling error;
* the Monte Carlo runner weights each leaf by its hits, the rounds that
  end at it, which is what a run returns (:func:`_run_hits`). The two
  trees are compiled once into one walk table with two roots, down which a
  run walks each block of rounds with numpy array operations, a check
  round from the check tree's root and a message round from the message
  tree's: each level compares one column of the rounds' raw words with its
  nodes' cumulative probabilities as integer cutoffs, in the order of the
  round's steps, and moves each round from node ``n`` to child ``k``, node
  ``n * width + k``, so a walk reproduces the round that the test suite's
  one-round oracle plays on the same draws.
  A run streams its rounds in fixed blocks: its memory does not grow
  with the round count, nor do its results depend on the block size.

Draw scheme ``philox4x64-10/v1``: round ``r`` draws the 4-word outputs of
Philox4x64-10 at counters ``2r+1``, ``2r+2`` under key ``(seed, 2**64-2)``,
and is a check round iff word ``r mod 4`` at counter ``r//4 + 1`` under key
``(seed, 2**64-1)`` is below ``ceil(check_fraction * 2**53)`` (or no round
is and ``r`` is 0), each word as ``raw >> 11``. A process builds one
generator, on its first run, re-keyed in full per block; not thread-safe.

Eve's guess is read off a message tree, one rule for every attack. Her
note is the label of her own outcome: of her interception, or (the
entangling probe) of her ancilla, measured in Z at the end of a message
round; an attack with no outcome of hers notes None. Her view of a round
is what she sees of it: for the present scheme the announced initial
state, the sender's published outcome and her note; for the cao scheme
the ciphertext and her note. Neither view holds the
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
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .attacks import CAO_ATTACKS, PRESENT_ATTACKS, attack_rows
from .errors import InvalidConfig, UnsupportedPair
from .protocol import CHECK_BASES, _rule_tables
from .qstate import (
    FLIP,
    HADAMARD,
    ZERO_PROB,
    MeasurementBasis,
    _basis_tables,
    _qubit_count,
    apply_1q_rows,
    measurement_rows,
    z_basis,
)
from .states import IdentityReport, build

SCHEMES = ("present", "cao")
ATTACKS = PRESENT_ATTACKS + CAO_ATTACKS[1:]
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
    attack: str = "none"
    rounds: int = 100_000
    check_fraction: float = 0.5
    master_seed: int = 0
    init_policy: str = "random"  # one of INIT_POLICIES
    check_basis_policy: str = "random"  # one of CHECK_BASIS_POLICIES

    def __post_init__(self) -> None:
        scheme, attack, init, basis = self.scheme, self.attack, self.init_policy, self.check_basis_policy
        # a name is a string; an array would compare elementwise
        if not isinstance(scheme, str) or scheme not in SCHEMES:
            raise UnsupportedPair(f"unknown scheme {scheme!r}")
        if not isinstance(attack, str) or attack not in ATTACKS:
            raise UnsupportedPair(f"unknown attack {attack!r}")
        if attack not in (PRESENT_ATTACKS if scheme == "present" else CAO_ATTACKS):
            raise UnsupportedPair(f"attack {attack!r} does not apply to scheme {scheme!r}")
        if not isinstance(init, str) or init not in INIT_POLICIES:
            raise InvalidConfig(f"init_policy {init!r} invalid")
        if not isinstance(basis, str) or basis not in CHECK_BASIS_POLICIES:
            raise InvalidConfig(f"check_basis_policy {basis!r} invalid")
        # the other scheme's policy is left at random, never silently ignored
        if scheme == "present" and basis != "random":
            raise InvalidConfig(f"check_basis_policy {basis!r} does not apply to 'present'")
        if scheme == "cao" and init != "random":
            raise InvalidConfig(f"init_policy {init!r} does not apply to 'cao'")
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
        # in float64: a float16 product rounds 3 x float16(1/3) up to 1 and
        # overflows at 10**10 rounds
        if self.rounds * float(self.check_fraction) < 1.0:
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


def _binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """The normal-approximation 95% binomial interval of ``0 <= successes
    <= trials``, ``trials >= 1``, clamped to [0, 1]."""
    p = successes / trials
    half = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


# ---------------------------------------------------------------------------
# branch trees

class _Level(NamedTuple):
    """One draw of a round: the children of every node at one depth, in
    (parent, outcome) order."""

    nodes: int  # nodes at the depth above
    parent: np.ndarray  # per child, the index of its parent node
    prob: np.ndarray  # per child, its branch probability


def _walk_tables(trees) -> tuple[tuple[tuple[np.ndarray, ...], ...], np.ndarray]:
    """The tables that walk ``trees`` as one, tree ``t``'s root being node
    ``t``; a tree that ends above the deepest level gets one pass-through
    child (probability 1) per leaf and level. Each depth numbers its nodes
    in mixed radix: child ``k`` of node ``n`` is ``n * width + k``, ``width``
    the most children of any node there. Per depth, ``width - 1`` read-only
    arrays by node number: array ``k`` holds ``(c << 11) - 1``, ``c =
    ceil(min(t, 1) * _WORD)`` for cumulative probability ``t`` up to child
    ``k`` (``t <= (raw >> 11) / _WORD`` iff ``raw >`` it), or ``2**64 - 1``
    (no word exceeds it) from the last child on and where no node is. Then
    the deepest numbers' leaf indices, trees in order, -1 where no leaf is."""
    levels = [tree.levels[depth] if depth < len(tree.levels)
              else _Level(len(tree.masses), np.arange(len(tree.masses)), np.ones(len(tree.masses)))
              for depth in range(max(len(tree.levels) for tree in trees)) for tree in trees]
    # all depths at once, roots first; child k (node k + len(trees)) is rank[k] among siblings
    offsets = np.cumsum([0] + [level.nodes for level in levels])
    parent = np.concatenate([start + level.parent for start, level in zip(offsets, levels)])
    count = np.bincount(parent, minlength=offsets[-1])
    rank = np.arange(len(parent)) - (np.cumsum(count) - count)[parent]
    table = np.zeros((offsets[-1], count.max()))
    table[parent, rank] = np.concatenate([level.prob for level in levels])
    # zeros pad each row after its children, so a row's sums up to its
    # next to last child are those of its children alone
    thresholds = np.cumsum(table, axis=1)
    thresholds[np.arange(table.shape[1]) >= count[:, None] - 1] = 1.0
    c = np.ceil(np.minimum(thresholds, 1.0) * _WORD).astype(np.uint64)
    cuts = ((c - 1) << 11) | 0x7FF  # (c << 11) - 1, as c >= 1
    bounds = [*offsets[:: len(trees)].tolist(), len(trees) + len(parent)]
    number, padded, tables = np.arange(len(trees)), len(trees), []
    for lo, hi, end in zip(bounds, bounds[1:], bounds[2:]):  # nodes lo..hi-1, children hi..end-1
        width = int(count[lo:hi].max())
        cutoffs = np.full((width - 1, padded), np.uint64(2**64 - 1))
        cutoffs[:, number] = cuts[lo:hi, : width - 1].T
        cutoffs.setflags(write=False)
        tables.append(tuple(cutoffs))
        kids = slice(hi - len(trees), end - len(trees))
        number, padded = number[parent[kids] - lo] * width + rank[kids], padded * width
    leaves = np.full(padded, -1)
    leaves[number] = np.arange(len(number))
    leaves.setflags(write=False)
    return tuple(tables), leaves


def _walk(tables, roots: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Leaf index reached by each row of raw ``words``, row ``i`` walked from
    root ``roots[i]`` down :func:`_walk_tables`'s ``tables``. Each level picks
    by the Born rule the first child whose cumulative probability exceeds
    the draw of ``words[i, level]``, or the last: the count of cutoffs below."""
    levels, leaves = tables
    node = roots.astype(np.intp)
    for column, cutoffs in enumerate(levels):
        if cutoffs:
            w = words[:, column]
            steps = (cutoffs[0][node] < w).view(np.uint8)
            for cutoff in cutoffs[1:]:
                steps += (cutoff[node] < w).view(np.uint8)
            node *= len(cutoffs) + 1
            node += steps
    return leaves[node]


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
        """The values of ``key`` at the deepest level's nodes: an outcome's
        label string (None for the note of an attack with one outcome) or
        a choice's value (a string or an int)."""
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
        labels = tuple(_basis_tables(basis, _qubit_count(self.states)).labels for basis in bases)
        which = self.column(by) if by else np.zeros(len(self.masses), int)
        probs = np.zeros((len(self.masses), len(labels[0])))
        states = np.zeros(probs.shape + self.states.shape[1:], self.states.dtype)
        for group in set(which.tolist()):
            at = (which == group).nonzero()[0]
            probs[at], states[at] = measurement_rows(self.states[at], bases[group])
        self._grow(key, probs, states, labels if by else labels[0], by)

    def attack(self, kind: str, transit: tuple[int, ...]) -> None:
        """Eve's attack ``kind`` on the qubits ``transit``, her outcome's
        label under ``note``. One with a single outcome adds no level: each
        node forwards its whole row, and every node holds the one note,
        None."""
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


def _present_tree(kind: str, init_policy: str, message: bool) -> _BranchTree:
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
    tree.gate(3, HADAMARD, tree.column("initial") == initials.index("phi2"))
    tree.measure("alice", (z_basis(1, 2),))
    tree.measure("bob", (z_basis(3),))
    if not message:
        return tree.finish(check_pass=rules["consistent"][tree.column("alice"), tree.column("bob")])

    if kind == "cnot":
        # Eve measures her ancilla, qubit 4, only at guess time, so its
        # outcome is her note
        tree.measure("note", (z_basis(4),))

    return tree.finish(
        message_bit=tree.column("bit"),
        recovered_bit=rules["recovered"][tree.column("alice"), tree.column("bob")],
        eve_guess=tree.guess(("initial", "alice", "note")),
    )


def _cao_tree(kind: str, basis_policy: str, message: bool) -> _BranchTree:
    """The cao scheme's check-round tree of ``basis_policy``, or (``message``
    true) its message-round tree: the w4 state, the attack, the check basis
    (a key round's is the Bell basis) and each party's measurement of its
    pair in it. A message round's bit enters only the ciphertext, so its
    quantum part is that of a Bell-basis check round."""
    rules = _rule_tables()
    tree = _BranchTree()
    tree.choose("bit", (0, 1), "random" if message else 0)
    tree.choose("initial", ("w4",), "w4")
    tree.prepare([build("w4")])
    tree.attack(kind, (3, 4))
    tree.choose("basis", CHECK_BASES, "bell" if message else basis_policy)
    for key, pair in (("alice", (1, 2)), ("bob", (3, 4))):
        tree.measure(key, tuple(MeasurementBasis(basis, pair) for basis in CHECK_BASES), by="basis")
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
    """A config's (check-round tree, message-round tree), with what runs and
    exact analysis read off both, compiled on first use, read-only: the walk
    tables, ``indicators[c, i]``, whether joined leaf ``i`` counts towards
    ``_COUNTS[c]``, and the weight rows of exact analysis (``exact_weights``)."""

    @cached_property
    def walk(self) -> tuple[tuple[tuple[np.ndarray, ...], ...], np.ndarray]:
        return _walk_tables(self)

    @cached_property
    def indicators(self) -> np.ndarray:
        bit, passed, recovered, guess = map(np.concatenate, zip(*(tree.leaf_columns for tree in self)))
        message = bit >= 0
        indicators = np.array([~message, passed == 0, message, message & (recovered == bit),
                               guess >= 0, message & (guess == bit)])
        indicators.setflags(write=False)
        return indicators

    @cached_property
    def exact_weights(self) -> tuple[np.ndarray, dict[str, tuple]]:
        """The weight rows of exact analysis and the labels they group by:
        every joined leaf's mass, then, per label of each grouping key that
        the trees hold (the initial state, and for cao the check basis), the
        masses of the leaves with it; and each such key's labels."""
        masses = np.concatenate([tree.masses for tree in self])
        labels = {key: entry[1] for key, entry in self[0]._columns.items() if key in ("initial", "basis")}
        weights = np.concatenate([masses[None]] + [
            masses * (np.concatenate([tree.column(key) for tree in self]) == np.arange(len(names))[:, None])
            for key, names in labels.items()
        ])
        weights.setflags(write=False)
        return weights, labels


@lru_cache(maxsize=None)
def _config_trees(scheme: str, kind: str, policy: str) -> _ConfigTrees:
    """(check-round tree, message-round tree) of ``scheme`` under attack
    ``kind`` and the scheme's init or check-basis ``policy``, built once per
    process, each from its root. The keys are the 20 valid configs, not a
    :class:`RunConfig`, whose seed and round count would grow the memo
    without bound."""
    build_tree = _present_tree if scheme == "present" else _cao_tree
    return _ConfigTrees((build_tree(kind, policy, False), build_tree(kind, policy, True)))


def _round_trees(config: RunConfig) -> _ConfigTrees:
    """(check-round tree, message-round tree) of a config, from the memo of
    :func:`_config_trees`: what its runs walk and its exact analysis sums."""
    policy = config.init_policy if config.scheme == "present" else config.check_basis_policy
    return _config_trees(config.scheme, config.attack, policy)


_COUNTS = ("check_rounds", "check_errors", "message_rounds",
           "recovered_correct", "guesses_known", "guesses_correct")


def _leaf_totals(trees: _ConfigTrees, weights: np.ndarray) -> list[dict]:
    """The run counts of rounds ending at the joined leaves of a config's
    (check, message) ``trees``, one per row of ``weights``, leaf ``i``
    weighted by ``weights[r, i]``: its hit count (Monte Carlo) or its mass
    (exact). Each count is an indicator row dotted with a weight row as a
    running sum in leaf order, to which a leaf of indicator 0 adds an
    exact 0.0."""
    totals = np.add.accumulate(trees.indicators * weights[:, None], axis=2)[:, :, -1]
    return [dict(zip(_COUNTS, row)) for row in totals.tolist()]


def _rates(totals: dict) -> tuple[float, float, float, float]:
    """(error rate, recovery accuracy, leak rate, unknown fraction) of the
    rounds in ``totals``: the error rate of its check rounds, the rest of
    its message rounds; the leak rate counts only the rounds in which Eve
    guesses."""
    checks, total, known = totals["check_rounds"], totals["message_rounds"], totals["guesses_known"]
    error = totals["check_errors"] / checks if checks else 0.0
    recovery = totals["recovered_correct"] / total if total else 1.0
    leak = totals["guesses_correct"] / known if known else 0.0
    unknown_fraction = 1.0 - known / total if total else 1.0
    return error, recovery, leak, unknown_fraction


# ---------------------------------------------------------------------------
# exact analyzer


def exact_analyze(
    scheme: str,
    attack: str,
    init_policy: str = "random",
    check_basis_policy: str = "random",
) -> ExactResult:
    """Exact rates of a config: the joined leaves of the branch trees that
    its Monte Carlo runs walk, each weighted by its mass.

    A conditional rate reads one group of those leaves: for an error rate,
    the leaves whose code of the key that the policy sets (the initial
    state, or the check basis) is the group's; for a leak rate, those of
    the group's initial state (the cao scheme has one, w4). It is computed
    from the group's masses as the config's rate is from all of them, and
    a group with no check (or message) leaf is left out, so a fixed policy
    has one group.
    """
    trees = _round_trees(RunConfig(scheme, attack, init_policy=init_policy,
                                   check_basis_policy=check_basis_policy))
    weights, labels = trees.exact_weights
    total, *rows = _leaf_totals(trees, weights)
    groups = dict(zip([name for names in labels.values() for name in names], rows))
    error_key = "initial" if scheme == "present" else "basis"
    total_error, recovery, leak, unknown_fraction = _rates(total)
    return ExactResult(
        scheme=scheme,
        attack=attack,
        total_error_rate=total_error,
        conditional_error_rates={name: _rates(groups[name])[0] for name in labels[error_key]
                                 if groups[name]["check_rounds"]},
        leak_rate=leak,
        unknown_fraction=unknown_fraction,
        conditional_leak_rates={name: _rates(groups[name])[2] for name in labels["initial"]
                                if groups[name]["message_rounds"]},
        recovery_accuracy=recovery,
    )


# ---------------------------------------------------------------------------
# Monte Carlo runner

_DRAWS_PER_ROUND = 8
_BLOCKS_PER_ROUND = 2

# rounds a run streams at a time; a multiple of 4, so that every block of
# mode flags starts on a Philox counter step
_BLOCK_ROUNDS = 2**13

# about 12 minutes of rounds at 1.35e7 rounds/s (a cold 1e8-round cao-ir-z
# run took a median 7.40 s on a 2-core VM, benchmarks/BENCH_raw-radix-walk.json);
# larger counts would run for hours to months
_MAX_ROUNDS = 10**10


def _words(bitgen: np.random.Philox, key: list[int], steps: int, count: int) -> np.ndarray:
    """``count`` raw uint64 words of ``bitgen``, unshifted, its whole state first
    set to ``Philox(key=key, counter=[steps, 0, 0, 0])``'s (as ints numpy reads)."""
    bitgen.state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                    "uinteger": 0, "state": {"counter": [steps, 0, 0, 0], "key": key}}
    return bitgen.random_raw(count)


def _draw_block(master_seed: int, start: int, count: int, bitgen) -> np.ndarray:
    """Word matrix for rounds [start, start+count): row i of the full
    run's draw table, regardless of blocking."""
    key, steps = [master_seed, _DRAW_STREAM_TAG], _BLOCKS_PER_ROUND * start
    return _words(bitgen, key, steps, count * _DRAWS_PER_ROUND).reshape(count, -1)


def _check_flags(config: RunConfig, start: int, count: int, bitgen) -> np.ndarray:
    """Check/message assignment of rounds [start, start+count), ``start`` a
    multiple of 4, by the draw scheme (``u < f`` iff ``raw <= (ceil(f *
    _WORD) << 11) - 1``, at most ``2**64 - 1``, the ceiling exact from ``f``'s
    integer ratio: ``f * _WORD`` overflows a float16); a block 0 with no
    check flag scans later blocks for one."""
    numerator, denominator = config.check_fraction.as_integer_ratio()
    words = _words(bitgen, [config.master_seed, _MODE_STREAM_TAG], start // 4, count)
    flags = words <= np.uint64((-(-numerator * _WORD // denominator) << 11) - 1)
    if start == 0 and not flags.any():
        blocks = (_check_flags(config, lo, min(_BLOCK_ROUNDS, config.rounds - lo), bitgen)
                  for lo in range(count, config.rounds, _BLOCK_ROUNDS))
        flags[0] = not any(block.any() for block in blocks)
    return flags


@lru_cache(maxsize=None)
def _philox() -> np.random.Philox:
    """The process's one Philox, which :func:`_words` re-keys for every block."""
    return np.random.Philox(0)


def _run_hits(config: RunConfig) -> np.ndarray:
    """The run's leaf hits, its rounds that end at each joined leaf in
    ``_ConfigTrees.indicators`` order: walked ``_BLOCK_ROUNDS`` at a time down
    one table of both trees, a check round from the check tree's root (node
    0) and a message round from the message tree's (node 1)."""
    trees, bitgen = _round_trees(config), _philox()
    hits = np.zeros(trees.indicators.shape[1], dtype=np.int64)
    for start in range(0, config.rounds, _BLOCK_ROUNDS):
        count = min(_BLOCK_ROUNDS, config.rounds - start)
        roots = ~_check_flags(config, start, count, bitgen)
        words = _draw_block(config.master_seed, start, count, bitgen)
        hits += np.bincount(_walk(trees.walk, roots, words), minlength=len(hits))
    return hits


def run_monte_carlo(config: RunConfig, workers: int = 1) -> RunStats:
    """Execute ``config.rounds`` independent rounds and fold their leaf hits
    into counts (:func:`_leaf_totals`, as exact analysis folds masses).

    Rounds stream in fixed blocks, so memory stays constant whatever the
    round count. Every round draws from its own counter-keyed stream and
    the hits merge is a plain sum, so the result is the same for any
    block size. ``workers`` remains only as 1: the process pool is gone.
    """
    if workers != 1:
        raise InvalidConfig(f"workers={workers}: the process pool was removed")
    counts = _leaf_totals(_round_trees(config), _run_hits(config)[None])[0]
    checks, errors = counts["check_rounds"], counts["check_errors"]
    error_rate, recovery, leak, unknown_fraction = _rates(counts)
    return RunStats(
        scheme=config.scheme,
        attack=config.attack,
        rounds_total=config.rounds,
        check_rounds=checks,
        check_errors=errors,
        message_rounds=counts["message_rounds"],
        error_rate=error_rate,
        error_rate_ci95=_binomial_ci(errors, checks),
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
