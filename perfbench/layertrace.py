"""Outside-in layer tracing.

The tracer replaces module attributes through which the layers of
``wqsc`` call each other with wrappers that record a span per call:
layer name, start, end (``perf_counter_ns``) and parent span. Nothing
inside ``src/`` changes; a hook whose attribute is missing at the
commit being measured is skipped and its layer reported absent.

Spans are kept in typed arrays in memory and analysed (and optionally
written out) after the traced pass. A span's self time is its duration
minus the durations of its direct children; children never overlap
because every traced call is synchronous.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

OP = "op"

# layer -> (module, attribute) pairs. A layer is hooked at the binding its
# callers use: ``from x import f`` makes a separate binding in the caller.
HOOKS: dict[str, list[tuple[str, str]]] = {
    "kernels": [
        ("wqsc._kernels", name)
        for name in (
            "apply_gate_1q",
            "apply_cnot",
            "z_probabilities",
            "collapse_z",
            "bell_probabilities",
            "bell_collapse",
        )
    ],
    "qstate.measure": [("wqsc.protocol", "measure"), ("wqsc.attacks", "measure")],
    "qstate.branches": [("wqsc.harness", "branches"), ("wqsc.protocol", "branches")],
    "protocol.round": [("wqsc.harness", "present_round"), ("wqsc.harness", "cao_round")],
    "protocol.rules": [
        (module, name)
        for module in ("wqsc.protocol", "wqsc.harness")
        for name in ("check_consistent", "recover_bit", "cao_check_error")
    ],
    "attacks.apply_attack": [("wqsc.protocol", "apply_attack")],
    "attacks.eve_guess": [("wqsc.protocol", "eve_guess"), ("wqsc.harness", "eve_guess")],
    "attacks.attack_branches": [("wqsc.harness", "attack_branches")],
    "states.build": [
        ("wqsc.protocol", "build"),
        ("wqsc.attacks", "build"),
        ("wqsc.harness", "build"),
    ],
    "states.identities": [("wqsc.cli", "verify_identities")],
    "harness.mc": [("wqsc.harness", "run_monte_carlo"), ("wqsc.cli", "run_monte_carlo")],
    "harness.draws": [("wqsc.harness", "_draw_block"), ("wqsc.harness", "_check_flags")],
    "harness.exact": [("wqsc.cli", "exact_analyze")],
    "harness.serialize": [
        ("wqsc.cli", name)
        for name in (
            "run_stats_to_dict",
            "exact_result_to_dict",
            "identity_reports_to_dict",
            "to_json",
            "to_csv",
        )
    ],
    "cli.main": [("wqsc.cli", "main")],
}

# layers whose wrappers also record the tracemalloc peak of each call
ALLOC_LAYERS = ("harness.draws",)


class Tracer:
    """Records spans around hooked calls while installed."""

    def __init__(self) -> None:
        self.layers: list[str] = [OP, *HOOKS]
        self.absent: list[str] = []
        self._ids = {name: i for i, name in enumerate(self.layers)}
        self._restore: list[tuple[object, str, object]] = []
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.alloc_bytes = {layer: 0 for layer in ALLOC_LAYERS}
        self._stack = [-1]

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        for layer, targets in HOOKS.items():
            hooked = 0
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self._wrap(fn, layer))
                self._restore.append((module, attr, fn))
                hooked += 1
            if not hooked:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, layer: str):
        lid = self._ids[layer]
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter_ns

        if layer in ALLOC_LAYERS:
            alloc = self.alloc_bytes

            def wrapper(*args, **kwargs):
                i = len(names)
                names.append(lid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(i)
                tracemalloc.start()
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    alloc[layer] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    stack.pop()

        else:

            def wrapper(*args, **kwargs):
                i = len(names)
                names.append(lid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, call):
        """Run ``call()`` as the root span of one op."""
        return self._wrap(call, OP)()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int16).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        roots = np.flatnonzero(parent < 0)
        op_id = np.searchsorted(roots, np.arange(len(name)), side="right") - 1
        return {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.arrays()
        for key in ("parent", "op"):
            spans[key] = spans[key].astype(np.int32)
        np.savez(path, layers=np.array(self.layers), **spans)


def _child_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per span, the summed duration of its direct children."""
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    return np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(parent))


def layer_totals(spans: dict[str, np.ndarray], layers: list[str], op_mask: np.ndarray):
    """Per layer: call count and self time (ns) over the spans of the ops
    selected by the boolean ``op_mask`` (indexed by op id)."""
    name = spans["name"]
    self_ns = spans["end"] - spans["start"] - _child_ns(spans)
    keep = op_mask[spans["op"]]
    calls = np.bincount(name[keep], minlength=len(layers))
    self_total = np.bincount(name[keep], weights=self_ns[keep], minlength=len(layers))
    return (
        {layer: int(calls[i]) for i, layer in enumerate(layers)},
        {layer: float(self_total[i]) for i, layer in enumerate(layers)},
    )


def split_mc_self(spans: dict[str, np.ndarray], layers: list[str], op_mask: np.ndarray):
    """Split the self time of ``harness.mc`` spans into the part inside the
    per-round loop (from the first round's start to the last round's end)
    and the per-call part outside it. A call with no round spans counts
    wholly as per-call. Returns (loop_ns, call_ns, calls)."""
    name, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
    mc = np.flatnonzero((name == layers.index("harness.mc")) & op_mask[spans["op"]])
    is_round = (name == layers.index("protocol.round")) & (parent >= 0)
    first = np.full(len(name), np.iinfo(np.int64).max)
    last = np.full(len(name), np.iinfo(np.int64).min)
    np.minimum.at(first, parent[is_round], start[is_round])
    np.maximum.at(last, parent[is_round], end[is_round])
    # children that lie inside their parent's round interval
    p = np.maximum(parent, 0)
    inside = (parent >= 0) & (start >= first[p]) & (end <= last[p])
    inside_ns = np.bincount(parent[inside], weights=(end - start)[inside], minlength=len(name))
    self_ns = end[mc] - start[mc] - _child_ns(spans)[mc]
    loop_ns = np.where(last[mc] > first[mc], last[mc] - first[mc] - inside_ns[mc], 0.0)
    return float(loop_ns.sum()), float((self_ns - loop_ns).sum()), int(len(mc))
