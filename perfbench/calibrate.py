"""Reference work that takes host CPU speed drift out of the timings.

On a shared virtual machine the speed of a vCPU changes with the load
its neighbours put on the host: the same call can take 50 ms for a
minute and 90 ms the next. Every timing the benchmark gates on is
therefore scaled by a reference measured next to it, on the same CPU:

    normalized = wall * REF_NOMINAL_S / (reference time beside the call)

The reference is a fixed piece of work in the style of the program's hot
path (small state-vector measurements on numpy arrays of 8 amplitudes,
frozen dataclasses, a little JSON), written here and not imported from
``wqsc``, so no change to the program can change it. A normalized time
reads as "wall time on a host where the reference unit takes
REF_NOMINAL_S"; raw wall times are reported beside it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

# reference unit time on the host the benchmark was calibrated on
# (2-vCPU Intel Xeon VM at 2.1 GHz, python 3.11, numpy 2.4, loaded state)
REF_NOMINAL_S = 1.2e-3

UNITS_PER_BURST = 3
BURST_INTERVAL_S = 0.1

_U = [((i * 2654435761) % 1000) / 1000.0 for i in range(64)]
_AMPS = np.zeros(8, dtype=np.complex128)
_AMPS[[1, 2, 4]] = 3 ** -0.5


@dataclass(frozen=True)
class _Record:
    outcome: int
    norm: float


def reference_unit() -> list[_Record]:
    """64 single-qubit Z measurements of a 3-qubit W state, by hand."""
    records = []
    for u in _U:
        bits = (np.arange(8) >> 2) & 1
        probs = np.bincount(bits, weights=_AMPS.real ** 2 + _AMPS.imag ** 2, minlength=2)
        k = 0 if u < probs[0] else 1
        kept = np.where(bits == k, _AMPS, 0.0)
        records.append(_Record(k, float(np.sum(kept.real ** 2 + kept.imag ** 2))))
    json.dumps({"outcomes": [r.outcome for r in records[:8]], "norm": records[0].norm})
    return records


def burst() -> float:
    """Fastest of a few reference units, in seconds."""
    best = float("inf")
    for _ in range(UNITS_PER_BURST):
        t0 = time.perf_counter()
        reference_unit()
        best = min(best, time.perf_counter() - t0)
    return best


class Timeline:
    """Reference bursts interleaved with timed calls on one CPU."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []

    def burst(self) -> None:
        self.times.append(time.perf_counter())
        self.refs.append(burst())

    def maybe_burst(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= BURST_INTERVAL_S:
            self.burst()

    def scales(self, starts, ends) -> np.ndarray:
        """Per interval: REF_NOMINAL_S over the mean of the last burst
        before it starts and the first burst after it ends."""
        times, refs = np.asarray(self.times), np.asarray(self.refs)
        before = np.searchsorted(times, np.asarray(starts), side="right") - 1
        after = np.searchsorted(times, np.asarray(ends), side="left")
        before = np.clip(before, 0, len(times) - 1)
        after = np.clip(after, 0, len(times) - 1)
        return REF_NOMINAL_S / ((refs[before] + refs[after]) / 2.0)
