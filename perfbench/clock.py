"""A timer that takes the shared host's changing speed out of section times.

The host this benchmark runs on is shared: its speed for one Python thread
drifts by up to 1.5x between states that last from seconds to minutes, and a
whole 30-second run can fall into one slow state. Raw medians then differ from
run to run by more than any change worth measuring.

`Clock` therefore runs short fixed reference loops (`reference_times`, pure
Python, independent of aqsim) at the boundaries of the timed sections, and
scales the time between two such marks by how fast a reference ran there:

    calibrated = raw * REFERENCE_S[kind] / reference_time[kind]

with `reference_time` interpolated linearly between the marks. A section that
ran while the host was 1.4x slow also saw the reference 1.4x slow, so its
calibrated time stays put, while a change in aqsim's own speed moves only the
section, never the reference. `REFERENCE_S` holds each reference's time near
this host's usual speed, so calibrated seconds read close to raw ones.

The time the reference loops themselves take is cut out of every interval: the
clock runs on "visible" time, raw `perf_counter` minus all time spent in marks.
"""

from __future__ import annotations

import bisect
import time
from operator import sub

# Best-of-3 reference times near the usual speed of the host the benchmark was
# tuned on (Linux x86_64, 2 cores, Python 3.11); only scales, never gates.
REFERENCE_S = {"mixed": 0.0045, "slices": 0.0017}
REPEATS = 3  # a mark keeps the fastest of this many runs of each part
MIN_GAP_S = 0.02  # boundaries closer than this share one mark

_SERIES = list(range(3000))
_QUEUES = [[i] * (i % 3) for i in range(4096)]


class _Item:
    __slots__ = ("key", "tag")

    def __init__(self, key, tag):
        self.key = key
        self.tag = tag


def _slices() -> int:
    """Sliding-window maxima with list slices, `map` and `max`, as in the
    admissibility oracle."""
    series, n = _SERIES, len(_SERIES)
    out = 0
    for width in range(1, 11):
        out = max(out, max(map(sub, series[width:], series[: n - width])))
    return out


def _scans() -> int:
    """Scans over 4,096 short lists, as in the engine's per-step scans over
    every edge queue."""
    out = 0
    for _ in range(4):
        out += max(map(len, _QUEUES)) + len([i for i, q in enumerate(_QUEUES) if q])
    return out


def _objects() -> int:
    """Bytecode on small objects: dict and list updates and `min` with a key,
    as in queue selection and the sweep."""
    queues: dict[int, list[_Item]] = {}
    out = 0
    for i in range(1000):
        item = _Item(i, i % 13)
        queue = queues.setdefault(item.tag, [])
        queue.append(item)
        if len(queue) > 3:
            out += min(queue, key=lambda x: x.key).key
            queue.pop(0)
    return out


def reference_times() -> dict[str, float]:
    """The two references: `mixed`, the three parts in about equal shares, and
    `slices`, the first part alone. The shared host's slow states slow each
    kind of work by a different factor. Measured against engine, oracle and
    sweep calls on the host above, the mix followed the engine and the sweep
    more closely than any one part did, and `slices` alone followed the
    oracle most closely."""
    best = []
    for part in (_slices, _scans, _objects):
        fastest = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            part()
            fastest = min(fastest, time.perf_counter() - start)
        best.append(fastest)
    return {"mixed": sum(best), "slices": best[0]}


class Clock:
    """Visible time plus the reference-loop marks that calibrate it."""

    def __init__(self):
        self.hidden = 0.0  # raw seconds spent inside marks
        self.at: list[float] = []  # visible time of each mark
        self.ref: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}
        self.last_raw = float("-inf")
        self.kind = "mixed"  # the reference that calibrates the time from now on
        self.switch_at: list[float] = [float("-inf")]  # visible time of each change
        self.switch_kind: list[str] = [self.kind]

    def now(self) -> float:
        return time.perf_counter() - self.hidden

    def use(self, kind: str) -> None:
        """Calibrate the time from now on by the reference `kind`."""
        self.kind = kind
        self.switch_at.append(self.now())
        self.switch_kind.append(kind)

    def mark(self, force: bool = False) -> None:
        """Measure the host's speed here, unless a mark was just taken."""
        raw = time.perf_counter()
        if force or raw - self.last_raw >= MIN_GAP_S:
            for kind, value in reference_times().items():
                self.ref[kind].append(value)
            self.at.append(raw - self.hidden)
            self.last_raw = time.perf_counter()
            self.hidden += self.last_raw - raw

    def _ref_at(self, refs: list[float], v: float) -> float:
        i = bisect.bisect_right(self.at, v)
        if i == 0:
            return refs[0]
        if i == len(self.at):
            return refs[-1]
        a0, a1, r0, r1 = self.at[i - 1], self.at[i], refs[i - 1], refs[i]
        return r0 if a1 == a0 else r0 + (r1 - r0) * (v - a0) / (a1 - a0)

    def calibrated(self, v0: float, v1: float) -> float:
        """Seconds between visible times v0 and v1, each stretch scaled by the
        reference in use there to that reference's REFERENCE_S."""
        cuts = sorted(
            {v0, v1, *(v for v in self.at if v0 < v < v1), *(v for v in self.switch_at if v0 < v < v1)}
        )
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            kind = self.switch_kind[bisect.bisect_right(self.switch_at, (a + b) / 2) - 1]
            refs = self.ref[kind]
            total += (b - a) * 2 * REFERENCE_S[kind] / (self._ref_at(refs, a) + self._ref_at(refs, b))
        return total
