"""(r,b)-adversaries: rate-limited injection generators and the window-check oracle.

The admission rule: for every edge e and every closed step interval I, the
number of injected packets whose path contains e and whose time lies in I is
at most floor(r*|I|) + b, with |I| counted inclusively and time starting at
step 1. All window arithmetic is exact (rational r).

`WindowBudget` is the one implementation of that rule. Every finite adversary
is a `ScriptedAdversary`, checked at construction by `verify_admissible`; a
burst is the script that injects all its paths at step 1. The saturating
generator is the closed form b + floor(r*t) of the greedy (r,b) adversary,
whose docstring proves it admissible.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter, gt, itemgetter
from typing import Iterable, Optional, Sequence

from .network import EdgeId, Network, PacketPath, as_count, shown, validate_path


class AdversaryError(ValueError):
    pass


# A rate may have at most this many digits in its numerator and denominator
# (CPython's default cap on int/str conversion), so no rate costs more to read
# or to print than that.
_MAX_DIGITS = 4300
_TOO_MANY_DIGITS = 10**_MAX_DIGITS
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _huge_exponent(r) -> bool:
    """Whether the decimal `r` carries an exponent above `_MAX_DIGITS` in
    magnitude, which `Fraction` would expand into a power of ten."""
    if isinstance(r, Decimal):
        exponent = r.as_tuple().exponent
        return isinstance(exponent, int) and abs(exponent) > _MAX_DIGITS
    match = _EXPONENT.search(r) if isinstance(r, str) else None
    if match is None:
        return False
    digits = match.group(1).replace("_", "").lstrip("0")
    return len(digits) > len(str(_MAX_DIGITS)) or int(digits or 0) > _MAX_DIGITS


def as_rate(r) -> Fraction:
    """Exact rational injection rate in (0,1); floats are read as their
    shortest decimal form (0.1 means exactly 1/10)."""
    if _huge_exponent(r):
        raise AdversaryError(f"injection rate exponent exceeds {_MAX_DIGITS} in {shown(r)}")
    try:  # refuses None, nan, inf, "abc", "1/0" and Decimal("Infinity")
        rate = Fraction(str(r) if isinstance(r, float) else r)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise AdversaryError(f"cannot read injection rate from {shown(r)}") from None
    if abs(rate.numerator) >= _TOO_MANY_DIGITS or rate.denominator >= _TOO_MANY_DIGITS:
        raise AdversaryError(f"injection rate has more than {_MAX_DIGITS} digits")
    if not 0 < rate < 1:
        raise AdversaryError(f"injection rate must satisfy 0 < r < 1, got {shown(r)}")
    return rate


@dataclass(frozen=True)
class InjectionEvent:
    time: int
    path: PacketPath


def _event_steps(events: Sequence[InjectionEvent]) -> list[int]:
    """The events' steps, each a count (`as_count`). A list of ints >= 1 is
    accepted by passes in C, with no Python call per event; only a list
    that fails them is walked, to refuse its first step that is no count."""
    steps = list(map(attrgetter("time"), events))
    if steps and not (set(map(type, steps)) <= {int} and min(steps) >= 1):
        for k, t in enumerate(steps):
            as_count(t, f"events[{k}].time", AdversaryError)
    return steps


@dataclass(frozen=True)
class Violation:
    """A window that breaks the (r,b) constraint."""

    edge: EdgeId
    start: int
    end: int
    count: int
    allowed: int

    def __str__(self) -> str:
        length = self.end - self.start + 1
        return (
            f"edge {shown(self.edge)}: {self.count} injections in steps "
            f"[{self.start},{self.end}] exceed floor(r*{length})+b = {self.allowed}"
        )


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    violation: Optional[Violation] = None

    def __bool__(self) -> bool:
        return self.ok


# ---- the window rule and the oracle ----------------------------------------


class WindowBudget:
    """The (r,b) window rule on one edge, fed its injection counts step by step.

    Counts and b are integers, so count <= floor(r*|I|)+b and count <= r*|I|+b
    coincide. With P(t) the injections in steps 1..t, the window [s,t] holds
    P(t) - P(s-1), so every window ending at t holds iff
    q*P(t) <= min_{0<=u<t} (q*P(u) - p*u) + p*t + q*b, where r = p/q.
    `low` is that running minimum and `total` is P of the last step fed.
    """

    def __init__(self, rate: Fraction, b: int):
        self.p, self.q, self.b = rate.numerator, rate.denominator, b
        self.total = self.low = 0  # u = 0 gives q*P(0) - p*0 = 0

    def headroom(self, t: int) -> int:
        """Injections step t can still take. Call with increasing t and add the
        step's count to `total` after each call; `total` is constant over the
        steps skipped between calls, so folding u = t-1 in covers them all."""
        self.low = min(self.low, self.q * self.total - self.p * (t - 1))
        return (self.low + self.p * t) // self.q + self.b - self.total

    def cap(self, length: int) -> int:
        """floor(r*length) + b: the most injections a window of `length` steps may hold."""
        return self.p * length // self.q + self.b


def _shortest_violation(edge: EdgeId, steps: list, budget: WindowBudget) -> Violation:
    """The shortest violating window on `edge`, earliest end first, given its
    (step, count) pairs in step order.

    With g(u) = q*P(u) - p*u, the window [u+1, t] breaks the rule iff
    g(u) < g(t) - q*b. Trimming a step without injections off either end keeps
    the count and never raises the cap, so a shortest violating window starts
    and ends at injection steps: u runs over s-1 for the injection steps s. A
    candidate u is of no use once a later one has no larger g, so the kept
    candidates form a stack of suffix minima, increasing in u and in g, and
    each end t bisects it for the latest u with g(u) < g(t) - q*b.
    """
    p, q, b = budget.p, budget.q, budget.b
    stack: list[tuple[int, int, int]] = []  # (g(u), u, P(u)), g strictly increasing
    best: Optional[Violation] = None
    total = 0
    for t, n in steps:
        g = q * total - p * (t - 1)
        while stack and stack[-1][0] >= g:
            stack.pop()
        stack.append((g, t - 1, total))
        total += n
        k = bisect_left(stack, q * total - p * t - q * b, key=itemgetter(0)) - 1
        if k >= 0:
            _, u, before = stack[k]
            if best is None or t - u < best.end - best.start + 1:
                best = Violation(edge, u + 1, t, total - before, budget.cap(t - u))
    return best


def verify_admissible(
    events: Sequence[InjectionEvent], r, b, horizon: int
) -> AdmissibilityResult:
    """Check every edge and every interval [s,t] within [1,horizon].

    Edges are taken in first-appearance order; each edge's (step, count) pairs
    go through a fresh `WindowBudget`. A window ending between injections holds
    no more than the one ending at the last injection before it, so checking
    at injection steps decides every window up to `horizon`. Edges used by the
    same set of distinct paths see the same injections and are checked once.
    The cost follows the number of events, not `horizon`. Refuses a b,
    horizon or event step that is not a count, and a horizon before the last
    event.

    On failure the witness is on the first violating edge: its shortest
    violating window, earliest end first. It checks the output of every
    generator in this module; the tests compare it with a naive recount that
    shares no code with it.
    """
    rate = as_rate(r)
    b = as_count(b, "b", AdversaryError)
    horizon = as_count(horizon, "horizon", AdversaryError)
    latest = max(_event_steps(events), default=0)
    if horizon < latest:
        raise AdversaryError(f"horizon {horizon} precedes last event at step {latest}")

    times: dict[tuple, list[int]] = {}  # distinct path -> its injection steps
    for ev in events:
        times.setdefault(ev.path.edges, []).append(ev.time)
    users: dict[EdgeId, list[int]] = {}  # edge -> indices of the distinct paths on it
    for k, edges in enumerate(times):
        for e in dict.fromkeys(edges):
            users.setdefault(e, []).append(k)

    first_edge: dict[tuple[int, ...], EdgeId] = {}  # same paths, same injections
    for e, ks in users.items():
        first_edge.setdefault(tuple(ks), e)

    per_path = list(times.values())
    for ks, e in first_edge.items():
        steps = sorted(Counter(t for k in ks for t in per_path[k]).items())
        budget = WindowBudget(rate, b)
        for t, n in steps:
            if budget.headroom(t) < n:
                return AdmissibilityResult(False, _shortest_violation(e, steps, budget))
            budget.total += n
    return AdmissibilityResult(True)


# ---- generators -----------------------------------------------------------


class Adversary:
    """Injection source for the engine.

    `injections_for(step)` yields the paths injected at that step; the engine
    calls it once per step in increasing order. The returned list is
    read-only: it may be the source's own, and engines only iterate it.
    `done_after(step)` is true when no injection can occur strictly after
    `step` (drives run termination).

    `period` is None, or a q >= 1 such that `injections_for(t)` for every
    t >= 2 depends only on `t % q`, through no state kept between calls, and
    `done_after` is always false; either engine may then skip calls (see
    `sim_engine.run` and `interval_strategy.run_interval`).
    """

    r: Optional[Fraction] = None
    b: int = 1
    period: Optional[int] = None

    def injections_for(self, step: int) -> list[PacketPath]:
        raise NotImplementedError

    def done_after(self, step: int) -> bool:
        raise NotImplementedError

    def events(self, horizon: int) -> list[InjectionEvent]:
        """The injection sequence up to `horizon`, for verification/replay."""
        raise NotImplementedError


class ScriptedAdversary(Adversary):
    """Replays a fixed event list on `network`; refuses construction if an
    event's step is not a count, if the steps are out of order, if an
    event's path is not a path of `network`, or if `verify_admissible`
    refuses the script for a break of the declared (r,b) budget."""

    def __init__(self, events: Iterable[InjectionEvent], r, b, network: Network):
        self.r = as_rate(r)
        self.b = as_count(b, "b", AdversaryError)
        self._events = list(events)
        steps = _event_steps(self._events)  # each a count before steps are compared
        if any(map(gt, steps, steps[1:])):
            raise AdversaryError("events must be sorted by time")
        for ev in self._events:
            if not validate_path(network, ev.path):
                edges = shown(ev.path.edges)
                raise AdversaryError(f"event at step {ev.time}: invalid path {edges}")
        self._last = max(steps, default=0)
        if self._events:
            result = verify_admissible(self._events, self.r, self.b, self._last)
            if not result:
                raise AdversaryError(f"inadmissible script: {result.violation}")
        self._by_step: dict[int, list[PacketPath]] = {}
        for ev in self._events:
            self._by_step.setdefault(ev.time, []).append(ev.path)

    def injections_for(self, step: int) -> list[PacketPath]:
        return self._by_step.get(step, [])

    def done_after(self, step: int) -> bool:
        return step >= self._last

    def events(self, horizon: int) -> list[InjectionEvent]:
        return [ev for ev in self._events if ev.time <= horizon]


def scripted_adversary(events, r, b, network: Network) -> ScriptedAdversary:
    return ScriptedAdversary(events, r, b, network)


def burst_adversary(network: Network, paths, b) -> ScriptedAdversary:
    """All `paths` injected at step 1, nothing afterwards: a script of step-1
    events, checked by `verify_admissible` like any other script.

    The window [1,1] allows floor(r)+b = b and every longer window holds the
    same events and allows at least b, so for every rate r in (0,1) the burst
    is admissible exactly when no edge carries more than b of the paths. Any
    fixed rate in (0,1) therefore decides the check, and 1/2 is used; the
    returned adversary keeps `r = None`, since a burst constrains no rate.
    """
    adversary = ScriptedAdversary(
        (InjectionEvent(1, path) for path in paths), Fraction(1, 2), b, network
    )
    adversary.r = None
    return adversary


class SaturatingAdversary(Adversary):
    """Greedy maximal injector of one fixed path, in closed form: by step t it
    has injected exactly b + floor(r*t) packets. With r = p/q, step 1 injects
    b copies of the path, a step t >= 2 injects one copy iff
    floor(r*t) > floor(r*(t-1)), that is iff (p*t) % q < p, and a step below
    1 injects nothing.

    Why no (r,b) source injects more by any step, and this one is admissible:
    - the window [1,t] allows floor(r*t) + b, exactly what this source holds;
    - a window [s,t] with s >= 2 holds floor(r*t) - floor(r*(s-1)) <=
      floor(r*(t-s+1)) + 1, as floor(x+y) <= floor(x) + floor(y) + 1, which
      is within its cap floor(r*(t-s+1)) + b because b >= 1.

    Every step is served one of three shared read-only lists (empty, `[path]`
    and the burst), so a call costs O(1) time and memory. For t >= 2 the
    list depends only on t % q, so the source's `period` is q."""

    def __init__(self, network: Network, path: PacketPath, r, b):
        if not validate_path(network, path):
            raise AdversaryError(f"invalid path {shown(path.edges)}")
        self.r = as_rate(r)
        self.b = as_count(b, "b", AdversaryError)
        self._p, self._q = self.r.numerator, self.r.denominator
        self.period = self._q
        self._none: list[PacketPath] = []
        self._one = [path]
        self._burst = [path] * self.b

    def injections_for(self, step: int) -> list[PacketPath]:
        if step > 1:
            return self._one if self._p * step % self._q < self._p else self._none
        return self._burst if step == 1 else self._none

    def done_after(self, step: int) -> bool:
        return False  # keeps injecting forever

    def events(self, horizon: int) -> list[InjectionEvent]:
        return [InjectionEvent(t, p) for t in range(1, horizon + 1) for p in self.injections_for(t)]


def saturating_adversary(network: Network, path: PacketPath, r, b) -> SaturatingAdversary:
    return SaturatingAdversary(network, path, r, b)
