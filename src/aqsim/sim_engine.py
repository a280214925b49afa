"""Discrete-time executor of the queueing game: inject, select, transmit.

Step order is fixed: injections for the current step enter their first-edge
queues (and may move the same step); every non-empty queue picks one packet
under the discipline; all picked packets cross their edges simultaneously,
landing in the next queue effective the following step. Unit capacity holds
by construction: `advance` sends one packet per sending queue. The packets in
the system are counted as injected minus delivered; that every injected packet
is still queued or delivered is checked by the differential tests against a
full-scan reference engine and by the accounting tests, not at run time.

The step core (`inject`, `pick`, `advance`) is shared with the phased
strategy and the greedy static runner, and each run decides once whether its
key is custom, which `pick` must evaluate for a lone packet too. Callers
keep the set of non-empty queues, so a step costs time in proportion to the
busy queues and the packets waiting in them, not to the number of edges.
The step's peak queue length comes from the same pass: `advance` reports its
longest sender queue, so no queue is scanned a second time. The senders
leave the set of non-empty queues in one update per step, not one removal
per hop. A packet moves by its `route`, its path as queue indices, which
`Routes` resolves once per distinct path of a run.

Two cases do not pay a hop at a time, under a built-in key, on any network:
a long active phase of a phased run with pass-through off, and a plain run
of a source that declares no period from its first long route on. There
`flights.Flights` stands in for `advance`: it keeps each queue in (key, id)
order, sends the last packet of each as a flight, moved on paper to the
next queue where packets can meet or to its delivery, so a step costs the
queues that hold waiting packets and the flights that land or are
delivered, not the hops made or the packets that wait. Both engines choose
their route cache and flights through `flights.wire` (see `flights`, `run`
and `run_interval`).

Both engines also share period skipping: `skip_period` says which runs may
skip, those of a built-in key and a periodic source, and once such a run
repeats a state the copier `skip_periods` records whole periods as copies of
one period, shifted, instead of stepping them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import IO, NamedTuple, Optional

from .adversary import Adversary, AdversaryError
from .flights import wire
from .network import Network, Routes, as_count
from .periodic import Periodic, as_periodic
from .strategies import DisciplineKey, Packet, get_discipline, is_builtin, least

_packet_id = attrgetter("id")


class EngineInvariantError(RuntimeError):
    """An internal bound check failed: an engine bug."""


class StepStats(NamedTuple):
    """One row of a run's trace; its fields are the trace CSV's columns."""

    step: int
    total_in_system: int  # packets still queued after the step completed
    injections: int
    deliveries: int
    max_queue_len: int  # peak queue length after injection, before transmission


# Both engines build each step's row from one tuple of its fields, as
# `StepStats._make` does inside, skipping the named tuple's Python-level
# `__new__`: a fixed cost of every step.
step_stats = partial(tuple.__new__, StepStats)


class Recurrence(NamedTuple):
    """The repeat a run found: the state before step `start` recurs,
    shifted, `period` steps and `phases` phases later.

    In a phased run it is the first repeated phase-start state. In a plain
    run `phases` is 0 and `start` is the step whose state Brent's detector
    had saved: the run is periodic with its least period from `start` on,
    but `start` need not be the first step from which it is periodic."""

    start: int
    period: int
    phases: int


@dataclass
class Trace:
    """One run: a row per step, every injected packet in id order, whether
    the run was cut at `max_steps` with work (or injections) remaining, and
    the repeat it found, if it looks for one (see `Recurrence`).

    `steps` and `packets` are `Periodic` sequences; a list given here is
    wrapped, not copied. A run that skipped periods stores the rows and
    packets it stepped and one period: the copies are built, all of them and
    once, when one of them is first read. `len`, `last_step`, the maxima,
    `delivered_count` and the CSV writers read only what is stored, so they
    cost the stepped part and one period however long the run.
    """

    steps: Periodic[StepStats]
    packets: Periodic[Packet]
    truncated: bool
    recurrence: Optional[Recurrence] = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        self.steps, self.packets = as_periodic(self.steps), as_periodic(self.packets)

    @property
    def last_step(self) -> int:
        return len(self.steps)  # the rows are steps 1, 2, ... in order

    @property
    def max_system_time(self) -> Optional[int]:
        delivered = (p.system_time for p in self.packets.stored() if p.delivered_at is not None)
        return max(delivered, default=None)

    @property
    def max_queue_len(self) -> int:
        return max((s.max_queue_len for s in self.steps.stored()), default=0)

    @property
    def delivered_count(self) -> int:
        return self.packets.total(lambda p: p.delivered_at is not None)


def check_max_steps(max_steps: int) -> None:
    """Refuse a `max_steps` that is not a count, or one above `sys.maxsize`,
    the longest sequence whose `len` Python can answer."""
    if as_count(max_steps, "max_steps") > sys.maxsize:
        raise ValueError(f"max_steps: must be at most {sys.maxsize}, got {max_steps}")


# ---- the step core both strategies use -------------------------------------


def inject(
    adversary: Adversary,
    now: int,
    packets: list[Packet] | Periodic[Packet],
    routes: Routes,
    queues: list[list[Packet]],
    busy: set[int],
) -> int:
    """The adversary's packets for step `now` are appended to `packets` (a
    list, or after skipping the run's `Periodic`, whose tail takes them) and
    join the queue of their first edge in `queues`, whose non-empty indices
    `busy` holds; returns how many there were. Each packet shares its
    `PacketPath`'s edge tuple and takes its route from `routes`."""
    new_paths = adversary.injections_for(now)
    for path in new_paths:
        edges = path.edges
        route = routes[edges]
        pkt = Packet(len(packets) + 1, edges, now, arrived_in_queue_at=now, route=route)
        packets.append(pkt)
        i = route[0]
        queues[i].append(pkt)
        busy.add(i)
    return len(new_paths)


def pick(
    queues: list[list[Packet]],
    busy: set[int],
    senders: list[int],
    key: DisciplineKey,
    custom: bool,
) -> tuple[list[Packet], int]:
    """Each queue in `senders` (non-empty, listed in edge-declaration order,
    all in `busy`) gives up the packet least in (key, id); `custom` says
    whether `key` is a custom one, which its run decides once
    (`strategies.is_builtin`). This is the pick of every step that
    `advance` moves; a run that flies pops its ordered queues instead (see
    `flights`).

    Every sender leaves `busy` in one set update, and a sender whose queue
    still holds packets after its pick goes back; queues in `busy` that do
    not send stay in it.

    A sender holding one packet (nearly all of them on the benchmark
    workloads) gives it up without comparing anything. Under a built-in key
    it does not evaluate the key either: a built-in key only reads the
    packet's fields, so with one packet to pick from the call could change
    neither the pick nor any state. A custom key is evaluated once per queued
    packet of each sender, in queue order, a lone packet included, so a key
    that counts its calls still sees every one. Longer queues pick through
    `strategies.least`, which evaluates every key once in queue order.

    Returns the picked packets, `picked[k]` being the one from `senders[k]`,
    and the longest sender queue before picking: 0 with no senders, 1 when
    every sender holds one packet.
    """
    picked = []
    longest = 1 if senders else 0
    busy.difference_update(senders)
    for i in senders:
        q = queues[i]
        if len(q) == 1:
            if custom:
                key(q[0])  # a custom key may count its calls; see the docstring
            picked.append(q.pop())
        else:
            if len(q) > longest:
                longest = len(q)
            picked.append(q.pop(least(q, key)))
            busy.add(i)
    return picked, longest


def advance(
    queues: list[list[Packet]],
    busy: set[int],
    senders: list[int],
    key: DisciplineKey,
    custom: bool,
    now: int,
) -> tuple[list[Packet], int, int]:
    """Each queue in `senders` sends the packet that `pick` gives up across
    its edge. All crossings are simultaneous: a packet lands in its next
    queue, the next index of its `route`, only after every sender has picked,
    so no packet moves twice in one step. Each queue a packet lands in joins
    `busy` (a sender's own queue included, when a packet lands in it the step
    it emptied), so `busy` stays the exact set of non-empty queues.

    Returns the packets that crossed, `moved[k]` being the one that left
    `senders[k]`; the number of packets that finished their path; and
    `pick`'s longest sender queue.
    """
    moved, longest = pick(queues, busy, senders, key, custom)
    delivered = 0
    for pkt in moved:
        hops = pkt.hops_done + 1
        pkt.hops_done = hops
        route = pkt.route
        if hops == len(route):
            pkt.delivered_at = now
            delivered += 1
        else:
            pkt.arrived_in_queue_at = now + 1
            j = route[hops]
            queues[j].append(pkt)
            busy.add(j)
    return moved, delivered, longest


def run(network: Network, strategy, adversary: Adversary, max_steps: int) -> Trace:
    """Step until `max_steps`, or until the system is empty and the adversary
    has nothing left to inject.

    One queue per edge, indexed in edge-declaration order; `busy` is the set
    of indices whose queue is non-empty. Every non-empty queue sends, so
    `advance`'s one set update takes every index out of `busy` and puts back
    the queues that still hold, or newly receive, a packet; the step's peak
    queue is the longest sender queue that `advance` reports. The packets it
    returns (`moved[k]` left `senders[k]`) are not needed here.

    Flights. Under a built-in key, when `skip_period` gives no period, the
    run lists each distinct route as it resolves it (`flights.FlightRoutes`)
    and tests one flag a step, `routes.long`, until a route of at least
    `flights.MIN_DILATION` edges comes. From that step on, `Flights.step`
    stands in for `advance`: it puts the step's injected packets in (key, id)
    order (sorting every busy queue on the first such step), reads the new
    routes and files the flights aloft again if meeting queues were added,
    lands the flights due to land and sends every busy queue's last packet.
    `Flights.settle` ends the flights still aloft when the run stops. A run
    of a periodic source steps, so period skipping never meets a flight; a
    run that never resolves a long route reads no route and flies nothing.

    Period skipping. When `skip_period` gives a period q, the run looks for
    a repeated state by Brent's method. The
    state before step s is `shifted_state`: in id order, each queued packet's
    route, hops done, and arrival and injection steps minus s. Before a step
    every packet in the system waits in the queue `route[hops_done]`, so the
    state fixes the queues, `busy` and `in_system`, up to the shift of times.
    The run saves the state before steps 2, 4, 8 and so on, one at a time,
    and compares the state before each later step with it whenever the
    packets in the system agree and the steps differ by a multiple of q: two
    int comparisons a step. On a repeat of the state saved before `s0`,
    before step `s1 = s0 + P`, `skip_periods` appends as many whole periods
    as `max_steps` allows, and its docstring says why the copies are exact;
    the run then steps on, and `trace.recurrence` is `(s0, P, 0)`. The saved
    state is compared with every state up to the next save, so P is the
    least period of the run from `s0` on. The first saved step at or past
    both the step from which the run is periodic and its least period finds
    the repeat one period later, and only one state is held at a time; a
    dict of every state seen would grow with the steps times the packets in
    flight.
    """
    check_max_steps(max_steps)
    key = get_discipline(strategy)
    custom = not is_builtin(key)
    period = skip_period(key, adversary)
    # Brent's detector: the next step whose state is saved (0: none), and
    # `in_system` at the saved state (-1: none is saved), so a run that
    # cannot repeat pays two failing int comparisons a step
    save_at = 0 if period is None else 2
    saved_in = saved_step = -1
    saved: tuple = ()  # len(packets), the queued packets and their state at saved_step
    recurrence = None
    routes, fleet = wire(network, key, custom or period is not None)
    queues: list[list[Packet]] = [[] for _ in network.edges]
    busy: set[int] = set()
    packets: list[Packet] = []
    steps: list[StepStats] = []
    in_system = 0
    now = 1
    while now <= max_steps:
        if in_system == 0 and adversary.done_after(now - 1):
            break
        if in_system == saved_in and (now - saved_step) % period == 0:
            first_count, twins, first_state = saved
            alive = queued(queues, busy)
            if shifted_state(alive, now) == first_state:
                recurrence = Recurrence(saved_step, now - saved_step, 0)
                save_at, saved_in = 0, -1  # a later repeat would leave no more whole periods
                periods = (max_steps - now + 1) // recurrence.period
                if periods:
                    steps, packets = skip_periods(
                        recurrence, periods, first_count, twins, alive, packets, steps, queues
                    )
                    now += periods * recurrence.period
                    continue
        if now == save_at:
            alive = queued(queues, busy)
            saved = (len(packets), alive, shifted_state(alive, now))
            saved_in, saved_step, save_at = in_system, now, 2 * now
        injected = inject(adversary, now, packets, routes, queues, busy)
        if routes.long:  # the run flies from the step that resolves a long route on
            fresh = packets[len(packets) - injected :]
            delivered_now, max_queue = fleet.step(queues, busy, fresh, now)
        else:
            _, delivered_now, max_queue = advance(queues, busy, sorted(busy), key, custom, now)
        in_system += injected - delivered_now
        steps.append(step_stats((now, in_system, injected, delivered_now, max_queue)))
        now += 1
    if fleet is not None:
        fleet.settle(now)
    truncated = in_system > 0 or not adversary.done_after(now - 1)
    return Trace(steps, packets, truncated, recurrence=recurrence)


# ---- period skipping, shared by both engines ---------------------------------


def queued(queues: list[list[Packet]], busy: set[int]) -> list[Packet]:
    """The packets in the queues that `busy` names, in id order."""
    return sorted(chain.from_iterable(map(queues.__getitem__, busy)), key=_packet_id)


def shifted_state(alive: list[Packet], now: int) -> tuple:
    """Each packet's route, hops done, and arrival and injection steps minus
    `now`: two runs of a built-in key in such states, at steps that agree
    modulo a periodic source's period, go on as shifted copies."""
    return tuple(
        (p.route, p.hops_done, p.arrived_in_queue_at - now, p.injected_at - now) for p in alive
    )


def skip_period(key: DisciplineKey, adversary: Adversary) -> Optional[int]:
    """The period q by which a run of `key` against `adversary` may skip, or
    None when the run must step through every step.

    Only a run of a built-in key and a source that declares a `period` may
    skip, because only there does a state shifted in time by a multiple of q
    go on as a shifted copy:
    - Each built-in key is an arrival or injection step, negated or not, or
      a hop count, and a sender compares keys of packets in one queue at one
      step. Shifting every time by the period keeps each comparison; ties go
      to the least id, and matching the queued packets by position in id
      order keeps their order, while later packets take ids above all of
      them on both visits, the packets injected per period apart. A custom
      key, a wrapper around a built-in one included (`strategies.is_builtin`
      tells them apart), is not assumed shift-invariant, so neither engine
      skips with one.
    - The source's injections from step 2 on depend only on the step modulo
      q, so two visits from step 2 on at steps that agree modulo q meet the
      same injections from then on. The attribute is read with `getattr`: a
      duck-typed source, such as a proxy around a periodic one, declares
      none, and its run steps every step. A declared period other than None
      must be a count (`network.as_count`), whatever the key, or the run is
      refused with `AdversaryError` before its first step.
    """
    period = getattr(adversary, "period", None)
    if period is None:
        return None
    period = as_count(period, "adversary.period", AdversaryError)
    return period if is_builtin(key) else None


def skip_periods(
    recurrence: Recurrence,
    periods: int,
    first_count: int,
    twins: list[Packet],
    alive: list[Packet],
    packets: list[Packet],
    steps: list[StepStats],
    queues: list[list[Packet]],
) -> tuple[Periodic[StepStats], Periodic[Packet]]:
    """Record `periods` whole periods after a run whose state before step
    `s0 = recurrence.start` has recurred, shifted, before step
    `s1 = s0 + recurrence.period`, the step it has reached. Returns the
    run's steps and packets as `Periodic` sequences: the stepped ones, whose
    last period is the template, `periods` copies of it, and a tail that the
    caller appends to as it goes on from step `s1 + periods*period`. The
    caller records any phase records the same way.

    Why the copies are exact. The caller detects the repeat only when
    `skip_period` gives a period q, and compares states that fix every queue
    and counter the next step reads, up to the shift of times by the period
    (and of phases by `recurrence.phases`). The two visits share the step
    modulo q, so the period is a multiple of q, and `s0 >= 2`; so by
    `skip_period`'s docstring every later step repeats the step one period
    earlier, shifted.

    `first_count` packets had been injected before `s0`, `twins` were queued
    then and `alive` are queued now, both in id order; `alive[i]` is the twin
    of `twins[i]`, one period later. Each copied period holds the period's
    step rows and the packets injected in it, with ids shifted by the packets
    injected per period, times by the period and phases by
    `recurrence.phases`. Every copy takes its packet's final fields:
    - A packet delivered before `s1` has them already.
    - A packet queued at `s1` can outlive many periods (on the d=256 line,
      256 steps against a period of 2), and ends as its twin does, one
      period on. The packets queued at `s1` are those queued at `s0` and not
      yet delivered, followed by newer packets with larger ids. So the id at
      each position is at least the id at that position at `s0`, and is
      never the same packet's, since a packet's injection step does not
      shift. A twin still queued at `s1` thus has a smaller id, and walking
      `alive` in increasing id order resolves it first. Every chain of twins
      ends at a packet delivered before `s1`. (In a phased run every twin is
      delivered within one period, by the phase that adopted it.)
    After the last copied period, at step `s1 + periods*period`, the run is
    in the state of `s1`, shifted. From step 2 on, steps one period apart
    inject the same paths in the same order, so every packet injected from
    step 2 on has its copy, one period later, exactly `per_period` ids on.
    Each of `alive` was injected after step 1, so the packets still queued
    then are `alive`'s, `periods*per_period` ids on. Each takes its counterpart's
    hops done, arrival step and phase, shifted, and joins its queue in
    `queues`, which otherwise keep what they held. These packets go on
    changing, so they and every later copy are built now, into the tail: the
    copied periods from the one holding the oldest of them on. No earlier
    copy is built.
    """
    s0, period, phases = recurrence
    s1 = s0 + period
    per_period = len(packets) - first_count
    # the period's rows by column, less the step column, which counts up by one
    columns = list(zip(*steps[s0 - 1 :]))[1:]
    for p, twin in zip(alive, twins):
        queues[p.route[p.hops_done]].clear()
        twin = packets[twin.id - 1]  # delivered, or queued at s1 and resolved above
        packets[p.id - 1] = _shifted(twin, p.id - twin.id, period, phases)
    done = packets[first_count:]  # the period's packets, each as it ends

    def copy_steps(k: int):
        return map(step_stats, zip(range(s0 + k * period, s1 + k * period), *columns))

    def copy_packets(k: int) -> list[Packet]:
        return [_shifted(p, k * per_period, k * period, k * phases) for p in done]

    # copy k holds ids first_count + k*per_period + 1 on, so those before the
    # oldest packet queued at the end stay unbuilt
    unbuilt = periods
    if alive:
        unbuilt = max(0, periods - 1 + (alive[0].id - 1 - first_count) // per_period)
    built = [p for k in range(unbuilt + 1, periods + 1) for p in copy_packets(k)]
    packets = Periodic(packets, per_period, unbuilt, copy_packets, built)
    ids, shift = periods * per_period, periods * period
    for place in alive:
        p = packets[place.id - 1 + ids]
        p.hops_done = place.hops_done
        p.arrived_in_queue_at = place.arrived_in_queue_at + shift
        p.delivered_at = None
        p.phase = None if place.phase is None else place.phase + periods * phases
        queues[p.route[p.hops_done]].append(p)
    return Periodic(steps, period, periods, copy_steps), packets


def _shifted(p: Packet, ids: int, steps: int, phases: int) -> Packet:
    """A copy of `p` with its id, step fields and phase moved on."""
    return Packet(
        p.id + ids,
        p.path,
        p.injected_at + steps,
        p.hops_done,
        p.arrived_in_queue_at + steps,
        None if p.delivered_at is None else p.delivered_at + steps,
        None if p.phase is None else p.phase + phases,
        p.route,
    )


# ---- CSV export -----------------------------------------------------------


def write_trace_csv(trace: Trace, dest: IO, header_comment: str = "") -> None:
    """One row per step: step,total_in_system,injections,deliveries,max_queue_len."""
    steps = trace.steps
    steps.write_csv(dest, StepStats._fields, (steps.size, 0, 0, 0, 0), header_comment)


def write_packets_csv(trace: Trace, dest: IO, header_comment: str = "") -> None:
    """One row per packet: packet_id,injected_at,delivered_at,system_time,path_len.

    Undelivered packets leave delivered_at and system_time empty.
    """
    period = trace.steps.size  # steps a copied period spans; packets are copied only with steps
    trace.packets.write_csv(
        dest,
        ["packet_id", "injected_at", "delivered_at", "system_time", "path_len"],
        (trace.packets.size, period, period, 0, 0),
        header_comment,
        _packet_row,
    )


def _packet_row(p: Packet) -> tuple:
    return (
        p.id,
        p.injected_at,
        "" if p.delivered_at is None else p.delivered_at,
        "" if p.delivered_at is None else p.system_time,
        len(p.path),
    )
