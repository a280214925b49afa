"""Phased routing: route the current packet set as a static instance while
holding all new injections back.

Injections are held; only the packets of the running phase advance (under a
pluggable inner discipline). A phase ends on the step its last packet is
delivered, and the packets held by then form the next phase, which starts the
following step. Step 0 is the empty startup state, so the empty phase 0 closes
at step 1 and step-1 injections always form phase 1.

With the improvement enabled, a held packet may cross its current edge while a
phase runs, provided no undelivered packet of the phase has that edge among
its remaining edges — it can never collide with the phase. It moves at most
one edge per step and stays held (or is delivered). Under a built-in key on
any network, a long phase's packets, and with the improvement the held
packets it lets through, cross their edges as flights (`flights`), so a phase
costs its contention, not its hops.
"""

from __future__ import annotations

from functools import partial
from typing import IO, Iterable, NamedTuple, Optional

from .adversary import Adversary
from .flights import wire
from .network import Network, as_count, congestion_dilation, shown
from .periodic import Periodic, as_periodic
from .sim_engine import (
    EngineInvariantError,
    Recurrence,
    StepStats,
    Trace,
    advance,
    check_max_steps,
    inject,
    queued,
    shifted_state,
    skip_period,
    skip_periods,
    step_stats,
)
from .static_routing import lemma1_bound
from .strategies import DISCIPLINES, Packet, get_discipline, is_builtin

_by_arrival = DISCIPLINES["FIFO"]  # pass-through order: arrival step, then id


class Lemma1ViolationError(EngineInvariantError):
    """A phase outlived its n*d bound; the static routing core is broken."""


class PhaseRecord(NamedTuple):
    """One phase; its fields are the phases CSV's columns, in order, with
    `duration_steps` written as `duration`."""

    phase_index: int
    packet_count: int
    n_i: int
    d_i: int
    duration_steps: int
    lemma1_bound: int  # n_i*d_i


def run_interval(
    network: Network,
    inner_discipline,
    adversary: Adversary,
    max_steps: int,
    improvement_on: bool = False,
    max_phases: Optional[int] = None,
) -> tuple[Trace, Periodic[PhaseRecord]]:
    """Full phased run; stops at max_steps, at system drain, or once
    `max_phases` non-startup phases have completed. Step 1 always runs.
    Returns the trace and the phase records, the startup phase's first, as a
    `Periodic` sequence like the trace's (see `Trace`).

    Every edge owns an active queue and a holding queue, both indexed in
    edge-declaration order; `busy` and `held` are the sets of indices whose
    active or holding queue is non-empty. Injections join holding queues. A
    phase runs exactly while `busy` is non-empty or, with flights, an active
    flight is aloft in `lands` or `due` (`live`). Whenever no phase runs and
    `held` is non-empty, every holding queue is swapped with its (empty)
    active queue and the next phase starts the following step. Each sender
    picks the packet least in (key, id): in a phase that steps, queue order
    does not matter; in a phase that flies, each queue is kept in that
    order, so its pick is its last packet (see "Order" in `flights`).

    Flights. With a built-in key, on any network, a phase whose dilation is
    at least `flights.MIN_DILATION` sends each packet as a flight (see
    `flights`), which crosses edges on paper up to the next meeting queue on
    its route, where it lands, or to its delivery; `flying` says whether the
    running phase does, decided at its start by `Flights.fit`, which reads
    the routes resolved since it last read and makes a meeting queue of
    each queue that adoption filled with two packets or more. The active
    flights aloft are the fleet `flights.active` (a `flights.Fleet`), whose
    `lands` and `due` buckets the loop reads. Each step, `flights.active.land`
    first puts every flight that reaches a meeting queue in that queue, and
    then `Flights.advance` stands in for `sim_engine.advance`: every queue in
    `busy` sends its last packet, and the flights due are delivered.
    `Flights.sort` orders the queues at the start of each phase that flies,
    after any period skip. With pass-through on, `flights.PassingFlights`
    also flies the held packets that pass-through sends, as a second fleet:
    `land_held` reads the routes resolved this step and lands the held
    flights due in a holding queue, before the held edges are walked, and
    `pass_held` stands in for the pass-through advance. When a
    phase closes, `ground` puts each held flight aloft in the holding queue
    it is in, before adoption. A run that stops with flights aloft ends them
    with `Flights.settle`, so every packet's fields are those of a stepped
    run. `flights.wire` chooses the route cache and `Flights`, as it does
    for a plain run. Custom keys, which the key contract evaluates once per
    queued packet per step, and shorter phases step every hop; whether the
    key is custom is decided once per run.
    With pass-through on, `demand[i]` counts the crossings of edge i that the
    running phase's undelivered packets still have to make, and, in a phase
    that flies, still have to launch: a phase start fills it from the
    `crossings` of the phase's one `congestion_dilation` call, made on the
    packets' remaining routes and so keyed by queue index. In a phase that
    steps, each step takes one off the edge of each sender of the active
    advance, which sends exactly one packet. In a phase that flies, each
    launch takes its flight's crossings off at once and raises `until[i]` to
    the last step at which a flight launched so far crosses edge i. Either
    way the phase's packets have no crossing of edge i left to make from
    step `now` on exactly when `demand[i] == 0 and until[i] < now`; a phase
    that steps leaves `until` as it is, below `now`. `demand` is zero on
    every edge whenever no phase runs, and always with pass-through off,
    since then nothing reads it.
    The current (or last) phase started at step `start` with `count` packets,
    congestion `n`, dilation `d` and `bound = lemma1_bound(n, d)`, Lemma 1's
    ceiling on its duration (0 for the startup phase, which has no packets);
    its index is `len(records)` until it closes.

    A step's `max_queue_len` is the largest `len(active[i]) + len(holding[i])`
    after injection, a flight counting as one packet in the queue it is
    crossing. It is read from three values, each taken before any packet
    moves this step, and no queue is scanned for it a second time:
    - the active advance's longest sender. Every edge in `busy` sends, and an
      edge in `busy` but not in `held` has only its active queue. (Pass-through
      moves only holding packets, so it leaves the active queues as they were.)
      An active flight aloft is a sender of one packet, so the longest is at
      least 1 while one is.
    - the pass-through advance's longest sender. It sends only from held edges
      that no phase packet still has to cross, so their active queues are
      empty and each holding queue is its edge's whole queue. A held flight
      aloft is such a sender of one packet, alone in a queue that is not in
      `held`, so the longest is at least 1 while one is.
    - the sum of both queues over the held edges that do not send in
      pass-through. An edge in both `busy` and `held` is among them, since a
      phase packet waits in its active queue and so `demand[i] > 0`. With
      pass-through off, or with no phase running, they are all the held edges.
      A held edge whose active queue is empty adds one while an active flight
      crosses it (`Flights.crossing`, which lists the queues the flights
      cross at most once a step). An active flight aloft after landing is
      alone in its queue, so it is the whole active queue it crosses; the
      check is made only while one is aloft, and only where the one more
      could raise the running maximum.
    One loop over the held edges does both jobs: while pass-through is on
    and a phase runs, it walks them in edge-declaration order and lists each
    edge with `demand[i] == 0 and until[i] < now` as a pass-through sender,
    whose size it leaves to that advance; every other held edge adds its sum
    to the running maximum.
    An edge in neither set has two empty queues.

    Period skipping. When `sim_engine.skip_period` gives a period q, the
    run remembers each phase-start state, after adoption:
    `start % q` and `sim_engine.shifted_state` of the alive packets, in id
    order. At a phase start the holding queues are empty, so every packet in
    the system is alive in an active queue. Its queue is `route[hops_done]`,
    it arrived there at `start` and its phase is `len(records)`, so the state
    fixes the queues, `busy`, `demand`, `count`, `n`, `d` and `in_system`,
    all up to the shift of times and phases. A phase start comes once per
    phase, not once per step, so a dict of every state seen stays small, and
    the first repeat is found. On the first repeat, at `start = s0 + P` with
    R phase records since the visit at `s0`, the shared copier
    `sim_engine.skip_periods` records as many whole periods as `max_steps`
    and `max_phases` allow, and its docstring says why the copies are exact.
    No copied step passes `max_steps`, and no copied phase closes past
    `max_phases`, where the stepped run would have stopped. The records
    become a `Periodic` too: each copied period repeats the last R records,
    their indices shifted by R; the run then steps on from the start of the
    period after the last one copied, and `trace.recurrence` is
    `(s0, P, R)`. The phase starting at `s0` delivers
    every packet alive then before the next phase start, so each twin the
    copier reads is delivered within the period.
    """
    check_max_steps(max_steps)
    if not isinstance(improvement_on, bool):
        raise ValueError(f"improvement_on: must be a bool, got {shown(improvement_on)}")
    if max_phases is not None:
        as_count(max_phases, "max_phases")
    key = get_discipline(inner_discipline)
    custom = not is_builtin(key)
    period = skip_period(key, adversary)
    # phase-start state -> (start, len(packets), len(records), alive packets),
    # kept only while the run may skip and has not yet
    seen: Optional[dict] = None if period is None else {}
    recurrence = None
    demand = [0] * len(network.edges)
    until = [0] * len(network.edges)
    if improvement_on:
        routes, flights = wire(network, key, custom, demand, until)
    else:
        routes, flights = wire(network, key, custom)
    flying = False  # whether the running phase sends flights
    # the active flights aloft, by the step each lands or is delivered
    lands, due = ({}, {}) if flights is None else (flights.active.lands, flights.active.due)
    active: list[list[Packet]] = [[] for _ in network.edges]
    holding: list[list[Packet]] = [[] for _ in network.edges]
    busy: set[int] = set()
    held: set[int] = set()
    packets: list[Packet] = []
    steps: list[StepStats] = []
    records = [PhaseRecord(0, 0, 0, 0, 0, 0)]  # the empty startup phase closes at step 1
    start, count, n, d, bound = 1, 0, 0, 0, 0
    in_system = 0
    now = 1
    while now <= max_steps:
        if now > 1 and in_system == 0 and adversary.done_after(now - 1):
            break
        # injections join the holding queue of their first edge
        injected = inject(adversary, now, packets, routes, holding, held)
        if flying:  # every flight that reaches a meeting queue lands first
            flights.active.land(active, busy, now)
            if improvement_on:
                flights.land_held(holding, held, now)

        # pass-through: while a phase runs, every held edge it no longer
        # demands sends its earliest-arrived holding packet one hop (demand is
        # fixed before any movement this step); the peak queue over the held
        # edges that stay put is read before anything moves (see the docstring)
        delivered_now = max_queue = 0
        passing = improvement_on and (busy or lands or due)
        idle = []
        for i in sorted(held) if passing else held:
            if passing and not demand[i] and until[i] < now:
                idle.append(i)
                continue
            size = len(active[i]) + len(holding[i])
            if size >= max_queue and (lands or due) and not active[i]:
                size += flights.crossing(i, now)  # a flight crossing the held edge i
            if size > max_queue:
                max_queue = size
        if passing and flying:
            delivered_now, longest = flights.pass_held(holding, held, idle, busy, now)
            if longest > max_queue:
                max_queue = longest
        elif idle:
            _, delivered_now, longest = advance(holding, held, idle, _by_arrival, False, now)
            if longest > max_queue:
                max_queue = longest

        # the active phase advances exactly like the plain engine, or sends
        # flights (see the docstring)
        senders = sorted(busy)
        if flying:
            moved, delivered_active, longest = flights.advance(active, busy, senders, now)
        else:
            moved, delivered_active, longest = advance(active, busy, senders, key, custom, now)
        if longest > max_queue:
            max_queue = longest
        if improvement_on and not flying:
            for i in senders:  # each sender's crossing is one the phase no longer needs
                demand[i] -= 1
        delivered_now += delivered_active
        in_system += injected - delivered_now

        # the one n*d check: a phase still running at its bound can no longer
        # finish in time, so no phase ever closes past it
        running = now - start + 1
        live = busy or lands or due  # the phase still holds a packet
        if live and running >= bound:
            raise Lemma1ViolationError(
                f"phase {len(records)} still running after {running} steps, bound n*d = {bound}"
            )
        # the step that delivers the phase's last packet closes it
        if moved and not live:
            records.append(PhaseRecord(len(records), count, n, d, running, bound))
            if flying and improvement_on:  # held flights aloft join their holding queues
                flights.ground(holding, held, now + 1)
        steps.append(step_stats((now, in_system, injected, delivered_now, max_queue)))
        # with no phase running, every held packet is adopted into the
        # (empty) active queues and starts the next phase the following step
        if not live and held:
            start = now + 1
            remaining = []
            for i in held:
                active[i], holding[i] = holding[i], active[i]
                for p in active[i]:
                    p.arrived_in_queue_at = start
                    p.phase = len(records)
                    remaining.append(p.route[p.hops_done :])
            busy, held = held, busy
            nd = congestion_dilation(remaining)
            if improvement_on:
                for i, c in nd.crossings.items():
                    demand[i] = c
            count, n, d = len(remaining), nd.n, nd.d
            bound = lemma1_bound(n, d)
            # a phase's dilation is at most its longest route's length
            flying = routes.long and flights.fit(d, active, busy)
            if seen is not None:
                alive = queued(active, busy)
                state = (start % period, shifted_state(alive, start))
                first = seen.setdefault(state, (start, len(packets), len(records), alive))
                first_start, first_count, first_records, twins = first
                if first_start != start:
                    seen = None  # a later repeat would leave no more whole periods
                    length, phases = start - first_start, len(records) - first_records
                    recurrence = Recurrence(first_start, length, phases)
                    periods = (max_steps - start + 1) // length
                    if max_phases is not None:
                        periods = min(periods, (max_phases - len(records)) // phases)
                    if periods > 0:
                        steps, packets = skip_periods(
                            recurrence, periods, first_count, twins, alive, packets, steps, active
                        )
                        copy = partial(_moved_records, records[first_records:], phases)
                        records = Periodic(records, phases, periods, copy)
                        start += periods * length
                        now = start - 1
            if flying:  # after any skip, which refills the queues in id order
                flights.sort(active, busy)

        now += 1
        if max_phases is not None and len(records) > max_phases:
            break
    if flights is not None:
        flights.settle(now)
    truncated = in_system > 0 or not adversary.done_after(now - 1)
    return Trace(steps, packets, truncated, recurrence=recurrence), as_periodic(records)


def _moved_records(records: list[PhaseRecord], phases: int, k: int) -> list[PhaseRecord]:
    """`records` with their indices moved on k periods of `phases` phases."""
    return [PhaseRecord(r[0] + k * phases, *r[1:]) for r in records]


def write_phases_csv(records: Iterable[PhaseRecord], dest: IO, header_comment: str = "") -> None:
    """One row per completed phase of `records`, a `Periodic` or a list:
    phase_index,packet_count,n_i,d_i,duration,lemma1_bound."""
    records = as_periodic(records)
    records.write_csv(
        dest,
        ["phase_index", "packet_count", "n_i", "d_i", "duration", "lemma1_bound"],
        (records.size, 0, 0, 0, 0, 0),
        header_comment,
    )
