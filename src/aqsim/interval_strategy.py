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
one edge per step and stays held (or is delivered).
"""

from __future__ import annotations

from typing import IO, NamedTuple, Optional

from .adversary import Adversary
from .csvio import write_csv
from .network import Network, congestion_dilation
from .sim_engine import (
    EngineInvariantError,
    Recurrence,
    Routes,
    StepStats,
    Trace,
    advance,
    inject,
    queued,
    shifted_state,
    skip_periods,
    step_stats,
)
from .strategies import DISCIPLINES, Packet, get_discipline

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
) -> tuple[Trace, list[PhaseRecord]]:
    """Full phased run; stops at max_steps, at system drain, or once
    `max_phases` non-startup phases have completed. Step 1 always runs.

    Every edge owns an active queue and a holding queue, both indexed in
    edge-declaration order; `busy` and `held` are the sets of indices whose
    active or holding queue is non-empty. Injections join holding queues. A
    phase runs exactly while `busy` is non-empty. Whenever `busy` is empty and
    `held` is not, every holding queue is swapped with its (empty) active
    queue and the next phase starts the following step. Queue order does not
    matter: each sender picks the packet least in (key, id).
    With pass-through on, `demand[i]` counts the crossings of edge i that the
    running phase's undelivered packets still have ahead of them: a phase
    start fills it from the `crossings` of the phase's one
    `congestion_dilation` call, made on the packets' remaining routes and so
    keyed by queue index, and each step takes one off the edge of each sender
    of the active advance, which sends exactly one packet. It is zero on every
    edge whenever no phase runs, and always with pass-through off, since then
    nothing reads it.
    The current (or last) phase started at step `start` with `count` packets,
    congestion `n` and dilation `d`; its index is `len(records)` until it
    closes.

    A step's `max_queue_len` is the largest `len(active[i]) + len(holding[i])`
    after injection. It is read from three values, each taken before any
    packet moves this step, and no queue is scanned for it a second time:
    - the active advance's longest sender. Every edge in `busy` sends, and an
      edge in `busy` but not in `held` has only its active queue. (Pass-through
      moves only holding packets, so it leaves the active queues as they were.)
    - the pass-through advance's longest sender. It sends only from held edges
      with `demand[i] == 0`; no phase packet still needs such an edge, so its
      active queue is empty and its holding queue is its whole queue.
    - the sum of both queues over the held edges that do not send in
      pass-through. An edge in both `busy` and `held` is among them, since a
      phase packet waits in its active queue and so `demand[i] > 0`. With
      pass-through off, or with no phase running, they are all the held edges.
      Their running maximum is taken in the one loop over `held` that also
      lists the pass-through senders; that list is built only while
      pass-through is on and a phase runs.
    An edge in neither set has two empty queues.

    Period skipping. With a built-in key and a source that declares a
    `period` q, the run remembers each phase-start state, after adoption:
    `start % q` and `sim_engine.shifted_state` of the alive packets, in id
    order. At a phase start the holding queues are empty, so every packet in
    the system is alive in an active queue. Its queue is `route[hops_done]`,
    it arrived there at `start` and its phase is `len(records)`, so the state
    fixes the queues, `busy`, `demand`, `count`, `n`, `d` and `in_system`,
    all up to the shift of times and phases. A phase start comes once per
    phase, not once per step, so a dict of every state seen stays small, and
    the first repeat is found. On the first repeat, at `start = s0 + P` with
    R phase records since the visit at `s0`, the shared copier
    `sim_engine.skip_periods` appends as many whole periods as `max_steps`
    and `max_phases` allow, with R phase records each, and its docstring
    says why the copies are exact; the run then steps on, and
    `trace.recurrence` is `(s0, P, R)`. The phase starting at `s0` delivers
    every packet alive then before the next phase start, so each twin the
    copier reads is delivered within the period.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    key = get_discipline(inner_discipline)
    period = getattr(adversary, "period", None)  # a duck-typed source declares none
    # phase-start state -> (start, len(packets), len(records), alive packets),
    # kept only while a built-in key and a periodic source may give a repeat
    seen: Optional[dict] = {} if period is not None and key in DISCIPLINES.values() else None
    recurrence = None
    routes = Routes(network)
    active: list[list[Packet]] = [[] for _ in network.edges]
    holding: list[list[Packet]] = [[] for _ in network.edges]
    busy: set[int] = set()
    held: set[int] = set()
    demand = [0] * len(network.edges)
    packets: list[Packet] = []
    steps: list[StepStats] = []
    records = [PhaseRecord(0, 0, 0, 0, 0, 0)]  # the empty startup phase closes at step 1
    start, count, n, d = 1, 0, 0, 0
    in_system = 0
    now = 1
    while now <= max_steps:
        if now > 1 and in_system == 0 and adversary.done_after(now - 1):
            break
        # injections join the holding queue of their first edge
        injected = inject(adversary, now, packets, routes, holding, held)

        # pass-through: while a phase runs, every held edge it no longer
        # demands sends its earliest-arrived holding packet one hop (demand is
        # fixed before any movement this step); the peak queue over the held
        # edges that stay put is read before anything moves (see the docstring)
        delivered_now = max_queue = 0
        if improvement_on and busy:
            idle = []
            for i in sorted(held):
                if demand[i]:
                    size = len(active[i]) + len(holding[i])
                    if size > max_queue:
                        max_queue = size
                else:
                    idle.append(i)
            if idle:
                _, delivered_now, longest = advance(holding, held, idle, _by_arrival, now)
                if longest > max_queue:
                    max_queue = longest
        else:
            for i in held:
                size = len(active[i]) + len(holding[i])
                if size > max_queue:
                    max_queue = size

        # the active phase advances exactly like the plain engine
        senders = sorted(busy)
        moved, delivered_active, longest = advance(active, busy, senders, key, now)
        if longest > max_queue:
            max_queue = longest
        if improvement_on:
            for i in senders:  # each sender's crossing is one the phase no longer needs
                demand[i] -= 1
        delivered_now += delivered_active
        in_system += injected - delivered_now

        # the one n*d check: a phase still running at n*d steps can no longer
        # finish in time, so no phase ever closes past its bound
        running = now - start + 1
        if busy and running >= n * d:
            raise Lemma1ViolationError(
                f"phase {len(records)} still running after {running} steps, bound n*d = {n * d}"
            )
        # the step that empties the active queues closes the phase
        if moved and not busy:
            records.append(PhaseRecord(len(records), count, n, d, running, n * d))
        steps.append(step_stats((now, in_system, injected, delivered_now, max_queue)))
        # with no phase running, every held packet is adopted into the
        # (empty) active queues and starts the next phase the following step
        if not busy and held:
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
            if seen is not None:
                alive = queued(active, busy)
                state = (start % period, shifted_state(alive, start))
                first = seen.setdefault(state, (start, len(packets), len(records), alive))
                if first[0] != start:
                    seen = None  # a later repeat would leave no more whole periods
                    recurrence = Recurrence(first[0], start - first[0], len(records) - first[2])
                    start = _skip_phases(
                        first, alive, recurrence, packets, steps, records, active,
                        max_steps, max_phases,
                    )
                    now = start - 1

        now += 1
        if max_phases is not None and len(records) > max_phases:
            break
    truncated = in_system > 0 or not adversary.done_after(now - 1)
    return Trace(steps, packets, truncated, recurrence=recurrence), records


def _skip_phases(
    first: tuple,
    alive: list[Packet],
    recurrence: Recurrence,
    packets: list[Packet],
    steps: list[StepStats],
    records: list[PhaseRecord],
    active: list[list[Packet]],
    max_steps: int,
    max_phases: Optional[int],
) -> int:
    """Append the whole periods that follow a repeated phase-start state,
    through `skip_periods`, with `recurrence.phases` phase records each, and
    return the step the run goes on from: the start of the last period
    copied. `first` is what was remembered at the state's first visit and
    `alive` the packets of the phase starting now, in id order.

    No copied step may pass `max_steps`, and no copied phase may close past
    `max_phases`, where the stepped run would have stopped.
    """
    first_start, first_count, first_records, twins = first
    start = first_start + recurrence.period
    periods = (max_steps - start + 1) // recurrence.period
    if max_phases is not None:
        periods = min(periods, (max_phases - len(records)) // recurrence.phases)
    if periods < 1:
        return start
    period_records = records[first_records:]
    skip_periods(recurrence, periods, first_count, twins, alive, packets, steps, active)
    for k in range(1, periods + 1):
        records.extend([PhaseRecord(rec[0] + k * recurrence.phases, *rec[1:]) for rec in period_records])
    return start + periods * recurrence.period


def write_phases_csv(records: list[PhaseRecord], dest: IO, header_comment: str = "") -> None:
    """One row per completed phase:
    phase_index,packet_count,n_i,d_i,duration,lemma1_bound."""
    write_csv(
        dest,
        ["phase_index", "packet_count", "n_i", "d_i", "duration", "lemma1_bound"],
        records,
        header_comment,
    )
