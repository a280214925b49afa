"""Phased routing: route the current packet set as a static instance while
holding all new injections in second queues.

Every edge owns an active queue and a holding queue. Injections land in
holding; only active packets advance (under a pluggable inner discipline).
A phase runs exactly while some active queue is non-empty, so it ends on the
step its last active packet is delivered. Whenever every active queue is empty
and some holding queue is not, the holding queues are copied into the active
queues (per edge, sorted by packet id) and the next phase starts the following
step. Step 0 is the empty startup state, so the empty phase 0 closes at step 1
and step-1 injections always form phase 1.

With the improvement enabled, a holding packet may cross its current edge
while a phase runs, provided no undelivered active packet has that edge among
its remaining edges — it can never collide with the phase. It moves at most
one edge per step and stays in holding (or is delivered).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Optional, Union

from .adversary import Adversary
from .csvio import write_csv
from .network import Network, PacketPath, congestion_dilation
from .sim_engine import (
    EngineInvariantError,
    EngineState,
    StepStats,
    Trace,
    advance,
    inject,
    settle,
)
from .strategies import DISCIPLINES, DisciplineKey, Packet, get_discipline

_by_arrival = DISCIPLINES["FIFO"]  # pass-through order: arrival step, then id


class Lemma1ViolationError(EngineInvariantError):
    """A phase outlived its n*d bound; the static routing core is broken."""


@dataclass(frozen=True)
class PhaseRecord:
    phase_index: int
    packet_count: int
    duration_steps: int
    n_i: int
    d_i: int

    @property
    def lemma1_bound(self) -> int:
        return self.n_i * self.d_i


@dataclass
class PhaseState(EngineState):
    """`queues` and `busy` hold the active phase, which runs exactly while
    `busy` is non-empty. Every edge also owns a holding queue; `held` is the
    set of edge indices whose holding queue is non-empty. `demand[i]` counts
    the crossings of edge i that the running phase's undelivered packets still
    have ahead of them; it is zero on every edge whenever no phase runs."""

    holding: list[list[Packet]] = field(default_factory=list)
    held: set[int] = field(default_factory=set)
    demand: list[int] = field(default_factory=list)
    records: list[PhaseRecord] = field(default_factory=list)
    # the current (or last) phase
    phase_index: int = 0
    phase_start: int = 1
    phase_count: int = 0
    phase_n: int = 0
    phase_d: int = 0


def _close_phase(state: PhaseState) -> None:
    duration = state.now - state.phase_start + 1
    bound = state.phase_n * state.phase_d
    if duration > bound:
        raise Lemma1ViolationError(
            f"phase {state.phase_index} took {duration} steps, bound n*d = {bound}"
        )
    state.records.append(
        PhaseRecord(state.phase_index, state.phase_count, duration, state.phase_n, state.phase_d)
    )


def _start_next_phase(state: PhaseState) -> None:
    """Adopt every held packet into the active queues. Runs only once the
    previous phase is over, so the active queues are all empty."""
    adopted: list[Packet] = []
    for i in sorted(state.held):
        movers = sorted(state.holding[i], key=lambda p: p.id)
        state.holding[i] = []
        state.queues[i] = movers
        adopted.extend(movers)
    state.busy, state.held = state.held, state.busy
    state.phase_index += 1
    state.phase_start = state.now + 1
    index, demand = state.network.edge_index, state.demand
    for p in adopted:
        p.arrived_in_queue_at = state.phase_start
        p.phase = state.phase_index
        for e in p.path[p.hops_done :]:
            demand[index[e]] += 1
    nd = congestion_dilation([PacketPath(p.path[p.hops_done :]) for p in adopted])
    state.phase_n, state.phase_d = nd.n, nd.d
    state.phase_count = len(adopted)


def interval_step(
    state: PhaseState, key: DisciplineKey, adversary: Adversary, improvement_on: bool
) -> PhaseState:
    """One synchronous step of the phased protocol (mutates `state`); `key` is
    the inner discipline's resolved key."""
    now = state.now
    active, holding, busy, held = state.queues, state.holding, state.busy, state.held
    index, demand = state.network.edge_index, state.demand

    # (1) injections join the holding queue of their first edge
    injected = inject(state, adversary, holding, held)

    max_queue = max((len(active[i]) + len(holding[i]) for i in busy | held), default=0)

    # (2) pass-through: while a phase runs, every held edge it no longer
    # demands sends its earliest-arrived holding packet one hop (demand is
    # fixed before any movement this step)
    delivered_now = 0
    if improvement_on and busy:
        idle = [i for i in sorted(held) if not demand[i]]
        _, delivered_now = advance(holding, held, idle, _by_arrival, now, index)

    # (3) the active phase advances exactly like the plain engine
    moved, delivered_active = advance(active, busy, sorted(busy), key, now, index)
    for i, _ in moved:  # each crossing is one the phase no longer needs
        demand[i] -= 1
    delivered_now += delivered_active
    settle(state, delivered_now)

    # live bound check: a phase still running at n*d steps can no longer finish in time
    running = now - state.phase_start + 1
    if busy and running >= state.phase_n * state.phase_d:
        raise Lemma1ViolationError(
            f"phase {state.phase_index} still running after {running} steps, "
            f"bound n*d = {state.phase_n * state.phase_d}"
        )

    # (4) phase end: the step that empties the active queues closes the phase;
    # with no phase running, the held packets start the next one
    if moved and not busy:
        _close_phase(state)
    if not busy and held:
        _start_next_phase(state)

    state.steps.append(StepStats(now, state.in_system, injected, delivered_now, max_queue))
    state.now = now + 1
    return state


def run_interval(
    network: Network,
    inner_discipline,
    adversary: Adversary,
    max_steps: int,
    improvement_on: bool = False,
    max_phases: Optional[int] = None,
) -> tuple[Trace, list[PhaseRecord]]:
    """Full phased run; stops at max_steps, at system drain, or once
    `max_phases` non-startup phases have completed. Step 1 always runs."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    key = get_discipline(inner_discipline)
    state = PhaseState(
        network,
        [[] for _ in network.edges],
        holding=[[] for _ in network.edges],
        demand=[0] * len(network.edges),
    )
    state.records.append(PhaseRecord(0, 0, 0, 0, 0))  # the empty startup phase closes at step 1
    while state.now <= max_steps:
        if state.now > 1 and state.in_system == 0 and adversary.done_after(state.now - 1):
            break
        interval_step(state, key, adversary, improvement_on)
        if max_phases is not None and state.records[-1].phase_index >= max_phases:
            break
    truncated = state.in_system > 0 or not adversary.done_after(state.now - 1)

    _check_startup_rule(state)
    return Trace(state.steps, state.packets, truncated, None), state.records


def _check_startup_rule(state: PhaseState) -> None:
    """Step-1 injections belong to phase 1."""
    for p in state.packets:
        if p.injected_at == 1 and p.phase not in (None, 1):
            raise EngineInvariantError(
                f"startup rule broken: packet {p.id} injected at step 1 is phase {p.phase}"
            )
        if p.injected_at == 1 and p.phase is None and p.delivered_at is None:
            raise EngineInvariantError(
                f"startup rule broken: packet {p.id} injected at step 1 never adopted"
            )


def write_phases_csv(
    records: list[PhaseRecord], dest: Union[str, IO], header_comment: str = ""
) -> None:
    """One row per completed phase:
    phase_index,packet_count,n_i,d_i,duration,lemma1_bound."""
    write_csv(
        dest,
        ["phase_index", "packet_count", "n_i", "d_i", "duration", "lemma1_bound"],
        (
            (
                rec.phase_index,
                rec.packet_count,
                rec.n_i,
                rec.d_i,
                rec.duration_steps,
                rec.lemma1_bound,
            )
            for rec in records
        ),
        header_comment,
    )
