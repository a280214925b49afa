"""Frozen reference: the straightforward engine that scans every edge on every
step. Differential tests run it next to `aqsim.sim_engine.run` and
`aqsim.interval_strategy.run_interval` and demand identical results.

Keep this file as it is. It is deliberately slow and simple, and it must not
share step code with the package; only the value types are imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from aqsim.interval_strategy import Lemma1ViolationError
from aqsim.network import EdgeId, Network, PacketPath, congestion_dilation
from aqsim.sim_engine import EngineInvariantError, StepStats, Trace
from aqsim.strategies import Packet, get_discipline

# ---- plain runs -------------------------------------------------------------


@dataclass
class SimState:
    network: Network
    queues: dict[EdgeId, list[Packet]]
    packets: list[Packet] = field(default_factory=list)
    steps: list[StepStats] = field(default_factory=list)
    moves: Optional[list[tuple[int, EdgeId, int]]] = None
    now: int = 1
    in_system: int = 0
    delivered: int = 0


def step(state: SimState, strategy, adversary) -> SimState:
    key = get_discipline(strategy)
    now = state.now
    queues = state.queues
    packets = state.packets

    new_paths = adversary.injections_for(now)
    for path in new_paths:
        pkt = Packet(
            id=len(packets) + 1,
            path=tuple(path),
            injected_at=now,
            arrived_in_queue_at=now,
        )
        packets.append(pkt)
        queues[pkt.path[0]].append(pkt)
    state.in_system += len(new_paths)

    max_queue = max(map(len, queues.values()), default=0)

    chosen = [
        (e, min(q, key=lambda p: (key(p), p.id))) for e, q in queues.items() if q
    ]
    delivered_now = 0
    for e, pkt in chosen:
        queues[e].remove(pkt)
        pkt.hops_done += 1
        if state.moves is not None:
            state.moves.append((now, e, pkt.id))
        if pkt.hops_done == len(pkt.path):
            pkt.delivered_at = now
            delivered_now += 1
        else:
            pkt.arrived_in_queue_at = now + 1
            queues[pkt.path[pkt.hops_done]].append(pkt)
    state.delivered += delivered_now
    state.in_system -= delivered_now

    if len(packets) != state.in_system + state.delivered:
        raise EngineInvariantError(f"conservation broken at step {now}")

    state.steps.append(
        StepStats(now, state.in_system, len(new_paths), delivered_now, max_queue)
    )
    state.now = now + 1
    return state


@dataclass
class MoveTrace(Trace):
    """A Trace that also hands back the moves: (step, edge id, packet id) in
    step order, then edge-declaration order."""

    moves: Optional[list[tuple[int, EdgeId, int]]] = None


def run(network, strategy, adversary, max_steps: int, record_moves: bool = False) -> MoveTrace:
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    get_discipline(strategy)
    state = SimState(
        network=network,
        queues={e: [] for e in network.edge_ids},
        moves=[] if record_moves else None,
    )
    while state.now <= max_steps:
        if state.in_system == 0 and adversary.done_after(state.now - 1):
            break
        step(state, strategy, adversary)
    truncated = state.in_system > 0 or not adversary.done_after(state.now - 1)
    return MoveTrace(state.steps, state.packets, truncated, state.moves)


# ---- phased runs -------------------------------------------------------------


@dataclass(frozen=True)
class PhaseRecord:
    phase_index: int
    packet_count: int
    duration_steps: int
    n_i: int
    d_i: int
    max_active_queue_len: int


@dataclass
class PhaseState:
    network: Network
    active: dict[EdgeId, list[Packet]]
    holding: dict[EdgeId, list[Packet]]
    packets: list[Packet] = field(default_factory=list)
    records: list[PhaseRecord] = field(default_factory=list)
    steps: list[StepStats] = field(default_factory=list)
    now: int = 1
    in_system: int = 0
    delivered: int = 0
    phase_index: int = 0
    phase_open: bool = True
    phase_start: int = 1
    phase_count: int = 0
    phase_n: int = 0
    phase_d: int = 0
    phase_max_queue: int = 0
    active_remaining: int = 0
    active_packets: list[Packet] = field(default_factory=list)


def _close_phase(state: PhaseState) -> None:
    duration = state.now - state.phase_start + 1 if state.phase_count else 0
    bound = state.phase_n * state.phase_d
    if state.phase_count and duration > bound:
        raise Lemma1ViolationError(f"phase {state.phase_index} took {duration} > {bound}")
    state.records.append(
        PhaseRecord(
            state.phase_index,
            state.phase_count,
            duration,
            state.phase_n,
            state.phase_d,
            state.phase_max_queue,
        )
    )
    state.phase_open = False


def _start_next_phase(state: PhaseState) -> None:
    adopted: list[Packet] = []
    for e in state.network.edge_ids:
        movers = sorted(state.holding[e], key=lambda p: p.id)
        state.holding[e] = []
        state.active[e] = movers
        adopted.extend(movers)
    state.phase_index += 1
    state.phase_start = state.now + 1
    for p in adopted:
        p.arrived_in_queue_at = state.phase_start
        p.phase = state.phase_index
    nd = congestion_dilation([PacketPath(p.path[p.hops_done :]) for p in adopted])
    state.phase_n, state.phase_d = nd.n, nd.d
    state.phase_count = len(adopted)
    state.phase_max_queue = 0
    state.active_remaining = len(adopted)
    state.active_packets = adopted
    state.phase_open = True


def interval_step(state: PhaseState, inner_discipline, adversary, improvement_on: bool):
    key = get_discipline(inner_discipline)
    now = state.now
    active, holding = state.active, state.holding

    new_paths = adversary.injections_for(now)
    for path in new_paths:
        pkt = Packet(
            id=len(state.packets) + 1,
            path=tuple(path),
            injected_at=now,
            arrived_in_queue_at=now,
        )
        state.packets.append(pkt)
        holding[pkt.path[0]].append(pkt)
    state.in_system += len(new_paths)

    max_queue = max(
        (len(active[e]) + len(holding[e]) for e in state.network.edge_ids), default=0
    )
    if state.phase_open and state.phase_count:
        state.phase_max_queue = max(
            state.phase_max_queue, max(map(len, active.values()), default=0)
        )

    delivered_now = 0

    if improvement_on and state.phase_open and state.phase_count:
        demanded: set = set()
        for p in state.active_packets:
            if p.delivered_at is None:
                demanded.update(p.path[p.hops_done :])
        for e in state.network.edge_ids:
            if e in demanded:
                continue
            eligible = [p for p in holding[e] if p.arrived_in_queue_at <= now]
            if not eligible:
                continue
            mover = min(eligible, key=lambda p: (p.arrived_in_queue_at, p.id))
            holding[e].remove(mover)
            mover.hops_done += 1
            if mover.hops_done == len(mover.path):
                mover.delivered_at = now
                delivered_now += 1
            else:
                mover.arrived_in_queue_at = now + 1
                holding[mover.path[mover.hops_done]].append(mover)

    chosen = [
        (e, min(q, key=lambda p: (key(p), p.id))) for e, q in active.items() if q
    ]
    for e, pkt in chosen:
        active[e].remove(pkt)
        pkt.hops_done += 1
        if pkt.hops_done == len(pkt.path):
            pkt.delivered_at = now
            delivered_now += 1
            state.active_remaining -= 1
        else:
            pkt.arrived_in_queue_at = now + 1
            active[pkt.path[pkt.hops_done]].append(pkt)

    state.delivered += delivered_now
    state.in_system -= delivered_now
    if len(state.packets) != state.in_system + state.delivered:
        raise EngineInvariantError(f"conservation broken at step {now}")

    if (
        state.phase_open
        and state.phase_count
        and state.active_remaining > 0
        and now - state.phase_start + 1 >= state.phase_n * state.phase_d
    ):
        raise Lemma1ViolationError(f"phase {state.phase_index} overran n*d")

    if state.phase_open and state.active_remaining == 0:
        _close_phase(state)
    if not state.phase_open and any(holding[e] for e in state.network.edge_ids):
        _start_next_phase(state)

    state.steps.append(
        StepStats(now, state.in_system, len(new_paths), delivered_now, max_queue)
    )
    state.now = now + 1
    return state


def run_interval(
    network,
    inner_discipline,
    adversary,
    max_steps: int,
    improvement_on: bool = False,
    max_phases: Optional[int] = None,
) -> tuple[Trace, list[PhaseRecord]]:
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    get_discipline(inner_discipline)
    state = PhaseState(
        network=network,
        active={e: [] for e in network.edge_ids},
        holding={e: [] for e in network.edge_ids},
    )
    while state.now <= max_steps:
        if (
            state.in_system == 0
            and not state.phase_open
            and adversary.done_after(state.now - 1)
        ):
            break
        interval_step(state, inner_discipline, adversary, improvement_on)
        if (
            max_phases is not None
            and state.records
            and state.records[-1].phase_index >= max_phases
        ):
            break
    truncated = state.in_system > 0 or not adversary.done_after(state.now - 1)
    return Trace(state.steps, state.packets, truncated), state.records
