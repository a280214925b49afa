"""Discrete-time executor of the queueing game: inject, select, transmit.

Step order is fixed: injections for the current step enter their first-edge
queues (and may move the same step); every non-empty queue picks one packet
under the discipline; all picked packets cross their edges simultaneously,
landing in the next queue effective the following step. Unit capacity holds
by construction: `advance` sends one packet per sending queue. The packets in
the system are counted as injected minus delivered; that every injected packet
is still queued or delivered is checked by the differential tests against a
full-scan reference engine and by the accounting tests, not at run time.

The step core (`inject`, `advance`) is shared with the phased strategy and
the greedy static runner. Callers keep the set of non-empty queues, so a step
costs time in proportion to the busy queues and the packets waiting in them,
not to the number of edges. The step's peak queue length comes from the same
pass: `advance` reports its longest sender queue, so no queue is scanned a
second time. The senders leave the set of non-empty queues in one update per
step, not one removal per hop. A packet moves by its `route`, its path as
queue indices, which `Routes` resolves once per distinct path of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import IO, NamedTuple, Optional

from .adversary import Adversary
from .csvio import write_csv
from .network import EdgeId, Network
from .strategies import DisciplineKey, Packet, get_discipline, least


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
    """A phased run's first repeated phase-start state: the phase starting at
    step `start` recurs, shifted, `period` steps and `phases` phases later."""

    start: int
    period: int
    phases: int


@dataclass
class Trace:
    steps: list[StepStats]
    packets: list[Packet]  # every injected packet, in id order
    truncated: bool  # cut at max_steps with work (or injections) remaining
    # the first repeated phase-start state of a run_interval run that looks for one
    recurrence: Optional[Recurrence] = field(default=None, kw_only=True)

    @property
    def last_step(self) -> int:
        return self.steps[-1].step if self.steps else 0

    @property
    def max_system_time(self) -> Optional[int]:
        times = [p.system_time for p in self.packets if p.delivered_at is not None]
        return max(times) if times else None

    @property
    def max_queue_len(self) -> int:
        return max((s.max_queue_len for s in self.steps), default=0)

    @property
    def delivered_count(self) -> int:
        return sum(1 for p in self.packets if p.delivered_at is not None)


# ---- the step core both strategies use -------------------------------------


class Routes(dict):
    """One run's cache from a path's edge tuple to its route, the tuple of
    the edges' queue indices in `network`'s declaration order; a route is
    resolved on its first lookup. The cache is its own dict, not
    `network.edge_index`, because an edge id may itself be a tuple and so
    equal some path."""

    def __init__(self, network: Network):
        super().__init__()
        self._index = network.edge_index

    def __missing__(self, edges: tuple[EdgeId, ...]) -> tuple[int, ...]:
        route = self[edges] = tuple(map(self._index.__getitem__, edges))
        return route


def inject(
    adversary: Adversary,
    now: int,
    packets: list[Packet],
    routes: Routes,
    queues: list[list[Packet]],
    busy: set[int],
) -> int:
    """The adversary's packets for step `now` are appended to `packets` and
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


def advance(
    queues: list[list[Packet]],
    busy: set[int],
    senders: list[int],
    key: DisciplineKey,
    now: int,
) -> tuple[list[Packet], int, int]:
    """Each queue in `senders` (non-empty, listed in edge-declaration order,
    all in `busy`) sends the packet least in (key, id) across its edge. All
    crossings are simultaneous: a packet lands in its next queue, the next
    index of its `route`, only after every sender has picked, so no packet
    moves twice in one step.

    `busy`, the set of non-empty queues, is kept exact with one set update
    per step rather than one per hop: every sender leaves it at once, a
    sender whose queue still holds packets after its send goes back, and each
    queue a packet lands in joins it (a sender's own queue included, when a
    packet lands in it the step it emptied). Queues in `busy` that do not
    send stay in it.

    The key is evaluated once per queued packet of each sender, in queue
    order. A sender holding one packet (nearly all of them on the benchmark
    workloads) still evaluates it once and then sends that packet; longer
    queues pick through `strategies.least`.

    Returns the packets that crossed, `moved[k]` being the one that left
    `senders[k]`; the number of packets that finished their path; and the
    longest sender queue before sending: 0 with no senders, 1 when every
    sender holds one packet.
    """
    moved = []
    longest = 1 if senders else 0
    busy.difference_update(senders)
    for i in senders:
        q = queues[i]
        if len(q) == 1:
            key(q[0])  # a custom key may count its calls; see the docstring
            moved.append(q.pop())
        else:
            if len(q) > longest:
                longest = len(q)
            moved.append(q.pop(least(q, key)))
            busy.add(i)
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
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    key = get_discipline(strategy)
    routes = Routes(network)
    queues: list[list[Packet]] = [[] for _ in network.edges]
    busy: set[int] = set()
    packets: list[Packet] = []
    steps: list[StepStats] = []
    in_system = 0
    now = 1
    while now <= max_steps:
        if in_system == 0 and adversary.done_after(now - 1):
            break
        injected = inject(adversary, now, packets, routes, queues, busy)
        _, delivered_now, max_queue = advance(queues, busy, sorted(busy), key, now)
        in_system += injected - delivered_now
        steps.append(step_stats((now, in_system, injected, delivered_now, max_queue)))
        now += 1
    truncated = in_system > 0 or not adversary.done_after(now - 1)
    return Trace(steps, packets, truncated)


# ---- CSV export -----------------------------------------------------------


def write_trace_csv(trace: Trace, dest: IO, header_comment: str = "") -> None:
    """One row per step: step,total_in_system,injections,deliveries,max_queue_len."""
    write_csv(dest, StepStats._fields, trace.steps, header_comment)


def write_packets_csv(trace: Trace, dest: IO, header_comment: str = "") -> None:
    """One row per packet: packet_id,injected_at,delivered_at,system_time,path_len.

    Undelivered packets leave delivered_at and system_time empty.
    """
    write_csv(
        dest,
        ["packet_id", "injected_at", "delivered_at", "system_time", "path_len"],
        (
            (
                p.id,
                p.injected_at,
                "" if p.delivered_at is None else p.delivered_at,
                "" if p.delivered_at is None else p.system_time,
                len(p.path),
            )
            for p in trace.packets
        ),
        header_comment,
    )
