"""Flights: the phased engine moves a packet that travels alone in one
calculation, not one hop a step.

Scope. The active phase of `interval_strategy.run_interval` with pass-through
off, under a built-in key, on a network where no node has two out-edges (a
line, an in-tree, or several), when the phase's dilation is at least
`MIN_DILATION`: there each edge that leads to a sink has a depth, its count
of edges left to the sink (`FlightRoutes.depths`). Nothing joins the active
queues while a phase runs, so the phase is a static instance. A packet sent from a queue becomes a flight: the packet, the step
it left and the hop it left from; it crosses one edge a step, on paper,
until it is delivered or lands in a queue again. Its fields keep their values from before it left
until `fly` brings them up to date at its end, so a key never reads them in
flight. A packet whose route does not drop one depth a hop (`FlightRoutes`
says which do) is still sent one edge, also through `fly`, and lands in its
next queue at once, as the stepping core would put it there.

The group invariant. A flight that left the queue of its edge `route[h]` at
step s and crosses one edge a step is at step t in the queue of
`route[h + t - s]`. Each hop drops one depth, so that queue's depth is
`depth(route[h]) - (t - s)`, and `t + depth(queue)` equals its group
`g = s + depth(route[h])` at every step of the flight. So a flight is in
queue q at step t only if its group is `t + depth(q)`: within one group, each
queue has one step, its slot, at which the group's flights can be there.

Meeting queues. A packet crosses on from a queue without waiting whenever it
is alone there: a queue of one sends it, whatever the key. Two packets of a
phase can be in one queue at once only at a meeting queue
(`FlightRoutes.meets`): the first queue of a route, a queue of a route that
does not drop one depth a hop, or a queue that routes enter from two
different queues. Every other queue q starts no packet and is entered only
from the one queue before it, which sends one packet a step; so the first
step at which q held two packets would need two that had crossed that one
queue together, and there is none. No packet ever waits in q, and a flight
there is alone. The phase's routes were all resolved before it started, so a
queue that becomes a meeting queue while it runs (through a held packet's new
route) is one of these for the rest of the phase.

Why the flights are exact. A flight moves as the stepping core would move it
for as long as no other packet is in its queue when it is, and that can only
fail at a meeting queue. Another packet in queue q at step t either waited
there, so q is in `busy`, or crossed into it at step t - 1, which makes it a
flight of the same group or a packet sent one edge that waits in `busy`'s
queue q. Each group keeps its flights' claims: a map from meeting queue to
the one flight that holds it. A flight, on leaving, holds every meeting queue
ahead of it up to, not including, its stop: the first one there that a
flight of its group already holds, or the end of its route. Holds are never
overwritten while their flight is aloft, and a flight that lands gives up
the queues it held from there on; so every hold on a slot not yet past is a
flight aloft that reaches it, unless it lands before. A flight with a stop
short of its route's end records its meeting at the stop's slot. Before any
queue picks at step t, `land` lands:
- for each queue q in `busy`, the holder of q in group `t + depth(q)`;
- for each meeting recorded for step t, its flight, and the holder of its
  queue's slot.
This lands every flight that shares its queue at step t with another packet.
That queue q is a meeting queue, and one from before the phase started, so a
flight F in q at step t holds q, or q is its stop, since past its stop it is
never before landing there. If q held a waiting packet, q was in `busy`, and
F, as its holder or by its meeting, lands. If another flight G is in q too,
at most one of F and G holds q and q is the other's stop, so the meeting
lands both. A flight landed that was alone after all is picked at once, as
the stepping core would send it, and flies on from there.

Materialising. `fly` gives a flight's packet its hops done, arrival step and
delivery step as stepping would have left them: when it lands (arriving in
its queue at that step, before the pick), when it is delivered (its step's
bucket in `due`), and, through `settle`, when a run stops with it aloft.
Between those, `crossing` says whether a flight is in a queue at a step, so
a held edge's size can count a flight passing it. A phase closes only when
its last flight is delivered, so a phase-start state holds no flight.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, repeat
from operator import ne
from typing import Optional

from .network import EdgeId, Network
from .sim_engine import Routes
from .strategies import DisciplineKey, Packet, least

# a flight: its packet, the step it left, its group, its stop (the index in its
# route of the queue where it lands, or the route's length) and the meeting
# queues it holds, in route order
Flight = tuple[Packet, int, int, int, tuple[int, ...]]


def fly(pkt: Packet, start: int, hops: int) -> None:
    """End the flight of `pkt`, which left the queue of its edge `hops_done`
    at step `start` and crossed one edge a step up to its edge `hops`, not
    included: its fields become what stepping those crossings gives. Every
    crossing a flight makes goes through this function, once per flight."""
    first = pkt.hops_done
    end = start + hops - first  # the step after its last crossing
    pkt.hops_done = hops
    if hops < len(pkt.route):
        pkt.arrived_in_queue_at = end
    else:
        pkt.delivered_at = end - 1
        if hops - first > 1:  # it reached its last queue in flight
            pkt.arrived_in_queue_at = end - 1


class FlightRoutes(Routes):
    """A run's `Routes` that lists each distinct route as it is resolved,
    for `read` to classify when flights need it, on a network with no node
    of two out-edges (`Network.edge_after`). Read so far:
    - `depths`, each queue's count of edges left to a sink, itself included,
      once a route through it is read (0 before, -1 for a queue whose walk
      goes round a cycle and never reaches a sink);
    - `flyable`, the ids of the routes that drop one depth a hop (a route
      lives as long as the cache, so its id names it for that long);
    - `inner`, the queues those routes enter past their first, the only ones
      a flight can be in after it left;
    - `meets`, the meeting queues (see the module docstring).
    A depth is found by walking the edges after a queue to the first whose
    depth is known, so a run pays for the edges its routes lead to, not for
    every edge of the network, and a run whose phases never fly pays only
    for listing its routes."""

    def __init__(self, network: Network):
        super().__init__(network)
        self.network = network
        self.depths: list[int] = []
        self.flyable: set[int] = set()
        self.inner: set[int] = set()
        self.meets: set[int] = set()
        self.unread: list[tuple[int, ...]] = []
        self._entered_from: dict[int, int] = {}  # queue -> a queue a flyable route enters it from

    def __missing__(self, edges: tuple[EdgeId, ...]) -> tuple[int, ...]:
        route = super().__missing__(edges)
        self.unread.append(route)
        return route

    def _depth(self, q: int, after: tuple[Optional[int], ...]) -> int:
        depths = self.depths
        walk = []
        j: Optional[int] = q
        while j is not None and not depths[j] and len(walk) < len(after):
            walk.append(j)
            j = after[j]
        if j is None:
            depth = 0
        elif depths[j]:
            depth = depths[j]
        else:
            depth = -1  # the walk has gone round a cycle
        for j in reversed(walk):
            depth = depth + 1 if depth >= 0 else -1
            depths[j] = depth
        return depth

    def read(self) -> set[int]:
        """Classify the routes resolved since the last call; return the
        queues that became meeting queues."""
        after = self.network.edge_after
        depths = self.depths
        if not depths:  # the first read: `Flights` holds this list
            depths += [0] * len(after)
        meets = []
        for route in self.unread:
            # the walk from the first queue finds the depth of every queue
            # after it; a route that leaves that walk drops one depth a hop
            # only if the queues it jumps to already have theirs
            first = depths[route[0]] or self._depth(route[0], after)
            known = list(map(depths.__getitem__, route))
            ahead = route[1:]
            meets.append(route[0])
            if first > 0 and known == list(range(first, first - len(route), -1)):
                self.flyable.add(id(route))
                self.inner.update(ahead)
                # each queue ahead that a route read before entered from
                # another queue is a meeting queue (`get` defaults to this
                # route's own)
                entered_from = self._entered_from
                before = list(map(entered_from.get, ahead, route))
                meets += compress(ahead, map(ne, before, route))
                entered_from.update(zip(ahead, route))
            else:
                meets += route
        self.unread.clear()
        added = set(meets) - self.meets
        self.meets |= added
        return added


# A phase flies only when its longest remaining route has at least this many
# edges. Launching and landing a flight costs about as much as stepping ten
# hops, and the first phase of a run to fly reads its routes' depths; a
# shorter phase steps, which is as fast and changes nothing that a run
# returns. (On a 2-core host, the 155-step run of perfbench's 32-level
# scripted tree took 1.6 ms stepped and 2.8 ms with every phase flown.)
MIN_DILATION = 64


class Flights:
    """The flights of one phased run; see the module docstring."""

    def __init__(self, routes: FlightRoutes):
        self.routes = routes
        self.depths = routes.depths  # read only at queues of flyable routes
        # route id -> the indices and queues of its meeting queues
        self.marks: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        # meeting queues added while a flight that left before was aloft
        self.late: set[int] = set()
        self.aloft: dict[int, Flight] = {}  # packet id -> its flight
        # group -> a map from meeting queue to the flight holding it (None
        # once that flight has landed)
        self.groups: dict[int, dict[int, Optional[Flight]]] = {}
        self.meetings: dict[int, list[tuple[int, Flight]]] = {}  # step -> (queue, flight)
        self.due: dict[int, list[Flight]] = {}  # step -> flights delivered then, unless landed

    def fit(self, dilation: int) -> bool:
        """Whether a phase of this dilation flies: a long enough one, on a
        network with no node of two out-edges."""
        return dilation >= MIN_DILATION and self.routes.network.edge_after is not None

    def _holder(self, q: int, now: int) -> Optional[Flight]:
        """The flight aloft that holds meeting queue q at step `now`, or None."""
        claims = self.groups.get(now + self.depths[q])
        return None if claims is None else claims.get(q)

    def crossing(self, q: int, now: int) -> bool:
        """Whether a flight aloft is in meeting queue q, a held edge for one,
        at step `now`, after `land`: one that holds it, or, if q became a
        meeting queue after some flight aloft left, any flight there."""
        if q not in self.late:
            return self._holder(q, now) is not None
        for pkt, start, _, stop, _ in self.aloft.values():
            k = pkt.hops_done + now - start
            if k < stop and pkt.route[k] == q:
                return True
        return False

    def land(self, queues: list[list[Packet]], busy: set[int], now: int) -> None:
        """Put every flight that shares its queue at step `now` with another
        packet back in that queue, before any queue picks."""
        if self.routes.unread:
            added = self.routes.read()
            if added:
                self.marks.clear()
                self.late |= added
        if not self.aloft:
            self.late.clear()
            return
        groups = self.groups
        depths = self.depths
        for q in busy & self.routes.inner:
            if now + depths[q] in groups:
                flight = self._holder(q, now)
                if flight is not None:
                    self._land(flight, now, queues, busy)
        for q, flight in self.meetings.pop(now, ()):
            if self.aloft.get(flight[0].id) is flight:
                self._land(flight, now, queues, busy)
            holder = self._holder(q, now)
            if holder is not None:
                self._land(holder, now, queues, busy)

    def _land(self, flight: Flight, now: int, queues: list[list[Packet]], busy: set[int]) -> None:
        pkt, start, group, stop, held = flight
        del self.aloft[pkt.id]
        k = pkt.hops_done + now - start
        q = pkt.route[k]
        if k < stop:  # q is held by it; give up the queues held from there on
            self.groups[group].update(zip(held[held.index(q) :], repeat(None)))
        fly(pkt, start, k)
        queues[q].append(pkt)
        busy.add(q)

    def advance(
        self,
        queues: list[list[Packet]],
        busy: set[int],
        senders: list[int],
        key: DisciplineKey,
        now: int,
    ) -> tuple[bool, int, int]:
        """`sim_engine.advance` for a phase with flights, after `land`: each
        queue in `senders` sends its packet least in (key, id), which leaves
        as a flight, and the flights due this step are delivered. `key` is a
        built-in key, so a lone packet is sent without evaluating it.

        Returns whether any packet crossed an edge (a sender's or a flight's),
        the number delivered, and the longest queue that sent: a flight
        aloft is a queue of one."""
        aloft = self.aloft
        crossed = bool(senders) or bool(aloft)
        longest = 1 if crossed else 0
        picked = []
        busy.difference_update(senders)
        for i in senders:
            q = queues[i]
            if len(q) == 1:
                picked.append(q.pop())
            else:
                if len(q) > longest:
                    longest = len(q)
                picked.append(q.pop(least(q, key)))
                busy.add(i)
        delivered = 0
        for pkt in picked:
            delivered += self._launch(pkt, now, queues, busy)
        for flight in self.due.pop(now, ()):
            pkt = flight[0]
            if aloft.get(pkt.id) is flight:
                del aloft[pkt.id]
                fly(pkt, flight[1], len(pkt.route))
                delivered += 1
        self.groups.pop(now + 1, None)  # its slots have all passed
        return crossed, delivered, longest

    def _launch(self, pkt: Packet, now: int, queues: list[list[Packet]], busy: set[int]) -> int:
        """Send `pkt` from its queue at step `now`; 1 if that delivers it."""
        route = pkt.route
        h = pkt.hops_done
        n = len(route)
        if h + 1 == n or id(route) not in self.routes.flyable:
            fly(pkt, now, h + 1)
            if h + 1 == n:
                return 1
            j = route[h + 1]
            queues[j].append(pkt)
            busy.add(j)
            return 0
        marks = self.marks.get(id(route))
        if marks is None:
            meets = self.routes.meets
            at = tuple(k for k, q in enumerate(route) if q in meets)
            marks = self.marks[id(route)] = (at, tuple(map(route.__getitem__, at)))
        at, meeting_queues = marks
        first = bisect_right(at, h)
        ahead = meeting_queues[first:]
        group = now + self.depths[route[h]]
        claims = self.groups.get(group)
        stop = n
        if claims is None:
            claims = self.groups[group] = {}
        else:
            hit = next(filter(claims.get, ahead), None)
            if hit is not None:
                m = ahead.index(hit)
                stop = at[first + m]
                ahead = ahead[:m]
        flight = (pkt, now, group, stop, ahead)
        self.aloft[pkt.id] = flight
        claims.update(zip(ahead, repeat(flight)))
        if stop == n:
            self.due.setdefault(now + n - 1 - h, []).append(flight)
        else:
            self.meetings.setdefault(now + stop - h, []).append((route[stop], flight))
        return 0

    def settle(self, now: int) -> None:
        """End every flight still aloft as a run stops before step `now`."""
        for pkt, start, *_ in self.aloft.values():
            fly(pkt, start, pkt.hops_done + now - start)
        self.aloft.clear()
