"""Flights: the phased engine moves a packet that travels alone in one
calculation, not one hop a step.

Scope. The active phase of `interval_strategy.run_interval` with pass-through
off, under a built-in key, when the phase's dilation is at least
`MIN_DILATION`, on any network. Nothing joins the active queues while a phase
runs: injections wait in the holding queues. So the phase is a static
instance, and each of its packets starts it in the first queue of its route,
since with pass-through off a held packet never moves before its phase.

Meeting queues. At the start of each phase that flies, `Flights.fit` reads
the routes resolved since it last read (`FlightRoutes.unread`), hop by hop. A
queue is a meeting queue (`Flights.meets`) if a route read so far starts
there, or if routes read so far enter it from two different queues; a route
that enters one queue from two queues of its own makes it one too. Every
route of the phase was resolved before the phase started, so `meets` covers
it and stays fixed while any flight is aloft.

The single-predecessor invariant. No other queue q ever holds two packets of
the phase. It starts the phase empty, since no route starts there. Every
route through q enters it from one and the same queue p, which sends at most
one packet a step, so q gets at most one arrival a step. A queue that holds
one packet sends it that step, whatever the key. So if q holds at most one
packet at step t, it holds at most the one that arrives at step t + 1, and by
induction over the steps no packet ever waits in q.

Flights. So a packet sent from the queue of its edge `route[h]` at step s
crosses one edge a step, alone, through queues that are not meeting queues,
to the next meeting queue on its route, `route[k]`, or to its delivery: at
step t it is in the queue of `route[h + t - s]`, and stepping would send it
on at once, whatever the key. `Flights` sends it as a flight, the packet and
the step s, into one of two buckets keyed by step:
- `lands`, at `s + k - h`, the step it reaches `route[k]`;
- `due`, at `s + len(route) - 1 - h`, the step it crosses its last edge, when
  no meeting queue is ahead.
A packet whose next queue is a meeting queue, or whose next edge is its last,
is sent that one edge at once, through `fly`, as stepping does.

Landing. Before any queue picks at step t, `land` puts every flight of
`lands[t]` in its queue, whether or not another packet is there. That queue
picks next: among others, as stepping would, or alone, which sends the packet
on at once, as stepping would too. So after `land`, every flight aloft is
alone in a queue that is not a meeting queue: `crossing` answers False for a
meeting queue at once, and scans the flights aloft only for another queue.

Materialising. A flight's packet keeps its fields from before it left until
`fly` brings them up to date, so a key never reads them in flight. `fly`
gives it its hops done, arrival step and delivery step as stepping would
have left them: when it lands, when it is delivered (its step's bucket in
`due`), and, through `settle`, when a run stops with it aloft. A phase closes
only when its last flight is delivered, so a phase-start state holds no
flight.
"""

from __future__ import annotations

from itertools import chain

from .network import EdgeId, Network
from .sim_engine import Routes, pick
from .strategies import DisciplineKey, Packet

# a flight: its packet and the step it left
Flight = tuple[Packet, int]


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
    """A run's `Routes` that also lists each distinct route as it is
    resolved, for `Flights.fit` to read when a phase flies."""

    def __init__(self, network: Network):
        super().__init__(network)
        self.unread: list[tuple[int, ...]] = []

    def __missing__(self, edges: tuple[EdgeId, ...]) -> tuple[int, ...]:
        route = super().__missing__(edges)
        self.unread.append(route)
        return route


# A phase flies only when its longest remaining route has at least this many
# edges. Launching and landing a flight costs about as much as stepping ten
# hops, and the first phase of a run to fly reads its routes; a shorter phase
# steps, which is as fast and changes nothing that a run returns. (On a 2-core
# host, over 6 alternating pairs of perfbench runs, flying every phase made
# tree_sparse's cli_run_s 3% and oracles_cli's wall_s 2% slower, each in 5 of
# the 6 pairs.)
MIN_DILATION = 64


class Flights:
    """The flights of one phased run; see the module docstring."""

    def __init__(self, routes: FlightRoutes):
        self.routes = routes
        self.meets: set[int] = set()
        self._entered: dict[int, int] = {}  # queue -> the queue routes read so far enter it from
        # route id -> for each hop h, the index of the first meeting queue
        # after it, or the route's length (a route lives as long as the run's
        # cache, so its id names it for that long)
        self._stops: dict[int, list[int]] = {}
        self.lands: dict[int, list[Flight]] = {}  # step -> flights that reach a meeting queue then
        self.due: dict[int, list[Flight]] = {}  # step -> flights delivered then

    def fit(self, dilation: int) -> bool:
        """Whether a phase of this dilation flies; if it does, first read the
        routes resolved since the last read."""
        if dilation < MIN_DILATION:
            return False
        unread = self.routes.unread
        if unread:
            meets, entered = self.meets, self._entered
            size = len(meets)
            for route in unread:
                meets.add(route[0])
                for before, q in zip(route, route[1:]):
                    if entered.setdefault(q, before) != before:
                        meets.add(q)
            unread.clear()
            if len(meets) > size:
                self._stops.clear()
        return True

    def _aloft(self):
        """Every flight aloft, in no particular order."""
        return chain.from_iterable(chain(self.lands.values(), self.due.values()))

    def crossing(self, q: int, now: int) -> bool:
        """Whether a flight aloft is in queue q at step `now`, after `land`."""
        if q in self.meets:
            return False
        for pkt, start in self._aloft():
            if pkt.route[pkt.hops_done + now - start] == q:
                return True
        return False

    def land(self, queues: list[list[Packet]], busy: set[int], now: int) -> None:
        """Put every flight that reaches a meeting queue at step `now` in that
        queue, before any queue picks."""
        for pkt, start in self.lands.pop(now, ()):
            k = pkt.hops_done + now - start
            fly(pkt, start, k)
            q = pkt.route[k]
            queues[q].append(pkt)
            busy.add(q)

    def advance(
        self,
        queues: list[list[Packet]],
        busy: set[int],
        senders: list[int],
        key: DisciplineKey,
        custom: bool,
        now: int,
    ) -> tuple[bool, int, int]:
        """`sim_engine.advance` for a phase with flights, after `land`: each
        queue in `senders` sends the packet that `sim_engine.pick` gives up,
        which leaves as a flight, and the flights due this step are
        delivered.

        Returns whether any packet crossed an edge (a sender's or a flight's),
        the number delivered, and the longest queue that sent: a flight
        aloft is a queue of one."""
        crossed = bool(senders or self.lands or self.due)
        picked, longest = pick(queues, busy, senders, key, custom)
        if crossed and not longest:
            longest = 1
        delivered = 0
        for pkt in picked:
            delivered += self._launch(pkt, now, queues, busy)
        due = self.due.pop(now, ())
        for pkt, start in due:
            fly(pkt, start, len(pkt.route))
        return crossed, delivered + len(due), longest

    def _launch(self, pkt: Packet, now: int, queues: list[list[Packet]], busy: set[int]) -> int:
        """Send `pkt` from its queue at step `now`; 1 if that delivers it."""
        route = pkt.route
        h = pkt.hops_done
        stops = self._stops.get(id(route))
        if stops is None:
            stops = self._stops[id(route)] = self._stops_of(route)
        stop = stops[h]
        n = len(route)
        if stop == h + 1:  # one edge, to a meeting queue or off the route
            fly(pkt, now, stop)
            if stop == n:
                return 1
            q = route[stop]
            queues[q].append(pkt)
            busy.add(q)
        elif stop == n:
            self.due.setdefault(now + n - 1 - h, []).append((pkt, now))
        else:
            self.lands.setdefault(now + stop - h, []).append((pkt, now))
        return 0

    def _stops_of(self, route: tuple[int, ...]) -> list[int]:
        """For each hop of `route`, the index of the first meeting queue
        after it, or the route's length."""
        stops = []
        stop = len(route)
        for k in range(len(route) - 1, -1, -1):
            stops.append(stop)
            if route[k] in self.meets:
                stop = k
        stops.reverse()
        return stops

    def settle(self, now: int) -> None:
        """End every flight still aloft as a run stops before step `now`."""
        for pkt, start in self._aloft():
            fly(pkt, start, pkt.hops_done + now - start)
        self.lands.clear()
        self.due.clear()
