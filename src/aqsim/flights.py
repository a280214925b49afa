"""Flights: a packet that travels alone is moved in one calculation, not one
hop a step.

Scope. Under a built-in key, on any network, three kinds of packet fly:
- the active packets of a phase of `interval_strategy.run_interval` whose
  dilation is at least `MIN_DILATION`. Nothing joins the active queues while
  a phase runs: injections wait in the holding queues. So the phase is a
  static instance. With pass-through off each of its packets starts it in
  the first queue of its route; with pass-through on, a packet may start it
  mid-route, where pass-through left it.
- with pass-through on, the held packets that pass-through sends while such
  a phase runs (`PassingFlights`; see "Pass-through").
- the packets of a plain run (`sim_engine.run`) whose source declares no
  period, from the step whose injections resolve its first route of at
  least `MIN_DILATION` edges (`Routes.long`) to its end. A run of a periodic
  source steps, so period skipping never meets a flight.
`wire` chooses each run's route cache and `Flights`, and both engines then
call `land`, `advance` and `settle`; a plain run calls them through `step`.

Meeting queues. `Flights` reads the routes resolved since it last read
(`FlightRoutes.unread`), hop by hop: a phased run at the start of each phase
that flies (`fit`) and, with pass-through on, at each step of it
(`PassingFlights.land_held`); a plain run that flies after each step's
injections (`grow`). A queue is a meeting queue (`Flights.meets`) if a route
read so far starts there, or if routes read so far enter it from two
different queues; a route that enters one queue from two queues of its own
makes it one too. At the start of a phase that flies, `fit` also makes a
meeting queue of every queue that adoption fills with two packets or more.
`meets` only grows. Every route of a phase's packets was resolved before the
phase started; a route read while it runs is a held packet's, whose packets
join no active queue of the phase. In a plain run a route first resolved at
step t is read at step t, before any flight moves on.

The single-predecessor invariant. Take a queue q that is not a meeting
queue after the read of step t, and its active queue in a phased run.
Every packet in it by then has a route read so far, and since `meets` only
grows, q was no meeting queue at any earlier read either. No route read
starts at q, so no packet enters q by injection, which enters only the
first queue of a route. Every route read through q enters it from one and
the same queue p, which sends at most one packet a step, so q gets at most
one arrival a step. A queue that holds one packet sends it that step,
whatever the key. q is empty when a plain run starts, and it starts each
phase that flies with at most one packet, or `fit` would have made it a
meeting queue. So if q holds at most one packet at a step, it holds at most
the one that arrives at the next, and by induction over the steps no packet
ever waits in q up to step t.

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

Growth while aloft. In a plain run a route first read at step t can make a
queue a meeting queue while a flight is aloft through it. When the read of
step t adds meeting queues, `grow` files every flight aloft again, by the
rule above but from the queue it is in at step t, `route[c]` with
`c = h + t - s`: it lands at the first meeting queue at or after `route[c]`,
or else it is delivered when it would have been. This is exact. Each flight
was filed again at every earlier growth, so at every step from s to t - 1
it was in a queue that was no meeting queue then, alone by the invariant,
and stepping sent it on at once, as the flight did. From step t on it goes
on alone through queues that are no meeting queue at t, up to its new stop,
and the next growth, if any, files it again the same way. A flight whose
queue at t is itself new lands at t, before any queue picks, which is where
stepping has it then. A flight due at t, in its last queue, where a route
read at t starts, lands there and is picked among the packets injected
into it, where without the growth it would have been delivered without a
pick. `lands` and `due` are cleared and refilled in place, since
`run_interval` holds them too. Only the flights' buckets change: their
packets' fields are those at their launch, as ever. A phase's active
flights are not filed again: a route read while the phase runs brings no
packet into its active queues.

Landing. Before any queue picks at step t, `land` puts every flight of
`lands[t]` in its queue, whether or not another packet is there. That queue
picks next: among others, as stepping would, or alone, which sends the packet
on at once, as stepping would too. So after `land`, every flight aloft is
alone in a queue that was no meeting queue when it was sent. Without
pass-through `meets` does not change while a flight is aloft, so `crossing`
answers False for a meeting queue at once and scans the flights aloft only
for another queue; with it, `PassingFlights.crossing` reads `until`.

Pass-through. With pass-through on, a phase that flies keeps two more
lists, shared with `run_interval`. `demand[e]` counts the crossings of edge
e that the phase has not yet launched: each active launch takes its
flight's crossings off at once, and raises `until[e]` to the last step at
which a flight launched so far crosses e. Stepping would have no crossing
of e left to make at step t, exactly when `demand[e] == 0 and until[e] < t`:
no crossing of e is left to launch, and none launched is still to come. A
held edge then sends, and e is open from step t on. Openness only grows
within a phase: `demand` only falls, and once `demand[e]` is 0 no launch
crosses e, so `until[e]` stays fixed. A phase runs, and pass-through with
it, while an active packet is queued or aloft.

Held flights. Pass-through picks the first packet of each sending holding
queue, the one least in (arrival step, id), and sends it as a held flight
(`PassingFlights.pass_held`), in buckets of its own, so that `live`,
`moved` and the phase records see active packets only. Sent from the
holding queue of `route[h]` at step s, it crosses `route[k]` at step
`s + k - h` up to the first k > h where:
- `route[k]` is a meeting queue;
- `route[k]` is blocked (`PassingFlights.blocked`): a held packet sent
  there in this phase waits in its holding queue, or a held flight aloft
  lands there;
- `route[k]` is not open at step `s + k - h`, as `demand` and `until` show
  at step s;
- or k is the length of the route, its delivery.
It lands in the holding queue of `route[k]` at step `s + k - h`, before
any holding queue picks (`land_held`). One number per queue,
`PassingFlights.shut`, folds the last three tests into one: a queue may be
crossed at step t exactly when t is above it.
This is exact. At each step `s + j` with `0 < j < k - h` the packet is in
the holding queue of `q = route[h + j]`, which is open then, since
openness only grows, so q sends, and it sends this packet if it holds no
other. It holds none. q is no meeting queue, so no route starts there and
every route read enters it from `route[h + j - 1]`: packets come into its
holding queue one a step, from that queue, and none by injection. Every
holding queue `route[h + 1]` to `route[k - 1]` was empty at step s and no
flight was to land in it. So a packet there at step `s + j` other than this
one was aloft ahead of it at step s and, moving one queue a step as this
one does, stays ahead of it up to its own stop, which is blocked and so at
or after k; or it left `route[h]` after step s and trails this one. The
senders of one step are taken one at a time, so a sender not yet taken
still holds its packet and is blocked, and one taken before has blocked
its flight's stop. A route read while held flights are aloft files them
again, as `grow` does, each at its old stop or at the first meeting queue
from the queue it is in, whichever comes first.
Two of the rules change no run. A held flight stopped only by a flight
that lands ahead of it never catches that flight: the one ahead met a queue
not open or blocked, but the one behind finds it open and free, so the
first is sent on the step it lands. For the same reason a held packet
waits only in a meeting queue, so adoption fills no other queue with two
packets. Both rules stay: they keep each step of the proofs above local.
Once every active packet is aloft and due, the phase closes at the last of
their steps, and a held flight sent then stops at the queue it will be in
at the step after, as the phase closes. When the phase closes, `ground`
ends every held flight aloft, as `settle` does, and puts its packet in the
holding queue it is in; adoption then moves it to the active queues.

Order. Flights run only under a built-in key, and every built-in key reads
the arrival step, the injection step or the hop count of a packet, none of
which changes while it waits. So a queue sorted by `(-key, -id)`, the packet
least in (key, id) last, stays sorted until a packet arrives, and its pick is
its last packet: `advance` pops it, and evaluates no key. While a run flies,
packets arrive in a queue in four places only, and each keeps the order:
- where flying starts, `sort` sorts the busy queues: at the start of each
  phase that flies, or at the plain run's first step that flies, after its
  injections;
- at a landing, where `land` inserts the flight in order;
- at a one-edge send into a meeting queue, which `_launch` inserts in order;
- at an injection into a plain run that flies: `inject` appends the step's
  packets, and `step` takes them off the ends of their queues and inserts
  them in order.
`run_interval` calls `sort` after any period skip at that phase start, not
before: `sim_engine.skip_periods` refills the queues in id order.
A holding queue of a phase that flies with pass-through on starts the phase
empty and is kept in (arrival step, id) order, the least first: injections
append, landings and one-edge sends insert in order, and pass-through pops
the first packet.

Materialising. A flight's packet keeps its fields from before it left until
`fly` brings them up to date, so a key never reads them in flight. `fly`
gives it its hops done, arrival step and delivery step as stepping would
have left them: when it lands, when it is delivered (its step's bucket in
`due`), through `ground`, when its phase closes, and, through `settle`,
when a run stops with it aloft. A phase closes only when its last active
flight is delivered, and `ground` ends its held flights then, so a
phase-start state holds no flight.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from itertools import chain
from operator import attrgetter
from typing import Optional

from .network import EdgeId, Network, Routes
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
    resolved, for `Flights` to read, and sets `long` once one of them has at
    least `MIN_DILATION` edges."""

    def __init__(self, network: Network):
        super().__init__(network)
        self.unread: list[tuple[int, ...]] = []

    def __missing__(self, edges: tuple[EdgeId, ...]) -> tuple[int, ...]:
        route = super().__missing__(edges)
        self.unread.append(route)
        if len(route) >= MIN_DILATION:
            self.long = True
        return route


# A phase flies only when its longest remaining route has at least this many
# edges, and a plain run only once it has resolved a route this long.
# Launching and landing a flight costs about as much as stepping ten hops,
# and the first phase of a run to fly reads its routes; a shorter phase
# steps, which is as fast and changes nothing that a run returns. (On a
# 2-core host, over 6 alternating pairs of perfbench runs, flying every
# phase made tree_sparse's cli_run_s 3% and oracles_cli's wall_s 2% slower,
# each in 5 of the 6 pairs.)
MIN_DILATION = 64


def wire(
    network: Network, key: DisciplineKey, steps: bool, demand: Optional[list[int]] = None,
    until: Optional[list[int]] = None,
) -> tuple[Routes, Optional[Flights]]:
    """A run's route cache and its `Flights` under the built-in `key`, or a
    plain `Routes` and None when `steps`: the run never flies, and reads no
    route. A phased run with pass-through on gives its `demand` and `until`
    lists and gets `PassingFlights`. Both engines choose here."""
    if steps:
        return Routes(network), None
    routes = FlightRoutes(network)
    if demand is None:
        return routes, Flights(routes, key)
    return routes, PassingFlights(routes, key, demand, until)


def _file(
    lands: dict[int, list[Flight]], due: dict[int, list[Flight]], pkt: Packet, start: int, stop: int
) -> None:
    """Bucket the flight of `pkt`, which left the queue of its edge
    `hops_done` at step `start`: in `lands` by the step it reaches
    `route[stop]`, or in `due` by its delivery step when `stop` is the
    route's length."""
    n = len(pkt.route)
    if stop == n:
        due.setdefault(start + n - 1 - pkt.hops_done, []).append((pkt, start))
    else:
        lands.setdefault(start + stop - pkt.hops_done, []).append((pkt, start))


class Flights:
    """The flights of one run; see the module docstring."""

    def __init__(self, routes: FlightRoutes, key: DisciplineKey):
        self.routes = routes
        # the queue order: the packet least in (key, id) is last
        self._order = lambda pkt: (-key(pkt), -pkt.id)
        self._sorted = False  # whether a plain run has sorted its queues
        self.meets: set[int] = set()
        self._entered: dict[int, int] = {}  # queue -> the queue routes read so far enter it from
        # route id -> the route, the index of each queue's first visit on
        # it, and its marks (see `_marks_of`); a route lives as long as the
        # run's cache, so its id names it for that long. The dict holds ints
        # alone, so the garbage collector does not track it
        self._marks: dict[int, tuple[tuple[int, ...], dict[int, int], list[int]]] = {}
        self.lands: dict[int, list[Flight]] = {}  # step -> flights that reach a meeting queue then
        self.due: dict[int, list[Flight]] = {}  # step -> flights delivered then

    def _read(self, adopted: set[int] = frozenset()) -> bool:
        """Read the routes resolved since the last read; whether that, or
        `adopted`, added a meeting queue, which then joins the marks of every
        route through it."""
        entered = self._entered
        new = set(adopted)
        for route in self.routes.unread:
            new.add(route[0])
            for before, q in zip(route, route[1:]):
                if entered.setdefault(q, before) != before:
                    new.add(q)
        self.routes.unread.clear()
        new -= self.meets
        if not new:
            return False
        self.meets |= new
        for route, first, marks in self._marks.values():
            for q in new:
                if q not in first:
                    continue
                if len(first) == len(route):  # no queue is visited twice
                    insort(marks, first[q])
                else:
                    for k in range(first[q], len(route)):
                        if route[k] == q:
                            insort(marks, k)
        return True

    def fit(self, dilation: int, queues: list[list[Packet]] = (), busy: set[int] = ()) -> bool:
        """Whether a phase of this dilation flies; if it does, first read the
        routes resolved since the last read, and make every queue of `busy`
        that adoption filled with two packets or more a meeting queue."""
        if dilation < MIN_DILATION:
            return False
        self._read({i for i in busy if len(queues[i]) > 1})
        return True

    def grow(self, now: int) -> None:
        """Read the routes a plain run resolved at step `now`, before `land`;
        if that adds a meeting queue, file every flight aloft again from the
        queue it is in now (see "Growth while aloft" in the module
        docstring)."""
        if self.routes.unread and self._read():
            self._refile(self.lands, self.due, now)

    def _refile(
        self, lands: dict[int, list[Flight]], due: dict[int, list[Flight]], now: int
    ) -> None:
        """File every flight of `lands` and `due` again at step `now`: it stops
        at its old stop or at the first meeting queue at or after the queue it
        is in now, whichever comes first. The buckets are cleared and refilled
        in place, since `run_interval` holds them too."""
        aloft = [
            (pkt, start, pkt.hops_done + step - start)
            for step, flights in lands.items()
            for pkt, start in flights
        ]
        aloft += [(pkt, start, len(pkt.route)) for pkt, start in chain.from_iterable(due.values())]
        lands.clear()
        due.clear()
        for pkt, start, stop in aloft:
            marks = self._marks_of(pkt.route)
            meets = marks[bisect_left(marks, pkt.hops_done + now - start)]
            _file(lands, due, pkt, start, meets if meets < stop else stop)

    def sort(self, queues: list[list[Packet]], busy: set[int]) -> None:
        """Put every busy queue in order, where a run starts to fly."""
        for i in busy:
            queues[i].sort(key=self._order)

    def step(
        self, queues: list[list[Packet]], busy: set[int], fresh: list[Packet], now: int
    ) -> tuple[int, int]:
        """Step `now` of a plain run that flies, after `inject` appended
        `fresh`, the packets injected at `now`, to their first queues: put
        them in order (on the run's first step that flies, `sort` every busy
        queue instead), `grow`, `land` and `advance` every busy queue.
        Returns the number delivered and the longest queue, as `advance`."""
        if self._sorted:
            for pkt in reversed(fresh):  # each is the last packet of its queue
                queues[pkt.route[0]].pop()
            for pkt in fresh:
                insort(queues[pkt.route[0]], pkt, key=self._order)
        else:
            self.sort(queues, busy)
            self._sorted = True
        self.grow(now)
        self.land(queues, busy, now)
        _, delivered, longest = self.advance(queues, busy, sorted(busy), now)
        return delivered, longest

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
            insort(queues[q], pkt, key=self._order)
            busy.add(q)

    def advance(
        self, queues: list[list[Packet]], busy: set[int], senders: list[int], now: int
    ) -> tuple[bool, int, int]:
        """`sim_engine.advance` for a run that flies, after `land`: each
        queue in `senders` sends its last packet, the one least in (key, id)
        (see "Order" in the module docstring), which leaves as a flight, and
        the flights due this step are delivered. Every sender picks before
        any packet is sent, so a one-edge send into a sender's queue waits
        for the next step, as in stepping.

        Returns whether any packet crossed an edge (a sender's or a flight's),
        the number delivered, and the longest queue that sent: a flight
        aloft is a queue of one."""
        crossed = bool(senders or self.lands or self.due)
        longest = 1 if crossed else 0
        busy.difference_update(senders)
        picked = []
        for i in senders:
            q = queues[i]
            picked.append(q.pop())
            if q:
                if len(q) >= longest:
                    longest = len(q) + 1
                busy.add(i)
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
        marks = self._marks_of(route)
        stop = marks[bisect_right(marks, h)]
        if stop == h + 1:  # one edge, to a meeting queue or off the route
            fly(pkt, now, stop)
            if stop == len(route):
                return 1
            q = route[stop]
            insort(queues[q], pkt, key=self._order)
            busy.add(q)
        else:
            _file(self.lands, self.due, pkt, now, stop)
        return 0

    def _marks_of(self, route: tuple[int, ...]) -> list[int]:
        """The indices on `route` of its meeting queues, in order, and then
        its length: the first mark above hop h is where a flight sent from
        `route[h]` stops. `_read` adds the marks of meeting queues it adds."""
        known = self._marks.get(id(route))
        if known is None:
            first: dict[int, int] = {}
            for k, q in enumerate(route):
                first.setdefault(q, k)
            meets = self.meets
            marks = [k for k, q in enumerate(route) if q in meets]
            marks.append(len(route))
            known = self._marks[id(route)] = (route, first, marks)
        return known[2]

    def settle(self, now: int) -> None:
        """End every flight still aloft as a run stops before step `now`."""
        for pkt, start in self._aloft():
            fly(pkt, start, pkt.hops_done + now - start)
        self.lands.clear()
        self.due.clear()


# a holding queue's order: the packet least in (arrival step, id) first
_arrival = attrgetter("arrived_in_queue_at", "id")

# `shut` of a queue no held flight may cross yet, at any step
_SHUT = sys.maxsize


class PassingFlights(Flights):
    """The flights of a phased run with pass-through on; see "Pass-through"
    in the module docstring. Active flights are those of `Flights`, and each
    launch also takes its crossings off `demand` and records in `until` the
    last step a flight crosses each edge. Held flights, which pass-through
    sends, keep buckets of their own."""

    def __init__(
        self, routes: FlightRoutes, key: DisciplineKey, demand: list[int], until: list[int]
    ):
        super().__init__(routes, key)
        self.demand = demand
        self.until = until
        # queue -> the last step at which a held flight may not cross it:
        # `until`, or `_SHUT` while the phase demands it or it is `blocked`
        self.shut: list[int] = []
        # queue -> the held packets that wait in it, or land in it, since they
        # were sent there in this phase
        self.blocked: dict[int, int] = {}
        self.held_lands: dict[int, list[Flight]] = {}
        self.held_due: dict[int, list[Flight]] = {}
        self._crossed: tuple[int, set[int]] = (0, set())  # a step, and the queues crossed then
        self._closes = 0  # the step the running phase closes, once every active flight is due

    def fit(self, dilation: int, queues: list[list[Packet]] = (), busy: set[int] = ()) -> bool:
        if not super().fit(dilation, queues, busy):
            return False
        self.shut = [_SHUT if c else 0 for c in self.demand]
        return True

    def _launch(self, pkt: Packet, now: int, queues: list[list[Packet]], busy: set[int]) -> int:
        route = pkt.route
        h = pkt.hops_done
        marks = self._marks_of(route)
        demand, until, shut, blocked = self.demand, self.until, self.shut, self.blocked
        for t, q in enumerate(route[h : marks[bisect_right(marks, h)]], now):
            left = demand[q] - 1
            demand[q] = left
            if t > until[q]:
                until[q] = t
            if not left and q not in blocked:
                shut[q] = until[q]
        return super()._launch(pkt, now, queues, busy)

    def crossing(self, q: int, now: int) -> bool:
        """Whether an active flight aloft is in queue q at step `now`, after
        `land`: `until` answers unless a flight crosses q after `now`, and
        then the queues crossed at `now` are listed once for the step."""
        last = self.until[q]
        if last <= now:
            return last == now
        step, crossed = self._crossed
        if step != now:
            crossed = {pkt.route[pkt.hops_done + now - start] for pkt, start in self._aloft()}
            self._crossed = (now, crossed)
        return q in crossed

    def _block(self, q: int) -> None:
        """A held packet is sent to queue q, to wait or to land there."""
        self.blocked[q] = self.blocked.get(q, 0) + 1
        self.shut[q] = _SHUT

    def _unblock(self, q: int) -> None:
        """A held packet leaves queue q."""
        left = self.blocked.get(q, 0) - 1
        if left > 0:
            self.blocked[q] = left
        elif not left:
            del self.blocked[q]
            if not self.demand[q]:
                self.shut[q] = self.until[q]

    def land_held(self, holding: list[list[Packet]], held: set[int], now: int) -> None:
        """Before any holding queue picks at step `now`: read the routes
        resolved at `now` and, if that adds a meeting queue, file every held
        flight again from the queue it is in now; then put every held flight
        that stops at `now` in its holding queue."""
        if self.routes.unread and self._read():
            landed = [
                pkt.route[pkt.hops_done + step - start]
                for step, flights in self.held_lands.items()
                for pkt, start in flights
            ]
            self._refile(self.held_lands, self.held_due, now)
            for step, flights in self.held_lands.items():
                for pkt, start in flights:
                    self._block(pkt.route[pkt.hops_done + step - start])
            for q in landed:
                self._unblock(q)
        for pkt, start in self.held_lands.pop(now, ()):
            k = pkt.hops_done + now - start
            fly(pkt, start, k)
            q = pkt.route[k]
            insort(holding[q], pkt, key=_arrival)
            held.add(q)

    def pass_held(
        self, holding: list[list[Packet]], held: set[int], senders: list[int], busy: set[int],
        now: int,
    ) -> tuple[int, int]:
        """Pass-through at step `now`, after `land_held`, with `busy` the
        non-empty active queues: each holding queue in `senders` sends its
        first packet, the one least in (arrival step, id), as a held flight,
        and the held flights due this step are delivered. A sender's packet
        leaves before the next sender's, so a flight sees every sender after
        it as a holding queue that is not empty. Returns the number delivered
        and the longest queue that sent: a held flight aloft is a queue of
        one."""
        if busy or self.lands:
            self._closes = 0
        elif not self._closes:  # every active packet is due: so is the phase's close
            self._closes = max(self.due)
        longest = 1 if self.held_lands or self.held_due else 0
        for i in senders:
            if len(holding[i]) > longest:
                longest = len(holding[i])
        delivered = 0
        for i in senders:
            q = holding[i]
            pkt = q.pop(0)
            if not q:
                held.discard(i)
            self._unblock(i)
            delivered += self._launch_held(pkt, now, holding, held)
        due = self.held_due.pop(now, ())
        for pkt, start in due:
            fly(pkt, start, len(pkt.route))
        return delivered + len(due), longest

    def _launch_held(
        self, pkt: Packet, now: int, holding: list[list[Packet]], held: set[int]
    ) -> int:
        """Send the held `pkt` from its queue at step `now` up to the first
        queue where it must stop (see "Held flights" in the module
        docstring); 1 if that delivers it at once."""
        route = pkt.route
        h = pkt.hops_done
        marks = self._marks_of(route)
        stop = marks[bisect_right(marks, h)]
        late = now - h  # the step it reaches route[k] is late + k
        if self._closes and self._closes - late < stop:  # the queue it is in as the phase closes
            stop = self._closes - late + 1
        shut = self.shut
        for t, q in enumerate(route[h + 1 : stop], now + 1):
            if shut[q] >= t:
                stop = t - late
                break
        if stop > h + 1:
            _file(self.held_lands, self.held_due, pkt, now, stop)
            if stop < len(route):
                self._block(route[stop])
            return 0
        fly(pkt, now, stop)
        if stop == len(route):
            return 1
        q = route[stop]
        insort(holding[q], pkt, key=_arrival)
        held.add(q)
        self._block(q)
        return 0

    def _end_held(self, now: int) -> list[Packet]:
        """End every held flight aloft as its phase or its run stops before
        step `now`; returns their packets."""
        ended = []
        for pkt, start in chain.from_iterable(
            chain(self.held_lands.values(), self.held_due.values())
        ):
            fly(pkt, start, pkt.hops_done + now - start)
            ended.append(pkt)
        self.held_lands.clear()
        self.held_due.clear()
        self.blocked.clear()
        return ended

    def ground(self, holding: list[list[Packet]], held: set[int], now: int) -> None:
        """Put every held flight aloft in the holding queue it is in at step
        `now`, as its phase closes before that step."""
        for pkt in self._end_held(now):
            q = pkt.route[pkt.hops_done]
            holding[q].append(pkt)
            held.add(q)

    def settle(self, now: int) -> None:
        super().settle(now)
        self._end_held(now)
