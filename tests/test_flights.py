"""Flights (`aqsim.flights`) against stepping. Under a built-in key, on any
network, a phased run, with the held packets that pass-through sends when it
is on, and a plain run of a source that declares no period move a lone
packet as a flight; the same key behind a wrapper is custom, so that run
steps every hop. Both must give the same run, bit for bit, and the same
crossings per step."""

import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from crossings import check_schedule, recorded_moves
from aqsim import flights, interval_strategy, sim_engine, strategies
from aqsim.flights import FlightRoutes, Flights
from aqsim.adversary import InjectionEvent, saturating_adversary, scripted_adversary
from aqsim.interval_strategy import run_interval
from aqsim.network import PacketPath, build_network, in_tree_network, line_network, path, shown
from aqsim.strategies import DISCIPLINES
from test_engine_differential import _csvs, admissible_events, outcome, phases, random_network


@pytest.fixture(autouse=True)
def every_phase_flies(monkeypatch):
    """The tests' phases are short, and a phase flies only from a dilation of
    `flights.MIN_DILATION`, so here every phase that may fly does."""
    monkeypatch.setattr(flights, "MIN_DILATION", 1)


def random_dag(rng: random.Random):
    """A small DAG with a node of two out-edges, and every walk of up to 4
    edges as a route."""
    n = rng.randint(3, 7)
    pairs = {(0, 1), (0, 2)} | {
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
    }
    edges = [(f"v{i}", f"v{j}", f"e{i}_{j}") for i, j in sorted(pairs)]
    rng.shuffle(edges)
    out = {}
    for src, dst, eid in edges:
        out.setdefault(src, []).append((dst, eid))
    routes = []

    def walks(node, walk):
        if walk:
            routes.append(tuple(walk))
        if len(walk) < 4:
            for dst, eid in out.get(node, ()):
                walks(dst, walk + [eid])

    for i in range(n):
        walks(f"v{i}", [])
    return build_network([f"v{i}" for i in range(n)], edges), routes


def per_step(moves):
    """Crossings as a multiset per step: a flight logs its crossings when it
    ends, so the order within a step is not a stepping run's."""
    steps = {}
    for move in moves:
        steps.setdefault(move[0], Counter())[move] += 1
    return steps


def flown_and_stepped(net, name, source, max_steps, improve, max_phases=None):
    """The run of the built-in key and of the same key behind a wrapper, each
    with its phase records, its crossings, and the hops of each flight that
    `fly` ended. `improve` None makes a plain run, which has no records."""
    builtin = DISCIPLINES[name]
    runs = []
    for key in (name, lambda pkt: builtin(pkt)):
        ended = []
        with recorded_moves() as moves:
            logged = flights.fly

            def counted(pkt, start, hops):
                ended.append(hops - pkt.hops_done)
                logged(pkt, start, hops)

            with mock.patch.object(flights, "fly", counted):
                if improve is None:
                    trace, records = sim_engine.run(net, key, source(), max_steps), None
                else:
                    trace, records = run_interval(
                        net, key, source(), max_steps, improve, max_phases
                    )
        runs.append((trace, records, moves, ended))
    return runs


def assert_same_run(got, want, skips=False):
    """`skips`: the built-in key's run copies periods, which the wrapped key's
    run steps through, so only the first finds a recurrence, and only the
    second makes the crossings of the copied steps."""
    (trace, records, moves, _), (trace_w, records_w, moves_w, ended_w) = got, want
    assert not ended_w  # the wrapped key steps every hop
    assert list(trace.steps) == list(trace_w.steps)
    assert [astuple(p) for p in trace.packets] == [astuple(p) for p in trace_w.packets]
    if records is not None:
        assert list(records) == list(records_w)
    if skips:
        assert trace.recurrence is not None and trace_w.recurrence is None
        first, period = sum(trace.recurrence[:2]), trace.recurrence.period
        copied = range(first, first + trace.steps.periods * period)
        moves_w = [move for move in moves_w if move[0] not in copied]
    else:
        assert trace.recurrence == trace_w.recurrence
    assert trace.truncated == trace_w.truncated
    assert _csvs(trace, records) == _csvs(trace_w, records_w)
    assert per_step(moves) == per_step(moves_w)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(("forest", "dag")),
    name=st.sampled_from(sorted(DISCIPLINES)),
    improve=st.booleans(),
    r=st.sampled_from((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10))),
    b=st.integers(1, 6),
    horizon=st.integers(1, 60),
    cut=st.booleans(),
    max_phases=st.one_of(st.none(), st.integers(1, 6)),
)
def test_flights_match_stepping(seed, shape, name, improve, r, b, horizon, cut, max_phases):
    rng = random.Random(seed)
    net, routes = random_network(rng) if shape == "forest" else random_dag(rng)
    events = admissible_events(rng, routes, horizon, r, b)
    max_steps = rng.randint(1, horizon + 10) if cut else horizon + 400
    source = lambda: scripted_adversary(events, r, b, net)  # noqa: E731
    got, want = flown_and_stepped(net, name, source, max_steps, improve, max_phases)
    assert_same_run(got, want)
    hops = sum(p.hops_done for p in got[0].packets)
    assert sum(got[3]) == (hops if got[3] else 0)  # when it flies, every crossing is flown


def test_a_deep_tree_flies_exactly_through_its_contention():
    # many phases on a tree of depth 58 with 34 leaves, whose paths merge:
    # flights meet flights and waiting queues at the merges, and land there
    rng = random.Random(5)
    parents = [rng.randrange(max(0, i - 3), i) for i in range(1, 121)]
    net = in_tree_network(parents)
    leaves = set(range(1, 121)) - set(parents)
    routes = []
    for v in leaves:
        walk = []
        while v:
            walk.append(f"e{v}")
            v = parents[v - 1]
        routes.extend(tuple(walk[k:]) for k in range(0, len(walk), 7))
    r, b = Fraction(3, 4), 6
    events = admissible_events(rng, routes, 400, r, b)
    source = lambda: scripted_adversary(events, r, b, net)  # noqa: E731
    for name in sorted(DISCIPLINES):
        got, want = flown_and_stepped(net, name, source, 3000, False)
        assert_same_run(got, want)
        packets = got[0].packets
        assert len(packets) > 250 and len(got[3]) > 1.5 * len(packets)  # many fly twice or more


def test_flights_are_a_feasible_schedule_of_the_reference_run():
    net = line_network(6)
    route = ("e1", "e2", "e3", "e4", "e5", "e6")
    r, b = Fraction(2, 3), 3
    events = admissible_events(random.Random(3), [route, route[2:], route[:3]], 80, r, b)
    adversary = lambda: scripted_adversary(events, r, b, net)  # noqa: E731
    with recorded_moves() as moves:
        trace, records = run_interval(net, "FIFO", adversary(), 500)
    want, want_records = ref.run_interval(net, "FIFO", adversary(), 500, False)
    assert outcome(trace) == outcome(want)
    assert phases(records) == phases(want_records)
    packets = trace.packets
    crossed = check_schedule([p.path for p in packets], moves, [p.injected_at for p in packets])
    assert [c[-1] for c in crossed] == [p.delivered_at for p in packets]


def test_max_queue_counts_a_flight_passing_a_held_edge():
    # phase 1 is one packet on e1,e2,e3 from step 2; it flies past e2 at step
    # 3, while the 2 packets injected at step 2 wait in e2's holding queue, so
    # e2 holds 3 at step 3 though its active queue is empty
    events = [InjectionEvent(1, path("e1", "e2", "e3"))] + [InjectionEvent(2, path("e2"))] * 2
    net = line_network(3)
    source = lambda: scripted_adversary(events, Fraction(1, 2), 2, net)  # noqa: E731
    got, want = flown_and_stepped(net, "FIFO", source, 20, False)
    assert_same_run(got, want)
    assert got[3][0] == 3  # the phase-1 packet crossed its 3 edges in one flight
    reference, _ = ref.run_interval(net, "FIFO", source(), 20, False)
    peaks = [s.max_queue_len for s in got[0].steps]
    assert peaks == [s.max_queue_len for s in reference.steps]
    assert peaks[:4] == [1, 2, 3, 2]


def test_max_queue_counts_a_flight_passing_an_edge_that_became_a_meeting_queue():
    # the phase-1 packet leaves e1 at step 2, when no route starts at e3; the
    # route e3,e4 first comes at step 3, so its packet waits in e3's holding
    # queue at step 4 as the flight crosses e3, which then holds 2
    events = [InjectionEvent(1, path("e1", "e2", "e3", "e4")), InjectionEvent(3, path("e3", "e4"))]
    net = line_network(4)
    source = lambda: scripted_adversary(events, Fraction(1, 2), 1, net)  # noqa: E731
    got, want = flown_and_stepped(net, "FIFO", source, 20, False)
    assert_same_run(got, want)
    assert got[3][0] == 4
    reference, _ = ref.run_interval(net, "FIFO", source(), 20, False)
    peaks = [s.max_queue_len for s in got[0].steps]
    assert peaks == [s.max_queue_len for s in reference.steps]
    assert peaks[:4] == [1, 1, 1, 2]


class ScriptSource:
    """A duck-typed source of fixed paths by step, so no path of it is
    checked, neither against the network nor against a rate."""

    period = None

    def __init__(self, script):
        self.script = script

    def injections_for(self, step):
        return [PacketPath(edges) for edges in self.script.get(step, ())]

    def done_after(self, step):
        return step >= max(self.script)


# on a line of 4 edges, (e1, e3) skips e2, next to paths that meet it on e3
NON_CONTIGUOUS = {
    1: [("e1", "e3"), ("e2", "e3"), ("e2", "e3"), ("e1", "e2", "e3", "e4")],
    3: [("e1", "e3"), ("e3", "e4")],
    6: [("e2", "e3", "e4"), ("e1", "e3"), ("e1", "e2", "e3")],
}


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_route_that_skips_a_depth_steps(name):
    # (e1, e3) skips e2, so it enters e3 from e1 while (e2, e3) enters it
    # from e2: e3 is a meeting queue, and each hop of (e1, e3) is sent alone
    net = line_network(4)
    routes = FlightRoutes(net)
    routes[("e1", "e3")], routes[("e2", "e3")]
    fleet = Flights(routes, DISCIPLINES["FIFO"])
    assert fleet.fit(flights.MIN_DILATION) and fleet.meets == {0, 1, 2}
    source = lambda: ScriptSource(NON_CONTIGUOUS)  # noqa: E731
    got, want = flown_and_stepped(net, name, source, 200, False)
    assert_same_run(got, want)
    # the skipping packets cross one edge per call of `fly`, the others fly
    skipping = [p for p in got[0].packets if p.path == ("e1", "e3")]
    assert len(skipping) == 3 and all(p.delivered_at is not None for p in skipping)
    assert max(got[3]) > 1


def test_meets_holds_first_queues_and_queues_entered_from_two():
    # e4 -> e3 -> e2 -> e1 -> sink; e5 -> e3; e6 and e7 form a cycle that e8 enters
    net = build_network(
        ["s", "a", "b", "c", "d", "f", "g", "h", "i"],
        [("a", "s", "e1"), ("b", "a", "e2"), ("c", "b", "e3"), ("d", "c", "e4"),
         ("f", "c", "e5"), ("g", "h", "e6"), ("h", "g", "e7"), ("i", "g", "e8")],
    )
    routes = FlightRoutes(net)
    fleet = Flights(routes, DISCIPLINES["FIFO"])
    routes[("e5", "e3")]
    assert fleet.fit(1) and fleet.meets == {4}
    routes[("e4", "e3", "e2")]
    assert not fleet.fit(0) and fleet.meets == {4}  # a phase that steps reads nothing
    assert fleet.fit(1) and fleet.meets == {4, 3, 2}  # e3 is entered from e4 and e5
    routes[("e8", "e6")]
    assert fleet.fit(1) and fleet.meets == {4, 3, 2, 7}  # e6 is entered only from e8


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_routes_into_a_cycle_step_beside_routes_that_fly(name):
    # one component is a cycle with a tail, whose routes never reach a sink:
    # r1 is entered from r0 and from r2, so it is a meeting queue, and the
    # cycle's routes fly between its visits as the line's routes fly
    net = build_network(
        ["v0", "v1", "v2", "v3", "a", "b", "t"],
        [("v0", "v1", "e1"), ("v1", "v2", "e2"), ("v2", "v3", "e3"),
         ("a", "b", "r1"), ("b", "a", "r2"), ("t", "a", "r0")],
    )
    routes = [("e1", "e2", "e3"), ("e2", "e3"), ("r0", "r1", "r2"), ("r1", "r2", "r1"), ("r2",)]
    r, b = Fraction(3, 4), 4
    events = admissible_events(random.Random(2), routes, 120, r, b)
    source = lambda: scripted_adversary(events, r, b, net)  # noqa: E731
    got, want = flown_and_stepped(net, name, source, 1000, False)
    assert_same_run(got, want)
    assert max(got[3]) > 1


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_route_that_enters_a_queue_from_two_of_its_own_queues(name):
    # x = a->u, y = u->v, z = v->u: the route x, y, z, y enters y from x and
    # then from z. Three packets leave x at steps 2, 3 and 4; the first is
    # back in y at step 5 as the third reaches it, so y must be a meeting
    # queue, though no other route enters it
    net = build_network(["a", "u", "v"], [("a", "u", "x"), ("u", "v", "y"), ("v", "u", "z")])
    routes = FlightRoutes(net)
    routes[("x", "y", "z", "y")]
    fleet = Flights(routes, DISCIPLINES["FIFO"])
    assert fleet.fit(1) and fleet.meets == {0, 1}
    source = lambda: ScriptSource({1: [("x", "y", "z", "y")] * 3})  # noqa: E731
    got, want = flown_and_stepped(net, name, source, 50, False)
    assert_same_run(got, want)
    assert max(got[3]) > 1  # a packet flies y, z into y again
    reference, _ = ref.run_interval(net, name, source(), 50, False)
    assert outcome(got[0]) == outcome(reference)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_dag_with_a_fork_flies_exactly(name):
    # v1 has two out-edges, to v2 and v3, and both rails merge at v4 before a
    # long tail: packets fly along the rails and the tail, and meet where
    # routes start and at e45, which the rails enter from e24 and from e34
    tail = [(f"t{i}", f"t{i + 1}", f"f{i}") for i in range(6)]
    net = build_network(
        ["v0", "v1", "v2", "v3", "v4"] + [f"t{i}" for i in range(7)],
        [("v0", "v1", "e01"), ("v1", "v2", "e12"), ("v1", "v3", "e13"), ("v2", "v4", "e24"),
         ("v3", "v4", "e34"), ("v4", "t0", "e45")] + tail,
    )
    rail = tuple(f"f{i}" for i in range(6))
    routes = [("e01", "e12", "e24", "e45") + rail, ("e01", "e13", "e34", "e45") + rail,
              ("e12", "e24", "e45"), ("e13", "e34", "e45") + rail[:3], rail[2:]]
    r, b = Fraction(3, 4), 3
    events = admissible_events(random.Random(4), routes, 150, r, b)
    source = lambda: scripted_adversary(events, r, b, net)  # noqa: E731
    got, want = flown_and_stepped(net, name, source, 1000, False)
    assert_same_run(got, want)
    assert max(got[3]) >= 4  # a packet flies past the merge into the tail


@pytest.mark.parametrize("d", [63, 64])
def test_a_phase_flies_from_the_least_dilation(monkeypatch, d):
    monkeypatch.setattr(flights, "MIN_DILATION", 64)
    net = line_network(d)
    full = path(*(f"e{i}" for i in range(1, d + 1)))
    events = [InjectionEvent(1, full)] * 3
    source = lambda: scripted_adversary(events, Fraction(1, 2), 3, net)  # noqa: E731
    got, want = flown_and_stepped(net, "FIFO", source, 200, False)
    assert_same_run(got, want)
    assert got[3] == ([d] * 3 if d == 64 else [])


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_the_queue_order_follows_a_period_skip(name):
    # the saturating d=8 line repeats a phase start at step 53, 14 steps after
    # the one at 39; at 106 steps the run copies 3 periods and steps on from
    # step 95, whose phase holds its packets in e1 and delivers two of them
    # by step 106. The copier refills e1 in id order, so a queue order set
    # before the skip would send the wrong packet first
    net = line_network(8)
    full = path(*(f"e{i}" for i in range(1, 9)))
    source = lambda: saturating_adversary(net, full, Fraction(1, 2), 4)  # noqa: E731
    got, want = flown_and_stepped(net, name, source, 106, False)
    assert_same_run(got, want, skips=True)
    trace = got[0]
    assert trace.recurrence == (39, 14, 1) and trace.steps.periods == 3
    tail = 39 + 14 * 4  # the first step after the last copied period
    adopted = [p for p in trace.packets if p.injected_at < tail <= (p.delivered_at or 0)]
    assert len(adopted) >= 2


@contextmanager
def scans():
    """Inside the block, the yielded Counter counts the calls of
    `strategies.least`, under each name the step core reads it by, and the
    calls of `sim_engine.pick` with a sender: at step 1 no phase runs, and
    the phased loop still advances its empty active queues."""
    calls = Counter()

    def counted(attr, fn):
        def call(*args):
            if attr != "pick" or args[2]:
                calls[attr] += 1
            return fn(*args)

        return call

    with mock.patch.object(sim_engine, "pick", counted("pick", sim_engine.pick)), mock.patch.object(
        sim_engine, "least", counted("least", sim_engine.least)
    ), mock.patch.object(strategies, "least", counted("least", strategies.least)):
        yield calls


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_flying_phase_picks_without_scanning(monkeypatch, name):
    # every phase of the saturating d=64 line flies, and its first queue holds
    # many packets: each pick pops the queue's last packet, so neither the
    # pick loop nor `least` runs, where the wrapped key calls both
    monkeypatch.setattr(flights, "MIN_DILATION", 64)
    net = line_network(64)
    full = path(*(f"e{i}" for i in range(1, 65)))
    source = lambda: saturating_adversary(net, full, Fraction(1, 2), 4)  # noqa: E731
    builtin = DISCIPLINES[name]
    with scans() as calls:
        trace, records = run_interval(net, name, source(), 1500, False)
    with scans() as calls_w:
        trace_w, records_w = run_interval(net, lambda pkt: builtin(pkt), source(), 1500, False)
    assert not calls
    assert calls_w["pick"] and calls_w["least"]
    assert all(r.d_i == 64 for r in records[1:]) and max(r.packet_count for r in records) > 2
    assert _csvs(trace, records) == _csvs(trace_w, records_w)


@pytest.mark.parametrize("max_phases", [0, -1, 2.5, True, "3"])
def test_max_phases_is_a_count(max_phases):
    net = line_network(1)
    adversary = scripted_adversary([InjectionEvent(1, path("e1"))], Fraction(1, 2), 1, net)
    with pytest.raises(ValueError) as err:
        run_interval(net, "FIFO", adversary, 10, max_phases=max_phases)
    assert str(err.value) == f"max_phases: must be an integer >= 1, got {shown(max_phases)}"


# ---- pass-through runs --------------------------------------------------------


def edges(first: int, last: int) -> tuple[str, ...]:
    """The line's edges e<first> to e<last>, in order."""
    return tuple(f"e{i}" for i in range(first, last + 1))


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_held_flight_stops_where_the_phase_demands_and_the_next_one_behind_it(name):
    # X leaves e1 at step 3, behind phase 1's packet on e1..e4, and is in e4
    # as phase 1 closes at step 5: phase 2 is X alone in e4, mid-route. H
    # leaves e1 at step 6, before X is sent, so e4 is still demanded: H's
    # flight stops there, to land at step 9. H2 leaves e1 at step 7, when e4
    # is open from step 7 on, and its flight stops at H's pending landing all
    # the same. H, then H2, lands in e4 and is sent on at once
    net = line_network(8)
    script = {1: [edges(1, 4)], 2: [edges(1, 8)], 6: [edges(1, 8)], 7: [edges(1, 8)]}
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), 50, True)
    assert_same_run(got, want)
    assert [r.packet_count for r in got[1]][1:4] == [1, 1, 2]
    # phase 1's packet, X's flight up to e4, then H's and H2's, each to e4
    assert got[3][:4] == [4, 3, 3, 3]
    assert sum(got[3]) == sum(p.hops_done for p in got[0].packets)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_packets_adopted_together_mid_route(name):
    # e4 sends phase 1's four one-edge packets at steps 2 to 5, so the held
    # packets from e1 wait in e4 beside Q, injected there at step 3: phase 2
    # adopts H1, Q and H2 into e4, where H1 and H2 are mid-route, and H3
    # into e3, from which it flies into e4's queue at step 7
    net = line_network(8)
    script = {1: [("e4",)] * 4, 2: [edges(1, 8)], 3: [edges(1, 8), edges(4, 8)], 4: [edges(1, 8)]}
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), 50, True)
    assert_same_run(got, want)
    records = list(got[1])
    assert records[2].packet_count == 4 and records[2].d_i == 6
    # adoption makes a queue that it fills with two packets or more a meeting
    # queue, whether or not a route starts there
    routes = FlightRoutes(net)
    routes[edges(1, 8)]
    fleet = Flights(routes, DISCIPLINES["FIFO"])
    queues = [[] for _ in net.edges]
    queues[3] = [object(), object()]
    queues[2] = [object()]
    assert fleet.fit(1, queues, {2, 3}) and fleet.meets == {0, 3}


def follow_a(name, max_steps=60, max_phases=None):
    """Phase 1 is A, on e1..e8, sent from e1 at step 2 as one flight. H,
    injected into e4 at step 3, waits there until A has crossed e4 at step
    5, though the phase demands e4 no more, and then flies behind A. A is
    delivered at step 9, and H is still aloft then: its flight ends as phase
    2 adopts it."""
    net = line_network(8)
    script = {1: [edges(1, 8)], 3: [edges(4, 8)]}
    return flown_and_stepped(net, name, lambda: ScriptSource(script), max_steps, True, max_phases)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_phase_closes_while_a_held_flight_is_aloft(name):
    got, want = follow_a(name)
    assert_same_run(got, want)
    h = got[0].packets[1]
    assert h.phase == 2 and h.injected_at == 3 and h.delivered_at == 10
    assert got[3] == [8, 4, 1]  # A; H's flight over e4..e7, ended by adoption; its last hop


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
@pytest.mark.parametrize("max_steps, max_phases", [(7, None), (8, None), (60, 1)])
def test_a_cut_run_ends_its_held_flights(name, max_steps, max_phases):
    # follow_a cut while H flies behind A: at steps 7 and 8, and as phase 1
    # closes at step 9, when the run stops at its first phase
    got, want = follow_a(name, max_steps, max_phases)
    assert_same_run(got, want)
    h = got[0].packets[1]
    assert h.delivered_at is None and h.hops_done == min(max_steps, 9) - 5


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_held_route_that_merges_ahead_of_a_held_flight_lands_it(name):
    # the line e1..e8 and g into the node where e3 starts. Phase 1 is A, on
    # e1..e8; F leaves e1 at step 3, behind A, to fly to the phase's close.
    # At step 4 the route g, e3, ... is read, and its packet G crosses g: e3
    # is entered from g and e2 now, so F, in e2, must land in e3 at step 5,
    # where it is picked against G
    net = build_network(
        [f"v{i}" for i in range(9)] + ["u"],
        [(f"v{i - 1}", f"v{i}", f"e{i}") for i in range(1, 9)] + [("u", "v2", "g")],
    )
    script = {1: [edges(1, 8)], 2: [edges(1, 8)], 4: [("g",) + edges(3, 8)]}
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), 50, True)
    assert_same_run(got, want)
    f, g = got[0].packets[1:]
    assert got[3][:2] == [1, 2]  # G crossed g at step 4; F's flight ended in e3 at step 5
    assert f.delivered_at == 10 and g.delivered_at == 11  # G waited a step in e3


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_flying_pass_through_phase_steps_nothing(monkeypatch, name):
    # the d=64 line: phase 1 is 3 packets in e1, sent at steps 2 to 4, and
    # packets injected into e17, e33 and e49 wait there for them to pass, in
    # edges that the phase no longer demands: each step the phased loop asks
    # whether a flight crosses each of them, with one scan of the flights at
    # most. Phase 1 flies; later phases, whose dilation is under 64, step
    monkeypatch.setattr(flights, "MIN_DILATION", 64)
    net = line_network(64)
    script = {1: [edges(1, 64)] * 3}
    for t in range(2, 40):
        script[t] = [edges(1 + 16 * (t % 3 + 1), 64)]
    builtin = DISCIPLINES[name]
    flying, calls, asked, scans_at = [False], Counter(), Counter(), Counter()
    fit, crossing = flights.PassingFlights.fit, flights.PassingFlights.crossing
    aloft = Flights._aloft

    def fitted(self, *args):
        flying[0] = fit(self, *args)
        calls["flying phases"] += flying[0]
        return flying[0]

    def asked_at(self, q, now):
        asked[now] += 1
        before = calls["scans"]
        answer = crossing(self, q, now)
        scans_at[now] += calls["scans"] - before
        return answer

    def scanned(self):
        calls["scans"] += 1
        return aloft(self)

    def counted(module, attr):
        fn = getattr(module, attr)

        def call(*args):
            if flying[0] and args[2]:  # a flying phase, and a sender
                calls[attr] += 1
            return fn(*args)

        return call

    with mock.patch.object(flights.PassingFlights, "fit", fitted), mock.patch.object(
        flights.PassingFlights, "crossing", asked_at
    ), mock.patch.object(Flights, "_aloft", scanned), mock.patch.object(
        interval_strategy, "advance", counted(interval_strategy, "advance")
    ), mock.patch.object(sim_engine, "pick", counted(sim_engine, "pick")):
        trace, records = run_interval(net, name, ScriptSource(script), 1000, True)
    wrapped = lambda pkt: builtin(pkt)  # noqa: E731
    trace_w, records_w = run_interval(net, wrapped, ScriptSource(script), 1000, True)
    assert calls["flying phases"] >= 1 and not calls["advance"] and not calls["pick"]
    assert records[1].d_i == 64 and trace.packets[3].phase == 2  # held in phase 1
    # more than 20 steps ask about 2 or 3 held edges, and no step scans twice
    assert sum(n > 1 for n in asked.values()) > 20 and max(scans_at.values()) == 1
    assert _csvs(trace, records) == _csvs(trace_w, records_w)


# ---- plain runs ----------------------------------------------------------------


def late_script(rng: random.Random, routes, horizon: int):
    """A random script of up to 3 packets a step for `horizon` steps, whose
    routes come in late: step t draws from the first `1 + t*len(routes) //
    horizon` routes of a shuffled order, so a plain run that flies reads new
    routes while its flights are aloft."""
    routes = list(routes)
    rng.shuffle(routes)
    script = {}
    for t in range(1, horizon + 1):
        pool = routes[: 1 + t * len(routes) // horizon]
        script[t] = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    return script


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(("forest", "dag")),
    name=st.sampled_from(sorted(DISCIPLINES)),
    horizon=st.integers(1, 60),
    cut=st.booleans(),
)
def test_plain_flights_match_stepping(seed, shape, name, horizon, cut):
    # random lines and in-trees ("forest") and DAGs, under scripts that bring
    # routes late, so meeting queues are added while flights are aloft
    rng = random.Random(seed)
    net, routes = random_network(rng) if shape == "forest" else random_dag(rng)
    script = late_script(rng, routes, horizon)
    max_steps = rng.randint(1, horizon + 10) if cut else horizon + 400
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), max_steps, None)
    assert_same_run(got, want)
    hops = sum(p.hops_done for p in got[0].packets)
    assert sum(got[3]) == hops  # the run flies from its first injection: every crossing is flown


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_route_that_starts_where_a_flight_is_lands_it(name):
    # the packet on e1..e6 flies from step 1 to its delivery, as no other
    # route is read; at step 3, when it is in e3, a route starts at e3, so it
    # lands there at once and is picked against the packet injected there
    net = line_network(6)
    script = {1: [("e1", "e2", "e3", "e4", "e5", "e6")], 3: [("e3", "e4")]}
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), 50, None)
    assert_same_run(got, want)
    assert got[3][0] == 2  # its first flight ended at e3
    reference = ref.run(net, name, ScriptSource(script), 50)
    assert outcome(got[0]) == outcome(reference)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_route_that_enters_a_queue_ahead_of_a_flight_lands_it(name):
    # the packet on x0..x4 flies from step 1; the route w, y, x3, x4 read at
    # step 2 enters x3 from y, where the first enters it from x2, so x3 is
    # added as a meeting queue two hops ahead of the flight. Both packets
    # reach x3 at step 4, where the flight must land and be picked
    net = build_network(
        ["n0", "n1", "n2", "n3", "n4", "n5", "s0", "s1"],
        [("n0", "n1", "x0"), ("n1", "n2", "x1"), ("n2", "n3", "x2"), ("n3", "n4", "x3"),
         ("n4", "n5", "x4"), ("s0", "s1", "w"), ("s1", "n3", "y")],
    )
    script = {1: [("x0", "x1", "x2", "x3", "x4")], 2: [("w", "y", "x3", "x4")]}
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), 50, None)
    assert_same_run(got, want)
    assert got[3][0] == 3  # its first flight ended at x3
    reference = ref.run(net, name, ScriptSource(script), 50)
    assert outcome(got[0]) == outcome(reference)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_flight_due_where_a_route_starts_lands(name):
    # the packet on e1..e4 is due at step 4, when it crosses e4 alone; the
    # route (e4,) read at step 4 starts there, so the flight leaves `due` for
    # `lands` and is picked against the packet injected into e4
    net = line_network(4)
    script = {1: [("e1", "e2", "e3", "e4")], 4: [("e4",)]}
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), 50, None)
    assert_same_run(got, want)
    assert got[3][0] == 3  # its flight ended in e4, not past it
    reference = ref.run(net, name, ScriptSource(script), 50)
    assert outcome(got[0]) == outcome(reference)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_route_that_starts_where_a_flight_comes_twice_lands_it_the_second_time(name):
    # x = a->u, y = u->v, z = v->u, w = v->t: the route x, y, z, y, z, w enters
    # z twice, from y both times, so z is no meeting queue at first. Its
    # packet leaves y at step 4 as a flight, in z at step 5, when the route
    # z, y, w read at step 5 makes z a meeting queue: it must land there on
    # its second visit and be picked against the packet injected there
    net = build_network(
        ["a", "u", "v", "t"], [("a", "u", "x"), ("u", "v", "y"), ("v", "u", "z"), ("v", "t", "w")]
    )
    script = {1: [("x", "y", "z", "y", "z", "w")], 5: [("z", "y", "w")]}
    got, want = flown_and_stepped(net, name, lambda: ScriptSource(script), 50, None)
    assert_same_run(got, want)
    assert got[3][:3] == [1, 2, 1]  # x, then y to y, then y to its second z
    reference = ref.run(net, name, ScriptSource(script), 50)
    assert outcome(got[0]) == outcome(reference)


def line_script(d: int, steps: int):
    """A non-periodic script on the line of `d` edges: 4 packets on the whole
    line at step 1, then one a step, so its first queue keeps several."""
    full = tuple(f"e{i}" for i in range(1, d + 1))
    return {t: [full] * (4 if t == 1 else 1) for t in range(1, steps + 1)}


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_a_plain_run_that_flies_picks_without_scanning(monkeypatch, name):
    monkeypatch.setattr(flights, "MIN_DILATION", 64)
    net = line_network(64)
    script = line_script(64, 300)
    builtin = DISCIPLINES[name]
    with scans() as calls:
        trace = sim_engine.run(net, name, ScriptSource(script), 1000)
    with scans() as calls_w:
        trace_w = sim_engine.run(net, lambda pkt: builtin(pkt), ScriptSource(script), 1000)
    assert not calls
    assert calls_w["pick"] and calls_w["least"]
    assert trace.max_queue_len > 2
    assert _csvs(trace) == _csvs(trace_w)


@pytest.mark.parametrize(
    "source, d, flies",
    [("script", 64, True), ("script", 63, False), ("periodic", 64, False)],
)
def test_only_a_long_route_of_a_source_without_a_period_flies(monkeypatch, source, d, flies):
    # a plain run reads no route and lands nothing until it resolves a route
    # of MIN_DILATION edges, and never under a source that declares a period
    monkeypatch.setattr(flights, "MIN_DILATION", 64)
    net = line_network(d)
    if source == "periodic":
        full = path(*(f"e{i}" for i in range(1, d + 1)))
        adversary = saturating_adversary(net, full, Fraction(1, 2), 4)
    else:
        adversary = ScriptSource(line_script(d, 100))
    calls = Counter()
    land, read = Flights.land, Flights._read

    def counted(method, name):
        def call(self, *args):
            calls[name] += 1
            return method(self, *args)

        return call

    with mock.patch.object(Flights, "land", counted(land, "land")), mock.patch.object(
        Flights, "_read", counted(read, "read")
    ):
        sim_engine.run(net, "FIFO", adversary, 400)
    assert bool(calls["land"]) == bool(calls["read"]) == flies
