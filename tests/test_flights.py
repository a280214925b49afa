"""Flights (`aqsim.flights`) against stepping. A phased run with pass-through
off, under a built-in key, on any network moves a lone packet as a flight;
the same key behind a wrapper is custom, so that run steps every hop. Both
must give the same run, bit for bit, and the same crossings per step."""

import random
from collections import Counter
from dataclasses import astuple
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from crossings import check_schedule, recorded_moves
from aqsim import flights
from aqsim.flights import FlightRoutes, Flights
from aqsim.adversary import InjectionEvent, scripted_adversary
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
    with its crossings, and how many flights `fly` ended in the first."""
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
                trace, records = run_interval(net, key, source(), max_steps, improve, max_phases)
        runs.append((trace, records, moves, ended))
    return runs


def assert_same_run(got, want):
    (trace, records, moves, _), (trace_w, records_w, moves_w, ended_w) = got, want
    assert not ended_w  # the wrapped key steps every hop
    assert list(trace.steps) == list(trace_w.steps)
    assert [astuple(p) for p in trace.packets] == [astuple(p) for p in trace_w.packets]
    assert list(records) == list(records_w)
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
    if improve:
        assert not got[3]  # only a phase without pass-through flies
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
    fleet = Flights(routes)
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
    fleet = Flights(routes)
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
    fleet = Flights(routes)
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


@pytest.mark.parametrize("max_phases", [0, -1, 2.5, True, "3"])
def test_max_phases_is_a_count(max_phases):
    net = line_network(1)
    adversary = scripted_adversary([InjectionEvent(1, path("e1"))], Fraction(1, 2), 1, net)
    with pytest.raises(ValueError) as err:
        run_interval(net, "FIFO", adversary, 10, max_phases=max_phases)
    assert str(err.value) == f"max_phases: must be an integer >= 1, got {shown(max_phases)}"
