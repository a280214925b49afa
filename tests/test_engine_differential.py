"""The busy-edge engine against the frozen full-scan reference in
`reference_engine.py`: same steps, packets, phases and move order, for every
discipline, plain and phased, with pass-through on and off. The reference
records no moves for phased runs, so their crossings are held to the rules of
a feasible schedule instead."""

import io
import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as ref
from crossings import check_schedule, recorded_moves
from aqsim.adversary import InjectionEvent, saturating_adversary, scripted_adversary
from aqsim.interval_strategy import run_interval, write_phases_csv
from aqsim.network import build_network, line_network, path
from aqsim.sim_engine import run, write_packets_csv, write_trace_csv
from aqsim.strategies import DISCIPLINES, get_discipline


def _custom_key(p):  # any callable works as a discipline key
    return (p.id * 7) % 5 - p.hops_done


KEYS = sorted(DISCIPLINES) + [_custom_key]
RATES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))


def random_network(rng: random.Random):
    """A line or a small in-tree, its edges declared in a shuffled order, with
    every node's rootward path (in-tree) or every subpath (line) as a route."""
    if rng.random() < 0.4:
        k = rng.randint(1, 6)
        edges = [(f"v{i}", f"v{i + 1}", f"e{i + 1}") for i in range(k)]
        routes = [
            tuple(f"e{x}" for x in range(i, j + 1))
            for i in range(1, k + 1)
            for j in range(i, k + 1)
        ]
        nodes = [f"v{i}" for i in range(k + 1)]
    else:
        parents = [rng.randrange(i) for i in range(1, rng.randint(2, 9))]
        edges = [(f"n{i}", f"n{par}", f"e{i}") for i, par in enumerate(parents, start=1)]
        routes = []
        for v in range(1, len(parents) + 1):
            walk = []
            while v:
                walk.append(f"e{v}")
                v = parents[v - 1]
            routes.extend(tuple(walk[:length]) for length in range(1, len(walk) + 1))
        nodes = [f"n{i}" for i in range(len(parents) + 1)]
    rng.shuffle(edges)
    return build_network(nodes, edges), routes


def admissible_events(rng: random.Random, routes, horizon: int, r: Fraction, b: int):
    """Random routes, each kept only if every window through each of its edges
    stays within floor(r*|I|)+b: per edge, the running minimum of
    q*P(u) - p*u bounds what step t may add (as in WindowBudget)."""
    p, q = r.numerator, r.denominator
    edges = {e for route in routes for e in route}
    total = dict.fromkeys(edges, 0)
    low = dict.fromkeys(edges, 0)
    events = []
    for t in range(1, horizon + 1):
        for e in edges:
            low[e] = min(low[e], q * total[e] - p * (t - 1))
        for _ in range(rng.randint(0, 3)):
            route = rng.choice(routes)
            if all(q * (total[e] + 1) <= low[e] + p * t + q * b for e in route):
                for e in route:
                    total[e] += 1
                events.append(InjectionEvent(t, path(*route)))
    return events


def outcome(trace):
    packets = [
        (p.id, p.path, p.injected_at, p.hops_done, p.delivered_at, p.phase)
        for p in trace.packets
    ]
    return trace.steps, packets, trace.truncated


def phases(records):
    return [(r.phase_index, r.packet_count, r.duration_steps, r.n_i, r.d_i) for r in records]


def check_same(net, events, r, b, key, mode, max_steps, max_phases=None):
    check_same_source(
        net, lambda: scripted_adversary(events, r, b, net), key, mode, max_steps, max_phases
    )


def check_same_source(net, adversary, key, mode, max_steps, max_phases=None):
    """Both engines against the reference, each run fed a fresh source from
    the factory `adversary`."""
    if mode == "plain":
        got = run(net, key, adversary(), max_steps)
        # a built-in key may copy whole periods instead of stepping them, so
        # the moves come from the same key behind a wrapper, which steps all
        builtin = get_discipline(key)
        with recorded_moves() as moves:
            run(net, lambda pkt: builtin(pkt), adversary(), max_steps)
        want = ref.run(net, key, adversary(), max_steps, record_moves=True)
        assert outcome(got) == outcome(want)
        assert moves == want.moves
    else:
        improve = mode == "passthrough"
        got, got_rec = run_interval(net, key, adversary(), max_steps, improve, max_phases)
        want, want_rec = ref.run_interval(net, key, adversary(), max_steps, improve, max_phases)
        assert outcome(got) == outcome(want)
        assert phases(got_rec) == phases(want_rec)


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key=st.sampled_from(KEYS),
    mode=st.sampled_from(("plain", "interval", "passthrough")),
    r=st.sampled_from(RATES),
    b=st.integers(1, 3),
    horizon=st.integers(1, 30),
    cut=st.booleans(),
    max_phases=st.one_of(st.none(), st.integers(1, 4)),
)
def test_matches_reference_engine(seed, key, mode, r, b, horizon, cut, max_phases):
    rng = random.Random(seed)
    net, routes = random_network(rng)
    events = admissible_events(rng, routes, horizon, r, b)
    max_steps = rng.randint(1, horizon + 5) if cut else horizon + 200
    check_same(net, events, r, b, key, mode, max_steps, max_phases)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key=st.sampled_from(KEYS),
    improve=st.booleans(),
    r=st.sampled_from(RATES),
    b=st.integers(1, 3),
    horizon=st.integers(1, 30),
    cut=st.booleans(),
    max_phases=st.one_of(st.none(), st.integers(1, 4)),
)
def test_phased_crossings_are_feasible(seed, key, improve, r, b, horizon, cut, max_phases):
    rng = random.Random(seed)
    net, routes = random_network(rng)
    events = admissible_events(rng, routes, horizon, r, b)
    max_steps = rng.randint(1, horizon + 5) if cut else horizon + 200
    adversary = scripted_adversary(events, r, b, net)
    with recorded_moves() as moves:
        trace, _ = run_interval(net, key, adversary, max_steps, improve, max_phases)
    packets = trace.packets
    steps = check_schedule(
        [p.path for p in packets], moves, [p.injected_at for p in packets], complete=False
    )
    for p, crossed in zip(packets, steps):
        assert len(crossed) == p.hops_done
        delivered = len(crossed) == len(p.path)
        assert p.delivered_at == (crossed[-1] if delivered else None)


def test_merging_rails_match_reference_engine():
    # a1 and b1 both feed the trunk t1 -> t2; the side rail s1 -> s2 stays
    # clear of every phase, so pass-through has somewhere to go. Edges are
    # declared against the flow, so declaration order differs from path order.
    net = build_network(
        ["a0", "b0", "m", "x", "y", "s0", "s1", "s2"],
        [
            ("s1", "s2", "s2"),
            ("x", "y", "t2"),
            ("m", "x", "t1"),
            ("b0", "m", "b1"),
            ("a0", "m", "a1"),
            ("s0", "s1", "s1"),
        ],
    )
    routes = [
        ("a1", "t1", "t2"),
        ("b1", "t1", "t2"),
        ("a1", "t1"),
        ("b1",),
        ("t1", "t2"),
        ("s1", "s2"),
        ("s2",),
    ]
    r, b = Fraction(2, 3), 3
    events = admissible_events(random.Random(7), routes, 120, r, b)
    assert len(events) > 60
    for key in KEYS:
        for mode in ("plain", "interval", "passthrough"):
            check_same(net, events, r, b, key, mode, 300)


def test_walks_that_repeat_an_edge_match_reference_engine():
    # e1/e2 form the two-cycle v0 <-> v1, e3 leaves it; some routes cross e1
    # twice, so a phase still demands e1 after its first crossing
    net = build_network(
        ["v0", "v1", "v2"], [("v0", "v1", "e1"), ("v1", "v0", "e2"), ("v1", "v2", "e3")]
    )
    routes = [("e1", "e2", "e1", "e3"), ("e2", "e1"), ("e1", "e2", "e1"), ("e1",), ("e3",)]
    r, b = Fraction(2, 3), 3
    events = admissible_events(random.Random(11), routes, 120, r, b)
    assert len(events) > 40
    for key in KEYS:
        for mode in ("plain", "interval", "passthrough"):
            check_same(net, events, r, b, key, mode, 400)


@pytest.mark.parametrize(
    "r, b, d, max_steps",
    [
        (Fraction(1, 2), 4, 4, 150),
        (Fraction(2, 3), 1, 3, 150),
        (Fraction(1, 5), 3, 6, 150),
        (Fraction(2, 5), 2, 5, 2000),
    ],
    ids=["r0-4-4", "r1-1-3", "r2-3-6", "r3-2-5-2000"],
)
def test_saturating_source_matches_reference_engine(r, b, d, max_steps):
    # the generator serves its steps from shared lists of paths; every other
    # case here feeds the engines a script. Pass-through moves held packets
    # onto the line's tail edges once the running phase has left them. The
    # long case runs far past the first repeated phase start, so its phased
    # runs under the built-in keys copy whole periods instead of stepping them.
    net = line_network(d)
    route = path(*(f"e{i}" for i in range(1, d + 1)))
    for key in KEYS:
        for mode in ("plain", "interval", "passthrough"):
            check_same_source(
                net, lambda: saturating_adversary(net, route, r, b), key, mode, max_steps
            )


def _csvs(trace, records=None):
    """The trace and packets CSVs, and the phases CSV of a phased run."""
    texts = []
    writers = [(write_trace_csv, trace), (write_packets_csv, trace)]
    if records is not None:
        writers.append((write_phases_csv, records))
    for writer, data in writers:
        buf = io.StringIO()
        writer(data, buf)
        texts.append(buf.getvalue())
    return texts


def _fields(trace):
    return [astuple(p) for p in trace.packets]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(sorted(DISCIPLINES)),
    improve=st.booleans(),
    r=st.sampled_from(sorted({Fraction(p, q) for q in range(2, 8) for p in range(1, q)})),
    b=st.integers(1, 5),
    max_steps=st.integers(1, 3000),
    max_phases=st.one_of(st.none(), st.integers(1, 200)),
)
def test_period_skipping_matches_stepping(seed, name, improve, r, b, max_steps, max_phases):
    # a built-in key skips whole periods once a phase-start state recurs; the
    # same key behind a wrapper is not known to be shift-invariant, so that
    # run steps through every period
    rng = random.Random(seed)
    net, routes = random_network(rng)
    route = path(*rng.choice(routes))
    builtin = DISCIPLINES[name]
    runs = [
        run_interval(
            net, key, saturating_adversary(net, route, r, b), max_steps, improve, max_phases
        )
        for key in (name, lambda pkt: builtin(pkt))
    ]
    (got, got_rec), (want, want_rec) = runs
    assert want.recurrence is None
    assert _csvs(got, got_rec) == _csvs(want, want_rec)
    assert _fields(got) == _fields(want)
    assert got.truncated == want.truncated


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(sorted(DISCIPLINES)),
    r=st.sampled_from(sorted({Fraction(p, q) for q in range(2, 8) for p in range(1, q)})),
    b=st.integers(1, 5),
    max_steps=st.integers(1, 3000),
)
def test_plain_period_skipping_matches_stepping(seed, name, r, b, max_steps):
    # a plain run of a built-in key skips whole periods once a state recurs;
    # the same key behind a wrapper steps through every period
    rng = random.Random(seed)
    net, routes = random_network(rng)
    route = path(*rng.choice(routes))
    builtin = DISCIPLINES[name]
    got, want = (
        run(net, key, saturating_adversary(net, route, r, b), max_steps)
        for key in (name, lambda pkt: builtin(pkt))
    )
    assert want.recurrence is None
    assert _csvs(got) == _csvs(want)
    assert _fields(got) == _fields(want)
    assert got.truncated == want.truncated
