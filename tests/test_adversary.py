import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aqsim.adversary import (
    AdversaryError,
    InjectionEvent,
    Violation,
    as_rate,
    burst_adversary,
    saturating_adversary,
    scripted_adversary,
    verify_admissible,
)
from aqsim.network import line_network, path
from aqsim.static_routing import random_instance

# ---- reference checker -------------------------------------------------------
# A second, independently written admissibility check. It walks intervals in
# the opposite order (longest window first, latest start first) and counts
# naively, so any agreement with verify_admissible is meaningful.


def reference_admissible(events, r, b, horizon):
    rate = as_rate(r)
    per_edge = {}
    for ev in events:
        for edge in dict.fromkeys(ev.path.edges):
            per_edge.setdefault(edge, []).append(ev.time)
    for edge in reversed(list(per_edge)):
        times = per_edge[edge]
        for length in range(horizon, 0, -1):
            allowed = (rate.numerator * length) // rate.denominator + b
            for start in range(horizon - length + 1, 0, -1):
                count = sum(1 for t in times if start <= t <= start + length - 1)
                if count > allowed:
                    return False, (edge, start, start + length - 1, count, allowed)
    return True, None


# ---- rate and burst validation ------------------------------------------------


def test_as_rate_accepts_floats_exactly():
    assert as_rate(0.5) == Fraction(1, 2)
    assert as_rate(0.1) == Fraction(1, 10)
    assert as_rate("0.3") == Fraction(3, 10)
    assert as_rate(Fraction(2, 3)) == Fraction(2, 3)
    assert as_rate("1e-4299") == Fraction(1, 10**4299)  # the most digits a rate may have


@pytest.mark.parametrize(
    "bad",
    [0, 1, 1.5, -0.25, "1", float("nan"), float("inf"), "abc", "1/0"]
    # exponents and digit counts that would cost seconds to expand or to print
    + ["1e5000", "1e-5000", "1e-10000000", "1e-4300", "1e5_000"]
    + [
        pytest.param(Decimal("1e-10000000"), id="decimal-1e-10000000"),
        pytest.param(Decimal("Infinity"), id="decimal-inf"),
        pytest.param(Fraction(1, 10**4300), id="fraction-4301-digits"),
        pytest.param("0." + "0" * 5000 + "1", id="5002-digit-decimal"),
    ],
)
def test_as_rate_requires_open_unit_interval(bad):
    with pytest.raises(AdversaryError) as err:
        as_rate(bad)
    assert len(str(err.value)) < 100  # no message spells out a huge value


@pytest.mark.parametrize("bad", [0, -1, 1.5, True])
def test_burst_size_must_be_positive_int(bad):
    net = line_network(1)
    with pytest.raises(AdversaryError):
        scripted_adversary([InjectionEvent(1, path("e1"))], Fraction(1, 2), bad, net)


# ---- verify_admissible ---------------------------------------------------------


def test_verify_single_edge_two_steps_ok():
    p = path("e1")
    events = [InjectionEvent(1, p), InjectionEvent(2, p)]
    assert verify_admissible(events, Fraction(1, 2), 1, 10).ok


def test_verify_reports_minimal_earliest_witness():
    p = path("e1")
    events = [InjectionEvent(t, p) for t in (1, 2, 3)]
    res = verify_admissible(events, Fraction(1, 2), 1, 10)
    assert not res.ok
    v = res.violation
    assert (v.edge, v.start, v.end, v.count, v.allowed) == ("e1", 1, 3, 3, 2)
    assert "e1" in str(v) and "[1,3]" in str(v)


def test_verify_counts_each_packet_once_per_edge():
    # two multi-edge paths over a shared edge: membership, not traffic volume
    events = [InjectionEvent(1, path("e1", "e2")), InjectionEvent(1, path("e1", "e2"))]
    res = verify_admissible(events, Fraction(1, 2), 2, 5)
    assert res.ok


def test_verify_empty_events():
    assert verify_admissible([], Fraction(1, 2), 1, 5).ok


def test_verify_rejects_bad_horizon():
    p = path("e1")
    with pytest.raises(AdversaryError):
        verify_admissible([InjectionEvent(3, p)], Fraction(1, 2), 1, 2)
    with pytest.raises(AdversaryError):
        verify_admissible([], Fraction(1, 2), 1, 0)


def test_verify_agrees_with_reference_on_fixed_cases():
    p = path("e1")
    q = path("e1", "e2")
    cases = [
        ([InjectionEvent(t, p) for t in (1, 2, 3)], Fraction(1, 2), 1),
        ([InjectionEvent(t, p) for t in (1, 2)], Fraction(1, 2), 1),
        ([InjectionEvent(1, q), InjectionEvent(1, q), InjectionEvent(2, p)], Fraction(1, 3), 2),
        ([InjectionEvent(t, q) for t in (1, 1, 1, 5, 5, 9)], Fraction(1, 4), 2),
    ]
    for events, r, b in cases:
        got = verify_admissible(events, r, b, 12)
        want_ok, _ = reference_admissible(events, r, b, 12)
        assert got.ok == want_ok


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2)),
        min_size=0,
        max_size=10,
    ),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
    st.integers(1, 3),
)
def test_verify_agrees_with_reference_on_random_scripts(raw, r, b):
    # each tuple is (time, first edge index, extra length) over edges e1..e5
    events = sorted(
        (InjectionEvent(t, path(*[f"e{k}" for k in range(i, i + w + 1)]))
         for t, i, w in raw),
        key=lambda ev: ev.time,
    )
    got = verify_admissible(events, r, b, 12)
    want_ok, want_witness = reference_admissible(events, r, b, 12)
    assert got.ok == want_ok
    if not got.ok:
        # both witnesses must be genuine violations when recounted directly
        for edge, start, end, count, allowed in (
            (got.violation.edge, got.violation.start, got.violation.end,
             got.violation.count, got.violation.allowed),
            want_witness,
        ):
            recount = sum(1 for ev in events
                          if start <= ev.time <= end and edge in ev.path.edges)
            assert recount == count > allowed

        # witness order: first violating edge in first-appearance order, then
        # the shortest window on it, then the earliest end
        def violates(edge, start, end):
            count = sum(1 for ev in events
                        if start <= ev.time <= end and edge in ev.path.edges)
            return count > (r.numerator * (end - start + 1)) // r.denominator + b

        windows = [(s, t) for t in range(1, 13) for s in range(1, t + 1)]
        v = got.violation
        edges = list(dict.fromkeys(e for ev in events for e in ev.path.edges))
        for edge in edges[: edges.index(v.edge)]:
            assert not any(violates(edge, s, t) for s, t in windows), edge
        length = v.end - v.start + 1
        for s, t in windows:
            if t - s + 1 < length or (t - s + 1 == length and t < v.end):
                assert not violates(v.edge, s, t), (s, t)


def test_verify_cost_follows_events_not_horizon():
    # two events 10**9 steps apart: a check that scans every window would hang
    p = path("e1", "e2")
    events = [InjectionEvent(1, p), InjectionEvent(10**9, p)]
    adv = scripted_adversary(events, Fraction(1, 2), 1, line_network(2))
    assert adv.done_after(10**9) and not adv.done_after(10**9 - 1)
    assert verify_admissible(events, Fraction(1, 2), 1, 10**9).ok


def test_verify_long_shortest_witness():
    # one edge, events at floor(1.9*i)+1: the shortest violating window spans
    # 992 injections, which a search that walks back over every injection in
    # the window for each end would pay for quadratically
    events = [InjectionEvent(19 * i // 10 + 1, path("e1")) for i in range(20_000)]
    res = verify_admissible(events, Fraction(1, 2), 50, events[-1].time)
    v = res.violation
    assert not res.ok
    assert (v.edge, v.start, v.end, v.count, v.allowed) == ("e1", 1, 1883, 992, 991)


# ---- scripted adversary ---------------------------------------------------------


def test_scripted_rejects_inadmissible_script():
    net = line_network(1)
    events = [InjectionEvent(t, path("e1")) for t in (1, 2, 3)]
    with pytest.raises(AdversaryError) as err:
        scripted_adversary(events, Fraction(1, 2), 1, net)
    assert "e1" in str(err.value) and "[1,3]" in str(err.value)


def test_scripted_replay_and_done_after():
    net = line_network(2)
    events = [InjectionEvent(1, path("e1", "e2")), InjectionEvent(4, path("e2"))]
    adv = scripted_adversary(events, Fraction(1, 2), 1, net)
    assert [p.edges for p in adv.injections_for(1)] == [("e1", "e2")]
    assert adv.injections_for(2) == []
    assert adv.injections_for(3) == []
    assert [p.edges for p in adv.injections_for(4)] == [("e2",)]
    assert not adv.done_after(3)
    assert adv.done_after(4)
    assert adv.events(4) == events
    assert adv.events(1) == events[:1]


def test_scripted_empty_script():
    adv = scripted_adversary([], Fraction(1, 2), 1, line_network(1))
    assert adv.injections_for(1) == []
    assert adv.done_after(0)


def test_scripted_rejects_unsorted_and_early_events():
    p, net = path("e1"), line_network(1)
    with pytest.raises(AdversaryError):
        scripted_adversary([InjectionEvent(4, p), InjectionEvent(1, p)], Fraction(1, 2), 4, net)
    with pytest.raises(AdversaryError) as err:
        scripted_adversary([InjectionEvent(0, p)], Fraction(1, 2), 4, net)
    assert str(err.value) == "events[0].time: must be an integer >= 1, got 0"


def test_scripted_rejects_invalid_path_against_network():
    net = line_network(2)
    with pytest.raises(AdversaryError):
        scripted_adversary([InjectionEvent(1, path("e2", "e1"))], Fraction(1, 2), 4, net)


def test_saturating_rejects_invalid_path_against_network():
    with pytest.raises(AdversaryError) as err:
        saturating_adversary(line_network(2), path("e9"), 0.5, 1)
    assert str(err.value) == "invalid path ('e9',)"


def test_scripted_refuses_an_unknown_edge_when_built():
    # a script always names its network, so a path over an edge the network
    # lacks is refused here, not as a KeyError once a run injects it
    events = [InjectionEvent(1, path("e9"))]
    with pytest.raises(AdversaryError) as err:
        scripted_adversary(events, Fraction(1, 2), 1, line_network(2))
    assert str(err.value) == "event at step 1: invalid path ('e9',)"
    with pytest.raises(TypeError):
        scripted_adversary(events, Fraction(1, 2), 1)


# ---- burst adversary -------------------------------------------------------------


def test_burst_injects_everything_at_step_one():
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    adv = burst_adversary(net, [full] * 4, 4)
    assert len(adv.injections_for(1)) == 4
    assert adv.injections_for(2) == []
    assert adv.done_after(1)
    assert not adv.done_after(0)


def test_burst_rejects_overloaded_edge():
    # all four edges carry 3 paths; the witness is the first of them in
    # first-appearance order, on the one-step window [1,1]
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    with pytest.raises(AdversaryError) as err:
        burst_adversary(net, [full] * 3, 2)
    assert str(err.value) == f"inadmissible script: {Violation('e1', 1, 1, 3, 2)}"


def test_burst_rejects_invalid_path_as_a_step_one_event():
    with pytest.raises(AdversaryError) as err:
        burst_adversary(line_network(2), [path("e2", "e1")], 1)
    assert str(err.value) == "event at step 1: invalid path ('e2', 'e1')"


def test_burst_respects_per_edge_not_total():
    net = line_network(2)
    # three packets but no edge carries more than two
    adv = burst_adversary(net, [path("e1"), path("e1"), path("e2")], 2)
    assert len(adv.injections_for(1)) == 3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 3), max_size=10), st.integers(1, 4))
def test_burst_is_a_step_one_script(seed, picks, b):
    inst = random_instance(random.Random(seed), 4, 4)
    paths = [inst.paths[k % inst.n] for k in picks]
    # naive recount: each path once per edge it uses, edges in first-appearance order
    edges = list(dict.fromkeys(e for p in paths for e in p.edges))
    load = {e: sum(1 for p in paths if e in p.edges) for e in edges}
    over = [e for e in edges if load[e] > b]

    events = [InjectionEvent(1, p) for p in paths]
    for r in (Fraction(1, 20), Fraction(1, 2), Fraction(19, 20)):
        for horizon in (1, 10):
            assert verify_admissible(events, r, b, horizon).ok == (not over)

    if over:
        with pytest.raises(AdversaryError) as err:
            burst_adversary(inst.network, paths, b)
        witness = Violation(over[0], 1, 1, load[over[0]], b)
        assert str(err.value) == f"inadmissible script: {witness}"
    else:
        adv = burst_adversary(inst.network, paths, b)
        assert adv.r is None and adv.b == b
        assert adv.injections_for(1) == paths
        assert adv.done_after(1)
        assert adv.events(10) == events


# ---- saturating adversary ----------------------------------------------------------


def test_saturating_initial_burst_then_steady_rate():
    net = line_network(1)
    adv = saturating_adversary(net, path("e1"), Fraction(1, 2), 4)
    counts = [len(adv.injections_for(t)) for t in range(1, 13)]
    assert counts == [4, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert not adv.done_after(10_000)


def test_saturating_b1_alternates():
    net = line_network(1)
    adv = saturating_adversary(net, path("e1"), Fraction(1, 2), 1)
    counts = [len(adv.injections_for(t)) for t in range(1, 13)]
    assert counts == [1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_saturating_slow_rate_totals():
    net = line_network(1)
    adv = saturating_adversary(net, path("e1"), Fraction(1, 100), 3)
    totals = {}
    running = 0
    for t in range(1, 501):
        running += len(adv.injections_for(t))
        totals[t] = running
    assert totals[1] == 3
    assert totals[100] == 4
    assert totals[200] == 5
    assert totals[500] == 8
    assert verify_admissible(adv.events(500), Fraction(1, 100), 3, 500).ok


def test_saturating_is_admissible_at_declared_budget():
    net = line_network(3)
    p = path("e1", "e2", "e3")
    for r, b in [(Fraction(1, 2), 4), (Fraction(2, 3), 1), (Fraction(9, 10), 2)]:
        adv = saturating_adversary(net, p, r, b)
        assert verify_admissible(adv.events(400), r, b, 400).ok


def test_saturating_meets_budget_with_equality_somewhere():
    # the generator should actually saturate: some prefix hits floor(r*t)+b
    net = line_network(1)
    r, b = Fraction(1, 2), 4
    adv = saturating_adversary(net, path("e1"), r, b)
    running = 0
    hits = 0
    for t in range(1, 101):
        running += len(adv.injections_for(t))
        if running == (r.numerator * t) // r.denominator + b:
            hits += 1
    assert hits > 50


def test_saturating_replay_is_deterministic():
    net = line_network(2)
    p = path("e1", "e2")
    a = saturating_adversary(net, p, Fraction(3, 7), 2)
    b = saturating_adversary(net, p, Fraction(3, 7), 2)
    assert a.events(300) == b.events(300)


def test_saturating_random_access_matches_sequential():
    net = line_network(1)
    a = saturating_adversary(net, path("e1"), Fraction(2, 5), 3)
    b = saturating_adversary(net, path("e1"), Fraction(2, 5), 3)
    sequential = [len(a.injections_for(t)) for t in range(1, 51)]
    assert len(b.injections_for(50)) == sequential[49]
    assert [len(b.injections_for(t)) for t in range(1, 51)] == sequential


def test_saturating_injects_nothing_before_step_one():
    net = line_network(1)
    adv = saturating_adversary(net, path("e1"), Fraction(1, 2), 3)
    assert adv.injections_for(0) == []
    assert len(adv.injections_for(1)) == 3
    # a negative step is no index into the decided steps
    assert adv.injections_for(-1) == []
    assert adv.injections_for(-5) == []
    assert [len(adv.injections_for(t)) for t in range(1, 6)] == [3, 1, 0, 1, 0]


def test_saturating_memory_stays_flat():
    # the source keeps no per-step state: 200,000 steps served in order hold
    # no more traced memory at the end than at the start
    net = line_network(1)
    adv = saturating_adversary(net, path("e1"), Fraction(2, 5), 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(1, 200_001):
            adv.injections_for(t)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1024


def naive_saturating_counts(r: Fraction, b: int, horizon: int) -> list[int]:
    """The greedy maximal injector's count per step 1..horizon, decided by
    recounting windows: step t takes the most packets (b at step 1, one
    afterwards) for which every window [s,t] holds at most floor(r*(t-s+1))+b.
    Windows that end before t hold none of step t's packets and were checked
    at their own end."""
    counts = [0] * (horizon + 1)
    for t in range(1, horizon + 1):
        for m in range(b if t == 1 else 1, 0, -1):
            counts[t] = m
            held = 0
            for s in range(t, 0, -1):
                held += counts[s]
                if held > r.numerator * (t - s + 1) // r.denominator + b:
                    counts[t] = 0
                    break
            if counts[t]:
                break
    return counts[1:]


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 30), max_value=Fraction(29, 30), max_denominator=30),
    st.integers(1, 8),
    st.integers(1, 300),
    st.randoms(use_true_random=False),
)
def test_saturating_matches_naive_greedy(r, b, horizon, rnd):
    net = line_network(2)
    p = path("e1", "e2")
    want = naive_saturating_counts(r, b, horizon)
    sequential = saturating_adversary(net, p, r, b)
    got = [sequential.injections_for(t) for t in range(1, horizon + 1)]
    assert [len(paths) for paths in got] == want
    assert all(q == p for paths in got for q in paths)
    # random access: steps asked out of order, some twice, decide the same sequence
    steps = list(range(1, horizon + 1)) + rnd.choices(range(1, horizon + 1), k=horizon // 3)
    rnd.shuffle(steps)
    shuffled = saturating_adversary(net, p, r, b)
    for t in steps:
        assert len(shuffled.injections_for(t)) == want[t - 1]
    fresh = saturating_adversary(net, p, r, b)
    assert [ev.time for ev in fresh.events(horizon)] == [
        t for t, n in enumerate(want, start=1) for _ in range(n)
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20)),
    st.integers(1, 8),
)
def test_saturating_admissible_for_random_parameters(r, b):
    net = line_network(2)
    adv = saturating_adversary(net, path("e1", "e2"), r, b)
    assert verify_admissible(adv.events(120), r, b, 120).ok
    # the generator is a closed form and verify_admissible runs WindowBudget;
    # the reference shares no code with either
    assert reference_admissible(adv.events(40), r, b, 40)[0]
