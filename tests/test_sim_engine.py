import io
import random
from dataclasses import fields
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from crossings import check_schedule, recorded_moves
from aqsim.adversary import burst_adversary, saturating_adversary, scripted_adversary, InjectionEvent
from aqsim.interval_strategy import run_interval
from aqsim.network import line_network, path
from aqsim.sim_engine import Recurrence, advance, run, write_packets_csv, write_trace_csv
from aqsim.static_routing import random_instance
from aqsim.strategies import DISCIPLINES, Packet, get_discipline

# ---- basic progress ----------------------------------------------------------


def test_single_packet_crosses_one_edge_per_step():
    net = line_network(2)
    adv = scripted_adversary([InjectionEvent(1, path("e1", "e2"))], Fraction(1, 2), 1, net)
    trace = run(net, "FIFO", adv, max_steps=10)
    pkt = trace.packets[0]
    assert pkt.delivered_at == 2
    assert pkt.system_time == 2
    assert trace.last_step == 2
    assert not trace.truncated


def test_shared_edge_serializes():
    net = line_network(1)
    events = [InjectionEvent(1, path("e1")), InjectionEvent(1, path("e1"))]
    adv = scripted_adversary(events, Fraction(1, 2), 2, net)
    trace = run(net, "FIFO", adv, max_steps=10)
    assert [p.delivered_at for p in trace.packets] == [1, 2]


def test_burst_on_line_fifo_pipeline():
    # four identical full-line packets: head-of-line leaves at 4, last at 7
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    adv = burst_adversary(net, [full] * 4, 4)
    trace = run(net, "FIFO", adv, max_steps=50)
    assert [p.delivered_at for p in trace.packets] == [4, 5, 6, 7]
    assert [(s.step, s.deliveries) for s in trace.steps if s.deliveries] == [
        (4, 1), (5, 1), (6, 1), (7, 1)]
    assert trace.max_queue_len == 4
    assert trace.max_system_time == 7


def test_burst_drains_within_pipeline_bound_for_every_discipline():
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    for name in DISCIPLINES:
        adv = burst_adversary(net, [full] * 4, 4)
        trace = run(net, name, adv, max_steps=50)
        assert not trace.truncated, name
        # b packets down a d-edge line cannot beat b + d - 1 nor exceed it:
        # the shared first edge serializes them and the rest pipelines
        assert trace.last_step == 4 + 4 - 1, name


def test_empty_adversary_yields_empty_trace():
    net = line_network(1)
    adv = scripted_adversary([], Fraction(1, 2), 1, net)
    trace = run(net, "FIFO", adv, max_steps=10)
    assert trace.packets == []
    assert trace.last_step == 0
    assert not trace.truncated


def test_empty_burst_stops_before_step_one_but_the_phased_run_opens_it():
    net = line_network(1)
    plain = run(net, "FIFO", burst_adversary(net, [], 1), max_steps=10)
    assert plain.last_step == 0 and plain.steps == [] and not plain.truncated
    phased, records = run_interval(net, "FIFO", burst_adversary(net, [], 1), max_steps=10)
    assert phased.last_step == 1 and not phased.truncated
    assert [rec.phase_index for rec in records] == [0]


def test_truncation_flag_when_cut_early():
    net = line_network(4)
    adv = burst_adversary(net, [path("e1", "e2", "e3", "e4")], 1)
    trace = run(net, "FIFO", adv, max_steps=2)
    assert trace.truncated
    assert trace.packets[0].delivered_at is None


def test_max_steps_validation():
    net = line_network(1)
    adv = scripted_adversary([], Fraction(1, 2), 1, net)
    with pytest.raises(ValueError):
        run(net, "FIFO", adv, max_steps=0)


# ---- long-run stability -------------------------------------------------------


def test_saturating_line_fifo_stays_bounded():
    net = line_network(4)
    p = path("e1", "e2", "e3", "e4")
    adv = saturating_adversary(net, p, Fraction(1, 2), 1)
    trace = run(net, "FIFO", adv, max_steps=2000)
    assert trace.last_step == 2000  # the source never stops
    first = max(s.max_queue_len for s in trace.steps[:1000])
    second = max(s.max_queue_len for s in trace.steps[1000:])
    assert second <= first + 1


def test_fifo_preserves_injection_order_on_shared_path():
    net = line_network(3)
    p = path("e1", "e2", "e3")
    adv = saturating_adversary(net, p, Fraction(1, 2), 2)
    trace = run(net, "FIFO", adv, max_steps=400)
    delivered = [pkt.id for pkt in sorted(
        (p for p in trace.packets if p.delivered_at is not None),
        key=lambda p: p.delivered_at)]
    assert delivered == sorted(delivered)


# ---- determinism ----------------------------------------------------------------


def test_replay_is_bit_identical():
    net = line_network(3)
    p = path("e1", "e2", "e3")

    def one_run():
        adv = saturating_adversary(net, p, Fraction(2, 5), 3)
        return run(net, "NTS", adv, max_steps=300)

    a, b = one_run(), one_run()
    assert a.steps == b.steps
    assert a.packets == b.packets


# ---- conservation and unit capacity ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(DISCIPLINES)))
def test_unit_capacity_and_accounting(seed, name):
    rng = random.Random(seed)
    inst = random_instance(rng, 4, 4)
    adv = burst_adversary(inst.network, inst.paths, b=inst.n)
    with recorded_moves() as moves:
        trace = run(inst.network, name, adv, max_steps=inst.n * inst.d)
    assert not trace.truncated

    # one crossing per edge per step; every packet crossed exactly its path,
    # in order
    steps = check_schedule(inst.paths, moves)

    # per-step bookkeeping: in-system count tracks injections minus deliveries
    running = 0
    for s in trace.steps:
        running += s.injections - s.deliveries
        assert s.total_in_system == running
    assert running == 0

    for pkt, crossed in zip(trace.packets, steps):
        assert pkt.path == inst.paths[pkt.id - 1].edges
        assert pkt.delivered_at == crossed[-1]
        assert pkt.system_time >= len(pkt.path)


def test_nonempty_system_always_moves_something():
    net = line_network(4)
    adv = burst_adversary(net, [path("e1", "e2", "e3", "e4")] * 4, 4)
    with recorded_moves() as moves:
        trace = run(net, "LIFO", adv, max_steps=50)
    moves_by_step = {}
    for step_no, _, _ in moves:
        moves_by_step[step_no] = moves_by_step.get(step_no, 0) + 1
    prev_in_system = 0
    for s in trace.steps:
        if prev_in_system + s.injections > 0:
            assert moves_by_step.get(s.step, 0) >= 1
        prev_in_system = s.total_in_system


# ---- CSV output -------------------------------------------------------------------


def test_trace_csv_schema():
    net = line_network(2)
    adv = burst_adversary(net, [path("e1", "e2")], 1)
    trace = run(net, "FIFO", adv, max_steps=10)
    buf = io.StringIO()
    write_trace_csv(trace, buf, header_comment="demo run")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# demo run"
    assert lines[1] == "step,total_in_system,injections,deliveries,max_queue_len"
    assert lines[2] == "1,1,1,0,1"
    assert lines[3] == "2,0,0,1,1"


def test_packets_csv_schema_and_undelivered_blanks():
    net = line_network(3)
    adv = burst_adversary(net, [path("e1", "e2", "e3")], 1)
    trace = run(net, "FIFO", adv, max_steps=1)  # cut before delivery
    buf = io.StringIO()
    write_packets_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "packet_id,injected_at,delivered_at,system_time,path_len"
    assert lines[1] == "1,1,,,3"

    full = run(net, "FIFO", burst_adversary(net, [path("e1", "e2", "e3")], 1), max_steps=10)
    buf = io.StringIO()
    write_packets_csv(full, buf)
    assert buf.getvalue().splitlines()[1] == "1,1,3,3,3"


# ---- advance's longest sender queue ---------------------------------------------


def _routed(routes_by_queue):
    """Queues whose packets follow the given routes (queue indices), ids in
    queue order; every packet arrived at step 1."""
    queues, pid = [], 0
    for routes in routes_by_queue:
        queue = []
        for route in routes:
            pid += 1
            edges = tuple(f"e{j + 1}" for j in route)
            queue.append(Packet(pid, edges, 1, arrived_in_queue_at=1, route=route))
        queues.append(queue)
    return queues, {i for i, q in enumerate(queues) if q}


def _queued(lengths):
    """Queues of one-hop packets with the given lengths, ids in queue order."""
    return _routed([[(i,)] * n for i, n in enumerate(lengths)])


def test_advance_longest_is_zero_without_senders():
    queues, busy = _queued([0, 2, 0])
    assert advance(queues, busy, [], get_discipline("FIFO"), 1) == ([], 0, 0)
    assert [len(q) for q in queues] == [0, 2, 0] and busy == {1}


def test_advance_longest_is_one_when_every_sender_holds_one_packet():
    queues, busy = _queued([1, 0, 1, 1])
    moved, delivered, longest = advance(queues, busy, sorted(busy), get_discipline("FIFO"), 1)
    assert (len(moved), delivered, longest) == (3, 3, 1)
    assert busy == set()


@pytest.mark.parametrize("lengths", [[3, 1, 2], [1, 4, 0, 4], [2, 2], [1, 1, 5]])
def test_advance_longest_is_the_longest_sender_queue_before_sending(lengths):
    queues, busy = _queued(lengths)
    senders = sorted(busy)
    _, delivered, longest = advance(queues, busy, senders, get_discipline("FIFO"), 1)
    assert longest == max(lengths)
    assert delivered == len(senders)


def test_advance_longest_ignores_queues_that_do_not_send():
    # only the senders' queues count, as in a pass-through step
    queues, busy = _queued([5, 2, 1])
    _, _, longest = advance(queues, busy, [1, 2], get_discipline("FIFO"), 1)
    assert longest == 2 and len(queues[0]) == 5


# ---- advance's busy set and the packets it returns --------------------------------


def test_advance_keeps_queues_that_do_not_send_in_busy():
    # a strict subset of busy sends, as in a pass-through step
    queues, busy = _queued([1, 1, 1, 2])
    advance(queues, busy, [1, 2], get_discipline("FIFO"), 1)
    assert busy == {0, 3}
    assert [len(q) for q in queues] == [1, 0, 0, 2]


def test_advance_keeps_a_multi_packet_sender_in_busy():
    # one-hop packets: nothing lands, so only the sender's own leftovers keep it busy
    queues, busy = _queued([3, 1, 2])
    moved, delivered, _ = advance(queues, busy, [0, 1, 2], get_discipline("FIFO"), 1)
    assert busy == {0, 2}
    assert [len(q) for q in queues] == [2, 0, 1]
    assert delivered == len(moved) == 3


@pytest.mark.parametrize(
    "routes_by_queue",
    [
        [[(0, 1)], [(1,)]],  # the earlier sender lands in the later one's queue
        [[(0,)], [(1, 0)]],  # the later sender lands in the earlier one's queue
    ],
    ids=["forward", "backward"],
)
def test_advance_lands_in_a_queue_emptied_the_same_step(routes_by_queue):
    queues, busy = _routed(routes_by_queue)
    moved, delivered, _ = advance(queues, busy, [0, 1], get_discipline("FIFO"), 1)
    lander = next(p for p in moved if p.delivered_at is None)
    target = lander.route[1]
    assert delivered == 1
    assert queues[target] == [lander] and queues[1 - target] == []
    assert busy == {target}


def test_advance_moved_k_left_senders_k():
    # LIFO sends the latest arrival; arrivals are spread so each queue's pick differs
    # from its head, and queue 1 does not send
    queues, busy = _routed([[(0, 3)] * 3, [(1,)] * 2, [(2, 3)], [(3,)] * 2])
    for q in queues:
        for t, p in enumerate(q):
            p.arrived_in_queue_at = t + 1
    key = get_discipline("LIFO")
    senders = [0, 2, 3]
    expected = [queues[i][-1] for i in senders]
    moved, _, _ = advance(queues, busy, senders, key, 1)
    assert moved == expected
    assert [p.route[p.hops_done - 1] for p in moved] == senders


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_advance_keeps_busy_exact_and_moved_in_sender_order(data):
    # random routes over 4 queues, each starting at its packet's queue, and any
    # subset of the busy queues sending
    rests = st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=3)
    drawn = data.draw(st.lists(rests, min_size=4, max_size=4))
    queues, busy = _routed([[(i, *rest) for rest in r] for i, r in enumerate(drawn)])
    senders = sorted(data.draw(st.sets(st.sampled_from(sorted(busy))))) if busy else []
    key = get_discipline(data.draw(st.sampled_from(sorted(DISCIPLINES))))
    picks = [min(queues[i], key=lambda p: (key(p), p.id)) for i in senders]
    moved, delivered, _ = advance(queues, busy, senders, key, 1)
    assert moved == picks
    assert [p.route[p.hops_done - 1] for p in moved] == senders
    assert delivered == sum(p.delivered_at is not None for p in moved)
    assert busy == {i for i, q in enumerate(queues) if q}


# ---- period skipping ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_plain_period_skipping_on_the_long_line(name):
    # the d=256 line at r=1/2 has period 2, and a packet lives at least 256
    # steps, so packets queued at the repeat outlive about 128 periods and
    # each one ends as its twin, itself queued then, does one period on
    net = line_network(256)
    route = path(*(f"e{i}" for i in range(1, 257)))
    builtin = DISCIPLINES[name]
    got, want = (
        run(net, key, saturating_adversary(net, route, Fraction(1, 2), 4), 1500)
        for key in (name, lambda pkt: builtin(pkt))
    )
    assert got.recurrence == Recurrence(512, 2, 0)
    assert want.recurrence is None
    assert got.steps == want.steps
    every_field = attrgetter(*(f.name for f in fields(Packet)))
    assert list(map(every_field, got.packets)) == list(map(every_field, want.packets))
    assert got.truncated and want.truncated
    assert got.max_system_time >= 128 * got.recurrence.period


def test_no_plain_recurrence_without_a_built_in_key_and_a_periodic_source():
    net = line_network(4)
    route = path("e1", "e2", "e3", "e4")
    saturating = saturating_adversary(net, route, Fraction(1, 2), 4)
    assert run(net, "FIFO", saturating, 200).recurrence == Recurrence(16, 2, 0)
    custom = run(net, lambda p: p.arrived_in_queue_at, saturating, 200)
    assert custom.recurrence is None and custom.last_step == 200
    events = [InjectionEvent(t, route) for t in range(1, 200, 4)]
    script = scripted_adversary(events, Fraction(1, 2), 1, net)
    assert run(net, "FIFO", script, 400).recurrence is None
    burst = burst_adversary(net, [route] * 3, 3)
    assert run(net, "FIFO", burst, 400).recurrence is None
