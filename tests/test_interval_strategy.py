import io
import random
from fractions import Fraction

import pytest

import aqsim.interval_strategy
from aqsim.adversary import (
    InjectionEvent,
    burst_adversary,
    saturating_adversary,
    scripted_adversary,
)
from aqsim.interval_strategy import (
    Lemma1ViolationError,
    PhaseRecord,
    run_interval,
    write_phases_csv,
)
from aqsim.network import CongestionDilation, build_network, line_network, path, shown
from aqsim.sim_engine import EngineInvariantError, Recurrence
from aqsim.strategies import DISCIPLINES
from aqsim.static_routing import greedy_schedule, random_instance

# ---- startup phase -----------------------------------------------------------


def test_startup_phase_is_empty_and_instant():
    net = line_network(1)
    adv = scripted_adversary([], Fraction(1, 2), 1, net)
    trace, records = run_interval(net, "FIFO", adv, max_steps=10)
    assert len(records) == 1
    rec = records[0]
    assert (rec.phase_index, rec.packet_count, rec.duration_steps) == (0, 0, 0)
    assert trace.packets == []


@pytest.mark.parametrize("max_steps", [0, -3])
def test_a_run_of_no_steps_is_refused(max_steps):
    net = line_network(1)
    adv = scripted_adversary([], Fraction(1, 2), 1, net)
    with pytest.raises(ValueError) as err:
        run_interval(net, "FIFO", adv, max_steps=max_steps)
    assert str(err.value) == f"max_steps: must be an integer >= 1, got {max_steps}"


def test_step_one_injections_become_phase_one():
    net = line_network(1)
    adv = scripted_adversary([InjectionEvent(1, path("e1"))], Fraction(1, 2), 1, net)
    trace, records = run_interval(net, "FIFO", adv, max_steps=10)
    assert [r.phase_index for r in records] == [0, 1]
    pkt = trace.packets[0]
    assert pkt.phase == 1
    # phase 1 opens the step after phase 0 closes, so the hop lands at step 2
    assert pkt.delivered_at == 2


def test_no_passthrough_before_first_real_phase():
    # improvement must not let a step-1 packet slip past during phase 0
    net = line_network(1)
    adv = scripted_adversary([InjectionEvent(1, path("e1"))], Fraction(1, 2), 1, net)
    trace, records = run_interval(net, "FIFO", adv, max_steps=10, improvement_on=True)
    pkt = trace.packets[0]
    assert pkt.phase == 1
    assert pkt.delivered_at == 2


def test_late_first_injection_still_satisfies_startup_rule():
    net = line_network(1)
    adv = scripted_adversary([InjectionEvent(3, path("e1"))], Fraction(1, 2), 1, net)
    trace, records = run_interval(net, "FIFO", adv, max_steps=10)
    assert records[0].phase_index == 0
    assert trace.packets[0].phase == 1
    assert trace.packets[0].delivered_at == 4


# ---- phase formation -----------------------------------------------------------


def test_single_burst_forms_one_phase():
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    adv = burst_adversary(net, [full] * 4, 4)
    trace, records = run_interval(net, "FIFO", adv, max_steps=60)
    assert [r.phase_index for r in records] == [0, 1]
    rec = records[1]
    assert (rec.packet_count, rec.n_i, rec.d_i) == (4, 4, 4)
    assert rec.duration_steps == 7  # pipeline: 4 + 4 - 1
    assert rec.lemma1_bound == 16
    assert all(p.phase == 1 for p in trace.packets)
    assert trace.max_system_time == 8  # injected at 1, last out at step 8


def test_injections_at_phase_close_step_join_next_phase():
    net = line_network(1)
    events = [InjectionEvent(1, path("e1")), InjectionEvent(2, path("e1"))]
    adv = scripted_adversary(events, Fraction(1, 2), 1, net)
    trace, records = run_interval(net, "FIFO", adv, max_steps=20)
    assert [r.phase_index for r in records] == [0, 1, 2]
    a, b = trace.packets
    assert (a.phase, b.phase) == (1, 2)
    assert (a.delivered_at, b.delivered_at) == (2, 3)


def test_idle_gap_produces_no_empty_phases():
    net = line_network(1)
    events = [InjectionEvent(1, path("e1")), InjectionEvent(9, path("e1"))]
    adv = scripted_adversary(events, Fraction(1, 8), 1, net)
    trace, records = run_interval(net, "FIFO", adv, max_steps=30)
    assert [r.phase_index for r in records] == [0, 1, 2]
    assert all(r.packet_count > 0 for r in records[1:])
    late = trace.packets[1]
    assert late.phase == 2
    assert late.delivered_at == 10  # adopted at step 9, crosses at step 10


def test_holding_packets_wait_out_the_open_phase():
    # a mid-phase injection advances only once its own phase starts
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    events = [InjectionEvent(1, full)] * 4 + [InjectionEvent(3, path("e1"))]
    adv = scripted_adversary(events, Fraction(1, 2), 4, net)
    trace, records = run_interval(net, "FIFO", adv, max_steps=60)
    straggler = trace.packets[-1]
    assert straggler.phase == 2
    # phase 1 spans steps 2..8; phase 2 starts at 9 and the hop lands there
    assert straggler.delivered_at == 9


def test_phase_durations_ignore_later_traffic():
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    quiet = burst_adversary(net, [full] * 4, 4)
    noisy = scripted_adversary(
        [InjectionEvent(1, full)] * 4 + [InjectionEvent(3, path("e1"))],
        Fraction(1, 2), 4, net)
    trace_quiet, rec_quiet = run_interval(net, "FIFO", quiet, max_steps=60)
    trace_noisy, rec_noisy = run_interval(net, "FIFO", noisy, max_steps=60)
    assert rec_quiet[1].duration_steps == rec_noisy[1].duration_steps
    assert ([p.delivered_at for p in trace_quiet.packets]
            == [p.delivered_at for p in trace_noisy.packets[:4]]
            == [5, 6, 7, 8])


# ---- golden numbers for the saturating line -----------------------------------


def test_saturating_line_phase_records():
    net = line_network(4)
    p = path("e1", "e2", "e3", "e4")
    adv = saturating_adversary(net, p, Fraction(1, 2), 4)
    trace, records = run_interval(net, "FIFO", adv, max_steps=200)
    head = [(r.phase_index, r.packet_count, r.n_i, r.d_i, r.duration_steps)
            for r in records[:4]]
    assert head == [
        (0, 0, 0, 0, 0),
        (1, 4, 4, 4, 7),
        (2, 4, 4, 4, 7),
        (3, 3, 3, 4, 6),
    ]
    assert all(r.duration_steps <= r.lemma1_bound for r in records)
    assert trace.max_system_time == 11


def test_phase_one_duration_equals_greedy_makespan():
    # a burst phase is exactly a static run of the same instance
    rng = random.Random(11)
    for _ in range(100):
        inst = random_instance(rng, 4, 4)
        makespan = greedy_schedule(inst, "FIFO")
        adv = burst_adversary(inst.network, inst.paths, len(inst.paths))
        _, records = run_interval(
            inst.network, "FIFO", adv, max_steps=inst.n * inst.d + 8)
        assert len(records) == 2
        assert records[1].duration_steps == makespan


# ---- improvement: pass-through on idle edges ------------------------------------


def _two_rails():
    # e1->e2 carries the active phase; f1->f2 is never demanded by it
    return build_network(
        nodes=["v0", "v1", "v2", "u0", "u1", "u2"],
        edges=[("v0", "v1", "e1"), ("v1", "v2", "e2"),
               ("u0", "u1", "f1"), ("u1", "u2", "f2")],
    )


def test_improvement_moves_holding_packet_one_hop_per_step():
    net = _two_rails()
    rail = path("e1", "e2")
    events = [InjectionEvent(1, rail)] * 4 + [InjectionEvent(2, path("f1", "f2"))]
    adv = scripted_adversary(events, Fraction(1, 2), 4, net)

    trace_off, rec_off = run_interval(net, "FIFO", adv, max_steps=60)
    trace_on, rec_on = run_interval(net, "FIFO", adv, max_steps=60, improvement_on=True)

    side_off = trace_off.packets[-1]
    side_on = trace_on.packets[-1]
    # off: waits for phase 2 (phase 1 spans steps 2..6), crosses at 7 and 8
    assert side_off.phase == 2
    assert side_off.delivered_at == 8
    # on: slips through at steps 2 and 3 - one edge per step, never two
    assert side_on.phase is None
    assert side_on.delivered_at == 3
    # the active phase is untouched either way
    assert rec_off[1].duration_steps == rec_on[1].duration_steps == 5


def test_improvement_uses_edge_only_after_phase_releases_it():
    # shared rail: e1 stays demanded until the last active packet crosses it
    net = line_network(4)
    full = path("e1", "e2", "e3", "e4")
    events = [InjectionEvent(1, full)] * 4 + [InjectionEvent(3, path("e1"))]
    adv = scripted_adversary(events, Fraction(1, 2), 4, net)
    trace_on, rec_on = run_interval(net, "FIFO", adv, max_steps=60, improvement_on=True)
    straggler = trace_on.packets[-1]
    # active packets cross e1 at steps 2..5, so the first idle step is 6
    assert straggler.delivered_at == 6
    assert straggler.phase is None
    assert rec_on[1].duration_steps == 7


def test_improvement_serves_earliest_arrival_then_lowest_id():
    # three side packets contend for the idle edge f1, one slot per step:
    # two arrive at step 2 (tie broken by id), the third arrives at step 3
    net = _two_rails()
    rail = path("e1", "e2")
    events = ([InjectionEvent(1, rail)] * 4
              + [InjectionEvent(2, path("f1")), InjectionEvent(2, path("f1")),
                 InjectionEvent(3, path("f1"))])
    adv = scripted_adversary(events, Fraction(1, 2), 4, net)
    trace, _ = run_interval(net, "FIFO", adv, max_steps=60, improvement_on=True)
    s1, s2, s3 = trace.packets[4:]
    assert (s1.delivered_at, s2.delivered_at, s3.delivered_at) == (2, 3, 4)
    assert s1.phase is None and s2.phase is None and s3.phase is None


# ---- stopping and bookkeeping ----------------------------------------------------


def test_max_phases_stops_early():
    net = line_network(1)
    adv = saturating_adversary(net, path("e1"), Fraction(1, 2), 4)
    _, records = run_interval(net, "FIFO", adv, max_steps=500, max_phases=3)
    assert records[-1].phase_index == 3
    assert len(records) == 4


def test_interval_run_is_deterministic():
    net = line_network(3)
    p = path("e1", "e2", "e3")

    def one():
        adv = saturating_adversary(net, p, Fraction(2, 5), 2)
        return run_interval(net, "SIS", adv, max_steps=300)

    (t1, r1), (t2, r2) = one(), one()
    assert r1 == r2
    assert t1.packets == t2.packets
    assert t1.steps == t2.steps


def test_truncation_reported_when_phase_cut():
    net = line_network(4)
    adv = burst_adversary(net, [path("e1", "e2", "e3", "e4")] * 4, 4)
    trace, records = run_interval(net, "FIFO", adv, max_steps=3)
    assert trace.truncated


def test_lemma1_violation_is_an_engine_invariant():
    assert issubclass(Lemma1ViolationError, EngineInvariantError)


def test_live_check_stops_a_phase_that_reaches_its_bound(monkeypatch):
    # understate the phase's n*d: two packets over e1,e2 need more than 1 step
    monkeypatch.setattr(
        aqsim.interval_strategy, "congestion_dilation", lambda paths: CongestionDilation(1, 1)
    )
    net = line_network(2)
    adv = burst_adversary(net, [path("e1", "e2")] * 2, 2)
    with pytest.raises(Lemma1ViolationError, match=r"^phase 1 still running .* n\*d = 1$"):
        run_interval(net, "FIFO", adv, max_steps=10)


def test_live_check_fires_at_the_bound_not_one_step_late(monkeypatch):
    # the phase takes 3 steps; understate n*d as 2, one step short
    monkeypatch.setattr(
        aqsim.interval_strategy, "congestion_dilation", lambda paths: CongestionDilation(1, 2)
    )
    net = line_network(2)
    adv = burst_adversary(net, [path("e1", "e2")] * 2, 2)
    with pytest.raises(Lemma1ViolationError, match=r"^phase 1 still running after 2 steps, "):
        run_interval(net, "FIFO", adv, max_steps=10)


@pytest.mark.parametrize("improvement_on", ["off", "on", 1, 0, None, [True]])
def test_improvement_on_is_a_bool(improvement_on):
    # "off" and [True] are truthy: none of these may be read as on or off
    net = line_network(3)
    adv = saturating_adversary(net, path("e1", "e2", "e3"), Fraction(1, 2), 2)
    with pytest.raises(ValueError) as err:
        run_interval(net, "FIFO", adv, 30, improvement_on)
    assert str(err.value) == f"improvement_on: must be a bool, got {shown(improvement_on)}"


def test_phases_csv_schema():
    net = line_network(4)
    adv = burst_adversary(net, [path("e1", "e2", "e3", "e4")] * 4, 4)
    _, records = run_interval(net, "FIFO", adv, max_steps=60)
    buf = io.StringIO()
    write_phases_csv(records, buf, header_comment="demo")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "phase_index,packet_count,n_i,d_i,duration,lemma1_bound"
    assert lines[2] == "0,0,0,0,0,0"
    assert lines[3] == "1,4,4,4,7,16"


def test_phase_records_are_the_phases_csv_rows():
    # the fields follow the columns position by position, duration_steps
    # written as duration, so each record is written as it is
    net = line_network(4)
    adv = saturating_adversary(net, path("e1", "e2", "e3", "e4"), Fraction(1, 2), 4)
    _, records = run_interval(net, "FIFO", adv, max_steps=200, improvement_on=True)
    assert len(records) > 10
    buf = io.StringIO()
    write_phases_csv(records, buf)
    header, *rows = buf.getvalue().splitlines()
    columns = header.split(",")
    assert len(PhaseRecord._fields) == len(columns)
    for field, column in zip(PhaseRecord._fields, columns):
        assert field == column or (field, column) == ("duration_steps", "duration")
    assert rows == [",".join(map(str, rec)) for rec in records]
    assert all(rec.lemma1_bound == rec.n_i * rec.d_i for rec in records)


# ---- the peak queue, read from the step's own pass ------------------------------


def _peaks_against_reference(events, r, b, steps, improvement_on):
    """Per-step max_queue_len of a phased FIFO run on a 3-edge line, which the
    full-scan reference engine must give too."""
    import reference_engine as ref

    net = line_network(3)
    got, _ = run_interval(net, "FIFO", scripted_adversary(events, r, b, net), steps, improvement_on)
    want, _ = ref.run_interval(net, "FIFO", scripted_adversary(events, r, b, net), steps, improvement_on)
    peaks = [s.max_queue_len for s in got.steps]
    assert peaks == [s.max_queue_len for s in want.steps]
    return peaks


def test_peak_without_passthrough_sums_active_and_held_packets_of_one_edge():
    # phase 1 (3 packets on e1) runs from step 2; at step 2 two more wait in
    # e1's holding queue, so e1 holds 5 while neither of its queues holds more than 3
    events = [InjectionEvent(1, path("e1"))] * 3 + [InjectionEvent(2, path("e1"))] * 2
    peaks = _peaks_against_reference(events, Fraction(1, 2), 4, 20, improvement_on=False)
    assert peaks[:3] == [3, 5, 4]
    assert max(peaks) == 5


def test_peak_with_passthrough_on_an_idle_held_edge():
    # phase 1 (2 packets on e1) runs at steps 2-3; the 4 packets held on e3
    # are not demanded by it and send one by one in pass-through
    events = [InjectionEvent(1, path("e1"))] * 2 + [InjectionEvent(2, path("e3"))] * 4
    peaks = _peaks_against_reference(events, Fraction(1, 2), 4, 20, improvement_on=True)
    assert peaks[:4] == [2, 4, 3, 2]
    assert max(peaks) == 4


def test_peak_with_passthrough_on_a_demanded_held_edge_with_active_packets():
    # phase 1 (3 packets on e1) still needs e1, so the 2 packets held there
    # stay put and e1 holds 5; the one held packet on e3 passes through
    events = (
        [InjectionEvent(1, path("e1"))] * 3
        + [InjectionEvent(2, path("e1"))] * 2
        + [InjectionEvent(2, path("e3"))]
    )
    peaks = _peaks_against_reference(events, Fraction(1, 2), 4, 20, improvement_on=True)
    assert peaks[:3] == [3, 5, 4]
    assert max(peaks) == 5


# ---- one congestion/dilation count per phase start ------------------------------


@pytest.mark.parametrize("improvement_on", [False, True])
@pytest.mark.parametrize("max_steps", [25, 200])
def test_congestion_dilation_called_once_per_phase_start(monkeypatch, improvement_on, max_steps):
    # traced benchmark runs find phase starts by this call through the
    # interval_strategy module name, so it must stay one call per start.
    # Those runs pass a counting key, as here, which never skips a period.
    calls = []
    count = aqsim.interval_strategy.congestion_dilation

    def counted(paths):
        calls.append(len(paths))
        return count(paths)

    def counting_key(p):
        return DISCIPLINES["FIFO"](p)

    monkeypatch.setattr(aqsim.interval_strategy, "congestion_dilation", counted)
    net = line_network(4)
    adv = saturating_adversary(net, path("e1", "e2", "e3", "e4"), Fraction(1, 2), 4)
    trace, records = run_interval(net, counting_key, adv, max_steps, improvement_on)
    started = sorted({p.phase for p in trace.packets if p.phase is not None})
    assert len(started) >= 3
    assert started == list(range(1, len(started) + 1))
    assert len(calls) == len(started)
    # each call counts exactly the packets its phase adopted
    assert calls == [sum(p.phase == i for p in trace.packets) for i in started]


# ---- period skipping --------------------------------------------------------------


def test_saturating_source_declares_its_period():
    net = line_network(4)
    route = path("e1", "e2", "e3", "e4")
    assert saturating_adversary(net, route, Fraction(2, 6), 4).period == 3
    assert burst_adversary(net, [route], 1).period is None
    assert scripted_adversary([InjectionEvent(1, route)], Fraction(1, 2), 1, net).period is None


def test_long_periodic_run_skips_most_phase_starts(monkeypatch):
    # the bundled line_saturating geometry: phases of 6 steps from step 16 on,
    # so 30,000 steps hold about 5,000 phases; once a phase-start state
    # recurs the rest are copied, not computed
    calls = []
    count = aqsim.interval_strategy.congestion_dilation

    def counted(paths):
        calls.append(len(paths))
        return count(paths)

    monkeypatch.setattr(aqsim.interval_strategy, "congestion_dilation", counted)
    net = line_network(4)
    adv = saturating_adversary(net, path("e1", "e2", "e3", "e4"), Fraction(1, 2), 4)
    trace, records = run_interval(net, "FIFO", adv, 30_000)
    assert trace.last_step == 30_000
    assert len(records) > 4_900
    assert len(calls) < 20
    assert trace.recurrence == Recurrence(16, 6, 1)


def test_recurrence_found_without_whole_periods_to_skip():
    # the repeat at step 22 leaves 21 - 22 + 1 = 0 steps: no period is copied,
    # yet the recurrence is reported
    net = line_network(4)
    adv = saturating_adversary(net, path("e1", "e2", "e3", "e4"), Fraction(1, 2), 4)
    trace, records = run_interval(net, "FIFO", adv, 21)
    assert trace.recurrence == Recurrence(16, 6, 1)
    assert trace.last_step == 21


@pytest.mark.parametrize("discipline", ["FIFO", lambda p: p.arrived_in_queue_at])
def test_recurrence_needs_a_built_in_key_and_a_periodic_source(discipline):
    net = line_network(4)
    route = path("e1", "e2", "e3", "e4")
    adv = saturating_adversary(net, route, Fraction(1, 2), 4)
    trace, _ = run_interval(net, discipline, adv, 200)
    assert (trace.recurrence is not None) == (discipline == "FIFO")
    events = [InjectionEvent(t, route) for t in range(1, 200, 4)]
    trace, _ = run_interval(net, "FIFO", scripted_adversary(events, Fraction(1, 2), 1, net), 200)
    assert trace.recurrence is None
