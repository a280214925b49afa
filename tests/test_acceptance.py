"""Acceptance suite: the nine end-to-end guarantees this package makes.

Each test prints one `[C#] PASS` line (run with `pytest -s` to see them);
a failing criterion fails its test. Timed criteria assert their budget.
"""

import filecmp
import random
import time
from fractions import Fraction

from aqsim import cli
from aqsim.adversary import (
    InjectionEvent,
    burst_adversary,
    saturating_adversary,
    scripted_adversary,
    verify_admissible,
)
from aqsim.analysis import (
    BOUNDED,
    CONVERGENT,
    DIVERGENT,
    classify_growth,
    line_delivery_bound,
    line_phase_time_bound,
    theorem_phase_packet_bound,
    theorem_phase_time_bound,
    tree_phase_time_bound,
)
from aqsim.interval_strategy import run_interval
from aqsim.network import line_network, path
from aqsim.scenario import load_scenario, make_adversary
from aqsim.static_routing import (
    SweepSummary,
    greedy_schedule,
    lemma1_bound,
    random_instance,
    run_sweep,
)
from aqsim.strategies import DISCIPLINES

REL = 1e-9


def close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


# ---- C1: phased runs on a line stay inside the closed-form bounds ---------------


def test_c1_line_phase_durations_within_bounds():
    r, b, d = Fraction(1, 2), 4, 4
    net = line_network(d)
    full = path(*[f"e{i}" for i in range(1, d + 1)])
    started = time.perf_counter()
    adv = saturating_adversary(net, full, r, b)
    trace, records = run_interval(net, "FIFO", adv, max_steps=5000, max_phases=20)
    elapsed = time.perf_counter() - started

    phases = [rec for rec in records if rec.phase_index >= 1]
    assert len(phases) == 20
    for rec in phases:
        bound = line_phase_time_bound(rec.phase_index, float(r), b, d)
        assert rec.duration_steps <= bound, (
            f"phase {rec.phase_index} took {rec.duration_steps} > {bound}")

    delivery_cap = line_delivery_bound(float(r), d)
    worst = max(p.system_time for p in trace.packets if p.delivered_at is not None)
    assert worst <= delivery_cap
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"
    print(f"\n[C1] PASS - 20 phases within per-phase bounds, worst system time "
          f"{worst} <= {delivery_cap:g}, {elapsed:.3f}s")


# ---- C2: no greedy discipline ever beats the n*d ceiling --------------------------


def test_c2_greedy_always_within_lemma_bound():
    rng = random.Random(20240801)
    started = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        inst = random_instance(rng, 4, 4)
        cap = lemma1_bound(inst.n, inst.d)
        for name in DISCIPLINES:
            makespan = greedy_schedule(inst, name)
            assert makespan <= cap, (
                f"{name} needed {makespan} > n*d = {cap} on {inst.paths}")
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"
    print(f"\n[C2] PASS - {checked} greedy runs all within n*d, {elapsed:.1f}s")


# ---- C3: exhaustive small-instance sweep against the brute-force optimum ----------


def test_c3_sweep_is_sound_and_complete():
    started = time.perf_counter()
    summary = SweepSummary()
    rows = list(summary.tally(run_sweep(4, 4)))
    elapsed = time.perf_counter() - started

    assert len(rows) == 3967
    for row in rows:
        assert row.optimal is not None, f"instance {row.instance_id} blew the cap"
        assert row.optimal <= row.greedy_fifo <= row.lemma1_bound
        assert row.optimal >= max(row.n, row.d)
    assert str(summary) == "no instance exceeded n+d (3967 instances checked)"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 5min"
    print(f"\n[C3] PASS - {summary}, {elapsed:.1f}s")


# ---- C4: closed forms equal their defining recurrences ------------------------------


def test_c4_closed_forms_match_recurrences():
    rng = random.Random(77)
    for _ in range(1000):
        r = rng.uniform(0.05, 0.95)
        b = rng.randint(1, 32)
        d = rng.randint(1, 32)
        c1 = rng.uniform(0.0, 1.0)
        c2 = rng.uniform(0.0, 8.0)
        c3 = rng.uniform(0.0, 8.0)

        t_line = b + d
        t_thm = c1 * b + c2 * d + c3
        p_thm = float(b)
        for i in range(1, 101):
            assert close(line_phase_time_bound(i, r, b, d), t_line)
            t = theorem_phase_time_bound(i, r, b, d, c1, c2, c3)
            p = theorem_phase_packet_bound(i, r, b, d, c1, c2, c3)
            assert close(t, t_thm)
            assert close(p, p_thm)
            assert close(t, c1 * p + c2 * d + c3)  # time is affine in load
            t_line = r * t_line + d
            t_thm = c1 * r * t_thm + c2 * d + c3
            p_thm = r * (c1 * p_thm + c2 * d + c3)
    print("\n[C4] PASS - 1000 parameter tuples, i <= 100, relative error <= 1e-9")


# ---- C5: tree-bound growth labels follow the sign of r*d - 1 -------------------------


def test_c5_tree_trichotomy_on_parameter_grid():
    agree = 0
    points = 0
    for r in [k / 10 for k in range(1, 10)]:
        for d in range(2, 11):
            for b in (1, 4, 16):
                points += 1
                series = [tree_phase_time_bound(i, r, b, d) for i in range(1, 31)]
                label = classify_growth(series).label
                if r * d > 1:
                    expected = DIVERGENT
                elif r * d < 1:
                    expected = CONVERGENT
                else:
                    expected = BOUNDED
                assert label == expected, f"(r={r}, d={d}, b={b}): {label} != {expected}"
                agree += 1
    assert points == 243
    print(f"\n[C5] PASS - {agree}/{points} grid points labeled by sign(r*d - 1)")


# ---- C6: generators are admissible; violations carry exact minimal witnesses ----------


def test_c6_admissibility_oracle_and_witnesses():
    rng = random.Random(4242)
    net = line_network(4)

    for _ in range(100):
        r = Fraction(rng.randint(1, 19), 20)
        b = rng.randint(1, 8)
        i = rng.randint(1, 4)
        j = rng.randint(i, 4)
        p = path(*[f"e{k}" for k in range(i, j + 1)])
        adv = saturating_adversary(net, p, r, b)
        assert verify_admissible(adv.events(1000), r, b, 1000).ok, (r, b, p.edges)

    for _ in range(100):
        inst = random_instance(rng, 4, 4)
        adv = burst_adversary(inst.network, inst.paths, b=inst.n)
        r = Fraction(rng.randint(1, 19), 20)
        assert verify_admissible(adv.events(1), r, inst.n, 10).ok

    # a known-bad script yields the smallest, earliest violating window
    res = verify_admissible(
        [InjectionEvent(t, path("e1")) for t in (1, 2, 3)], Fraction(1, 2), 1, 10)
    assert not res.ok
    v = res.violation
    assert (v.edge, v.start, v.end, v.count, v.allowed) == ("e1", 1, 3, 3, 2)
    print("\n[C6] PASS - 200 generator draws admissible; witness (e1, [1,3], 3, 2) exact")


# ---- C7: scenario runs are byte-for-byte reproducible ----------------------------------


def test_c7_scenario_runs_are_deterministic(tmp_path, scenario_dir, capsys):
    cases = [
        ("line_saturating.yaml", []),
        # long enough that most of the run is copied whole periods
        ("line_saturating.yaml", ["--max-steps", "30000"]),
        ("burst_fifo.yaml", []),
        ("improvement_tail.yaml", []),
        ("improvement_tail.yaml", ["--improvement", "on"]),
    ]
    compared = 0
    for idx, (name, extra) in enumerate(cases):
        out_a = tmp_path / f"a{idx}"
        out_b = tmp_path / f"b{idx}"
        for out in (out_a, out_b):
            rc = cli.main(["run", str(scenario_dir / name), *extra, "--out", str(out)])
            assert rc == 0
        files_a = sorted(f.name for f in out_a.iterdir())
        files_b = sorted(f.name for f in out_b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert filecmp.cmp(out_a / fname, out_b / fname, shallow=False), fname
            compared += 1
    capsys.readouterr()  # swallow the CLI chatter
    print(f"\n[C7] PASS - {compared} CSV files byte-identical across repeat runs")


# ---- C8: the pass-through improvement helps the tail without touching phases ----------


def test_c8_improvement_speeds_tail_and_preserves_phases(scenario_dir):
    sc = load_scenario(str(scenario_dir / "improvement_tail.yaml"))

    def run_mode(flag):
        return run_interval(sc.network, sc.discipline, make_adversary(sc),
                            max_steps=sc.max_steps, improvement_on=flag)

    trace_off, rec_off = run_mode(False)
    trace_on, rec_on = run_mode(True)

    assert [r.duration_steps for r in rec_off] == [r.duration_steps for r in rec_on]
    # (phase packet counts may differ: a passed-through packet never joins a phase)

    tail_off = next(p for p in trace_off.packets if p.path == ("f",))
    tail_on = next(p for p in trace_on.packets if p.path == ("f",))
    assert tail_on.system_time < tail_off.system_time
    assert (tail_off.system_time, tail_on.system_time) == (8, 1)

    for p_off, p_on in zip(trace_off.packets, trace_on.packets):
        if p_off.path != ("f",):
            assert p_off.phase == p_on.phase
    print("\n[C8] PASS - identical phase durations; tail system time 8 -> 1")


# ---- C9: phase zero is empty and step-1 injections land in phase one -------------------


def test_c9_startup_rule_across_runs(scenario_dir):
    runs = []

    sc = load_scenario(str(scenario_dir / "line_saturating.yaml"))
    runs.append(run_interval(sc.network, sc.discipline, make_adversary(sc),
                             max_steps=sc.max_steps))

    sc2 = load_scenario(str(scenario_dir / "improvement_tail.yaml"))
    for flag in (False, True):
        runs.append(run_interval(sc2.network, sc2.discipline, make_adversary(sc2),
                                 max_steps=sc2.max_steps, improvement_on=flag))

    net = line_network(2)
    runs.append(run_interval(
        net, "FIFO",
        scripted_adversary([], Fraction(1, 2), 1, net), max_steps=20))
    runs.append(run_interval(
        net, "FIFO",
        scripted_adversary([InjectionEvent(5, path("e1", "e2"))], Fraction(1, 2), 1, net),
        max_steps=20))

    for trace, records in runs:
        first = records[0]
        assert (first.phase_index, first.packet_count, first.duration_steps) == (0, 0, 0)
        for p in trace.packets:
            if p.injected_at == 1:
                assert p.phase == 1 or (p.phase is None and p.delivered_at is not None)
    print(f"\n[C9] PASS - startup rule held on {len(runs)} interval runs")
