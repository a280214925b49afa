"""Checks of the benchmark's own input generators and output gate.

    python3 -m pytest perfbench -q
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from aqsim.adversary import verify_admissible  # noqa: E402

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

PREFIX = 60


def tree_adversary(seed):
    parents = W.random_tree(seed)
    return parents, W.TreeAdversary(W.leaf_paths(parents, seed), W.TREE_LAST_INJECTION)


def test_tree_adversary_is_admissible_on_a_prefix():
    for seed in (0, 1, 2):
        _, adv = tree_adversary(seed)
        events = adv.events(PREFIX)
        assert len(events) == PREFIX // 2
        assert verify_admissible(events, adv.r, adv.b, PREFIX).ok, seed


def test_seeds_change_the_tree_but_not_the_traffic_shape():
    (pa, a), (pb, b) = tree_adversary(0), tree_adversary(1)
    assert pa != pb
    assert len(pa) == len(pb) == W.TREE_LEVELS * W.TREE_WIDTH
    ea, eb = a.events(W.TREE_LAST_INJECTION), b.events(W.TREE_LAST_INJECTION)
    assert [ev.time for ev in ea] == [ev.time for ev in eb]
    assert [ev.path for ev in ea] != [ev.path for ev in eb]
    assert {len(ev.path) for ev in ea} == {len(ev.path) for ev in eb} == {W.TREE_LEVELS}
    assert a.done_after(W.TREE_LAST_INJECTION) and not a.done_after(W.TREE_LAST_INJECTION - 1)


def test_generated_scripts_and_witnesses_match_the_oracle():
    r, b, horizon = W.ORACLE_R, W.ORACLE_B, 200
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        script = W.admissible_script(rng, 6, horizon, r, b)
        assert verify_admissible(W.to_events(script), r, b, horizon).ok
        broken, witness = W.break_script(rng, script, horizon, r, b)
        res = verify_admissible(W.to_events(broken), r, b, horizon)
        v = res.violation
        assert not res.ok and (v.edge, v.start, v.end, v.count, v.allowed) == witness
    sparse = W.sparse_script(random.Random(0), W.ORACLE_SPARSE_HORIZON)
    assert verify_admissible(W.to_events(sparse), r, 1, W.ORACLE_SPARSE_HORIZON).ok


def test_gate_fails_the_op_whose_output_changed():
    rnd = W.Round()
    rnd.output("plain.trace", "step\n1\n")
    expected = {"outputs": {"plain.trace": W.digest("step\n2\n")}, "counts": {"steps": 5}}
    run.compare(rnd, "golden", expected, rnd.outputs, {"steps": 4})
    assert rnd.failed_ops == {"plain.trace", "count.steps"}


def test_traced_round_without_calls_reports_every_expected_span():
    missing = tracing.missing_spans("oracles_cli", [], [])
    assert set(tracing.EXPECTED_SPANS["oracles_cli"]) <= set(missing)
    assert "strategies key evaluations" in missing
    assert "interval_strategy pass-through deliveries" in missing


def test_clock_scales_each_stretch_by_the_reference_speed_there():
    clk = clock.Clock()
    ref = clock.REFERENCE_S["mixed"]
    clk.at, clk.ref["mixed"] = [0.0, 1.0, 3.0], [ref, 2 * ref, 2 * ref]
    clk.ref["slices"] = [clock.REFERENCE_S["slices"]] * 3
    assert abs(clk.calibrated(1.0, 3.0) - 1.0) < 1e-12  # host at half speed throughout
    assert abs(clk.calibrated(3.0, 5.0) - 1.0) < 1e-12  # past the last mark: its speed
    # from full to half speed: the mean of the two marks' reference times
    assert abs(clk.calibrated(0.0, 1.0) - 2 / 3) < 1e-12
    clk.switch_at += [1.0, 2.0]  # the stretch from 1 to 2 is an oracle call
    clk.switch_kind += ["slices", "mixed"]
    assert abs(clk.calibrated(1.0, 3.0) - 1.5) < 1e-12  # 1 s at full slices speed


def test_round_sections_exclude_the_time_spent_in_marks():
    rnd = W.Round()
    with rnd.section("outer"):
        rnd.clock.mark(force=True)  # runs every reference part REPEATS times
        with rnd.section("inner"):
            pass
    rnd.finish()
    assert len(rnd.clock.at) >= 2
    assert rnd.raw["outer"] < clock.REFERENCE_S["slices"]  # the marks' reference loops are cut out
    assert set(rnd.t) == {"outer", "inner"}
