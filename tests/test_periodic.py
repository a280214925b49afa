"""`Periodic` sequences: a run that skips periods stores its stepped part and
one period, reads like the lists a stepping run returns, and summarises and
writes itself without building a copy."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from aqsim import interval_strategy, sim_engine
from aqsim.adversary import saturating_adversary
from aqsim.csvio import period_lines, write_rows
from aqsim.interval_strategy import run_interval, write_phases_csv
from aqsim.network import path
from aqsim.periodic import Periodic
from aqsim.scenario import load_scenario, make_adversary
from aqsim.sim_engine import Recurrence, run, write_packets_csv, write_trace_csv
from aqsim.strategies import DISCIPLINES
from test_engine_differential import random_network


def _rows(k: int) -> list[tuple]:
    # one period of rows moved on k periods of 3 steps and 2 ids; the last
    # row's empty fields never move
    return [(10 + 3 * k, 1, 7 + 2 * k), (11 + 3 * k, 2, 8 + 2 * k), (12 + 3 * k, "", "")]


def _periodic(periods: int) -> tuple[Periodic, list]:
    head = [(1, 0, 1), (2, 0, 2)] + _rows(0)
    tail = [(99, 1, 1)]
    view = Periodic(list(head), 3, periods, _rows, list(tail))
    return view, head + [r for k in range(1, periods + 1) for r in _rows(k)] + tail


@pytest.mark.parametrize("periods", [0, 1, 4])
def test_periodic_reads_as_the_list_of_its_items(periods):
    view, items = _periodic(periods)
    assert len(view) == len(items)
    assert view == items and items == view and not view != items
    assert view == _periodic(periods)[0] and view != items[:-1] and view != tuple(items)
    assert list(view) == list(view) == items  # iterates twice
    for i in range(-len(items), len(items)):
        assert view[i] == items[i]
        item, k = view.origin(i)
        assert (item if k == 0 else _rows(k)[view.template.index(item)]) == items[i]
    for bad in (len(items), -len(items) - 1):
        with pytest.raises(IndexError):
            view[bad]
    for cut in (slice(None), slice(None, None, -1), slice(1, -1, 2), slice(-3, None)):
        assert view[cut] == items[cut]
    assert view[5:1:-3] == items[5:1:-3]
    assert view.template == items[2:5]
    assert view.total(lambda r: r[1] == "") == sum(r[1] == "" for r in items)
    assert max(r[0] for r in view.stored()) == max(r[0] for r in items)


def test_periodic_builds_its_copies_once_and_keeps_them():
    calls = []
    view = Periodic([(1,), (2,)], 1, 3, lambda k: calls.append(k) or [(2 + k,)])
    assert len(view) == 5 and view.total(len) == 5 and view.origin(4) == ((2,), 3)
    assert calls == []
    assert view[-1] == (5,) and view[2] is view[2]
    assert list(view) == [(1,), (2,), (3,), (4,), (5,)]
    assert calls == [1, 2, 3]


@pytest.mark.parametrize("periods", [0, 1, 5])
def test_period_lines_write_what_csv_writes_of_the_moved_rows(periods):
    view, items = _periodic(periods)
    want = io.StringIO()
    write_rows(want, items[5 : 5 + 3 * periods])
    got = "".join(period_lines(view.template, periods, (3, 0, 2)))
    assert got == want.getvalue()
    assert "".join(period_lines([(1, 2)], periods, (0, 0))) == "1,2\n" * periods
    assert list(period_lines([], periods, (3,))) == []


# ---- the engines' views against the lists a stepping run returns ------------------


def _csvs(trace, records):
    texts = []
    writers = [(write_trace_csv, trace), (write_packets_csv, trace)]
    if records is not None:
        writers.append((write_phases_csv, records))
    for writer, data in writers:
        buf = io.StringIO()
        writer(data, buf)
        texts.append(buf.getvalue())
    return texts


def _summaries(trace, records):
    return (
        len(trace.steps), len(trace.packets), trace.last_step, trace.truncated,
        trace.max_system_time, trace.max_queue_len, trace.delivered_count,
        None if records is None else len(records),
    )


@contextlib.contextmanager
def _copies_built():
    """Counts the step rows, packets and phase records built by a copy."""
    built = {"steps": 0, "packets": 0, "records": 0}

    def counted(name, make):
        def wrapper(*args):
            built[name] += 1
            return make(*args)
        return wrapper

    with (
        mock.patch.object(sim_engine, "step_stats", counted("steps", sim_engine.step_stats)),
        mock.patch.object(sim_engine, "_shifted", counted("packets", sim_engine._shifted)),
        mock.patch.object(
            interval_strategy, "PhaseRecord", counted("records", interval_strategy.PhaseRecord)
        ),
    ):
        yield built


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(sorted(DISCIPLINES)),
    mode=st.sampled_from(("plain", "off", "on")),
    r=st.sampled_from(sorted({Fraction(p, q) for q in range(2, 8) for p in range(1, q)})),
    b=st.integers(1, 5),
    max_steps=st.integers(1, 3000),
    max_phases=st.one_of(st.none(), st.integers(1, 200)),
    picks=st.lists(st.integers(), min_size=3, max_size=3),
)
def test_views_equal_the_lists_of_a_stepping_run(
    seed, name, mode, r, b, max_steps, max_phases, picks
):
    # the same key behind a wrapper is not known to be shift-invariant, so
    # that run steps through every period and returns only stepped lists
    rng = random.Random(seed)
    net, routes = random_network(rng)
    route = path(*rng.choice(routes))
    builtin = DISCIPLINES[name]

    def go(key):
        source = saturating_adversary(net, route, r, b)
        if mode == "plain":
            return run(net, key, source, max_steps), None
        return run_interval(net, key, source, max_steps, mode == "on", max_phases)

    got, got_rec = go(name)
    want, want_rec = go(lambda pkt: builtin(pkt))
    assert want.recurrence is None
    views = [got.steps, got.packets] + ([] if got_rec is None else [got_rec])
    with _copies_built() as built:
        summaries, texts = _summaries(got, got_rec), _csvs(got, got_rec)
    assert built == {"steps": 0, "packets": 0, "records": 0}
    assert summaries == _summaries(want, want_rec)
    assert texts == _csvs(want, want_rec)

    with _copies_built() as built:
        for view, items in zip(views, [want.steps, want.packets, want_rec]):
            items = list(items)
            assert view == items and len(view) == len(items)
            assert list(view) == list(view) == items
            if items:
                for pick in picks:
                    i = -1 - pick % len(items)
                    assert view[i] == items[i]
                    assert view[i::pick % 5 + 1] == items[i::pick % 5 + 1]
                    assert view[i::-(pick % 3 + 1)] == items[i::-(pick % 3 + 1)]
    # every copy was built by the first pass over its view, and kept
    copied = [view.periods * view.size for view in views]
    assert list(built.values()) == copied + [0] * (3 - len(copied))


# ---- long runs ---------------------------------------------------------------------


def test_max_steps_past_sys_maxsize_is_refused_by_both_engines(scenario_dir):
    # len() of a longer view would raise OverflowError
    sc = load_scenario(str(scenario_dir / "line_saturating.yaml"))
    too_long = sys.maxsize + 1
    for engine in (run, run_interval):
        with pytest.raises(ValueError) as err:
            engine(sc.network, "FIFO", make_adversary(sc), too_long)
        assert str(err.value) == f"max_steps must be at most {sys.maxsize}, got {too_long}"
    trace, records = run_interval(sc.network, "FIFO", make_adversary(sc), sys.maxsize)
    assert (trace.last_step, len(trace.packets)) == (sys.maxsize, sc.b + sys.maxsize // 2)
    last, periods = records.origin(-1)  # read from the template, no copy built
    assert last.phase_index + periods * records.size == len(records) - 1


_LONG_RUN = """
import json, sys, time
from aqsim import run, run_interval
from aqsim.scenario import load_scenario, make_adversary

sc = load_scenario(sys.argv[1])
out = {}
for kind in ("plain", "phased"):
    started = time.perf_counter()
    if kind == "plain":
        trace, records = run(sc.network, sc.discipline, make_adversary(sc), 10**9), None
    else:
        trace, records = run_interval(sc.network, sc.discipline, make_adversary(sc), 10**9)
    out[kind] = {
        "wall_s": time.perf_counter() - started,
        "packets": len(trace.packets),
        "last_step": trace.last_step,
        "truncated": trace.truncated,
        "recurrence": trace.recurrence,
        "max_system_time": trace.max_system_time,
        "max_queue_len": trace.max_queue_len,
        "delivered": trace.delivered_count,
        "records": None if records is None else len(records),
    }
# VmHWM is this process's own peak: ru_maxrss also counts the parent's RSS at
# the fork, which a large test process would dominate
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
out["peak_rss_mb"] = peak_kb / 1024
print(json.dumps(out))
"""


def _stepped(sc, kind, max_steps):
    """The run of `kind` on the scenario, stepped through every step."""
    fifo = DISCIPLINES["FIFO"]
    if kind == "plain":
        return run(sc.network, lambda p: fifo(p), make_adversary(sc), max_steps), None
    return run_interval(sc.network, lambda p: fifo(p), make_adversary(sc), max_steps)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_a_billion_step_run_returns_small_and_its_summaries_follow_one_period(scenario_dir):
    # 10**9 steps of line_saturating.yaml's network and source, plain and
    # phased, in a child process whose peak RSS is its own
    yaml_path = str(scenario_dir / "line_saturating.yaml")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sim_engine.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_LONG_RUN), yaml_path],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["peak_rss_mb"] < 50, out
    sc = load_scenario(yaml_path)
    steps = 10**9
    for kind, recurrence in (("plain", Recurrence(16, 2, 0)), ("phased", Recurrence(16, 6, 1))):
        got = out[kind]
        assert got["wall_s"] < 5, got
        assert got["packets"] == sc.b + sc.r.numerator * steps // sc.r.denominator
        assert (got["last_step"], got["truncated"]) == (steps, True)
        assert Recurrence(*got["recurrence"]) == recurrence
        short, _ = _stepped(sc, kind, 30_000)
        assert (got["max_system_time"], got["max_queue_len"]) == (
            short.max_system_time, short.max_queue_len
        )
        # from the recurrence on, each period of P steps delivers as many
        # packets and closes as many phases: extrapolate from the last period
        # of stepped runs that end on the same step modulo P
        s0, period, _ = recurrence
        end = s0 + 2 * period + (steps - s0) % period
        (before, before_rec), (after, after_rec) = (
            _stepped(sc, kind, end - period), _stepped(sc, kind, end)
        )
        periods = (steps - end) // period
        per_period = after.delivered_count - before.delivered_count
        assert got["delivered"] == after.delivered_count + periods * per_period
        if after_rec is not None:
            per_period = len(after_rec) - len(before_rec)
            assert got["records"] == len(after_rec) + periods * per_period
