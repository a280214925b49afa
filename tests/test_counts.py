"""Every count a caller passes is read by one rule, `network.as_count`: an
int >= 1 that is not a bool. Each site refuses anything else with a
ValueError, or its module's subclass, that quotes the value by `shown`."""

import time
from fractions import Fraction

import pytest

from aqsim.adversary import (
    AdversaryError,
    InjectionEvent,
    saturating_adversary,
    scripted_adversary,
    verify_admissible,
)
from aqsim.analysis import line_phase_time_bound
from aqsim.interval_strategy import run_interval
from aqsim.network import line_network, path, shown
from aqsim.sim_engine import run
from aqsim.static_routing import enumerate_instances, lemma1_bound


def _deep_list(levels=3_000):
    value = []
    for _ in range(levels):
        value = [value]
    return value


NET = line_network(2)
P = path("e1")
HALF = Fraction(1, 2)


def _idle():
    return scripted_adversary([], HALF, 1, NET)


# each site that reads a count, called with the value to read there
SITES = {
    "run": lambda v: run(NET, "FIFO", _idle(), v),
    "run_interval": lambda v: run_interval(NET, "FIFO", _idle(), v),
    "lemma1_bound-n": lambda v: lemma1_bound(v, 3),
    "lemma1_bound-d": lambda v: lemma1_bound(3, v),
    "enumerate_instances-packets": lambda v: enumerate_instances(v, 2),
    "enumerate_instances-edges": lambda v: enumerate_instances(2, v),
    "line_network": line_network,
    "verify_admissible-horizon": lambda v: verify_admissible([InjectionEvent(1, P)], HALF, 1, v),
    "verify_admissible-step": lambda v: verify_admissible(
        [InjectionEvent(1, P), InjectionEvent(v, P)], HALF, 2, 10
    ),
    "scripted_adversary-b": lambda v: scripted_adversary([InjectionEvent(1, P)], HALF, v, NET),
    "scripted_adversary-step": lambda v: scripted_adversary(
        [InjectionEvent(1, P), InjectionEvent(v, P)], HALF, 2, NET
    ),
    "saturating_adversary-b": lambda v: saturating_adversary(NET, P, HALF, v),
    "phase-index": lambda v: line_phase_time_bound(v, 0.5, 4, 4),
}

NON_COUNTS = {
    "0": 0, "-1": -1, "True": True, "2.5": 2.5, "str": "3", "None": None,
    "deep-list": _deep_list(),
}


@pytest.mark.parametrize("value", NON_COUNTS.values(), ids=NON_COUNTS)
@pytest.mark.parametrize("site", SITES.values(), ids=SITES)
def test_every_count_site_refuses_a_non_count(site, value):
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        site(value)
    assert time.perf_counter() - start < 0.25
    assert str(err.value).endswith(f"must be an integer >= 1, got {shown(value)}")


def test_a_script_step_between_integers_is_refused():
    # a step of 2.5 matches no step the engine runs, so it was never injected
    events = [InjectionEvent(1, P), InjectionEvent(2.5, P)]
    want = r"^events\[1\]\.time: must be an integer >= 1, got 2\.5$"
    with pytest.raises(AdversaryError, match=want):
        scripted_adversary(events, HALF, 2, NET)


class _Declared:
    """A duck-typed source of one packet that declares `period`."""

    def __init__(self, period):
        self.period = period

    def injections_for(self, step):
        return [P] if step == 1 else []

    def done_after(self, step):
        return step >= 1


@pytest.mark.parametrize("period", [0, "2", 2.5, -2, True], ids=repr)
@pytest.mark.parametrize("engine", [run, run_interval])
def test_a_declared_period_is_a_count(engine, period):
    # None declares no period; anything else must be a count before either
    # engine steps, or it failed deep in the loop, or was taken as given
    want = f"adversary.period: must be an integer >= 1, got {shown(period)}"
    with pytest.raises(AdversaryError) as err:
        engine(NET, "FIFO", _Declared(period), 10)
    assert str(err.value) == want
    ran = engine(NET, "FIFO", _Declared(None), 10)
    trace = ran[0] if engine is run_interval else ran
    assert trace.delivered_count == 1
