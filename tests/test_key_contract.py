"""The discipline key contract: both engines evaluate the key once per queued
packet of each sending queue per step, exactly as the frozen full-scan
reference in `reference_engine.py` does, and ties break toward the smallest
packet id whatever the queue order."""

import random
from fractions import Fraction

import pytest

import reference_engine as ref
from aqsim.adversary import scripted_adversary
from aqsim.interval_strategy import run_interval
from aqsim.sim_engine import advance, run
from aqsim.strategies import DISCIPLINES, Packet, get_discipline, select
from test_engine_differential import admissible_events, random_network


class CountingKey:
    def __init__(self, discipline):
        self.key = get_discipline(discipline)
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return self.key(p)


def _calls(engine, net, events, r, b, name, mode):
    plain, phased = engine
    key = CountingKey(name)
    adversary = scripted_adversary(events, r, b, net)
    if mode == "plain":
        trace = plain(net, key, adversary, 400)
    else:
        trace, _ = phased(net, key, adversary, 400, mode == "passthrough")
    return key.calls, sum(p.hops_done for p in trace.packets)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", ["plain", "interval", "passthrough"])
def test_key_evaluations_match_the_reference_engine(seed, mode):
    rng = random.Random(seed)
    net, routes = random_network(rng)
    r, b = Fraction(2, 3), 3
    events = admissible_events(rng, routes, 40, r, b)
    assert len(events) > 20
    for name in sorted(DISCIPLINES):
        got, hops = _calls((run, run_interval), net, events, r, b, name, mode)
        want, _ = _calls((ref.run, ref.run_interval), net, events, r, b, name, mode)
        assert got == want, name
        if mode != "passthrough":  # pass-through hops evaluate no key
            assert got > hops, name  # some sender held more than one packet


def _packet(pid, arrived):
    return Packet(
        id=pid, path=("e1", "e2"), injected_at=1, arrived_in_queue_at=arrived, route=(0, 1)
    )


def test_tie_against_queue_order_goes_to_smallest_id():
    # equal keys, queue order opposite to id order
    assert select("FIFO", [_packet(2, 1), _packet(1, 1)]).id == 1
    # only the packets sharing the least key compete on id
    assert select("FIFO", [_packet(3, 1), _packet(2, 1), _packet(1, 5)]).id == 2

    key = CountingKey("FIFO")
    queues = [[_packet(2, 1), _packet(1, 1)], []]
    busy = {0}
    moved, delivered, _ = advance(queues, busy, [0], key, 1)
    assert [p.id for p in moved] == [1]
    assert delivered == 0 and key.calls == 2
    assert [p.id for p in queues[0]] == [2] and [p.id for p in queues[1]] == [1]
    assert busy == {0, 1}


def test_singleton_queue_still_evaluates_the_key():
    key = CountingKey("FIFO")
    queues = [[_packet(1, 1)], []]
    busy = {0}
    moved, _, _ = advance(queues, busy, [0], key, 1)
    assert [p.id for p in moved] == [1] and key.calls == 1
    assert queues == [[], [moved[0]]] and busy == {1}
