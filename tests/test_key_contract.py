"""The discipline key contract: both engines evaluate a custom key once per
queued packet of each sending queue per step, a lone packet included, exactly
as the frozen full-scan reference in `reference_engine.py` does, so a counting
key sees every call. A built-in key is not evaluated for a lone packet: it
only reads the packet's fields, so the call could change nothing. Ties break
toward the smallest packet id whatever the queue order."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

import reference_engine as ref
from aqsim.adversary import saturating_adversary, scripted_adversary
from aqsim.interval_strategy import run_interval
from aqsim.network import path
from aqsim.sim_engine import advance, run
from aqsim.static_routing import greedy_schedule, random_instance
from aqsim.strategies import DISCIPLINES, Packet, get_discipline, is_builtin, select
from test_engine_differential import admissible_events, outcome, phases, random_network


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
    moved, delivered, _ = advance(queues, busy, [0], key, True, 1)
    assert [p.id for p in moved] == [1]
    assert delivered == 0 and key.calls == 2
    assert [p.id for p in queues[0]] == [2] and [p.id for p in queues[1]] == [1]
    assert busy == {0, 1}


def test_singleton_queue_still_evaluates_the_key():
    key = CountingKey("FIFO")
    queues = [[_packet(1, 1)], []]
    busy = {0}
    moved, _, _ = advance(queues, busy, [0], key, True, 1)
    assert [p.id for p in moved] == [1] and key.calls == 1
    assert queues == [[], [moved[0]]] and busy == {1}


def _lone_packet_without_a_path():
    # NTG reads len(path), which a path of None cannot answer
    packet = Packet(id=1, path=None, injected_at=1, arrived_in_queue_at=1, route=(0, 1))
    return [[packet], []], {0}


def test_builtin_key_is_not_evaluated_for_a_lone_packet():
    ntg = DISCIPLINES["NTG"]
    queues, busy = _lone_packet_without_a_path()
    moved, delivered, longest = advance(queues, busy, [0], ntg, False, 1)
    assert [p.id for p in moved] == [1] and (delivered, longest) == (0, 1)
    assert queues == [[], moved] and busy == {1}
    # the same key behind a wrapper is custom, so it is evaluated and fails
    queues, busy = _lone_packet_without_a_path()
    with pytest.raises(TypeError):
        advance(queues, busy, [0], lambda p: ntg(p), True, 1)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
@pytest.mark.parametrize(
    "fields",
    [((1, 1, 0), (1, 1, 0)), ((1, 2, 0), (2, 1, 1)), ((2, 1, 1), (1, 2, 0))],
    ids=["tie", "first-least", "second-least"],
)
def test_builtin_key_picks_by_key_then_id_among_two(name, fields):
    # (injected_at, arrived_in_queue_at, hops_done) per packet, queue order
    # opposite to id order, so a tie must go to the later-queued packet
    queue = [
        Packet(id=pid, path=("e1", "e2", "e3"), injected_at=inj, hops_done=hops,
               arrived_in_queue_at=arr, route=((1,) * hops + (0, 1, 1))[:3])
        for pid, (inj, arr, hops) in zip((2, 1), fields)
    ]
    key = DISCIPLINES[name]
    want = min(queue, key=lambda p: (key(p), p.id))
    queues, busy = [list(queue), []], {0}
    moved, _, longest = advance(queues, busy, [0], key, False, 5)
    assert moved == [want] and longest == 2
    assert queues[0] == [p for p in queue if p is not want] and 0 in busy


@dataclass
class UnhashableKey:
    """A callable dataclass with the default `eq=True`, which sets
    `__hash__` to None: a custom key that cannot be put in a set."""

    name: str

    def __call__(self, p):
        return DISCIPLINES[self.name](p)


@pytest.mark.parametrize("seed", range(4))
def test_unhashable_key_gives_the_builtin_outputs(seed):
    rng = random.Random(seed)
    net, routes = random_network(rng)
    r, b = Fraction(2, 3), 3
    events = admissible_events(rng, routes, 30, r, b)
    route = path(*rng.choice(routes))
    sources = (
        lambda: scripted_adversary(events, r, b, net),
        lambda: saturating_adversary(net, route, r, b),  # periodic: asks whether it may skip
    )
    for name in sorted(DISCIPLINES):
        key = UnhashableKey(name)
        with pytest.raises(TypeError):
            hash(key)
        assert not is_builtin(key) and is_builtin(DISCIPLINES[name])
        for source in sources:
            assert outcome(run(net, key, source(), 300)) == outcome(run(net, name, source(), 300))
            got, got_rec = run_interval(net, key, source(), 300, True)
            want, want_rec = run_interval(net, name, source(), 300, True)
            assert outcome(got) == outcome(want) and phases(got_rec) == phases(want_rec)
        for _ in range(20):
            instance = random_instance(rng, 4, 4)
            assert greedy_schedule(instance, key) == greedy_schedule(instance, name)
