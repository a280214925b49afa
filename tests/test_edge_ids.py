"""Edge ids that are not strings, against the frozen reference engine.

The engines move packets by routes, each path resolved once to queue indices
in a per-run cache keyed by the path's edge tuple. An edge id may be an int,
or a tuple that equals some path: below, the edge ("a", 1) sits next to the
two-edge path ("a", 1). Both engines, with pass-through on and off, and the
greedy static runner must still agree with `reference_engine.py`, which
queues by edge id."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import reference_engine as ref
from crossings import recorded_moves
from aqsim.adversary import burst_adversary
from aqsim.network import build_network, path
from aqsim.static_routing import greedy_schedule, make_instance
from aqsim.strategies import DISCIPLINES
from test_engine_differential import KEYS, admissible_events, check_same


def int_line():
    """A line of 5 edges with int ids 50, 40, ..., 10, declared out of order,
    and all its subpaths."""
    ids = [50, 40, 30, 20, 10]
    edges = [(k, k + 1, ids[k]) for k in range(5)]
    random.Random(1).shuffle(edges)
    routes = [tuple(ids[i : j + 1]) for i in range(5) for j in range(i, 5)]
    return build_network(range(6), edges), routes


def tuple_tree():
    """An in-tree whose edge ("a", 1) equals the path over edges "a" and 1,
    with every rootward run as a route."""
    edges = [(3, 2, ("a", 1)), (1, 2, "a"), (2, 0, 1), (4, 3, 0), (5, 3, ("b",))]
    routes = [
        ("a",), ("a", 1), (1,), (("a", 1),), (("a", 1), 1), (0,), (0, ("a", 1)),
        (0, ("a", 1), 1), (("b",),), (("b",), ("a", 1)), (("b",), ("a", 1), 1),
    ]
    return build_network(range(6), edges), routes


NETWORKS = {"int": int_line, "tuple": tuple_tree}


def test_a_path_equals_an_edge_id():
    net, routes = tuple_tree()
    assert ("a", 1) in routes and ("a", 1) in net.edge_index


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", ["plain", "interval", "passthrough"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_engines_match_the_reference(name, mode, seed):
    net, routes = NETWORKS[name]()
    r, b = Fraction(2, 3), 2
    events = admissible_events(random.Random(seed), routes, 30, r, b)
    assert events
    for key in KEYS:
        check_same(net, events, r, b, key, mode, 200)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_greedy_schedule_matches_the_reference(name):
    net, routes = NETWORKS[name]()
    for combo in combinations_with_replacement(routes, 3):
        inst = make_instance(net, [path(*route) for route in combo])
        bound = inst.n * inst.d
        for discipline in DISCIPLINES:
            with recorded_moves() as moves:
                makespan = greedy_schedule(inst, discipline)
            adversary = burst_adversary(net, inst.paths, b=inst.n)
            want = ref.run(net, discipline, adversary, bound, record_moves=True)
            assert makespan == want.last_step
            assert moves == want.moves
