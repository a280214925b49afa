import functools
import io
import random
from itertools import permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import aqsim.static_routing as static_routing
from crossings import check_schedule, recorded_moves
from aqsim.adversary import burst_adversary
from aqsim.network import (
    NetworkError,
    PacketPath,
    build_network,
    congestion_dilation,
    in_tree_network,
    line_network,
    path,
)
from aqsim.static_routing import (
    SweepRow,
    SweepSummary,
    bruteforce_optimal_makespan,
    count_instances,
    enumerate_instances,
    greedy_schedule,
    lemma1_bound,
    line_paths,
    make_instance,
    random_instance,
    relabel,
    run_sweep,
    sweep_rows,
    tree_paths,
    tree_shapes,
    write_sweep_csv,
)
from aqsim.sim_engine import EngineInvariantError, run
from aqsim.strategies import DISCIPLINES

# ---- instances ----------------------------------------------------------------


def test_make_instance_computes_n_and_d():
    net = line_network(2)
    inst = make_instance(net, [path("e1"), path("e1", "e2"), path("e1")])
    assert inst.n == 3
    assert inst.d == 2


def test_make_instance_rejects_bad_input():
    net = line_network(2)
    with pytest.raises(NetworkError):
        make_instance(net, [])
    with pytest.raises(NetworkError):
        make_instance(net, [path("e2", "e1")])


# ---- schedules: the feasibility checker in tests/crossings.py -------------------

DEMO_PATHS = [path("e1", "e2"), path("e1")]


def test_empty_schedule_is_feasible_but_incomplete():
    assert check_schedule(DEMO_PATHS, (), complete=False) == [[], []]
    with pytest.raises(AssertionError, match="crosses 0 of its 2 edges"):
        check_schedule(DEMO_PATHS, ())


def test_complete_schedule_roundtrip():
    moves = ((1, "e1", 1), (2, "e2", 1), (2, "e1", 2))
    assert check_schedule(DEMO_PATHS, moves) == [[1, 2], [2]]


def test_check_schedule_rejects_edge_collision():
    with pytest.raises(AssertionError, match="two packets"):
        check_schedule(DEMO_PATHS, ((1, "e1", 1), (1, "e1", 2)))


def test_check_schedule_rejects_out_of_order_path():
    with pytest.raises(AssertionError, match="path says"):
        check_schedule(DEMO_PATHS, ((1, "e2", 1),))


def test_check_schedule_rejects_simultaneous_hops():
    with pytest.raises(AssertionError, match="strictly after"):
        check_schedule(DEMO_PATHS, ((1, "e1", 1), (1, "e2", 1)))


def test_check_schedule_rejects_unknown_packet_and_bad_step():
    with pytest.raises(AssertionError, match="unknown packet"):
        check_schedule(DEMO_PATHS, ((1, "e1", 9),))
    with pytest.raises(AssertionError, match="< 1"):
        check_schedule(DEMO_PATHS, ((0, "e1", 1),))
    with pytest.raises(AssertionError, match="more moves"):
        check_schedule(DEMO_PATHS, ((1, "e1", 2), (2, "e1", 2)), complete=False)


def test_lemma1_bound_values():
    assert lemma1_bound(3, 2) == 6
    assert lemma1_bound(1, 1) == 1
    with pytest.raises(ValueError):
        lemma1_bound(0, 2)


# ---- greedy and brute force -------------------------------------------------------


def test_unobstructed_packet_needs_exactly_its_path_length():
    net = line_network(3)
    inst = make_instance(net, [path("e1", "e2", "e3")])
    with recorded_moves() as moves:
        makespan = greedy_schedule(inst, "FIFO")
    assert makespan == 3
    assert check_schedule(inst.paths, moves) == [[1, 2, 3]]
    assert bruteforce_optimal_makespan(inst, cap=9) == 3


def test_two_packets_one_edge_serialize():
    net = line_network(1)
    inst = make_instance(net, [path("e1"), path("e1")])
    makespan = greedy_schedule(inst, "FIFO")
    assert makespan == 2
    assert bruteforce_optimal_makespan(inst, cap=2) == 2


def test_three_packets_shared_two_edge_path():
    net = line_network(2)
    inst = make_instance(net, [path("e1", "e2")] * 3)
    greedy = greedy_schedule(inst, "FIFO")
    assert greedy == 4  # pipeline: 3 + 2 - 1
    assert bruteforce_optimal_makespan(inst, cap=6) == 4


def test_greedy_beats_nothing_when_order_matters():
    # short packet first forces the long one to wait; the optimum flips them
    net = line_network(2)
    inst = make_instance(net, [path("e1"), path("e1", "e2")])
    greedy = greedy_schedule(inst, "FIFO")
    assert greedy == 3
    assert bruteforce_optimal_makespan(inst, cap=4) == 2


def test_bruteforce_respects_cap():
    net = line_network(1)
    inst = make_instance(net, [path("e1")] * 3)
    assert bruteforce_optimal_makespan(inst, cap=2) is None
    assert bruteforce_optimal_makespan(inst, cap=3) == 3
    # a cap below max(n, d) = 3 gives None and leaves a shared memo as it was,
    # whether or not the memo holds the instance's own optimum
    memo = {}
    other = make_instance(line_network(2), [path("e1", "e2"), path("e2")])
    assert bruteforce_optimal_makespan(other, cap=9, memo=memo) == 2
    for solved in (False, True):
        before = dict(memo)
        for cap in (-1, 0, 1, 2):
            assert bruteforce_optimal_makespan(inst, cap=cap, memo=memo) is None
        assert memo == before and memo
        assert bruteforce_optimal_makespan(inst, cap=3, memo=memo) == 3


def test_identical_full_line_pipeline_formula():
    for b in range(1, 5):
        for k in range(1, 5):
            net = line_network(k)
            inst = make_instance(net, [path(*[f"e{i}" for i in range(1, k + 1)])] * b)
            greedy = greedy_schedule(inst, "FIFO")
            assert greedy == b + k - 1
            assert greedy <= lemma1_bound(inst.n, inst.d)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(DISCIPLINES)))
def test_greedy_schedules_are_feasible_and_complete(seed, name):
    inst = random_instance(random.Random(seed), 4, 4)
    with recorded_moves() as moves:
        makespan = greedy_schedule(inst, name)
    steps = check_schedule(inst.paths, moves)
    assert makespan == max(crossed[-1] for crossed in steps)
    assert max(inst.n, inst.d) <= makespan <= lemma1_bound(inst.n, inst.d)


@functools.cache
def _distinct_patterns(max_packets, max_edges):
    """One instance per relabelled path pattern of enumerate_instances, in
    enumeration order."""
    patterns = {}
    for network, paths in enumerate_instances(max_packets, max_edges):
        patterns.setdefault(relabel(paths), (network, paths))
    return tuple(make_instance(network, paths) for network, paths in patterns.values())


def _counting(name):
    key = DISCIPLINES[name]
    calls = [0]

    def counted(p):
        calls[0] += 1
        return key(p)

    return counted, calls


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_greedy_runner_equals_the_burst_engine_run(name):
    # the former greedy_schedule, an engine run of a burst at step 1, is the
    # reference; the key is called once per queued packet of each sender on
    # both paths, so a counting key sees the same number of calls
    for inst in _distinct_patterns(4, 4):
        ref_key, ref_calls = _counting(name)
        adversary = burst_adversary(inst.network, inst.paths, b=inst.n)
        trace = run(inst.network, ref_key, adversary, lemma1_bound(inst.n, inst.d))
        assert not trace.truncated
        got_key, got_calls = _counting(name)
        makespan = greedy_schedule(inst, got_key)
        assert makespan == trace.last_step == greedy_schedule(inst, name)
        assert got_calls == ref_calls


def test_greedy_runner_raises_past_the_nd_bound(monkeypatch):
    inst = make_instance(line_network(1), [path("e1"), path("e1")])
    assert greedy_schedule(inst, "FIFO") == 2
    monkeypatch.setattr(static_routing, "lemma1_bound", lambda n, d: 1)
    with pytest.raises(EngineInvariantError, match=r"greedy FIFO run exceeded the n\*d = 1 bound"):
        greedy_schedule(inst, "FIFO")


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_greedy_makespans_meet_the_shortest_path_certificate(name):
    # line subpaths and rootward in-tree paths are shortest paths, so every
    # greedy discipline drains k packets within d + k - 1 steps (Mansour and
    # Patt-Shamir, "Greedy packet scheduling on shortest paths", J.
    # Algorithms 1993); no schedule beats max(n, d)
    for inst in _distinct_patterns(4, 4):
        makespan = greedy_schedule(inst, name)
        assert max(inst.n, inst.d) <= makespan <= inst.d + len(inst.paths) - 1, inst.paths


def test_in_tree_witness_exceeds_n_plus_d_minus_1_except_under_ftg():
    # two leaf edges e2 and e3 feed e1; n = d = 2
    inst = make_instance(
        in_tree_network([0, 1, 1]), [path("e2"), path("e2", "e1"), path("e3"), path("e3", "e1")]
    )
    assert (inst.n, inst.d) == (2, 2)
    makespans = {name: greedy_schedule(inst, name) for name in DISCIPLINES}
    assert makespans.pop("FTG") == 3
    assert set(makespans.values()) == {4}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_bruteforce_never_beaten_by_greedy(seed):
    inst = random_instance(random.Random(seed), 3, 3)
    cap = lemma1_bound(inst.n, inst.d)
    greedy = greedy_schedule(inst, "FIFO")
    optimal = bruteforce_optimal_makespan(inst, cap)
    assert optimal is not None
    assert max(inst.n, inst.d) <= optimal <= greedy


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_cap_does_not_change_the_optimum(seed):
    inst = random_instance(random.Random(seed), 3, 3)
    cap = lemma1_bound(inst.n, inst.d)
    greedy = greedy_schedule(inst, "FIFO")
    assert bruteforce_optimal_makespan(inst, cap) == bruteforce_optimal_makespan(inst, greedy)


def test_stop_at_root_bound_keeps_the_optimum():
    # the search stops once it meets max(n, d), also when greedy already
    # meets it; capped one step lower, the full search must find nothing
    rng = random.Random(2024)
    greedy_at_floor = optimum_at_floor = 0
    for _ in range(150):
        inst = random_instance(rng, 4, 4)
        floor, cap = max(inst.n, inst.d), lemma1_bound(inst.n, inst.d)
        greedy = greedy_schedule(inst, "FIFO")
        optimal = bruteforce_optimal_makespan(inst, cap)
        assert optimal == bruteforce_optimal_makespan(inst, greedy)
        assert floor <= optimal <= greedy
        assert bruteforce_optimal_makespan(inst, optimal - 1) is None
        greedy_at_floor += greedy == floor
        optimum_at_floor += optimal == floor < greedy
    assert greedy_at_floor and optimum_at_floor


def test_no_schedule_within_a_cap_below_the_optimum():
    # max(n, d) = 3 but the pipeline needs 3 + 3 - 1 = 5 steps; caps 1 and 2
    # are also below the dilation, and the root's bound prunes them
    inst = make_instance(line_network(3), [path("e1", "e2", "e3")] * 3)
    for cap in range(1, 5):
        assert bruteforce_optimal_makespan(inst, cap) is None
    assert bruteforce_optimal_makespan(inst, 5) == 5


def _idling_search(instance, cap):
    """An early branch and bound, kept as the reference: it also branches on
    every busy edge idling, skips only the steps where all edges idle, and
    keeps a memo of the earliest step each hop vector was reached. Every
    answer comes from its own search; it takes no hint."""
    paths = [p.edges for p in instance.paths]
    lengths = [len(pe) for pe in paths]
    total = len(paths)
    edge_ids = instance.network.edge_ids
    best = cap + 1
    memo = {}

    def lower_bound(hops):
        slack = 0
        load = {}
        for i in range(total):
            rem = lengths[i] - hops[i]
            if rem > slack:
                slack = rem
            for e in paths[i][hops[i]:]:
                load[e] = load.get(e, 0) + 1
        if load:
            heaviest = max(load.values())
            if heaviest > slack:
                slack = heaviest
        return slack

    floor = max(instance.n, instance.d)

    def dfs(hops, step_no):
        nonlocal best
        if all(hops[i] == lengths[i] for i in range(total)):
            if step_no - 1 < best:
                best = step_no - 1
            return
        if step_no - 1 + lower_bound(hops) >= best:
            return
        seen = memo.get(hops)
        if seen is not None and seen <= step_no:
            return
        memo[hops] = step_no
        waiting = {}
        for i in range(total):
            if hops[i] < lengths[i]:
                waiting.setdefault(paths[i][hops[i]], []).append(i)
        options = [waiting[e] + [None] for e in edge_ids if e in waiting]
        for combo in product(*options):
            if all(c is None for c in combo):
                continue
            child = list(hops)
            for c in combo:
                if c is not None:
                    child[c] += 1
            dfs(tuple(child), step_no + 1)
            if best == floor:
                return

    dfs((0,) * total, 1)
    return best if best <= cap else None


def _assert_same_search(inst):
    cap = lemma1_bound(inst.n, inst.d)
    greedy = greedy_schedule(inst, "FIFO")
    optimal = bruteforce_optimal_makespan(inst, cap)
    assert optimal == _idling_search(inst, cap)
    assert bruteforce_optimal_makespan(inst, greedy) == optimal
    assert _idling_search(inst, greedy) == optimal
    assert bruteforce_optimal_makespan(inst, optimal - 1) is None
    assert _idling_search(inst, optimal - 1) is None
    return optimal, greedy


def test_non_idling_search_equals_the_idling_search_on_small_patterns():
    patterns = _distinct_patterns(4, 4)
    assert len(patterns) == 1205
    for inst in patterns:
        _assert_same_search(inst)


def test_non_idling_search_equals_the_idling_search_on_random_instances():
    rng = random.Random(4242)
    for _ in range(300):
        _assert_same_search(random_instance(rng, 6, 6))


def test_non_idling_search_beats_greedy_fifo_by_hand():
    # FIFO sends packet 1 on e1 first, so the long packet 3 finishes at step
    # 4; sending packet 3 first on e1 and packet 2 first on e2 takes 3
    net = line_network(3)
    inst = make_instance(net, [path("e1"), path("e2"), path("e1", "e2", "e3")])
    assert _assert_same_search(inst) == (3, 4)


def test_reference_searches_instead_of_trusting_a_bound():
    # max(n, d) = 3, but the pipeline needs 3 + 3 - 1 = 5 steps
    inst = make_instance(line_network(3), [path("e1", "e2", "e3")] * 3)
    assert _idling_search(inst, 9) == 5
    assert _idling_search(inst, 4) is None


# ---- the oracle's memo ------------------------------------------------------------------


def _state_instance(state):
    """A canonical memo state as the duck-typed instance `_idling_search` reads."""
    paths = [SimpleNamespace(edges=p) for p in state]
    nd = congestion_dilation([p.edges for p in paths])
    edge_ids = sorted({e for p in state for e in p})
    return SimpleNamespace(paths=paths, network=SimpleNamespace(edge_ids=edge_ids), n=nd.n, d=nd.d)


@functools.cache
def _reference_optima(max_packets, max_edges):
    """The reference's optimum of each pattern of `_distinct_patterns`."""
    return tuple(
        _idling_search(inst, greedy_schedule(inst, "FIFO"))
        for inst in _distinct_patterns(max_packets, max_edges)
    )


@pytest.mark.parametrize("shuffle_seed", [None, 1414])
def test_one_memo_serves_every_small_pattern(shuffle_seed):
    patterns = list(zip(_distinct_patterns(4, 4), _reference_optima(4, 4)))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(patterns)
    memo = {}
    for inst, expected in patterns:
        greedy = greedy_schedule(inst, "FIFO")
        # a search that fails first must leave nothing a later call could
        # take for an optimum
        assert bruteforce_optimal_makespan(inst, expected - 1, memo=memo) is None
        shared = bruteforce_optimal_makespan(inst, greedy, memo=memo)
        assert shared == bruteforce_optimal_makespan(inst, greedy) == expected, inst.paths
    # the memo holds exact optima only, whatever the limits it was filled under
    assert 1000 < len(memo) < 2000
    for state, value in memo.items():
        assert _idling_search(_state_instance(state), value) == value, state
        assert _idling_search(_state_instance(state), value - 1) is None, state


def test_a_state_its_packet_permutations_and_renamings_make_one_memo_entry():
    # the same remaining paths shifted along the line, as they are after
    # packets of a longer instance have moved; a shift keeps the names' order
    paths = [("e1", "e2", "e3"), ("e2",), ("e2", "e3"), ("e1",)]
    memo = {}
    inst = make_instance(line_network(4), map(PacketPath, paths))
    assert bruteforce_optimal_makespan(inst, 9, memo=memo) == 3
    entries = dict(memo)
    for shift in (0, 1):
        renamed = [tuple(f"e{int(e[1:]) + shift}" for e in p) for p in paths]
        for order in permutations(renamed):
            inst = make_instance(line_network(4), map(PacketPath, order))
            assert bruteforce_optimal_makespan(inst, 9, memo=memo) == 3
            assert memo == entries


def test_swapping_two_edge_names_keeps_one_memo_entry():
    # edge a feeds c; b is a second edge into the root. Sorted by name, the
    # paths relabel to (0, 1), (2,), (1,), and with the names of b and c
    # swapped to (0, 1), (1,), (2,); sorting again gives both one key
    def instance(feed, other):
        edges = [("v2", "v1", "a"), ("v1", "v0", feed), ("v3", "v0", other)]
        network = build_network(["v0", "v1", "v2", "v3"], edges)
        return make_instance(network, [path("a", feed), path(other), path(feed)])

    memo = {}
    assert bruteforce_optimal_makespan(instance("c", "b"), 6, memo=memo) == 2
    entries = dict(memo)
    assert bruteforce_optimal_makespan(instance("b", "c"), 6, memo=memo) == 2
    assert memo == entries


def test_identical_packets_take_k_plus_l_minus_1_steps():
    memo = {}
    for length in range(1, 6):
        edges = [f"e{i}" for i in range(1, length + 1)]
        for k in range(1, 6):
            inst = make_instance(line_network(length), [path(*edges)] * k)
            cap = lemma1_bound(inst.n, inst.d)
            assert bruteforce_optimal_makespan(inst, cap) == k + length - 1
            assert bruteforce_optimal_makespan(inst, cap, memo=memo) == k + length - 1
            assert bruteforce_optimal_makespan(inst, k + length - 2, memo=memo) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=8))
def test_fresh_shared_and_reference_optima_agree(seeds):
    memo = {}
    for seed in seeds:
        inst = random_instance(random.Random(seed), 5, 5)
        cap = lemma1_bound(inst.n, inst.d)
        expected = _idling_search(inst, greedy_schedule(inst, "FIFO"))
        assert bruteforce_optimal_makespan(inst, cap) == expected
        assert bruteforce_optimal_makespan(inst, expected - 1, memo=memo) is None
        assert bruteforce_optimal_makespan(inst, cap, memo=memo) == expected


# ---- enumeration --------------------------------------------------------------------


def test_line_paths_are_all_contiguous_runs():
    got = [p.edges for p in line_paths(3)]
    assert got == [("e1",), ("e1", "e2"), ("e1", "e2", "e3"),
                   ("e2",), ("e2", "e3"), ("e3",)]


def test_tree_paths_run_rootward():
    got = [p.edges for p in tree_paths((0, 0))]
    assert got == [("e1",), ("e2",)]
    deeper = [p.edges for p in tree_paths((0, 1))]
    assert deeper == [("e1",), ("e2",), ("e2", "e1")]


def test_tree_shapes_counts_and_path_exclusion():
    assert [len(tree_shapes(m)) for m in range(1, 5)] == [0, 1, 4, 12]
    assert tree_shapes(2) == [(0, 0)]
    for parents in tree_shapes(4):
        # a path would have pairwise-distinct parents
        assert len(set(parents)) < len(parents)


# rooted unlabelled trees with k nodes, k = 1..12 (OEIS A000081)
ROOTED_TREES = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def test_tree_shapes_per_level_counts_match_rooted_trees():
    shapes = tree_shapes(11)
    per_level = [sum(1 for s in shapes if len(s) == m) for m in range(1, 12)]
    # an m-edge tree has m+1 nodes; the one path shape per level is left out
    assert per_level == [ROOTED_TREES[m] - 1 for m in range(1, 12)]
    cumulative = [sum(per_level[:m]) for m in range(1, 12)]
    assert cumulative == [0, 1, 4, 12, 31, 78, 192, 477, 1195, 3036, 7801]


def _product_scan_shapes(max_edges):
    """The former enumeration, kept as the reference: every parent vector in
    lexicographic order, the first of each non-path shape kept."""

    def canon(parents, v=0):
        kids = [c for c, par in enumerate(parents, start=1) if par == v]
        return tuple(sorted(canon(parents, c) for c in kids))

    shapes, seen = [], set()
    for m in range(1, max_edges + 1):
        for parents in product(*[range(i) for i in range(1, m + 1)]):
            key = canon(parents)
            if len(set(parents)) < m and key not in seen:
                seen.add(key)
                shapes.append(parents)
    return shapes


def test_tree_shapes_equal_the_product_scan():
    assert tree_shapes(7) == _product_scan_shapes(7)


def test_enumerate_instances_counts():
    assert sum(1 for _ in enumerate_instances(1, 1)) == 1
    assert sum(1 for _ in enumerate_instances(2, 2, ("line",))) == 11
    assert sum(1 for _ in enumerate_instances(2, 2, ("tree",))) == 5
    assert sum(1 for _ in enumerate_instances(2, 2)) == 16


@pytest.mark.parametrize("shapes", [("line", "tree"), ("line",), ("tree",)])
@pytest.mark.parametrize("max_packets, max_edges", [(1, 1), (1, 7), (2, 5), (3, 4), (4, 3)])
def test_count_instances_equals_the_enumeration(max_packets, max_edges, shapes):
    want = sum(1 for _ in enumerate_instances(max_packets, max_edges, shapes))
    assert count_instances(max_packets, max_edges, shapes, want) == want
    assert count_instances(max_packets, max_edges, shapes, want - 1) > want - 1


def test_count_instances_of_large_sweeps():
    both = ("line", "tree")
    # the instance counts of the sweeps CI runs
    assert count_instances(2, 9, both, 10**7) == 351_325
    assert count_instances(2, 10, both, 10**7) == 1_241_121
    # far past any limit, the count stops soon after passing it
    assert 2_000_000 < count_instances(10**9, 10**9, both, 2_000_000) < 2_100_000
    # a one-edge tree is a path: no instance, however many packets
    assert count_instances(10**9, 1, ("tree",), 2_000_000) == 0


def test_enumerate_instances_rejects_unknown_shape():
    with pytest.raises(ValueError):
        list(enumerate_instances(2, 2, ("circle",)))


def test_enumerate_instances_and_sweep_reject_an_empty_shape_list():
    with pytest.raises(ValueError, match="no shapes"):
        list(enumerate_instances(2, 2, ()))
    with pytest.raises(ValueError, match="no shapes"):
        run_sweep(2, 2, ())


def test_relabel_gives_translated_line_instances_one_key():
    near = [path("e1", "e2"), path("e2"), path("e1")]
    far = [path("e3", "e4"), path("e4"), path("e3")]
    assert relabel(near) == relabel(far) == ((0, 1), (1,), (0,))
    assert relabel([p.edges for p in far]) == relabel(iter(far)) == relabel(near)


def test_relabel_keeps_packet_order():
    # packet ids break FIFO ties, so the same paths in another order are
    # another instance
    assert relabel([path("e1", "e2"), path("e2")]) != relabel([path("e2"), path("e1", "e2")])
    assert relabel([path("e1"), path("e1", "e2")]) != relabel([path("e1", "e2"), path("e1")])


def _renamed(inst, rng):
    """The instance with every edge renamed and the edges declared in a
    shuffled order."""
    edges = list(inst.network.edges)
    names = [f"x{k}" for k in range(len(edges))]
    rng.shuffle(names)
    rename = {e.id: name for e, name in zip(edges, names)}
    rng.shuffle(edges)
    network = build_network(inst.network.nodes, [(e.src, e.dst, rename[e.id]) for e in edges])
    return make_instance(network, [PacketPath(tuple(rename[e] for e in p)) for p in inst.paths])


def test_makespans_do_not_depend_on_edge_names_or_declaration_order():
    # the sweep reuses one solve for every instance with the same relabel key
    rng = random.Random(808)
    for _ in range(60):
        inst = random_instance(rng, 4, 5)
        twin = _renamed(inst, rng)
        assert relabel(twin.paths) == relabel(inst.paths)
        for name in sorted(DISCIPLINES):
            assert greedy_schedule(twin, name) == greedy_schedule(inst, name)
        cap = lemma1_bound(inst.n, inst.d)
        assert bruteforce_optimal_makespan(twin, cap) == bruteforce_optimal_makespan(inst, cap)


def test_random_instance_is_seed_deterministic():
    a = random_instance(random.Random(99), 4, 4)
    b = random_instance(random.Random(99), 4, 4)
    assert [p.edges for p in a.paths] == [p.edges for p in b.paths]
    assert a.network.edge_ids == b.network.edge_ids


def _path_family(network):
    """`line_paths` of a line network, or `tree_paths` of an in-tree's parent
    vector, read back from the network's node names and edge targets."""
    if network.nodes[0] == "v0":
        assert network == line_network(len(network.edges))
        return line_paths(len(network.edges))
    parents = [int(edge.dst[1:]) for edge in network.edges]
    assert network == in_tree_network(parents)
    return tree_paths(parents)


def test_random_instance_draws_every_path_from_its_shapes_family():
    lines = trees = several = 0
    for seed in range(300):
        inst = random_instance(random.Random(seed), 4, 5)
        family = _path_family(inst.network)
        assert all(p in family for p in inst.paths)
        lines += inst.network.nodes[0] == "v0"
        trees += inst.network.nodes[0] == "n0"
        several += len(inst.paths) >= 2
    assert lines > 0 and trees > 0 and several > 0
    assert lines + trees == 300


# ---- sweep ----------------------------------------------------------------------------


def _summary(rows):
    """The summary line `aqsim sweep` prints after `rows`."""
    summary = SweepSummary()
    for _ in summary.tally(rows):
        pass
    return str(summary)


def test_sweep_rows_and_summary():
    rows = run_sweep(2, 2)
    assert len(rows) == 16
    assert all(row.optimal is not None for row in rows)
    assert all(row.optimal <= row.greedy_fifo <= row.lemma1_bound for row in rows)
    assert _summary(rows) == "no instance exceeded n+d (16 instances checked)"
    # the order-matters instance shows up with greedy 3 vs optimal 2
    assert any(row.greedy_fifo > row.optimal for row in rows)


def test_sweep_rows_checks_its_arguments_at_the_call():
    with pytest.raises(ValueError, match="unknown shape"):
        sweep_rows(2, 2, ("circle",))  # not iterated
    with pytest.raises(ValueError, match=">= 1"):
        sweep_rows(0, 2)
    rows = sweep_rows(2, 2)
    assert iter(rows) is rows
    assert list(rows) == run_sweep(2, 2)


def _recording_network_calls(monkeypatch):
    """Record every network the enumeration makes, as (function, argument)."""
    built = []
    for name in ("line_network", "in_tree_network"):

        def counted(arg, name=name, build=getattr(static_routing, name)):
            built.append((name, arg if name == "line_network" else tuple(arg)))
            return build(arg)

        monkeypatch.setattr(static_routing, name, counted)
    return built


def test_enumeration_builds_each_pool_when_it_is_reached(monkeypatch):
    built = _recording_network_calls(monkeypatch)
    pairs = enumerate_instances(1, 8, ("line", "tree"))
    assert built == []
    network, paths = next(pairs)
    assert built == [("line_network", 1)]
    assert network.edge_ids == ("e1",) and paths == (PacketPath(("e1",)),)
    for _ in pairs:
        pass
    shapes = [("line_network", k) for k in range(1, 9)]
    shapes += [("in_tree_network", parents) for parents in tree_shapes(8)]
    assert len(shapes) == 485
    assert built == shapes


def test_enumeration_validates_each_pool_when_it_is_reached(monkeypatch):
    paths_of = static_routing.tree_paths
    monkeypatch.setattr(
        static_routing, "tree_paths", lambda parents: [*paths_of(parents), PacketPath(("e1", "e9"))]
    )
    pairs = enumerate_instances(1, 3, ("line", "tree"))
    # the line pools of 1, 2 and 3 edges come first and are valid
    assert len([next(pairs) for _ in range(1 + 3 + 6)]) == 10
    with pytest.raises(NetworkError, match="invalid path"):
        next(pairs)
    pairs = enumerate_instances(1, 3, ("tree",))  # the call only checks arguments
    with pytest.raises(NetworkError, match="invalid path"):
        next(pairs)


def _row(instance_id, n, d, optimal):
    return SweepRow(instance_id, 1, 1, n, d, optimal, optimal, n * d)


def test_sweep_summary_names_the_first_of_the_worst_rows():
    rows = [
        _row(1, 1, 1, 3), _row(2, 2, 2, 3), _row(3, 1, 2, 6), _row(4, 2, 1, 6), _row(5, 3, 3, 9)
    ]
    summary = SweepSummary()
    assert list(summary.tally(rows)) == rows
    # instances 3, 4 and 5 all exceed n+d by 3; the first of them is reported
    expected = "4 of 5 instances exceed n+d (worst: instance 3, optimal 6 vs n+d = 3)"
    assert str(summary) == _summary(iter(rows)) == expected
    assert _summary(rows[1:2]) == "no instance exceeded n+d (1 instances checked)"


@pytest.mark.parametrize(
    "max_packets, max_edges, shapes",
    [(4, 4, ("line", "tree")), (2, 6, ("tree",)), (3, 5, ("tree",))],
)
def test_sweep_rows_equal_solving_every_instance(max_packets, max_edges, shapes):
    expected = []
    for idx, pair in enumerate(enumerate_instances(max_packets, max_edges, shapes), start=1):
        inst = make_instance(*pair)
        greedy = greedy_schedule(inst, "FIFO")
        cap = lemma1_bound(inst.n, inst.d)
        optimal = bruteforce_optimal_makespan(inst, cap)
        expected.append(
            (idx, len(inst.paths), len(inst.network.edges), inst.n, inst.d, optimal, greedy, cap)
        )
    got = [
        (r.instance_id, r.packets, r.edges, r.n, r.d, r.optimal, r.greedy_fifo, r.lemma1_bound)
        for r in run_sweep(max_packets, max_edges, shapes)
    ]
    assert got == expected


def test_sweep_solves_each_relabelled_pattern_once(monkeypatch):
    calls = []
    solve = static_routing.bruteforce_optimal_makespan

    def counting(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(static_routing, "bruteforce_optimal_makespan", counting)
    rows = run_sweep(4, 4)
    assert len(rows) == 3967
    assert len(calls) == 1205
    assert len({relabel(inst.paths) for inst in calls}) == 1205


def test_sweep_csv_schema():
    rows = run_sweep(1, 1)
    buf = io.StringIO()
    write_sweep_csv(rows, buf, header_comment="sweep demo")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# sweep demo"
    assert lines[1] == "instance_id,packets,edges,n,d,optimal,greedy_fifo,lemma1_bound"
    assert lines[2] == "1,1,1,1,1,1,1,1"
