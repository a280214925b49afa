"""Static routing: all packets present at step 1, none injected later.

Covers the instance type, the greedy makespan (every packet queued at step 1
and drained through the engines' step core), the n*d bound, a
branch-and-bound optimal-makespan oracle for toy instances, and exhaustive /
randomized instance generators for line and in-tree shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from random import Random
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .network import (
    CongestionDilation,
    EdgeId,
    Network,
    NetworkError,
    PacketPath,
    Routes,
    as_count,
    congestion_dilation,
    in_tree_network,
    line_network,
    shown,
    validate_path,
)
from .csvio import write_csv
from .sim_engine import EngineInvariantError, advance
from .strategies import Packet, get_discipline, is_builtin


@dataclass(frozen=True)
class StaticInstance:
    network: Network
    paths: tuple[PacketPath, ...]
    nd: CongestionDilation

    @property
    def n(self) -> int:
        return self.nd.n

    @property
    def d(self) -> int:
        return self.nd.d


def make_instance(network: Network, paths: Iterable[PacketPath]) -> StaticInstance:
    path_tuple = tuple(paths)
    if not path_tuple:
        raise NetworkError("static instance needs at least one packet")
    _check_paths(network, path_tuple)
    return StaticInstance(network, path_tuple, congestion_dilation(path_tuple))


def _check_paths(network: Network, paths: Sequence[PacketPath]) -> None:
    for i, p in enumerate(paths):
        if not validate_path(network, p):
            raise NetworkError(f"packet {i + 1}: invalid path {shown(p.edges)}")


def lemma1_bound(n: int, d: int) -> int:
    """Worst-case steps for any greedy discipline on a static instance: n*d."""
    return as_count(n, "n") * as_count(d, "d")


def greedy_schedule(instance: StaticInstance, discipline) -> int:
    """The makespan of the greedy run under `discipline`: the step of the last
    delivery, with every packet queued at step 1.

    Packet k (in `instance.paths` order, so ids break ties as in an engine
    run) starts in the queue of its first edge, and `sim_engine.advance`, the
    step core of both engines, is called until every queue is empty, which
    its exact `busy` shows; the packets it returns (`moved[k]` left
    `senders[k]`) are not needed. No
    adversary, trace or per-step record is built; the makespan equals
    `run(network, discipline, burst_adversary(network, paths, b=n), n*d)
    .last_step`. The run must drain within n*d steps — anything else is a
    bug, raised as EngineInvariantError.
    """
    bound = lemma1_bound(instance.n, instance.d)
    key = get_discipline(discipline)
    custom = not is_builtin(key)
    network = instance.network
    routes = Routes(network)
    queues: list[list[Packet]] = [[] for _ in network.edges]
    busy: set[int] = set()
    for k, p in enumerate(instance.paths, start=1):
        route = routes[p.edges]
        queues[route[0]].append(Packet(k, p.edges, 1, arrived_in_queue_at=1, route=route))
        busy.add(route[0])
    now = 0
    while busy:
        now += 1
        if now > bound:
            raise EngineInvariantError(
                f"greedy {discipline} run exceeded the n*d = {bound} bound"
            )
        advance(queues, busy, sorted(busy), key, custom, now)
    return now


# ---- exact optimal makespan -------------------------------------------------

State = tuple[tuple[int, ...], ...]


def bruteforce_optimal_makespan(
    instance: StaticInstance, cap: int, *, memo: Optional[dict[State, int]] = None
) -> Optional[int]:
    """The least makespan of a schedule that finishes within `cap` steps, or
    None if no schedule does.

    Only non-idling schedules are searched: at every step, each edge with
    waiting packets sends one of them. This loses no optimum, by an exchange
    argument: take an optimal schedule in which edge e idles at step t while
    packet p waits on it, and p crosses e later, at t' > t. Move that crossing
    to t. The schedule stays feasible, since e was free at t and p's next
    crossing is still after t' > t, and its makespan does not grow. The sum
    of crossing times strictly falls, so repeating the move ends in a
    non-idling schedule that is still optimal.

    The search is a memoised recursion, opt(state) = 1 + the least opt(child)
    over the non-idling moves out of the state, and opt of no packets is 0. A
    state is the multiset of the undelivered packets' remaining paths in the
    canonical form of `_canonical`. The value is exact:
    - the moves out of a state, and so its optimum, depend only on the
      remaining paths, up to edge names and packet order (the exchange
      argument above applies to every state);
    - packets with identical remaining paths waiting on the same edge can be
      swapped, so only one of them is branched on;
    - the pruning is admissible. A state's search stops once it meets the
      state's lower bound, the larger of its longest remaining path and its
      heaviest edge load. A child is cut when 1 + its lower bound cannot beat
      the best so far. A `cap` below the root's bound max(n, d) gives None:
      the root search returns that bound at once and stores nothing.
    A state enters `memo` only when its search ended below the limit it was
    given, so `memo` holds exact optima only. Since an optimum depends on the
    state alone, one `memo` may serve every call of a sweep (`run_sweep`
    passes one); by default each call gets a fresh one.

    The answer always comes from the search. A known-feasible makespan, such
    as a greedy one, passed as `cap` never gives None, and the search prunes
    every branch that cannot beat it.
    """
    if memo is None:
        memo = {}
    best = _least_makespan(_canonical([p.edges for p in instance.paths]), cap + 1, memo)
    return best if best <= cap else None


def _canonical(paths: Iterable[Sequence[EdgeId]]) -> State:
    """The paths sorted, their edges relabelled by first appearance (`relabel`)
    and sorted again: one key for a state, every packet permutation of it and
    every renaming of its edges that keeps their sort order. Another renaming
    may give the same state a second key, which costs a second memo entry,
    never exactness."""
    return tuple(sorted(relabel(sorted(paths))))


def _least_makespan(state: State, limit: int, memo: dict[State, int]) -> int:
    """opt(state) if it is below `limit`; otherwise a lower bound on it that is
    at least `limit`. See `bruteforce_optimal_makespan`."""
    known = memo.get(state)
    if known is not None:
        return known
    # counted inline: calling congestion_dilation on the remaining paths here
    # made run_sweep(4, 4) 17-27% slower
    load: dict[int, int] = {}
    floor = 0
    for p in state:
        if len(p) > floor:
            floor = len(p)
        for e in p:
            load[e] = load.get(e, 0) + 1
    heaviest = max(load.values())
    if heaviest > floor:
        floor = heaviest
    if floor >= limit:
        return floor
    # one branch per distinct remaining path on each edge; the state is
    # sorted, so identical paths are adjacent
    waiting: dict[int, list[int]] = {}
    previous = None
    for i, p in enumerate(state):
        if p != previous:
            waiting.setdefault(p[0], []).append(i)
            previous = p
    best = limit
    for combo in product(*waiting.values()):
        rest = list(state)
        for i in combo:
            rest[i] = rest[i][1:]
        child = [p for p in rest if p]
        # a child's optimum must be below best - 1 to help; the call returns
        # at once when the child's lower bound rules that out
        value = _least_makespan(_canonical(child), best - 1, memo) if child else 0
        if value + 1 < best:
            best = value + 1
            if best == floor:
                break
    if best < limit:
        memo[state] = best
    return best


# ---- instance generation ---------------------------------------------------


def line_paths(num_edges: int) -> list[PacketPath]:
    """Every directed subpath e_i..e_j of a line, ordered by (start, end)."""
    return [
        PacketPath(tuple(f"e{k}" for k in range(i, j + 1)))
        for i in range(1, num_edges + 1)
        for j in range(i, num_edges + 1)
    ]


def tree_paths(parents: Sequence[int]) -> list[PacketPath]:
    """Every rootward run in an in-tree, ordered by (start node, length)."""
    out: list[PacketPath] = []
    for start in range(1, len(parents) + 1):
        edges: list[str] = []
        v = start
        while v != 0:
            edges.append(f"e{v}")
            out.append(PacketPath(tuple(edges)))
            v = parents[v - 1]
    return out


def _canonical_shape(parents: Sequence[int]) -> tuple:
    children: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for child, par in enumerate(parents, start=1):
        children[par].append(child)

    def canon(v: int) -> tuple:
        return tuple(sorted(canon(c) for c in children[v]))

    return canon(0)


def _is_path_shape(parents: Sequence[int]) -> bool:
    return len(set(parents)) == len(parents)  # no node has two children


def tree_shapes(max_edges: int) -> list[tuple[int, ...]]:
    """Canonical parent vectors of all non-path in-trees with <= max_edges
    edges (path shapes are enumerated as lines instead): for each edge count,
    the lexicographically least vector of each shape, in lexicographic order.

    Shapes grow one leaf at a time. The last node of a parent vector is always
    a leaf, and deleting it from a tree's least vector leaves the least vector
    of the smaller tree. So extending every least vector of the (m-1)-edge
    level (path shapes included) by each parent in 0..m-1, in order, and
    keeping the first vector per shape gives the m-edge level in order.
    """
    shapes: list[tuple[int, ...]] = []
    level: list[tuple[int, ...]] = [()]
    for m in range(1, max_edges + 1):
        seen: set[tuple] = set()
        grown = []
        for parents in level:
            for par in range(m):
                child = parents + (par,)
                key = _canonical_shape(child)
                if key not in seen:
                    seen.add(key)
                    grown.append(child)
        level = grown
        shapes += [parents for parents in level if not _is_path_shape(parents)]
    return shapes


def enumerate_instances(
    max_packets: int, max_edges: int, shapes: Sequence[str] = ("line", "tree")
) -> Iterator[tuple[Network, tuple[PacketPath, ...]]]:
    """All static instances with 1..max_packets packets on line and non-path
    in-tree networks with 1..max_edges edges, as (network, paths) pairs in
    deterministic order. The arguments are checked at the call. Each shape's
    pool, its network and candidate paths, is built when the enumeration
    reaches it, so one pool is held at a time, and its candidates are
    validated as it is built, so every combination of them is a valid
    instance (`make_instance` would accept it)."""
    if not shapes:
        raise ValueError("no shapes given; expected 'line', 'tree' or both")
    for shape in shapes:
        if shape not in ("line", "tree"):
            raise ValueError(f"unknown shape {shown(shape)}; expected 'line' or 'tree'")
    as_count(max_packets, "max_packets")
    as_count(max_edges, "max_edges")

    def pools() -> Iterator[tuple[Network, list[PacketPath]]]:
        if "line" in shapes:
            for k in range(1, max_edges + 1):
                yield line_network(k), line_paths(k)
        if "tree" in shapes:
            for parents in tree_shapes(max_edges):
                yield in_tree_network(parents), tree_paths(parents)

    def pairs() -> Iterator[tuple[Network, tuple[PacketPath, ...]]]:
        for network, candidates in pools():
            _check_paths(network, candidates)
            for size in range(1, max_packets + 1):
                for combo in combinations_with_replacement(candidates, size):
                    yield network, combo

    return pairs()


def count_instances(
    max_packets: int, max_edges: int, shapes: Sequence[str], limit: int
) -> int:
    """How many instances `enumerate_instances` yields, found without
    building one, if that is at most `limit`; otherwise counting stops once
    the count passes `limit`, and some number above it is returned.

    A shape whose family has P paths gives C(P+k-1, k) instances of k
    packets. The path shape with m edges has m(m+1)/2 paths, and the tree
    shapes with m edges are counted by family size (`_tree_family_sizes`).
    """
    trees = _tree_family_sizes() if "tree" in shapes else None
    total = 0
    for m in range(1, max_edges + 1):
        line = m * (m + 1) // 2
        pools: dict[int, int] = {}  # family size -> number of shapes
        if trees is not None:
            pools = dict(next(trees))
            pools[line] -= 1  # the path shape is enumerated as a line
        if "line" in shapes:
            pools[line] = pools.get(line, 0) + 1
        for size, count in pools.items():
            if not count:  # no tree shape but the path
                continue
            term = 1
            for k in range(1, max_packets + 1):
                term = term * (size + k - 1) // k  # C(size+k-1, k)
                total += count * term
                if total > limit:
                    return total
    return total


def _tree_family_sizes() -> Iterator[dict[int, int]]:
    """For m = 1, 2, ... edges, the in-tree shapes with m edges (the path
    shape included) counted by their number of rootward paths, the size of
    `tree_paths`: {paths: shapes}.

    A tree has as many rootward paths as its nodes' depths add up to. It is a
    root over a forest, a multiset of subtrees, so its paths are, summed over
    the subtrees, each subtree's paths plus its nodes. So the trees of n
    nodes are the forests of n-1 nodes counted by that weight. The forests
    follow from the trees of fewer nodes by the Euler transform recurrence
    s*f_s(y) = sum_{j=1..s} c_j(y)*f_{s-j}(y), with
    c_j(y) = sum over the divisors d of j of d*S_d(y^(j/d)), where S_d counts
    the trees of d nodes as subtrees, by weight. A polynomial in y is a dict
    {exponent: coefficient}.
    """
    forests: list[dict[int, int]] = [{0: 1}]  # f_s, by s
    subtrees: list[dict[int, int]] = [{}]  # S_d, by d
    terms: list[dict[int, int]] = [{}]  # c_j, by j
    while True:
        s = len(forests)
        subtrees.append({w + s: c for w, c in forests[s - 1].items()})
        c_s: dict[int, int] = {}
        for d in range(1, s + 1):
            if s % d == 0:
                for w, c in subtrees[d].items():
                    c_s[w * (s // d)] = c_s.get(w * (s // d), 0) + d * c
        terms.append(c_s)
        acc: dict[int, int] = {}
        for j in range(1, s + 1):
            for w1, c1 in terms[j].items():
                for w2, c2 in forests[s - j].items():
                    acc[w1 + w2] = acc.get(w1 + w2, 0) + c1 * c2
        forests.append({w: c // s for w, c in acc.items()})
        yield forests[s]  # the trees of s+1 nodes, s edges


def relabel(paths: Iterable[Sequence[EdgeId]]) -> tuple[tuple[int, ...], ...]:
    """The paths with each edge replaced by the index of its first appearance.
    Packets keep their order, since packet ids break the disciplines' ties.
    Instances with the same key differ only in edge names (see `run_sweep`)."""
    # list comprehensions with the bound method: the largest per-instance
    # cost of big sweeps, about 1.5x faster than generator expressions
    index: dict[EdgeId, int] = {}
    label = index.setdefault
    return tuple([tuple([label(e, len(index)) for e in p]) for p in paths])


def random_instance(rng: Random, max_packets: int, max_edges: int) -> StaticInstance:
    """One random line/in-tree instance; deterministic given the Random state.
    The shape is a line of 1..max_edges edges or a random parent vector of as
    many, and each of the 1..max_packets packets takes a path drawn uniformly
    from the shape's whole family, `line_paths` or `tree_paths`."""
    if rng.random() < 0.5:
        k = rng.randint(1, max_edges)
        network, candidates = line_network(k), line_paths(k)
    else:
        m = rng.randint(1, max_edges)
        parents = [rng.randint(0, i - 1) for i in range(1, m + 1)]
        network, candidates = in_tree_network(parents), tree_paths(parents)
    count = rng.randint(1, max_packets)
    return make_instance(network, [rng.choice(candidates) for _ in range(count)])


# ---- the oracle sweep -------------------------------------------------------


class SweepRow(NamedTuple):
    """One instance of a sweep; its fields are the sweep CSV's columns."""

    instance_id: int
    packets: int
    edges: int
    n: int
    d: int
    optimal: int
    greedy_fifo: int
    lemma1_bound: int


def sweep_rows(
    max_packets: int, max_edges: int, shapes: Sequence[str] = ("line", "tree")
) -> Iterator[SweepRow]:
    """Brute-force optimum vs greedy FIFO for every enumerated instance, one
    row at a time. The arguments are checked at the call.

    The greedy FIFO makespan is the oracle's `cap`: it is the makespan of a
    feasible schedule, so the search always returns an optimum, no larger than
    it. The row's `lemma1_bound` is n*d, the ceiling every greedy run meets.

    Each relabelled path pattern (`relabel`) is solved once and its result
    reused for every instance that repeats it under other edge names. The rows
    are the same as solving each instance on its own: a row's values other
    than `instance_id`, `packets` and `edges` depend only on the pattern,
    because the engine picks by (discipline key, packet id) whatever the edge
    names, and the branch and bound is exact, so its optimum does not depend
    on the edge names either.

    Every oracle call of one sweep shares one memo of solved states, so a
    pattern's sub-states that an earlier pattern reached are not searched
    again. The memo lives as long as this sweep's generator and no longer:
    each sweep starts from nothing.
    """
    instances = enumerate_instances(max_packets, max_edges, shapes)

    def rows() -> Iterator[SweepRow]:
        solved: dict[tuple[tuple[int, ...], ...], tuple[int, int, int, int, int]] = {}
        memo: dict[State, int] = {}
        for idx, (network, paths) in enumerate(instances, start=1):
            key = relabel(paths)
            result = solved.get(key)
            if result is None:
                # the edge tuples, which hash faster than their `PacketPath`s
                nd = congestion_dilation([p.edges for p in paths])
                inst = StaticInstance(network, paths, nd)
                greedy = greedy_schedule(inst, "FIFO")
                optimal = bruteforce_optimal_makespan(inst, greedy, memo=memo)
                result = solved[key] = (
                    inst.n, inst.d, optimal, greedy, lemma1_bound(inst.n, inst.d)
                )
            yield SweepRow(idx, len(paths), len(network.edges), *result)

    return rows()


def run_sweep(
    max_packets: int, max_edges: int, shapes: Sequence[str] = ("line", "tree")
) -> list[SweepRow]:
    """Every row of `sweep_rows`, in a list."""
    return list(sweep_rows(max_packets, max_edges, shapes))


class SweepSummary:
    """The sweep's summary line, counted in one pass as rows stream by."""

    def __init__(self) -> None:
        self.count = 0
        self.exceeding = 0
        self.worst: Optional[SweepRow] = None  # the first row of the largest excess
        self.worst_excess = 0

    def tally(self, rows: Iterable[SweepRow]) -> Iterator[SweepRow]:
        """Yield each row of `rows` after counting it."""
        for row in rows:
            self.count += 1
            excess = row.optimal - (row.n + row.d)
            if excess > 0:
                self.exceeding += 1
                if excess > self.worst_excess:
                    self.worst, self.worst_excess = row, excess
            yield row

    def __str__(self) -> str:
        worst = self.worst
        if worst is not None:
            return (
                f"{self.exceeding} of {self.count} instances exceed n+d "
                f"(worst: instance {worst.instance_id}, optimal {worst.optimal} "
                f"vs n+d = {worst.n + worst.d})"
            )
        return f"no instance exceeded n+d ({self.count} instances checked)"


def write_sweep_csv(rows: Iterable[SweepRow], dest: IO, header_comment: str = "") -> None:
    """instance_id,packets,edges,n,d,optimal,greedy_fifo,lemma1_bound"""
    write_csv(dest, SweepRow._fields, rows, header_comment)
