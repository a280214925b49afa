"""Directed network model, packet paths, and congestion/dilation."""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Sequence

NodeId = Hashable
EdgeId = Hashable


class NetworkError(ValueError):
    pass


# How a refusal quotes a value from outside the program: its repr within
# reprlib's default limits (6 levels, 6 items a list, 30 characters a string),
# so a quote stays small however deep, long or aliased the value is.
shown = reprlib.repr


def as_count(value, what: str, error: type[ValueError] = ValueError) -> int:
    """`value` if it is a count, an int >= 1 that is not a bool; otherwise
    `error` naming `what`. The one rule for every count a caller passes: a
    step, a burst, a phase index, a length or a size."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    raise error(f"{what}: must be an integer >= 1, got {shown(value)}")


@dataclass(frozen=True)
class Edge:
    src: NodeId
    dst: NodeId
    id: EdgeId


@dataclass(frozen=True)
class Network:
    """Directed graph with unit-capacity edges. Immutable once built."""

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]
    edge_by_id: dict[EdgeId, Edge] = field(repr=False, compare=False)

    @cached_property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(e.id for e in self.edges)

    @cached_property
    def edge_index(self) -> dict[EdgeId, int]:
        """Position of each edge in declaration order."""
        return {eid: i for i, eid in enumerate(self.edge_ids)}


class Routes(dict):
    """One run's cache from a path's edge tuple to its route, the tuple of
    the edges' queue indices in `network`'s declaration order; a route is
    resolved on its first lookup. The cache is its own dict, not
    `network.edge_index`, because an edge id may itself be a tuple and so
    equal some path."""

    # Whether a route of at least `flights.MIN_DILATION` edges was resolved:
    # a plain run flies from then on, and a phased run's phases may. Only
    # `flights.FlightRoutes` sets it, so a plain run that never flies tests
    # this one attribute a step and reads no route.
    long = False

    def __init__(self, network: Network):
        super().__init__()
        self._index = network.edge_index

    def __missing__(self, edges: tuple[EdgeId, ...]) -> tuple[int, ...]:
        route = self[edges] = tuple(map(self._index.__getitem__, edges))
        return route


def build_network(nodes: Sequence[NodeId], edges: Iterable[tuple[NodeId, NodeId, EdgeId]]) -> Network:
    """Validate and freeze a network; edge iteration order is the declaration order.

    Rejects unhashable ids, duplicate node ids, duplicate edge ids, endpoints
    outside the node set, and parallel edges (a second edge on the same
    ordered node pair).
    """
    node_tuple = tuple(nodes)
    if not node_tuple:
        raise NetworkError("node list must be non-empty")
    try:
        node_set = set(node_tuple)
    except TypeError:
        raise NetworkError("node ids must be hashable") from None
    if len(node_set) != len(node_tuple):
        raise NetworkError("duplicate node id in node list")

    edge_list: list[Edge] = []
    by_id: dict[EdgeId, Edge] = {}
    seen_pairs: set[tuple[NodeId, NodeId]] = set()
    for src, dst, eid in edges:
        try:
            hash((src, dst, eid))
        except TypeError:
            raise NetworkError(f"edge {shown(eid)}: ids must be hashable") from None
        if eid in by_id:
            raise NetworkError(f"duplicate edge id {shown(eid)}")
        if src not in node_set:
            raise NetworkError(f"edge {shown(eid)}: source node {shown(src)} not declared")
        if dst not in node_set:
            raise NetworkError(f"edge {shown(eid)}: target node {shown(dst)} not declared")
        if (src, dst) in seen_pairs:
            raise NetworkError(f"edge {shown(eid)}: parallel edge on pair {shown((src, dst))}")
        seen_pairs.add((src, dst))
        edge = Edge(src, dst, eid)
        edge_list.append(edge)
        by_id[eid] = edge
    return Network(node_tuple, tuple(edge_list), by_id)


def line_network(num_edges: int) -> Network:
    """One-way connection line: nodes v0..vk joined by forward edges e1..ek."""
    as_count(num_edges, "num_edges", NetworkError)
    nodes = [f"v{i}" for i in range(num_edges + 1)]
    edges = [(f"v{i}", f"v{i + 1}", f"e{i + 1}") for i in range(num_edges)]
    return build_network(nodes, edges)


def in_tree_network(parents: Sequence[int]) -> Network:
    """Rooted tree with every edge directed toward the root.

    ``parents[i]`` is the parent of node i+1; node 0 is the root. Edge ``ek``
    runs from node nk to its parent, so packets travel rootward.
    """
    for i, par in enumerate(parents, start=1):
        if not 0 <= par < i:
            raise NetworkError(f"parent of node {i} must lie in [0, {i - 1}], got {par}")
    nodes = [f"n{i}" for i in range(len(parents) + 1)]
    edges = [(f"n{i}", f"n{par}", f"e{i}") for i, par in enumerate(parents, start=1)]
    return build_network(nodes, edges)


@dataclass(frozen=True)
class PacketPath:
    """Fixed edge sequence a packet follows; never empty."""

    edges: tuple[EdgeId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges:
            raise NetworkError("packet path must contain at least one edge")

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[EdgeId]:
        return iter(self.edges)

    def __getitem__(self, i):
        return self.edges[i]


def path(*edge_ids: EdgeId) -> PacketPath:
    return PacketPath(tuple(edge_ids))


def validate_path(network: Network, p: PacketPath) -> bool:
    """True iff every edge exists and consecutive edges share a node. Never raises."""
    try:
        edges = [network.edge_by_id[e] for e in p.edges]
    except (KeyError, TypeError):  # undeclared, or unhashable and so no edge id
        return False
    for a, b in zip(edges, edges[1:]):
        if a.dst != b.src:
            return False
    return True


@dataclass(frozen=True)
class CongestionDilation:
    n: int  # max number of path crossings of any single edge
    d: int  # longest path, in edges
    crossings: dict[EdgeId, int] = field(default_factory=dict, compare=False, repr=False)


def congestion_dilation(
    packet_paths: Sequence[PacketPath | tuple[EdgeId, ...]],
) -> CongestionDilation:
    """Congestion n and dilation d of a packet set, given as hashable edge
    sequences (`PacketPath`s or plain tuples).

    n counts edge crossings, so an edge repeated within one walk counts each
    occurrence; identical to counting paths when all paths are simple.
    `crossings` keeps the count for every edge crossed. Each distinct path is
    walked once and weighted by its copies, so a phase of many packets on
    one route costs one walk of that route.
    """
    if not packet_paths:
        raise NetworkError("congestion/dilation undefined for an empty packet set")
    copies: dict[PacketPath | tuple[EdgeId, ...], int] = {}
    for p in packet_paths:
        copies[p] = copies.get(p, 0) + 1
    crossings: dict[EdgeId, int] = {}
    d = 0
    for p, c in copies.items():
        d = max(d, len(p))
        for e in p:
            crossings[e] = crossings.get(e, 0) + c
    return CongestionDilation(max(crossings.values()), d, crossings)
