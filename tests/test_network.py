import pytest
from hypothesis import given, strategies as st

from aqsim.network import (
    NetworkError,
    PacketPath,
    build_network,
    congestion_dilation,
    in_tree_network,
    line_network,
    path,
    validate_path,
)

# ---- construction and validation -------------------------------------------


def test_build_network_line():
    net = build_network(
        nodes=["v0", "v1", "v2", "v3", "v4"],
        edges=[("v0", "v1", "e1"), ("v1", "v2", "e2"), ("v2", "v3", "e3"), ("v3", "v4", "e4")],
    )
    assert net.edge_ids == ("e1", "e2", "e3", "e4")
    assert net.edge_by_id["e3"].src == "v2"
    assert net.edge_by_id["e3"].dst == "v3"


def test_build_network_rejects_duplicate_edge_id():
    with pytest.raises(NetworkError):
        build_network(nodes=["a", "b", "c"], edges=[("a", "b", "e"), ("b", "c", "e")])


def test_build_network_rejects_duplicate_node():
    with pytest.raises(NetworkError):
        build_network(nodes=["a", "a"], edges=[])


def test_build_network_rejects_undeclared_endpoint():
    with pytest.raises(NetworkError):
        build_network(nodes=["a", "b"], edges=[("a", "zzz", "e")])


def test_build_network_rejects_parallel_edges():
    with pytest.raises(NetworkError):
        build_network(nodes=["a", "b"], edges=[("a", "b", "e1"), ("a", "b", "e2")])


@pytest.mark.parametrize(
    "nodes, edges",
    [
        ([[1, 2], "b"], []),  # unhashable node id
        (["a", "b"], [("a", "b", ["e1"])]),  # unhashable edge id
        (["a", "b"], [("a", {"x": 1}, "e1")]),  # unhashable endpoint
    ],
)
def test_build_network_rejects_unhashable_ids(nodes, edges):
    with pytest.raises(NetworkError, match="hashable"):
        build_network(nodes=nodes, edges=edges)


def test_empty_networks_are_refused():
    with pytest.raises(NetworkError, match="node list must be non-empty"):
        build_network([], [])
    with pytest.raises(NetworkError, match="num_edges: must be an integer >= 1, got 0"):
        line_network(0)


def test_single_node_network_is_valid():
    net = build_network(nodes=["only"], edges=[])
    assert net.edges == ()


def test_line_network_naming():
    net = line_network(4)
    assert net.edge_ids == ("e1", "e2", "e3", "e4")
    assert net.edge_by_id["e1"].src == "v0"
    assert net.edge_by_id["e4"].dst == "v4"


def test_in_tree_network_v_shape():
    # two leaves hanging off a common root: both edges point rootward
    net = in_tree_network((0, 0))
    assert {e.dst for e in net.edges} == {"n0"}
    assert len(net.edges) == 2


def test_in_tree_network_rejects_bad_parent():
    with pytest.raises(NetworkError):
        in_tree_network((0, 5))


# ---- paths ------------------------------------------------------------------


def test_path_rejects_empty():
    with pytest.raises(NetworkError):
        path()


def test_path_len_iter_getitem():
    p = path("e1", "e2", "e3")
    assert len(p) == 3
    assert list(p) == ["e1", "e2", "e3"]
    assert p[1] == "e2"


def test_validate_path_contiguity():
    net = line_network(4)
    assert validate_path(net, path("e1", "e2", "e3", "e4"))
    assert validate_path(net, path("e2"))
    assert not validate_path(net, path("e2", "e1"))  # wrong direction
    assert not validate_path(net, path("e1", "e3"))  # gap
    assert not validate_path(net, path("e1", "nope"))  # unknown edge
    assert not validate_path(net, path("e1", {"x": 1}))  # unhashable entry
    assert not validate_path(net, path(["e1"]))


def test_validate_path_on_tree_rootward_only():
    net = in_tree_network((0, 0, 1))  # n1->n0, n2->n0, n3->n1
    assert validate_path(net, path("e3", "e1"))
    assert not validate_path(net, path("e1", "e3"))


# ---- congestion and dilation ------------------------------------------------


def test_congestion_dilation_shared_edge():
    cd = congestion_dilation([path("e1"), path("e1", "e2"), path("e1")])
    assert cd.n == 3
    assert cd.d == 2


def test_congestion_dilation_disjoint_singletons():
    cd = congestion_dilation([path("e1"), path("e2"), path("e3"), path("e4")])
    assert cd.n == 1
    assert cd.d == 1


def test_congestion_dilation_single_long_path():
    cd = congestion_dilation([path("e1", "e2", "e3")])
    assert cd.n == 1
    assert cd.d == 3


def test_congestion_dilation_counts_each_crossing_of_a_walk():
    cd = congestion_dilation([path("e1", "e2", "e1")])
    assert (cd.n, cd.d) == (2, 3)
    assert cd.crossings == {"e1": 2, "e2": 1}


def test_congestion_dilation_rejects_empty():
    with pytest.raises(NetworkError):
        congestion_dilation([])


def _line_subpaths(pairs):
    # (i, j) index pairs over a 5-edge line, i <= j
    return [path(*[f"e{k}" for k in range(i, j + 1)]) for i, j in pairs]


index_pairs = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda t: (min(t), max(t))),
    min_size=1,
    max_size=8,
)


@given(index_pairs)
def test_congestion_dilation_permutation_invariant(pairs):
    paths = _line_subpaths(pairs)
    cd = congestion_dilation(paths)
    cd_rev = congestion_dilation(list(reversed(paths)))
    assert (cd.n, cd.d) == (cd_rev.n, cd_rev.d)
    assert 1 <= cd.d <= 5
    assert cd.n >= 1


@given(index_pairs.filter(lambda ps: len(ps) >= 2))
def test_congestion_dilation_monotone_under_packet_removal(pairs):
    paths = _line_subpaths(pairs)
    full = congestion_dilation(paths)
    sub = congestion_dilation(paths[:-1])
    assert sub.n <= full.n
    assert sub.d <= full.d


def _recount(paths):
    """n, d and per-edge crossings by a plain count over every path copy."""
    edges = {e for p in paths for e in tuple(p)}
    crossings = {e: sum(list(p).count(e) for p in paths) for e in edges}
    return max(crossings.values()), max(len(tuple(p)) for p in paths), crossings


# walks over four edges that may repeat an edge, each drawn from a small pool
# so identical paths recur, and each given as a PacketPath or a plain tuple
walks = st.lists(st.sampled_from(["e1", "e2", "e3", "e4"]), min_size=1, max_size=6).map(tuple)


@given(
    st.lists(walks, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=12
        )
    )
)
def test_congestion_dilation_matches_a_plain_recount(picks):
    paths = [PacketPath(w) if wrap else w for w, wrap in picks]
    cd = congestion_dilation(paths)
    assert (cd.n, cd.d, cd.crossings) == _recount(paths)
