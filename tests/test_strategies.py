import pytest
from hypothesis import given, strategies as st

from aqsim.strategies import (
    DISCIPLINES,
    NON_FORWARD_LOOKING,
    Packet,
    get_discipline,
    is_non_forward_looking,
    least,
    select,
)

# ---- helpers ----------------------------------------------------------------


def make_packet(pid, *, injected=1, arrived=1, hops_done=0, path=("e1",)):
    return Packet(id=pid, path=tuple(path), injected_at=injected,
                  hops_done=hops_done, arrived_in_queue_at=arrived)


def test_system_time_counts_the_injection_and_delivery_steps():
    pkt = make_packet(1, injected=3)
    assert pkt.system_time is None  # not yet delivered
    pkt.delivered_at = 7
    assert pkt.system_time == 5


# ---- the eight disciplines --------------------------------------------------


def test_discipline_registry_is_complete():
    assert set(DISCIPLINES) == {"FIFO", "LIFO", "LIS", "SIS", "NTS", "FFS", "NTG", "FTG"}


def test_fifo_picks_earliest_arrival():
    q = [make_packet(1, arrived=5), make_packet(2, arrived=2), make_packet(3, arrived=9)]
    assert select("FIFO", q).id == 2


def test_lifo_picks_latest_arrival():
    q = [make_packet(1, arrived=5), make_packet(2, arrived=2), make_packet(3, arrived=9)]
    assert select("LIFO", q).id == 3


def test_lis_picks_longest_in_system():
    q = [make_packet(1, injected=3), make_packet(2, injected=1), make_packet(3, injected=5)]
    assert select("LIS", q).id == 2


def test_sis_picks_shortest_in_system():
    q = [make_packet(1, injected=3), make_packet(2, injected=1), make_packet(3, injected=5)]
    assert select("SIS", q).id == 3


def test_nts_picks_fewest_hops_done():
    q = [make_packet(1, hops_done=2, path=("e1",) * 3),
         make_packet(2, hops_done=0, path=("e1",) * 3),
         make_packet(3, hops_done=1, path=("e1",) * 3)]
    assert select("NTS", q).id == 2


def test_ffs_picks_most_hops_done():
    q = [make_packet(1, hops_done=2, path=("e1",) * 3),
         make_packet(2, hops_done=0, path=("e1",) * 3),
         make_packet(3, hops_done=1, path=("e1",) * 3)]
    assert select("FFS", q).id == 1


def test_ntg_picks_fewest_remaining_and_breaks_tie_by_id():
    q = [make_packet(7, hops_done=0, path=("e1",) * 4),
         make_packet(9, hops_done=0, path=("e1",) * 2),
         make_packet(8, hops_done=0, path=("e1",) * 2)]
    assert select("NTG", q).id == 8


def test_ftg_picks_most_remaining():
    q = [make_packet(7, hops_done=0, path=("e1",) * 4),
         make_packet(9, hops_done=0, path=("e1",) * 2),
         make_packet(8, hops_done=0, path=("e1",) * 2)]
    assert select("FTG", q).id == 7


def test_select_singleton_and_empty():
    only = make_packet(42)
    assert select("FIFO", [only]) is only
    with pytest.raises(ValueError):
        select("FIFO", [])


def test_get_discipline_unknown_name():
    with pytest.raises(ValueError):
        get_discipline("NOPE")


def test_get_discipline_passes_callables_through():
    fn = lambda p, now: p.id
    assert get_discipline(fn) is fn


def test_get_discipline_case_insensitive():
    assert get_discipline("fifo") is DISCIPLINES["FIFO"]


# ---- forward-looking classification -----------------------------------------


def test_non_forward_looking_partition():
    assert NON_FORWARD_LOOKING == frozenset({"FIFO", "LIFO", "LIS", "SIS", "NTS", "FFS"})
    for name in DISCIPLINES:
        expected = name in NON_FORWARD_LOOKING
        assert is_non_forward_looking(name) == expected
    assert not is_non_forward_looking("NTG")
    assert not is_non_forward_looking("FTG")
    with pytest.raises(ValueError, match="unknown discipline 'XYZ'"):
        is_non_forward_looking("XYZ")


# ---- properties --------------------------------------------------------------


# (id, injected_at, arrived, hops_done, hops_remaining >= 1)
packet_lists = st.lists(
    st.tuples(st.integers(1, 50), st.integers(1, 20), st.integers(1, 20),
              st.integers(0, 3), st.integers(1, 4)),
    min_size=1,
    max_size=8,
    unique_by=lambda t: t[0],
)


def _build_queue(raw):
    return [Packet(id=pid, path=("e1",) * (done + rem), injected_at=inj,
                   hops_done=done, arrived_in_queue_at=arr)
            for pid, inj, arr, done, rem in raw]


@given(packet_lists, st.sampled_from(sorted(DISCIPLINES)), st.randoms())
def test_select_ignores_storage_order(raw, name, rng):
    q = _build_queue(raw)
    shuffled = list(q)
    rng.shuffle(shuffled)
    assert select(name, q).id == select(name, shuffled).id


@given(packet_lists, st.sampled_from(sorted(DISCIPLINES)))
def test_select_returns_queue_member(raw, name):
    q = _build_queue(raw)
    assert select(name, q) in q


@given(packet_lists, st.sampled_from(sorted(DISCIPLINES)))
def test_least_is_min_over_key_then_id_with_one_key_call_each(raw, name):
    q = _build_queue(raw)
    key = DISCIPLINES[name]
    calls = []
    i = least(q, lambda p: calls.append(p.id) or key(p))
    assert q[i] is min(q, key=lambda p: (key(p), p.id))
    assert calls == [p.id for p in q]


@given(packet_lists)
def test_lifo_equals_fifo_under_reversed_arrival_keys(raw):
    q = _build_queue(raw)
    mirrored = [Packet(id=p.id, path=p.path, injected_at=p.injected_at,
                       hops_done=0, arrived_in_queue_at=-p.arrived_in_queue_at)
                for p in q]
    assert select("LIFO", q).id == select("FIFO", mirrored).id


def test_ties_always_resolve_to_smallest_id():
    q = [make_packet(pid) for pid in (31, 4, 15, 9)]
    for name in DISCIPLINES:
        assert select(name, q).id == 4
