"""Engine crossings seen from the tests, and the one feasibility checker for
them.

The engines keep no log of their moves. `recorded_moves` wraps `advance`, the
step core through which `aqsim.sim_engine.run`,
`aqsim.interval_strategy.run_interval` and `aqsim.static_routing.greedy_schedule`
send every packet, and logs each crossing as (step, edge id, packet id) in the
order the engine makes it. Each of the three modules calls `advance` through
its own module name, so all three names are patched.
`check_schedule` holds such a list of crossings to the rules of a feasible
schedule.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from aqsim import interval_strategy, sim_engine, static_routing


@contextmanager
def recorded_moves():
    """Inside the block, every crossing either engine or the greedy static
    runner makes is appended to the yielded list as (step, edge id, packet
    id)."""
    moves = []
    advance = sim_engine.advance

    def logged(queues, busy, senders, key, now):
        moved, delivered, longest = advance(queues, busy, senders, key, now)
        # a packet that just crossed has the edge behind it in its path
        moves.extend((now, pkt.path[pkt.hops_done - 1], pkt.id) for pkt in moved)
        return moved, delivered, longest

    with mock.patch.object(sim_engine, "advance", logged), mock.patch.object(
        interval_strategy, "advance", logged
    ), mock.patch.object(static_routing, "advance", logged):
        yield moves


def check_schedule(paths, moves, injected_at=None, complete=True) -> list[list[int]]:
    """Raise AssertionError, naming the broken rule, unless `moves`, a list of
    (step, edge id, packet id) crossings by the packets with ids
    1..len(paths), is feasible:

    - every id names a packet;
    - no edge carries two packets in one step;
    - each packet crosses the edges of its path in order, at strictly
      increasing steps, none before its injection step (`injected_at`, by
      packet, all 1 when not given) and no more than its path has;
    - with `complete`, each packet crosses its whole path.

    Returns each packet's crossing steps, in packet id order.
    """
    paths = [tuple(p) for p in paths]
    injected_at = [1] * len(paths) if injected_at is None else injected_at
    per_packet: list[list[tuple]] = [[] for _ in paths]
    taken = set()
    for step, edge, pid in moves:
        if not 1 <= pid <= len(paths):
            raise AssertionError(f"move references unknown packet {pid}")
        if step < injected_at[pid - 1]:
            raise AssertionError(
                f"packet {pid}: move at step {step} < {injected_at[pid - 1]}, its injection step"
            )
        if (step, edge) in taken:
            raise AssertionError(f"edge {edge!r} carries two packets at step {step}")
        taken.add((step, edge))
        per_packet[pid - 1].append((step, edge))
    steps = []
    for pid, (path, crossings) in enumerate(zip(paths, per_packet), start=1):
        crossings.sort(key=lambda c: c[0])  # stable: a packet's same-step moves stay in order
        if len(crossings) > len(path):
            raise AssertionError(f"packet {pid}: more moves than path edges")
        for k, (step, edge) in enumerate(crossings):
            if edge != path[k]:
                raise AssertionError(
                    f"packet {pid}: move {k + 1} crosses {edge!r}, path says {path[k]!r}"
                )
            if k and step <= crossings[k - 1][0]:
                raise AssertionError(f"packet {pid}: edge {k + 1} not strictly after edge {k}")
        if complete and len(crossings) < len(path):
            raise AssertionError(
                f"packet {pid}: crosses {len(crossings)} of its {len(path)} edges"
            )
        steps.append([step for step, _ in crossings])
    return steps
