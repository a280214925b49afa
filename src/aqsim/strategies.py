"""Packets and the greedy queueing disciplines that order them.

Every discipline is a priority key over waiting packets; the queue winner is
the packet minimising (key, packet id), so ties always break toward the
smallest id and every run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter, eq
from typing import Callable, Optional, Sequence

from .network import shown


@dataclass(slots=True)
class Packet:
    """One packet: fixed edge path plus progress/arrival bookkeeping.

    `arrived_in_queue_at` is the step the packet joined its *current* queue
    (FIFO/LIFO key); `injected_at` never changes (LIS/SIS key). `phase` is
    set by the interval strategy when the packet is adopted into a phase and
    stays None for plain runs and for packets delivered straight from a
    holding queue. `route` is the path as queue indices (edge-declaration
    order), which the engines' step core moves the packet by; it is left
    empty on packets that never enter an engine queue.
    """

    id: int
    path: tuple
    injected_at: int
    hops_done: int = 0
    arrived_in_queue_at: int = 0
    delivered_at: Optional[int] = None
    phase: Optional[int] = None
    route: tuple[int, ...] = field(default=(), repr=False, compare=False)

    @property
    def hops_remaining(self) -> int:
        return len(self.path) - self.hops_done

    @property
    def system_time(self) -> Optional[int]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at + 1


# A discipline key maps a queued packet to a sortable priority value.
DisciplineKey = Callable[[Packet], int]


def _fifo(p: Packet) -> int:  # first-in-first-out: earliest arrival in this queue
    return p.arrived_in_queue_at


def _lifo(p: Packet) -> int:  # last-in-first-out: latest arrival in this queue
    return -p.arrived_in_queue_at


def _lis(p: Packet) -> int:  # longest-in-system: earliest injection
    return p.injected_at


def _sis(p: Packet) -> int:  # shortest-in-system: latest injection
    return -p.injected_at


def _nts(p: Packet) -> int:  # nearest-to-source: fewest edges crossed so far
    return p.hops_done


def _ffs(p: Packet) -> int:  # farthest-from-source: most edges crossed so far
    return -p.hops_done


def _ntg(p: Packet) -> int:  # nearest-to-go: fewest edges still ahead
    return p.hops_remaining


def _ftg(p: Packet) -> int:  # farthest-to-go: most edges still ahead
    return -p.hops_remaining


DISCIPLINES: dict[str, DisciplineKey] = {
    "FIFO": _fifo,
    "LIFO": _lifo,
    "LIS": _lis,
    "SIS": _sis,
    "NTS": _nts,
    "FFS": _ffs,
    "NTG": _ntg,
    "FTG": _ftg,
}

# Keys that never read the part of the path still ahead of the packet.
NON_FORWARD_LOOKING: frozenset[str] = frozenset(
    {"FIFO", "LIFO", "LIS", "SIS", "NTS", "FFS"}
)


# The built-in keys by identity: each lives as long as this module, so no
# other object can take its id, and a custom key need not be hashable.
_BUILTIN_IDS: frozenset[int] = frozenset(map(id, DISCIPLINES.values()))


def is_builtin(key: DisciplineKey) -> bool:
    """Whether `key` is one of the eight keys in `DISCIPLINES` itself, not a
    custom callable, even one that wraps a built-in key."""
    return id(key) in _BUILTIN_IDS


def discipline_name(value) -> str:
    """The key of `DISCIPLINES` that `value` names in any case. Anything else,
    a value that is not a string included, is refused without building its
    str(), which a deeply nested or widely aliased list cannot afford."""
    if isinstance(value, str) and value.upper() in DISCIPLINES:
        return value.upper()
    raise ValueError(f"unknown discipline {shown(value)}; expected one of {sorted(DISCIPLINES)}")


def get_discipline(discipline) -> DisciplineKey:
    """Resolve a discipline name (or pass a key function through)."""
    if callable(discipline):
        return discipline
    return DISCIPLINES[discipline_name(discipline)]


def is_non_forward_looking(discipline) -> bool:
    return discipline_name(discipline) in NON_FORWARD_LOOKING


_packet_id = attrgetter("id")


def least(queue: Sequence[Packet], key: DisciplineKey) -> int:
    """Index of the packet least in (key, id) in a non-empty queue. The key is
    evaluated once per packet, in queue order; ids break ties only when the
    least key is shared."""
    ranks = list(map(key, queue))
    low = min(ranks)
    ties = ranks.count(low)
    if ties == 1:
        return ranks.index(low)
    ids = list(map(_packet_id, queue))
    tied = ids if ties == len(ids) else compress(ids, map(eq, ranks, repeat(low)))
    return ids.index(min(tied))


def select(discipline, queue: Sequence[Packet]) -> Packet:
    """Pick the transmitting packet from a non-empty queue."""
    if not queue:
        raise ValueError("select() on an empty queue")
    return queue[least(queue, get_discipline(discipline))]
