"""A run's steps, packets or phase records, stored as what was stepped and
one period.

Once a run repeats a state, every later period is a shifted copy of one
period (see `sim_engine.skip_periods`). A `Periodic` stores the stepped head,
whose last `size` items are that period, the number of copies of it that
follow, and the stepped tail after them. It reads as the list of all its
items, and builds the copies only when one of them is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from itertools import chain
from operator import index
from typing import IO, Callable, Iterable, Optional, TypeVar

from .csvio import period_lines, write_csv, write_rows

T = TypeVar("T")


class Periodic(Sequence[T]):
    """The items `head`, then `periods` copies of the head's last `size`
    items (the template), then the tail. `copy(k)` gives the template moved
    on k periods, as new items in template order.

    It compares equal to the list of its items, and iterates, indexes and
    slices like it. The first access to a copy builds every copy, once, and
    keeps them. `len`, `stored`, `total`, `origin` and `write_csv` build none,
    so a summary or a CSV of a long periodic run costs what its head, one
    period and its tail cost. An engine that steps on after copying appends
    its items to the tail; nothing else changes a `Periodic`.
    """

    __slots__ = ("_head", "size", "periods", "_copy", "_copies", "_tail")

    def __init__(
        self,
        head: list[T],
        size: int = 0,
        periods: int = 0,
        copy: Optional[Callable[[int], Iterable[T]]] = None,
        tail: Optional[list[T]] = None,
    ):
        self._head = head
        self.size = size
        self.periods = periods
        self._copy = copy
        self._copies: Optional[list[T]] = None if periods else []
        self._tail = [] if tail is None else tail

    def append(self, item: T) -> None:
        self._tail.append(item)

    def __len__(self) -> int:
        return len(self._head) + self.periods * self.size + len(self._tail)

    @property
    def template(self) -> list[T]:
        """The period that the copies repeat: the head's last `size` items."""
        return self._head[len(self._head) - self.size :]

    def stored(self) -> Iterable[T]:
        """The head and the tail: the template is in the head, so every value
        that a copy shares with its template is among theirs."""
        return chain(self._head, self._tail)

    def total(self, count: Callable[[T], int]) -> int:
        """The sum of `count` over every item, for a `count` that a copy
        shares with its template."""
        return sum(map(count, self.stored())) + self.periods * sum(map(count, self.template))

    def origin(self, i: int) -> tuple[T, int]:
        """`(self[i], 0)` for a stored item; for a copy, its template item and
        the number of periods it is moved on. Builds nothing."""
        n = len(self)
        i = index(i)
        if not -n <= i < n:
            raise IndexError("Periodic index out of range")
        i = i % n - len(self._head)
        if i < 0:
            return self._head[i], 0
        copied = self.periods * self.size
        if i >= copied:
            return self._tail[i - copied], 0
        k, j = divmod(i, self.size)
        return self._head[len(self._head) - self.size + j], k + 1

    def _built(self) -> list[T]:
        if self._copies is None:
            self._copies = list(chain.from_iterable(map(self._copy, range(1, self.periods + 1))))
        return self._copies

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        item, k = self.origin(i)
        return self._built()[index(i) % len(self) - len(self._head)] if k else item

    def __iter__(self):
        return chain(self._head, self._built(), self._tail)

    def __eq__(self, other):
        if isinstance(other, Periodic):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like a list

    def __repr__(self) -> str:
        return (
            f"Periodic({len(self._head)} stepped, {self.periods} copies of the last"
            f" {self.size}, {len(self._tail)} stepped)"
        )

    def write_csv(
        self,
        dest: IO,
        columns: Sequence[str],
        moves: Sequence[int],
        header_comment: str = "",
        row: Optional[Callable[[T], Sequence]] = None,
    ) -> None:
        """Write what `csvio.write_csv` writes for the rows of the items,
        `row(item)` (the item itself by default). Each copy is written from
        the template's rows, field c of copy k moved on by k*moves[c] (see
        `csvio.period_lines`), so no copy is built."""
        rows = iter if row is None else partial(map, row)
        write_csv(dest, columns, rows(self._head), header_comment)
        dest.writelines(period_lines(rows(self.template), self.periods, moves))
        write_rows(dest, rows(self._tail))


def as_periodic(items: Iterable[T]) -> Periodic[T]:
    """`items` if it is a `Periodic`, else a `Periodic` of its items with no
    copies (a list is taken as it is, not copied)."""
    if isinstance(items, Periodic):
        return items
    return Periodic(items if isinstance(items, list) else list(items))
