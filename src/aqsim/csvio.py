"""The one CSV writer behind every table the package exports."""

from __future__ import annotations

import csv
from itertools import chain, repeat
from typing import IO, Iterable, Iterator, Sequence


def write_csv(
    dest: IO,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    header_comment: str = "",
) -> None:
    """Write an optional `# comment` line, the header row, then `rows` to the
    open text stream `dest`, which is left open. Lines always end in a bare
    "\\n".
    """
    if header_comment:
        dest.write(f"# {header_comment}\n")
    write_rows(dest, chain([columns], rows))


def write_rows(dest: IO, rows: Iterable[Sequence]) -> None:
    """Write `rows` to `dest` as `write_csv` does, with no header."""
    csv.writer(dest, lineterminator="\n").writerows(rows)


def period_lines(rows: Iterable[Sequence], periods: int, moves: Sequence[int]) -> Iterator[str]:
    """For k = 1..`periods`, the text `write_rows` writes for `rows` with
    field c of each row moved on by k*moves[c]; an empty field stays empty.

    The fields are ints or empty strings, which `csv` writes as `str` does
    and quotes never in a row of more than one field. So each period's text
    is one %-format of its moving fields, which come from one `range` per
    moving field of the template."""
    lines, starts, steps = [], [], []
    for row in rows:
        fields = []
        for value, move in zip(row, moves, strict=True):
            if move and value != "":
                fields.append("%d")
                starts.append(value + move)
                steps.append(move)
            else:
                fields.append(str(value))
        lines.append(",".join(fields) + "\n")
    text = "".join(lines)
    if not starts:  # no field moves: every period's text is the same
        return repeat(text, periods if text else 0)
    moved = (range(start, start + step * periods, step) for start, step in zip(starts, steps))
    return map(text.__mod__, zip(*moved))
