"""The one CSV writer behind every table the package exports."""

from __future__ import annotations

import csv
from typing import IO, Iterable, Sequence, Union


def write_csv(
    dest: Union[str, IO],
    columns: Sequence[str],
    rows: Iterable[Sequence],
    header_comment: str = "",
) -> None:
    """Write an optional `# comment` line, the header row, then `rows`.

    `dest` is a path (opened, written and closed here) or an open text stream
    (left open). Lines always end in a bare "\\n".
    """
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as out:
            write_csv(out, columns, rows, header_comment)
        return
    if header_comment:
        dest.write(f"# {header_comment}\n")
    w = csv.writer(dest, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
