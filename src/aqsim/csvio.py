"""The one CSV writer behind every table the package exports."""

from __future__ import annotations

import csv
from typing import IO, Iterable, Sequence


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
    w = csv.writer(dest, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
