"""The CSV format of every railbeam table, and its one writer.

LF line endings; int and bool columns as integers, all others as ``%.12g``.
Tables arrive as text chunks of whole lines, written as each is built.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection, Iterable, Sequence


def row_format(header: Sequence[str], int_columns: Collection[str] = ()) -> str:
    """``str.format`` template for one CSV line of ``header``'s columns."""
    return ",".join("{:d}" if name in int_columns else "{:.12g}" for name in header) + "\n"


def write_csv(path: str | Path, header: Sequence[str], chunks: Iterable[str]) -> int:
    """Write ``header``, then each chunk as it arrives; returns the row count."""
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            fh.write(chunk)
            rows += chunk.count("\n")
    return rows
