"""The CSV format of every railbeam table, its one writer, and the numpy-free column formatter.

LF line endings; int and bool columns as integers, all others as ``%.12g``.
Tables arrive as text chunks of whole lines, written as each is built.
``column_table_text`` formats ``id,row,value`` tables such as the phase table,
one ``%`` per column. It imports no numpy, so a bare helper interpreter can run
it through ``_format_part`` (see ``codebook.phase_table_text``).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Sequence
from os import PathLike


def row_format(header: Sequence[str], int_columns: Collection[str] = ()) -> str:
    """``str.format`` template for one CSV line of ``header``'s columns."""
    return ",".join("{:d}" if name in int_columns else "{:.12g}" for name in header) + "\n"


def write_csv(path: str | PathLike[str], header: Sequence[str], chunks: Iterable[str]) -> int:
    """Write ``header``, then each chunk as it arrives; returns the row count."""
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            fh.write(chunk)
            rows += chunk.count("\n")
    return rows


def column_table_text(first: int, columns: Iterable[Sequence[float]]) -> Iterator[str]:
    """``id,row,value`` lines, one chunk per column: ids count up from ``first``, rows from 1.

    Column ``id`` is one ``%`` over ``str(id).join(rows)``, whose ``rows`` (``",1,%.12g\\n"``
    onward, after an empty first item) are built once per column length; ``%.12g`` prints
    as ``row_format``'s ``{:.12g}``.
    """
    rows: list[str] = []
    for ident, column in enumerate(columns, first):
        if len(rows) != len(column) + 1:
            rows = [""] + [f",{m},%.12g\n" for m in range(1, len(column) + 1)]
        yield str(ident).join(rows) % tuple(column)


def _format_part(columns_path: str, part_path: str, first: str, count: str, length: str) -> None:
    """Helper-process entry: ``count`` raw float64 columns of ``length`` in, their text out.

    The columns file is read once stdin closes, the writer's sign that it is complete.
    """
    import sys
    from array import array

    def columns(src) -> Iterator[array]:
        for _ in range(int(count)):
            column = array("d")
            column.fromfile(src, int(length))  # EOFError on a short file
            yield column

    sys.stdin.buffer.read()
    with open(columns_path, "rb") as src, open(part_path, "w", newline="") as out:
        out.writelines(column_table_text(int(first), columns(src)))
