"""The CSV format of every railbeam table, its one writer, and the numpy-free phase-table text.

LF line endings; int and bool columns as integers, all others as ``%.12g``.
Tables arrive as text chunks of whole lines, written as each is built.
``column_table_text`` formats the phase table's ``id,row,value`` lines, one ``%``
per beam, from each beam's phase step. ``phase_text`` turns the steps into the
phase table, and splits a large one with a bare helper interpreter that runs
``_format_part``. This module imports no numpy, so ``export-codebook`` and the
helper load none.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Collection, Iterable, Iterator, Sequence

PHASE_TABLE_HEADER = ("beam_id", "element_id", "phase_rad")

# Tables of at least this many rows are split with a helper process (see phase_text).
# The crossover measured on 2 vCPUs with numpy loaded: below it the helper's start-up, and
# numpy's BLAS thread, which spins on the second CPU for about 90 ms after ``import numpy``,
# cost more than it saves. ``export-codebook`` loads no numpy; 2^19 was not measured without it.
_SPLIT_ROWS = 1 << 19

# The helper: a bare interpreter that imports only this module, from this package's root.
_HELPER = "import sys; sys.path.insert(0, sys.argv[1]); from railbeam.csvout import _format_part; _format_part(*sys.argv[2:])"


def row_format(header: Sequence[str], int_columns: Collection[str] = ()) -> str:
    """``str.format`` template for one CSV line of ``header``'s columns."""
    return ",".join("{:d}" if name in int_columns else "{:.12g}" for name in header) + "\n"


def write_csv(path: str | os.PathLike[str], header: Sequence[str], chunks: Iterable[str]) -> int:
    """Write ``header``, then each chunk as it arrives; returns the row count."""
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            fh.write(chunk)
            rows += chunk.count("\n")
    return rows


def column_table_text(first: int, length: int, steps: Iterable[float]) -> Iterator[str]:
    """``id,row,value`` lines, one chunk per step: ids count up from ``first``, rows from 1.

    Row ``m+1`` of a step's column holds ``m * step``, the phase of element ``m+1``, with the
    bits of ``codebook.PhaseMapper.phases``. Column ``id`` is one ``%`` over ``str(id).join(rows)``,
    whose ``rows`` (``",1,%.12g\\n"`` onward, after an empty first item) are built once;
    ``%.12g`` prints as ``row_format``'s ``{:.12g}``.
    """
    rows = [""] + [f",{m},%.12g\n" for m in range(1, length + 1)]
    elements = [float(m) for m in range(length)]
    for ident, step in enumerate(steps, first):
        yield str(ident).join(rows) % tuple([m * step for m in elements])


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def phase_text(length: int, steps: Sequence[float]) -> Iterator[str]:
    """The phase table as ``beam_id,element_id,phase_rad`` CSV lines, in chunks of whole lines.

    ``steps`` are the beams' phase steps as plain floats, and ``length`` the element count.
    Below ``_SPLIT_ROWS`` rows, or with one CPU, each beam is one chunk, formatted here by
    ``column_table_text``. A larger table is split: once iterated, one helper process formats
    the upper half of the beams while this one formats the lower half, and the helper's text
    follows in blocks of 64 KiB. The bytes are the same either way, and each process holds one
    column's text at a time, never the table's.
    """
    if length * len(steps) >= _SPLIT_ROWS and _cpus() >= 2 and sys.executable:
        return _split_table_text(length, steps)
    return column_table_text(1, length, steps)


def _split_table_text(length: int, steps: Sequence[float]) -> Iterator[str]:
    """Beams ``1 … len(steps)//2`` formatted here and the rest by a helper process, in order.

    The helper reads its steps, as raw float64, from its stdin until it closes, and writes its
    text to a part file in a temporary folder that goes with the call. The helper is killed
    and reaped on every exit, early close and errors included; a helper that fails, even
    before it reads its steps, raises ``ChildProcessError`` with the tail of its stderr.
    """
    import subprocess
    import tempfile
    from array import array

    half = len(steps) // 2
    with tempfile.TemporaryDirectory(prefix="railbeam-") as tmp:
        part_path = os.path.join(tmp, "part.csv")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        # -I drops PYTHONDONTWRITEBYTECODE with the rest of the environment, so -B carries it over
        argv = [sys.executable, "-I", "-S", *(["-B"] if sys.dont_write_bytecode else []), "-c", _HELPER]
        argv += [root, part_path, str(half + 1), str(length)]
        with subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        ) as proc:
            try:
                try:
                    with proc.stdin:
                        proc.stdin.write(array("d", steps[half:]))
                except BrokenPipeError:
                    pass  # the helper exited unread: its status and stderr below say why
                yield from column_table_text(1, length, steps[:half])
                stderr = proc.stderr.read()
                proc.wait()
            finally:
                if proc.returncode is None:
                    proc.kill()
        if proc.returncode:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise ChildProcessError(f"phase table helper exited with status {proc.returncode}: {' '.join(tail)}")
        with open(part_path, newline="") as fh:
            rest = ""
            while block := fh.read(1 << 16):
                block = rest + block
                cut = block.rfind("\n") + 1
                rest = block[cut:]
                yield block[:cut]


def _format_part(part_path: str, first: str, length: str) -> None:
    """Helper-process entry: raw float64 steps in on stdin, their beams' text out to ``part_path``."""
    from array import array

    steps = array("d", sys.stdin.buffer.read())
    with open(part_path, "w", newline="") as out:
        out.writelines(column_table_text(int(first), int(length), steps))
