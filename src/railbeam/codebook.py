"""Offline phase-excitation codebook and location-driven beam selection.

Every beam is a column of per-element phases precomputed for the cell
midpoints of the covered angular range. Selecting a beam is a pure table
lookup on the station direction; no channel measurements enter anywhere.
The table is exported as CSV text one column at a time; a table of at
least ``_SPLIT_ROWS`` rows is formatted by two processes, this one and a
numpy-free helper that runs ``csvout``'s formatter (``phase_table_text``).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .csvout import column_table_text, write_csv
from .geometry import ArrayConfig, _check_beam_count, coverage_interval, total_coverage
from .traverse import (  # re-exported: the traverse log's names are codebook's public API too
    TRAVERSE_HEADER, NotYetEnteredError, TraverseLog, TraverseSample, _samples, export_traverse, traverse_text,
)

PHASE_TABLE_HEADER = ("beam_id", "element_id", "phase_rad")


@dataclass(frozen=True)
class PhaseMapper:
    """Element-by-beam phase table plus the beam center angles.

    ``phases[m, i]`` is the phase (rad) applied on element ``m+1`` for beam
    ``i+1``; ``beam_centers[i]`` is the midpoint of beam ``i+1``'s angular
    cell.
    """

    phases: np.ndarray  # (M, N) rad
    beam_centers: np.ndarray  # (N,) rad

    @property
    def element_count(self) -> int:
        return self.phases.shape[0]

    @property
    def beam_count(self) -> int:
        return self.phases.shape[1]


@dataclass(frozen=True)
class SteeringVector:
    """Per-element unit phasors of the array response toward one angle."""

    entries: np.ndarray  # (M,) complex, |entry| = 1, entries[0] = 1
    wavenumber: float  # rad/m


def wavenumber(cfg: ArrayConfig) -> float:
    return 2.0 * math.pi / cfg.wavelength


def _beam_centers(cfg: ArrayConfig, beam_count: int) -> np.ndarray:
    """Midpoints of the ``beam_count`` equal cells of the coverage interval."""
    return coverage_interval(cfg)[0] + np.arange(0.5, beam_count) * (total_coverage(cfg) / beam_count)


def build_phase_mapper(cfg: ArrayConfig, beam_count: int) -> PhaseMapper:
    """Phase table steering one beam at each cell midpoint.

    Element ``m`` of beam ``i`` gets the cumulative progressive phase
    ``-(m-1) * k * d * cos(center_i)`` so that the per-element propagation
    phase cancels exactly at the beam center.
    """
    _check_beam_count(cfg, beam_count)
    centers = _beam_centers(cfg, beam_count)
    k = wavenumber(cfg)
    # one broadcast product; element 1's row is 0.0 * (-k d cos(centre)), -0.0 where cos > 0
    phases = np.arange(float(cfg.element_count))[:, None] * (-k * cfg.spacing * np.cos(centers))
    return PhaseMapper(phases=phases, beam_centers=centers)


def steering_vector(
    theta: float, beam: int, mapper: PhaseMapper, cfg: ArrayConfig
) -> SteeringVector:
    """Array response toward ``theta`` through beam ``beam``'s phase column."""
    if not 1 <= beam <= mapper.beam_count:
        raise ValueError(f"beam {beam} outside [1, {mapper.beam_count}]")
    k = wavenumber(cfg)
    m = np.arange(mapper.element_count)
    entries = np.exp(1j * (m * k * cfg.spacing * math.cos(theta) + mapper.phases[:, beam - 1]))
    return SteeringVector(entries=entries, wavenumber=k)


def array_factor(
    theta: float,
    beam: int,
    mapper: PhaseMapper,
    cfg: ArrayConfig,
    amplitudes: np.ndarray | None = None,
) -> float:
    """Normalized power pattern of one beam, 1.0 at its center.

    ``amplitudes`` are the per-element excitations; a uniform array is
    assumed when omitted.
    """
    vec = steering_vector(theta, beam, mapper, cfg).entries
    if amplitudes is None:
        amplitudes = np.ones(mapper.element_count)
    total = float(np.sum(amplitudes))
    return float(np.abs(np.sum(amplitudes * vec)) ** 2) / total**2


def select_beam(theta_b: float, mapper: PhaseMapper, cfg: ArrayConfig) -> tuple[int, np.ndarray]:
    """Beam id and phase column for the station direction ``theta_b``.

    Angles past the upper coverage edge reset to beam 1 (ready for the
    next station); angles before the lower edge raise, the relay has not
    entered this station's coverage yet. Inside coverage the id is
    ``geometry.beam_index``'s, from the same cell grid: a direction exactly
    on a shared cell boundary belongs to the higher-indexed cell.
    """
    beam = _samples([(0.0, theta_b)], cfg, mapper.beam_count)[0].beam_id
    return beam, mapper.phases[:, beam - 1]


def simulate_traverse(
    trajectory: list[tuple[float, float]], mapper: PhaseMapper, cfg: ArrayConfig
) -> TraverseLog:
    """Replay beam selection along a (time, angle) trajectory.

    Times must be finite and strictly increasing. ``switched`` marks samples
    whose beam differs from the previous one; an empty trajectory yields an
    empty log; the first faulty fix decides the error. The cell grid is read
    once, and each fix takes ``select_beam``'s rule inline, with no Python call.
    """
    return TraverseLog(samples=_samples(trajectory, cfg, mapper.beam_count))


# Tables of at least this many rows are split with a helper process (see phase_table_text).
# The measured crossover on 2 vCPUs: below it the helper's start-up, and numpy's BLAS thread,
# which spins on the second CPU for about 90 ms after ``import numpy``, cost more than it saves.
_SPLIT_ROWS = 1 << 19

# The helper: a bare interpreter that imports only the numpy-free csvout, from this package's root.
_HELPER = "import sys; sys.path.insert(0, sys.argv[1]); from railbeam.csvout import _format_part; _format_part(*sys.argv[2:])"


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def phase_table_text(mapper: PhaseMapper) -> Iterator[str]:
    """The phase table as ``beam_id,element_id,phase_rad`` CSV lines, in chunks of whole lines.

    Below ``_SPLIT_ROWS`` rows, or with one CPU, each beam is one chunk, formatted here by
    ``csvout.column_table_text``. A larger table is split: once iterated, one numpy-free
    helper process formats the upper half of the beams while this one formats the lower
    half, and the helper's text follows in blocks of 64 KiB. The bytes are the same either
    way, and each process holds one column's text at a time, never the table's.
    """
    if mapper.element_count * mapper.beam_count >= _SPLIT_ROWS and _cpus() >= 2 and sys.executable:
        return _split_table_text(mapper.phases)
    return column_table_text(1, (column.tolist() for column in mapper.phases.T))


def _split_table_text(phases: np.ndarray) -> Iterator[str]:
    """Beams ``1 … N//2`` formatted here and ``N//2+1 … N`` by a helper process, in order.

    The helper starts up while its columns are written, as raw float64, to a temporary
    file; closing its stdin tells it the file is complete. It writes its text to a part
    file next to that one, and both go with the call. The helper is killed and reaped on
    every exit, early close and errors included; a helper that fails raises
    ``ChildProcessError`` with the tail of its stderr.
    """
    import subprocess
    import tempfile

    length, count = phases.shape
    half = count // 2
    with tempfile.TemporaryDirectory(prefix="railbeam-") as tmp:
        columns_path, part_path = os.path.join(tmp, "columns.f64"), os.path.join(tmp, "part.csv")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        # -I drops PYTHONDONTWRITEBYTECODE with the rest of the environment, so -B carries it over
        argv = [sys.executable, "-I", "-S", *(["-B"] if sys.dont_write_bytecode else []), "-c", _HELPER]
        argv += [root, columns_path, part_path, str(half + 1), str(count - half), str(length)]
        with subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        ) as proc:
            try:
                with open(columns_path, "wb") as fh:
                    for column in phases.T[half:]:
                        fh.write(column.tobytes())
                proc.stdin.close()
                yield from column_table_text(1, (column.tolist() for column in phases.T[:half]))
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


def export_phase_mapper(mapper: PhaseMapper, path: str | Path) -> None:
    """Write the phase table as beam_id,element_id,phase_rad rows."""
    write_csv(path, PHASE_TABLE_HEADER, phase_table_text(mapper))
