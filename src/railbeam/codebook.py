"""Offline phase-excitation codebook and location-driven beam selection.

Every beam is a column of per-element phases precomputed for the cell
midpoints of the covered angular range. Selecting a beam is a pure table
lookup on the station direction; no channel measurements enter anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .csvout import row_format, write_csv
from .geometry import ArrayConfig, _check_beam_count, _grid, beam_index, coverage_interval, total_coverage

PHASE_TABLE_HEADER = ("beam_id", "element_id", "phase_rad")
TRAVERSE_HEADER = ("t_s", "theta_b_rad", "beam_id", "switch")
_TRAVERSE_ROW = row_format(TRAVERSE_HEADER, int_columns=("beam_id", "switch"))


class NotYetEnteredError(ValueError):
    """The station direction lies before the start of coverage."""


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


class TraverseSample(NamedTuple):
    """One fix of a traverse; a tuple, so it equals a plain tuple of the same values."""
    time: float  # s
    train_angle: float  # rad
    beam_id: int
    switched: bool


@dataclass(frozen=True)
class TraverseLog:
    samples: tuple[TraverseSample, ...]

    def switch_count(self) -> int:
        return sum(1 for s in self.samples if s.switched)

    def switch_times(self) -> list[float]:
        return [s.time for s in self.samples if s.switched]


def wavenumber(cfg: ArrayConfig) -> float:
    return 2.0 * math.pi / cfg.wavelength


def _beam_centers(cfg: ArrayConfig, beam_count: int) -> np.ndarray:
    """Midpoints of the ``beam_count`` equal cells of the coverage interval."""
    lo, _ = coverage_interval(cfg)
    cell = total_coverage(cfg) / beam_count
    return lo + (np.arange(1, beam_count + 1) - 0.5) * cell


def build_phase_mapper(cfg: ArrayConfig, beam_count: int) -> PhaseMapper:
    """Phase table steering one beam at each cell midpoint.

    Element ``m`` of beam ``i`` gets the cumulative progressive phase
    ``-(m-1) * k * d * cos(center_i)`` so that the per-element propagation
    phase cancels exactly at the beam center.
    """
    _check_beam_count(cfg, beam_count)
    centers = _beam_centers(cfg, beam_count)
    k = wavenumber(cfg)
    phases = np.outer(np.arange(cfg.element_count), -k * cfg.spacing * np.cos(centers))
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


def _samples(trajectory: list[tuple[float, float]], cfg: ArrayConfig, beam_count: int) -> tuple:
    """``simulate_traverse``'s samples; ``select_beam`` reads its rule through a one-fix trajectory."""
    width, lo, hi, origin, half, _ = _grid(cfg, beam_count)
    if trajectory and not (math.isfinite(trajectory[0][0]) and math.isfinite(trajectory[-1][0])):
        raise ValueError("trajectory times must be finite")
    samples, new, last_t, last_beam = [], tuple.__new__, -math.inf, None
    for t, theta in trajectory:
        if not t > last_t:  # nan fails too: between finite ends every time is finite
            raise ValueError("trajectory times must be strictly increasing")
        if lo <= theta < hi:
            raw = math.floor((theta - origin) / width) + half  # _grid's locate, inline
            beam = 1 if raw < 0 else beam_count if raw >= beam_count else raw + 1
        elif theta >= hi:
            beam = 1
        elif theta < lo:
            raise NotYetEnteredError(f"theta_b={theta:.6g} precedes coverage start {lo:.6g}")
        else:
            beam = beam_index(theta, cfg, beam_count)  # NaN: beam_index's OutOfCoverageError
        samples.append(new(TraverseSample, (t, theta, beam, last_beam is not None and beam != last_beam)))
        last_t, last_beam = t, beam
    return tuple(samples)


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


def phase_table_text(mapper: PhaseMapper) -> Iterator[str]:
    """The phase table as ``beam_id,element_id,phase_rad`` CSV lines, one chunk per beam."""
    # The largest table written: one C-level ``%`` format per beam (``%.12g`` prints as
    # row_format's ``{:.12g}``) over one column's floats, so memory never holds the table.
    template = "".join(f"%d,{m},%.12g\n" for m in range(1, mapper.element_count + 1))
    for beam in range(1, mapper.beam_count + 1):
        args = [beam] * (2 * mapper.element_count)
        args[1::2] = mapper.phases[:, beam - 1].tolist()
        yield template % tuple(args)


def export_phase_mapper(mapper: PhaseMapper, path: str | Path) -> None:
    """Write the phase table as beam_id,element_id,phase_rad rows."""
    write_csv(path, PHASE_TABLE_HEADER, phase_table_text(mapper))


def traverse_text(log: TraverseLog) -> Iterator[str]:
    """A traverse log as ``t_s,theta_b_rad,beam_id,switch`` CSV lines."""
    return (_TRAVERSE_ROW.format(s.time, s.train_angle, s.beam_id, s.switched) for s in log.samples)


def export_traverse(log: TraverseLog, path: str | Path) -> None:
    """Write a traverse log as t_s,theta_b_rad,beam_id,switch rows."""
    write_csv(path, TRAVERSE_HEADER, traverse_text(log))
