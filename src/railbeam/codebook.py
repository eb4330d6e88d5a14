"""Offline phase-excitation codebook, location-driven beam selection and its traverse log.

Every beam is a progressive phase, one step per element, precomputed for
the cell midpoints of the covered angular range. Selecting a beam is a pure
table lookup on the station direction; no channel measurements enter
anywhere. The table is exported as CSV text, one beam at a time, through
``csvout.phase_text``, which forms each column from its step.

numpy is imported only inside the functions that form arrays
(``PhaseMapper.phases``, ``steering_vector``, ``array_factor`` and
``select_beam``), so building a mapper, replaying a traverse and exporting
either table load none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

from .csvout import PHASE_TABLE_HEADER, phase_text, row_format, write_csv
from .geometry import ArrayConfig, _beam_centres, _grid, _phase_steps, beam_index

TRAVERSE_HEADER = ("t_s", "theta_b_rad", "beam_id", "switch")
_TRAVERSE_ROW = row_format(TRAVERSE_HEADER, int_columns=("beam_id", "switch"))


class NotYetEnteredError(ValueError):
    """The station direction lies before the start of coverage."""


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


@dataclass(frozen=True)
class PhaseMapper:
    """Each beam's phase step and center angle, for an array of ``element_count`` elements.

    ``steps[i]`` is beam ``i+1``'s per-element phase step (rad) and ``beam_centers[i]`` the
    midpoint of its angular cell. ``phases[m, i] = m * steps[i]`` is the phase applied on
    element ``m+1`` for beam ``i+1``; the (M, N) table is built on first use.
    """

    steps: tuple[float, ...]  # (N,) rad
    beam_centers: tuple[float, ...]  # (N,) rad
    element_count: int

    @cached_property
    def phases(self):  # (M, N) numpy array, rad
        import numpy as np

        # element 1's row is 0.0 * step: -0.0 where the step is negative
        return np.arange(float(self.element_count))[:, None] * np.array(self.steps)

    @property
    def beam_count(self) -> int:
        return len(self.steps)


def wavenumber(cfg: ArrayConfig) -> float:
    return 2.0 * math.pi / cfg.wavelength


def build_phase_mapper(cfg: ArrayConfig, beam_count: int) -> PhaseMapper:
    """Phase steps steering one beam at each cell midpoint.

    Element ``m`` of beam ``i`` gets the cumulative progressive phase
    ``-(m-1) * k * d * cos(center_i)`` so that the per-element propagation
    phase cancels exactly at the beam center; ``geometry`` states the
    centres and the steps.
    """
    centres = _beam_centres(cfg, beam_count)
    return PhaseMapper(tuple(_phase_steps(cfg, centres)), tuple(centres), cfg.element_count)


def steering_vector(theta: float, beam: int, mapper: PhaseMapper, cfg: ArrayConfig):
    """Per-element unit phasors, an (M,) complex array, of the array response toward ``theta`` through beam ``beam``."""
    import numpy as np

    if not 1 <= beam <= mapper.beam_count:
        raise ValueError(f"beam {beam} outside [1, {mapper.beam_count}]")
    m = np.arange(float(mapper.element_count))
    # m * step has the bits of phases[:, beam - 1], without the table
    return np.exp(1j * (m * wavenumber(cfg) * cfg.spacing * math.cos(theta) + m * mapper.steps[beam - 1]))


def array_factor(theta: float, beam: int, mapper: PhaseMapper, cfg: ArrayConfig) -> float:
    """Normalized power pattern of one beam of a uniform array, 1.0 at its center."""
    import numpy as np

    return float(np.abs(np.sum(steering_vector(theta, beam, mapper, cfg))) ** 2) / mapper.element_count**2


def select_beam(theta_b: float, mapper: PhaseMapper, cfg: ArrayConfig):
    """Beam id and phase column, an (M,) numpy array, for the station direction ``theta_b``.

    Angles past the upper coverage edge reset to beam 1 (ready for the
    next station); angles before the lower edge raise, the relay has not
    entered this station's coverage yet. Inside coverage the id is
    ``geometry.beam_index``'s, from the same cell grid: a direction exactly
    on a shared cell boundary belongs to the higher-indexed cell. The column
    is formed from the beam's step, with the bits of ``phases[:, beam - 1]``.
    """
    import numpy as np

    beam = simulate_traverse([(0.0, theta_b)], mapper, cfg).samples[0].beam_id
    return beam, np.arange(float(mapper.element_count)) * mapper.steps[beam - 1]


def simulate_traverse(
    trajectory: list[tuple[float, float]], mapper: PhaseMapper, cfg: ArrayConfig
) -> TraverseLog:
    """Replay beam selection along a (time, angle) trajectory.

    Times must be finite and strictly increasing. ``switched`` marks samples
    whose beam differs from the previous one; an empty trajectory yields an
    empty log; the first faulty fix decides the error. The cell grid is read
    once, and each fix is selected inline, with no Python call; ``select_beam``
    is a traverse of one fix.
    """
    beam_count = mapper.beam_count
    width, lo, hi, origin, half = _grid(cfg, beam_count)
    if trajectory and not (math.isfinite(trajectory[0][0]) and math.isfinite(trajectory[-1][0])):
        raise ValueError("trajectory times must be finite")
    samples, new, last_t, last_beam = [], tuple.__new__, -math.inf, None
    for t, theta in trajectory:
        if not t > last_t:  # nan fails too: between finite ends every time is finite
            raise ValueError("trajectory times must be strictly increasing")
        if lo <= theta < hi:
            raw = math.floor((theta - origin) / width) + half  # geometry._locate, inline
            beam = 1 if raw < 0 else beam_count if raw >= beam_count else raw + 1
        elif theta >= hi:
            beam = 1
        elif theta < lo:
            raise NotYetEnteredError(f"theta_b={theta:.6g} precedes coverage start {lo:.6g}")
        else:
            beam = beam_index(theta, cfg, beam_count)  # NaN: beam_index's OutOfCoverageError
        samples.append(new(TraverseSample, (t, theta, beam, last_beam is not None and beam != last_beam)))
        last_t, last_beam = t, beam
    return TraverseLog(samples=tuple(samples))


def traverse_text(log: TraverseLog) -> Iterator[str]:
    """A traverse log as ``t_s,theta_b_rad,beam_id,switch`` CSV lines."""
    return (_TRAVERSE_ROW.format(s.time, s.train_angle, s.beam_id, s.switched) for s in log.samples)


def export_traverse(log: TraverseLog, path: str | Path) -> None:
    """Write a traverse log as t_s,theta_b_rad,beam_id,switch rows."""
    write_csv(path, TRAVERSE_HEADER, traverse_text(log))


def phase_table_text(mapper: PhaseMapper) -> Iterator[str]:
    """The phase table as ``beam_id,element_id,phase_rad`` CSV lines, in chunks of whole lines.

    ``csvout.phase_text`` forms each beam's column from its step, one beam to a chunk,
    or, for a large table, with a helper process taking the upper half of the beams.
    """
    return phase_text(mapper.element_count, mapper.steps)


def export_phase_mapper(mapper: PhaseMapper, path: str | Path) -> None:
    """Write the phase table as beam_id,element_id,phase_rad rows."""
    write_csv(path, PHASE_TABLE_HEADER, phase_table_text(mapper))
