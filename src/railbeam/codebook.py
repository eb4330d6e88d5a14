"""Offline phase-excitation codebook and location-driven beam selection.

Every beam is a progressive phase, one step per element, precomputed for
the cell midpoints of the covered angular range. Selecting a beam is a pure
table lookup on the station direction; no channel measurements enter
anywhere. The table is exported as CSV text, one beam at a time, through
``csvout.phase_text``, which forms each column from its step: so does
``export-codebook``, without numpy and without a mapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .csvout import PHASE_TABLE_HEADER, phase_text, write_csv  # the header is re-exported
from .geometry import ArrayConfig, _beam_centres, _phase_steps
from .traverse import (  # re-exported: the traverse log's names are codebook's public API too
    TRAVERSE_HEADER, NotYetEnteredError, TraverseLog, TraverseSample, _samples, export_traverse, traverse_text,
)


@dataclass(frozen=True)
class PhaseMapper:
    """Each beam's phase step and center angle, for an array of ``element_count`` elements.

    ``steps[i]`` is beam ``i+1``'s per-element phase step (rad) and ``beam_centers[i]`` the
    midpoint of its angular cell. ``phases[m, i] = m * steps[i]`` is the phase applied on
    element ``m+1`` for beam ``i+1``; the (M, N) table is built on first use.
    """

    steps: np.ndarray  # (N,) rad
    beam_centers: np.ndarray  # (N,) rad
    element_count: int

    @cached_property
    def phases(self) -> np.ndarray:  # (M, N) rad
        # element 1's row is 0.0 * step: -0.0 where the step is negative
        return np.arange(float(self.element_count))[:, None] * self.steps

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
    return PhaseMapper(np.array(_phase_steps(cfg, centres)), np.array(centres), cfg.element_count)


def steering_vector(theta: float, beam: int, mapper: PhaseMapper, cfg: ArrayConfig) -> np.ndarray:
    """Per-element unit phasors, (M,) complex, of the array response toward ``theta`` through beam ``beam``."""
    if not 1 <= beam <= mapper.beam_count:
        raise ValueError(f"beam {beam} outside [1, {mapper.beam_count}]")
    m = np.arange(mapper.element_count)
    return np.exp(1j * (m * wavenumber(cfg) * cfg.spacing * math.cos(theta) + mapper.phases[:, beam - 1]))


def array_factor(theta: float, beam: int, mapper: PhaseMapper, cfg: ArrayConfig) -> float:
    """Normalized power pattern of one beam of a uniform array, 1.0 at its center."""
    return float(np.abs(np.sum(steering_vector(theta, beam, mapper, cfg))) ** 2) / mapper.element_count**2


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
    """The phase table as ``beam_id,element_id,phase_rad`` CSV lines, in chunks of whole lines.

    ``csvout.phase_text`` forms each beam's column from its step, one beam to a chunk,
    or, for a large table, with a helper process taking the upper half of the beams.
    """
    return phase_text(mapper.element_count, mapper.steps.tolist())


def export_phase_mapper(mapper: PhaseMapper, path: str | Path) -> None:
    """Write the phase table as beam_id,element_id,phase_rad rows."""
    write_csv(path, PHASE_TABLE_HEADER, phase_table_text(mapper))
