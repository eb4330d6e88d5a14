"""Beam selection from the cell grid alone, with no phase table and no numpy; ``codebook`` replays it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .csvout import row_format, write_csv
from .geometry import ArrayConfig, _grid, beam_index

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


def _samples(trajectory: list[tuple[float, float]], cfg: ArrayConfig, beam_count: int) -> tuple:
    """``simulate_traverse``'s samples; ``select_beam`` reads its rule through a one-fix trajectory."""
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
    return tuple(samples)


def traverse_text(log: TraverseLog) -> Iterator[str]:
    """A traverse log as ``t_s,theta_b_rad,beam_id,switch`` CSV lines."""
    return (_TRAVERSE_ROW.format(s.time, s.train_angle, s.beam_id, s.switched) for s in log.samples)


def export_traverse(log: TraverseLog, path: str | Path) -> None:
    """Write a traverse log as t_s,theta_b_rad,beam_id,switch rows."""
    write_csv(path, TRAVERSE_HEADER, traverse_text(log))
