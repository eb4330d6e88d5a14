"""Gaussian positioning error and the beam-count search it constrains.

The relay selects its beam from a position estimate whose along-rail error
is zero-mean Gaussian. A beam is effective while the station stays inside
the selected beam's rail footprint, so narrower beams trade gain against
the probability of pointing past the station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ArrayConfig, RailGeometry, _check_finite, _grid, _rail_cell, _rail_sine, beamwidth, directivity

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PositioningModel:
    """Along-rail error deviation, required success probability, search cap."""

    error_stddev: float  # m
    threshold: float  # probability
    max_beam_count: int

    def __post_init__(self):
        _check_finite(self)
        if self.error_stddev < 0:
            raise ValueError("error_stddev must be >= 0")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.max_beam_count < 1:
            raise ValueError("max_beam_count must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    optimal_beam_count: int
    achieved_probability: float
    directivity_at_optimum: float
    feasible: bool


def gaussian_tail(x: float) -> float:
    """Upper tail of the standard normal distribution, Q(x)."""
    return 0.5 * math.erfc(x / _SQRT2)


def effective_probability(left_bound: float, right_bound: float, sigma: float) -> float:
    """Probability that a Gaussian position error keeps the station in-beam.

    ``left_bound`` and ``right_bound`` are the rail distances from the
    station to the serving beam's edges; ``sigma = 0`` means perfect
    positioning and returns 1.0 exactly.
    """
    # written as ``not x >= 0`` so that NaN fails the check too
    if not left_bound >= 0 or not right_bound >= 0:
        raise ValueError("beam bounds must be nonnegative")
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return 1.0
    return 1.0 - 0.5 * (gaussian_tail(left_bound / sigma) + gaussian_tail(right_bound / sigma))


def search_beam_count(
    cfg: ArrayConfig, geo: RailGeometry, model: PositioningModel
) -> SearchResult:
    """Largest admissible beam count meeting the success threshold.

    The candidates are the doubling sequence 1, 2, 4, ... capped at
    ``model.max_beam_count``; along it the success probability can only
    fall as beams split, so the scan stops at the first miss. When even a
    single beam misses the threshold, the result carries ``feasible=False``
    with that count. One grid is read, at one beam; each level after it
    takes ``beamwidth`` alone, with broadside as the origin.
    """
    if model.max_beam_count > cfg.element_count:
        raise ValueError(f"max_beam_count {model.max_beam_count} exceeds element_count {cfg.element_count}")
    width, lo, hi, origin, half = _grid(cfg, 1)  # coverage and sine are checked once
    s, sigma = _rail_sine(geo.train_angle, lo, hi), model.error_stddev
    n, count, prob = 1, 1, None
    while True:
        _, left, right = _rail_cell(geo, s, width, origin, half, count)
        p = effective_probability(left, right, sigma)
        if p < model.threshold:
            break
        n, count, prob = count, 2 * count, p
        if count > model.max_beam_count:
            break
        width, origin, half = beamwidth(cfg, count), math.pi / 2, count // 2
    if prob is None:
        return SearchResult(1, p, directivity(cfg, 1), False)
    return SearchResult(n, prob, directivity(cfg, n), True)
