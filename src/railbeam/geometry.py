"""Closed-form beam geometry for a uniform linear array serving a rail line.

The array points its beams at a wayside base station whose direction,
seen from the moving relay, is the angle ``theta_b`` measured from the
direction of travel. The total angular coverage splits into equal cells,
one per beam; each cell projects onto a stretch of rail around the base
station's position.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

SPEED_OF_LIGHT = 2.998e8  # m/s

BROADSIDE = 2
END_FIRE = 4


class OutOfCoverageError(ValueError):
    """The requested angle falls outside the array's total coverage."""


class SingularGeometryError(ValueError):
    """Rail projection undefined (line of sight parallel to the rail)."""


def _check_finite(params) -> None:
    """Reject a parameter dataclass holding a NaN or infinite field, by name."""
    for f in fields(params):
        if not math.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite")


def wavelength_from_frequency(carrier_hz: float) -> float:
    """Carrier wavelength in meters."""
    if carrier_hz <= 0:
        raise ValueError("carrier frequency must be positive")
    wavelength = SPEED_OF_LIGHT / carrier_hz
    if not math.isfinite(wavelength):
        raise ValueError("wavelength is not finite")
    return wavelength


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array and carrier parameters.

    ``array_type_factor`` is 2 for a broadside array and 4 for an ordinary
    end-fire array. ``bs_coverage_angle`` is the wayside station's own
    coverage angle; the array's total coverage must exceed it.
    """

    element_count: int
    spacing: float  # m
    wavelength: float  # m
    design_constant: float = 2.782
    array_type_factor: int = BROADSIDE
    bs_coverage_angle: float = 1.0  # rad

    def __post_init__(self):
        _check_finite(self)
        if self.element_count < 1:
            raise ValueError("element_count must be >= 1")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.design_constant <= 0:
            raise ValueError("design_constant must be positive")
        if self.array_type_factor not in (BROADSIDE, END_FIRE):
            raise ValueError("array_type_factor must be 2 (broadside) or 4 (end-fire)")
        if self.bs_coverage_angle <= 0:
            raise ValueError("bs_coverage_angle must be positive")
        if math.isinf(math.pi * (self.spacing * self.element_count)):
            raise ValueError("pi * spacing * element_count overflows")
        # widths fall as the count grows, so every count's width lies between these two
        width, alpha = beamwidth(self, self.element_count), total_coverage(self)
        if not (sys.float_info.min <= width and alpha < math.inf):
            raise ValueError(f"beamwidths from {width!r} to {alpha!r} rad are not all positive normal floats")
        if not alpha > self.bs_coverage_angle:
            raise ValueError(
                f"total coverage {alpha:.6g} rad must exceed the station "
                f"coverage angle {self.bs_coverage_angle:.6g} rad"
            )


@dataclass(frozen=True)
class RailGeometry:
    """Position of the relay relative to the wayside station.

    ``train_angle`` is the station direction seen from the relay, measured
    from the direction of travel; ``perpendicular_distance`` is the
    station-to-rail offset and ``antenna_height`` the station's antenna
    height above the relay plane.
    """

    perpendicular_distance: float  # m
    antenna_height: float = 0.0  # m
    train_angle: float = math.pi / 2  # rad

    def __post_init__(self):
        _check_finite(self)
        if self.perpendicular_distance <= 0:
            raise ValueError("perpendicular_distance must be positive")
        if self.antenna_height < 0:
            raise ValueError("antenna_height must be >= 0")


@dataclass(frozen=True)
class BeamGeometry:
    """Per-beam figures for one beam count and one relay position."""

    beam_count: int
    beamwidth: float  # rad
    directivity: float
    beam_index: int
    index_offset: int  # beam_index - 1 - beam_count // 2, the serving cell counted from the middle one
    left_bound: float  # m
    right_bound: float  # m
    coverage_length: float  # m


def total_coverage(cfg: ArrayConfig) -> float:
    """Total covered angle, the sum of all beam cells."""
    return cfg.design_constant * cfg.wavelength / (math.pi * cfg.spacing)


def coverage_interval(cfg: ArrayConfig) -> tuple[float, float]:
    """Angular interval covered by the beam set, centered on broadside."""
    half = 0.5 * total_coverage(cfg)
    return math.pi / 2 - half, math.pi / 2 + half


def _check_beam_count(cfg: ArrayConfig, beam_count: int) -> None:
    if beam_count < 1:
        raise ValueError("beam_count must be >= 1")
    if beam_count > cfg.element_count:
        raise ValueError(
            f"beam_count {beam_count} exceeds element_count {cfg.element_count}"
        )


def beamwidth(cfg: ArrayConfig, beam_count: int) -> float:
    """Half-power width of one beam when the coverage splits into N cells."""
    _check_beam_count(cfg, beam_count)
    # spacing*beam_count grouped so (s*d, N/s) rescalings stay bit-identical
    return cfg.design_constant * cfg.wavelength / (
        math.pi * (cfg.spacing * beam_count)
    )


def _beam_centres(cfg: ArrayConfig, beam_count: int) -> list[float]:
    """Midpoints ``lo + (i + 0.5)*width`` of the ``beam_count`` equal cells of the coverage, in plain floats."""
    _check_beam_count(cfg, beam_count)
    lo, width = coverage_interval(cfg)[0], total_coverage(cfg) / beam_count
    return [lo + (i + 0.5) * width for i in range(beam_count)]


def _phase_steps(cfg: ArrayConfig, centres: list[float]) -> list[float]:
    """Each beam's per-element phase step, ``-k*d*cos(centre)``, in plain floats.

    Element ``m+1`` of the beam steering at ``centre`` gets ``m`` times its step, which cancels
    the per-element propagation phase there: ``codebook.PhaseMapper`` and the CSV export
    (``csvout.phase_text``) both build their phases from these steps.
    """
    step = -(2.0 * math.pi / cfg.wavelength) * cfg.spacing
    return [step * math.cos(centre) for centre in centres]


def directivity(cfg: ArrayConfig, beam_count: int) -> float:
    """Peak-over-isotropic gain of one beam; grows linearly with N."""
    _check_beam_count(cfg, beam_count)
    return cfg.array_type_factor * cfg.spacing * beam_count / cfg.wavelength


def _grid(cfg: ArrayConfig, beam_count: int) -> tuple[float, float, float, float, int]:
    """The package's one cell grid: ``(width, lo, hi, origin, half)`` for ``beam_count`` cells.

    ``(lo, hi)`` is ``coverage_interval``; ``_locate`` floors an angle into its cell from
    ``(width, origin, half)``, and ``codebook.simulate_traverse`` writes the same floor and
    clamp inline. Even counts anchor the grid at broadside, odd counts at ``lo``; both refine
    dyadically when the count doubles. All of it is taken once per grid, not per angle.
    """
    width = beamwidth(cfg, beam_count)
    lo, hi = coverage_interval(cfg)
    if beam_count % 2 == 0:
        # broadside is then an exact shared edge at every width: its quotient is exactly 0, so it
        # opens beam N/2 + 1 (test_boresight_maps_to_middle); from lo, (pi/2 - lo)/w may round low
        return width, lo, hi, math.pi / 2, beam_count // 2
    return width, lo, hi, lo, 0


def _locate(theta: float, width: float, origin: float, half: int, count: int) -> tuple[int, float]:
    """``(cell, lower edge)`` of ``theta`` on a grid: ``floor((theta - origin)/width) + half``, in [0, N-1]."""
    raw = math.floor((theta - origin) / width) + half
    # the clamp gives the coverage edges, and rounding past them, to the outer cells
    cell = 0 if raw < 0 else count - 1 if raw >= count else raw
    return cell, origin + (cell - half) * width


def beam_index(theta_b: float, cfg: ArrayConfig, beam_count: int) -> int:
    """1-based id of the beam serving direction ``theta_b``, in [1, N].

    Beam b serves cell b-1 (its phase column steers at that cell's
    midpoint); an angle on a shared cell edge belongs to the higher beam,
    and the upper coverage edge to beam N.
    """
    width, lo, hi, origin, half = _grid(cfg, beam_count)
    if not lo <= theta_b <= hi:
        raise OutOfCoverageError(f"theta_b={theta_b:.6g} outside coverage [{lo:.6g}, {hi:.6g}]")
    return _locate(theta_b, width, origin, half, beam_count)[0] + 1


def rail_coordinate(theta: float, perpendicular_distance: float) -> float:
    """Rail position (m, measured from the station's foot point) at which the
    station appears under angle ``theta``."""
    s = math.sin(theta)
    if abs(s) < 1e-15:
        raise SingularGeometryError("line of sight parallel to the rail")
    return perpendicular_distance / math.tan(theta)


def _rail_sine(theta_b: float, lo: float, hi: float) -> float:
    """``sin(theta_b)``, once ``theta_b`` is known to lie in the open coverage ``(lo, hi)``."""
    if not lo < theta_b < hi:
        raise OutOfCoverageError(f"theta_b={theta_b:.6g} outside open coverage ({lo:.6g}, {hi:.6g})")
    s = math.sin(theta_b)
    if s < 1e-15:
        raise SingularGeometryError("sin(theta_b) vanishes, no rail projection")
    return s


def _rail_cell(
    geo: RailGeometry, s: float, width: float, origin: float, half: int, count: int
) -> tuple[int, float, float]:
    """``(cell, left, right)``: the cell holding the relay's angle, of sine ``s``, and its rail bounds."""
    theta_b, d0 = geo.train_angle, geo.perpendicular_distance
    cell, edge_low = _locate(theta_b, width, origin, half, count)
    left = max((theta_b - edge_low) * d0 / s, 0.0)
    right = max((edge_low + width - theta_b) * d0 / s, 0.0)
    return cell, left, right


def beam_bounds_on_rail(geo: RailGeometry, cfg: ArrayConfig, beam_count: int) -> tuple[float, float, float]:
    """Rail distances from the station to the serving beam's edges.

    Returns ``(left, right, total)`` in meters, ``left`` toward the lower
    angular edge of the cell and ``right`` toward the upper one; their sum
    is the beam's rail coverage length ``d0 * beamwidth / sin(theta_b)``.
    The rail projection ``rail_coordinate`` fixes which edge lies on which
    side of the station.
    """
    width, lo, hi, origin, half = _grid(cfg, beam_count)
    _, left, right = _rail_cell(geo, _rail_sine(geo.train_angle, lo, hi), width, origin, half, beam_count)
    return left, right, left + right


def beam_geometry(cfg: ArrayConfig, geo: RailGeometry, beam_count: int) -> BeamGeometry:
    """Bundle the per-beam figures for one beam count and relay position, all from one grid."""
    width, lo, hi, origin, half = _grid(cfg, beam_count)
    cell, left, right = _rail_cell(geo, _rail_sine(geo.train_angle, lo, hi), width, origin, half, beam_count)
    return BeamGeometry(
        beam_count=beam_count, beamwidth=width, directivity=directivity(cfg, beam_count),
        beam_index=cell + 1, index_offset=cell - beam_count // 2,
        left_bound=left, right_bound=right, coverage_length=left + right,
    )
