"""Location-driven uplink beam planning for rail corridors.

A train-mounted relay with a uniform linear array points offline-computed
beams at wayside stations using position alone. The package covers the
beam geometry and its gain/width tradeoff, the positioning-error-aware
choice of beam count, the phase-excitation codebook with location-based
switching, and the achievable rate region when two trains share one
station.
"""

__version__ = "0.1.0"

from .codebook import (
    NotYetEnteredError,
    PhaseMapper,
    SteeringVector,
    TraverseLog,
    array_factor,
    build_phase_mapper,
    export_phase_mapper,
    export_traverse,
    select_beam,
    simulate_traverse,
    steering_vector,
)
from .config import ConfigError, ExperimentConfig, load_config
from .encounter import (
    AllocationProfile,
    ConvergenceError,
    DecodePriority,
    EncounterScenario,
    EncounterWindowError,
    InfeasibleRateError,
    RateRegion,
    no_priority_allocation,
    priority_rate,
    rate_region,
    single_train_rmax,
    symmetric_rate,
    tfds_baseline,
)
from .geometry import (
    ArrayConfig,
    BeamGeometry,
    OutOfCoverageError,
    RailGeometry,
    SingularGeometryError,
    beam_bounds_on_rail,
    beam_geometry,
    beam_index,
    beamwidth,
    coverage_interval,
    directivity,
    rail_coordinate,
    total_coverage,
    wavelength_from_frequency,
)
from .positioning import (
    PositioningModel,
    SearchResult,
    effective_probability,
    gaussian_tail,
    search_beam_count,
)

__all__ = [
    "ArrayConfig",
    "AllocationProfile",
    "BeamGeometry",
    "ConfigError",
    "ConvergenceError",
    "DecodePriority",
    "EncounterScenario",
    "EncounterWindowError",
    "ExperimentConfig",
    "InfeasibleRateError",
    "NotYetEnteredError",
    "OutOfCoverageError",
    "PhaseMapper",
    "PositioningModel",
    "RailGeometry",
    "RateRegion",
    "SearchResult",
    "SingularGeometryError",
    "SteeringVector",
    "TraverseLog",
    "array_factor",
    "beam_bounds_on_rail",
    "beam_geometry",
    "beam_index",
    "beamwidth",
    "build_phase_mapper",
    "coverage_interval",
    "directivity",
    "effective_probability",
    "export_phase_mapper",
    "export_traverse",
    "gaussian_tail",
    "load_config",
    "no_priority_allocation",
    "priority_rate",
    "rail_coordinate",
    "rate_region",
    "search_beam_count",
    "select_beam",
    "simulate_traverse",
    "single_train_rmax",
    "steering_vector",
    "symmetric_rate",
    "tfds_baseline",
    "total_coverage",
    "wavelength_from_frequency",
]
