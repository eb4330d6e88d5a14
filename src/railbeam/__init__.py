"""Location-driven uplink beam planning for rail corridors.

A train-mounted relay with a uniform linear array points offline-computed
beams at wayside stations using position alone. The package covers the
beam geometry and its gain/width tradeoff, the positioning-error-aware
choice of beam count, the phase-excitation codebook with location-based
switching, and the achievable rate region when two trains share one
station.

Each public name imports its module on first use, so ``import railbeam``
loads no submodule and numpy is imported only by the layers that call it
(``codebook``, ``encounter``, ``numerics``); a traverse log (``traverse``)
needs no phase table and loads no numpy, and the ``export-codebook``
subcommand writes the phase table from plain floats without numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "codebook": (
        "PhaseMapper", "SteeringVector", "array_factor", "build_phase_mapper",
        "export_phase_mapper", "select_beam", "simulate_traverse", "steering_vector",
    ),
    "config": ("ConfigError", "ExperimentConfig", "load_config"),
    "encounter": (
        "AllocationProfile", "ConvergenceError", "DecodePriority", "EncounterScenario",
        "EncounterWindowError", "InfeasibleRateError", "RateRegion", "no_priority_allocation",
        "priority_rate", "rate_region", "single_train_rmax", "symmetric_rate", "tfds_baseline",
    ),
    "geometry": (
        "ArrayConfig", "BeamGeometry", "OutOfCoverageError", "RailGeometry",
        "SingularGeometryError", "beam_bounds_on_rail", "beam_geometry", "beam_index",
        "beamwidth", "coverage_interval", "directivity", "rail_coordinate", "total_coverage",
        "wavelength_from_frequency",
    ),
    "positioning": (
        "PositioningModel", "SearchResult", "effective_probability", "gaussian_tail",
        "search_beam_count",
    ),
    "traverse": ("NotYetEnteredError", "TraverseLog", "export_traverse"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
