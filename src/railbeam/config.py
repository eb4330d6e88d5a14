"""Key-value experiment configuration with declared defaults.

The file format is one ``key = value`` per line, ``#`` starts a comment.
Unknown keys are rejected with their line number. Quantities with a unit
choice carry it in the key name (``theta_b_rad`` vs ``theta_b_deg``,
``p0_dbm`` vs ``p0_w``), never guessed from magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .geometry import ArrayConfig, RailGeometry, coverage_interval, directivity, wavelength_from_frequency
from .positioning import PositioningModel


class ConfigError(ValueError):
    """Malformed key, value, or invariant violation in a config file."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def kmh_to_mps(kmh: float) -> float:
    return kmh / 3.6


DEFAULT_NOISE_POWER_W = 10.0 ** (-13.4)  # -104 dBm


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    """Comma list (``a,b,c``) or linspace shorthand (``start:stop:count``); nothing may be empty."""
    text = text.strip()
    if not text:
        raise ValueError("empty list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("expected start:stop:count")
        start, stop, count = _finite_float(parts[0]), _finite_float(parts[1]), int(parts[2])
        if count < 2:
            raise ValueError("count must be >= 2")
        step = (stop - start) / (count - 1)
        return tuple(start + i * step for i in range(count))
    entries = text.split(",")
    if not all(p.strip() for p in entries):
        raise ValueError(f"empty entry in {text!r}")
    return tuple(_finite_float(p) for p in entries)


@dataclass
class ExperimentConfig:
    """Fully resolved parameters for the library and the experiment runner."""

    # array / carrier
    wavelength_m: float = wavelength_from_frequency(2.4e9)
    spacing_m: float = 0.0  # defaults to wavelength / 2
    element_count: int = 128
    beam_count: int = 128
    design_constant: float = 2.782
    array_type_factor: int = 2
    bs_coverage_angle_rad: float = 1.0
    # rail geometry
    d0_m: float = 50.0
    h0_m: float = 20.0
    theta_b_rad: float = math.pi / 4
    # positioning
    sigma_m: float = 1.0
    n_max: int = 0  # defaults to element_count
    # encounter
    L_m: float = 800.0
    v0_mps: float = 100.0
    path_loss_exp: float = 3.0
    p0_w: float = dbm_to_watts(43.0)
    noise_power_w: float = DEFAULT_NOISE_POWER_W
    beam_weight_1: float = 0.0  # defaults to directivity at beam_count
    beam_weight_2: float = 0.0
    # harness
    theta_grid_size: int = 101
    sigma_grid_m: tuple[float, ...] = field(
        default_factory=lambda: tuple(0.5 * (i + 1) for i in range(20))
    )
    p_th_list: tuple[float, ...] = (0.7, 0.8, 0.9)
    r2_grid_size: int = 101
    eta_list: tuple[float, ...] = (0.0, 0.8, 1.6, 2.0)
    eta_grid_size: int = 21
    p0_dbm_list: tuple[float, ...] = (37.0, 43.0, 47.0)
    traverse_dt_s: float = 0.001
    tradeoff_theta_h_min: float = 0.01
    tradeoff_theta_h_max: float = math.pi
    tradeoff_grid_size: int = 200

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(
            element_count=self.element_count,
            spacing=self.spacing_m,
            wavelength=self.wavelength_m,
            design_constant=self.design_constant,
            array_type_factor=self.array_type_factor,
            bs_coverage_angle=self.bs_coverage_angle_rad,
        )

    def rail_geometry(self, theta_b: float | None = None) -> RailGeometry:
        return RailGeometry(
            perpendicular_distance=self.d0_m,
            antenna_height=self.h0_m,
            train_angle=self.theta_b_rad if theta_b is None else theta_b,
        )

    def positioning_model(self, sigma: float, p_th: float) -> PositioningModel:
        return PositioningModel(error_stddev=sigma, threshold=p_th, max_beam_count=self.n_max)

    def encounter_scenario(self, eta: float, p0_w: float | None = None) -> EncounterScenario:
        from .encounter import EncounterScenario  # numpy loads only for encounter runs

        return EncounterScenario(
            half_coverage=self.L_m,
            speed=self.v0_mps,
            perpendicular_distance=self.d0_m,
            antenna_height=self.h0_m,
            path_loss_exponent=self.path_loss_exp,
            avg_power=self.p0_w if p0_w is None else p0_w,
            noise_power=self.noise_power_w,
            entry_offset=eta,
            beam_weight_1=self.beam_weight_1,
            beam_weight_2=self.beam_weight_2,
        )


# alternate key -> (field it sets, conversion); a file may set a field or its alternate
_ALIASES = {
    "theta_b_deg": ("theta_b_rad", math.radians),
    "bs_coverage_angle_deg": ("bs_coverage_angle_rad", math.radians),
    "v0_kmh": ("v0_mps", kmh_to_mps),
    "p0_dbm": ("p0_w", dbm_to_watts),
    "noise_power_dbm": ("noise_power_w", dbm_to_watts),
    "carrier_frequency_hz": ("wavelength_m", wavelength_from_frequency),
}
# field annotations are strings under ``from __future__ import annotations``
_TYPE_PARSERS = {"float": _finite_float, "int": int, "tuple[float, ...]": _float_list}
_KEY_PARSER = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}
_KEY_PARSER.update(dict.fromkeys(_ALIASES, _finite_float))


def _parse_lines(path: str | Path) -> dict[str, tuple[object, int]]:
    values: dict[str, tuple[object, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _KEY_PARSER:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            try:
                values[key] = (_KEY_PARSER[key](text), lineno)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _check_ranges(cfg: ExperimentConfig) -> None:
    if not 2.0 <= cfg.path_loss_exp <= 5.0:
        raise ConfigError(f"path_loss_exp={cfg.path_loss_exp:g} outside [2, 5]")
    for name in ("d0_m", "L_m", "v0_mps", "p0_w", "noise_power_w", "traverse_dt_s"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.h0_m < 0 or cfg.sigma_m < 0:
        raise ConfigError("h0_m and sigma_m must be >= 0")
    if cfg.n_max < 1 or cfg.n_max > cfg.element_count:
        raise ConfigError(f"n_max={cfg.n_max} outside [1, element_count]")
    if not 1 <= cfg.beam_count <= cfg.element_count:
        raise ConfigError(f"beam_count={cfg.beam_count} outside [1, element_count]")
    for p in cfg.p_th_list:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"p_th_list entry {p:g} outside (0, 1)")
    for dbm in cfg.p0_dbm_list:
        try:
            watts = dbm_to_watts(dbm)
        except OverflowError:
            watts = math.inf
        if not 0.0 < watts < math.inf:
            raise ConfigError(f"p0_dbm_list entry {dbm:g} gives p0_w={watts:g}, outside (0, inf)")
    printed: dict[str, float] = {}
    for e in cfg.eta_list:
        if not 0.0 <= e <= 2.0:
            raise ConfigError(f"eta_list entry {e:g} outside [0, 2]")
        # each entry names its rate-region CSV by ``{eta:g}``; a shared name would overwrite
        name = f"{e:g}"
        if name in printed:
            raise ConfigError(f"eta_list entries {printed[name]!r} and {e!r} share rate_region_eta{name}.csv")
        printed[name] = e
    for s in cfg.sigma_grid_m:
        if s < 0:
            raise ConfigError(f"sigma_grid_m entry {s:g} must be >= 0")
    if not 0.0 < cfg.tradeoff_theta_h_min < cfg.tradeoff_theta_h_max:
        raise ConfigError(
            f"tradeoff_theta_h_min={cfg.tradeoff_theta_h_min:g} must lie in "
            f"(0, tradeoff_theta_h_max={cfg.tradeoff_theta_h_max:g})"
        )
    # the tradeoff's first row, in its runner's arithmetic, has the largest directivity
    if not math.isfinite(cfg.array_type_factor * cfg.design_constant / math.pi / cfg.tradeoff_theta_h_min):
        raise ConfigError(f"tradeoff_theta_h_min={cfg.tradeoff_theta_h_min:g} gives an infinite directivity")
    for size_name in ("theta_grid_size", "r2_grid_size", "eta_grid_size", "tradeoff_grid_size"):
        if getattr(cfg, size_name) < 2:
            raise ConfigError(f"{size_name} must be >= 2")


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Parse a config file on top of the defaults; None means all defaults."""
    values = _parse_lines(path) if path is not None else {}

    converted: dict[str, object] = {}
    for key, (value, line) in values.items():
        if key in _ALIASES:
            target, convert = _ALIASES[key]
            if target in values:
                raise ConfigError(f"line {line}: {target!r} and {key!r} both set, pick one unit")
            try:
                value = convert(value)
            except OverflowError as exc:
                raise ConfigError(f"line {line}: {key}={value:g} overflows {target}") from exc
            except ValueError as exc:  # a non-positive carrier, or one whose wavelength is not finite
                raise ConfigError(f"line {line}: {key}={value:g}: {exc}") from exc
            key = target
        converted[key] = value
    cfg = ExperimentConfig(**converted)

    if "spacing_m" not in converted:
        cfg.spacing_m = cfg.wavelength_m / 2.0
    if "n_max" not in converted:
        cfg.n_max = cfg.element_count

    _check_ranges(cfg)
    try:
        array_cfg = cfg.array_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lo, hi = coverage_interval(array_cfg)
    if not lo < cfg.theta_b_rad < hi:
        raise ConfigError(
            f"theta_b_rad={cfg.theta_b_rad:.6g} outside the open coverage interval "
            f"({lo:.6g}, {hi:.6g}) rad"
        )

    default_weight = directivity(array_cfg, cfg.beam_count)
    if "beam_weight_1" not in converted:
        cfg.beam_weight_1 = default_weight
    if "beam_weight_2" not in converted:
        cfg.beam_weight_2 = default_weight
    if cfg.beam_weight_1 <= 0 or cfg.beam_weight_2 <= 0:
        raise ConfigError("beam weights must be positive")
    return cfg
