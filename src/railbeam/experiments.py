"""Deterministic CSV experiments reproducing the headline sweeps.

Each experiment writes one or more CSVs plus a JSON manifest echoing the
resolved configuration. Rows are formatted as they are computed and
streamed to their file. Identical configuration yields byte-identical
CSVs; timestamps live only in the manifest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .config import ExperimentConfig, dbm_to_watts
from .csvout import row_format, write_csv
from .geometry import coverage_interval, rail_coordinate
from .positioning import search_beam_count

# ``encounter`` and ``codebook`` are imported inside the runners that call them: ``encounter``
# loads numpy, and ``codebook`` is not compiled where it is not run. ``tradeoff``, ``search-n``,
# ``traverse`` and ``export-codebook`` never load numpy.


@dataclass(frozen=True)
class RunManifest:
    experiment: str
    version: str
    generated_at: str
    config: dict
    files: dict[str, int]
    notes: tuple[str, ...]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _run_tradeoff(cfg: ExperimentConfig):
    n = cfg.tradeoff_grid_size
    lo, hi = cfg.tradeoff_theta_h_min, cfg.tradeoff_theta_h_max
    factor = cfg.array_type_factor * cfg.design_constant / math.pi
    header = ("theta_h_rad", "directivity")
    fmt = row_format(header)
    widths = (lo + (hi - lo) * i / (n - 1) for i in range(n))
    return {"tradeoff.csv": (header, (fmt.format(w, factor / w) for w in widths))}, []


def _search_lines(cfg: ExperimentConfig, jobs, header: Sequence[str]) -> Iterator[str]:
    fmt = row_format(header, int_columns=("n_star", "infeasible"))
    array_cfg = cfg.array_config()
    for lead_value, theta, p_th, sigma in jobs:
        geo = cfg.rail_geometry(theta)
        model = cfg.positioning_model(sigma=sigma, p_th=p_th)
        result = search_beam_count(array_cfg, geo, model)
        n_star = result.optimal_beam_count
        # spacing/beam-count duality columns: d'/d shrinks as N* grows
        ratios = (cfg.beam_count / n_star, n_star / cfg.beam_count) if "d_ratio" in header else ()
        yield fmt.format(
            lead_value, p_th, n_star, *ratios, result.directivity_at_optimum,
            result.achieved_probability, not result.feasible,
        )


def _run_search_n(cfg: ExperimentConfig):
    array_cfg = cfg.array_config()
    lo, hi = coverage_interval(array_cfg)
    margin = (hi - lo) * 1e-3
    n = cfg.theta_grid_size
    thetas = [lo + margin + (hi - lo - 2 * margin) * i / (n - 1) for i in range(n)]
    theta_jobs = [(theta, theta, p_th, cfg.sigma_m) for p_th in cfg.p_th_list for theta in thetas]
    sigma_jobs = [(sigma, cfg.theta_b_rad, p_th, sigma) for p_th in cfg.p_th_list for sigma in cfg.sigma_grid_m]
    theta_header = (
        "theta_b_rad", "p_th", "n_star", "d_ratio", "n_ratio",
        "directivity", "achieved_probability", "infeasible",
    )
    sigma_header = (
        "sigma_m", "p_th", "n_star", "directivity", "achieved_probability", "infeasible",
    )
    files = {
        "d_vs_theta.csv": (theta_header, _search_lines(cfg, theta_jobs, theta_header)),
        "directivity_vs_sigma.csv": (sigma_header, _search_lines(cfg, sigma_jobs, sigma_header)),
    }
    return files, [f"theta_b swept across the computed coverage interval ({lo:.6g}, {hi:.6g}) rad"]


_REGION_HEADER = ("R2_bps_hz", "R1_bps_hz")
_REGION_ROW = row_format(_REGION_HEADER)


def _region_lines(solve: Callable[..., RateRegion], *args) -> Iterator[str]:
    """The lines of ``solve(*args)``, solved once its first line is asked for."""
    for r1, r2 in solve(*args).pairs:
        yield _REGION_ROW.format(r2, r1)


def _run_rate_region(cfg: ExperimentConfig):
    from .encounter import rate_region, tfds_baseline

    # The scenarios are built here, so a config error surfaces before any file is written. Each
    # region is solved while its file is written and dropped before the next, so a run holds
    # one region, not all of them; a solve that fails leaves its file with only its header.
    n, scenario = cfg.r2_grid_size, cfg.encounter_scenario
    files = {
        f"rate_region_eta{eta:g}.csv": (_REGION_HEADER, _region_lines(rate_region, scenario(eta=eta), n))
        for eta in cfg.eta_list
    }
    # the solo maxima are each train's whole pass, which the entry offset only shifts in time
    files["tfds.csv"] = (_REGION_HEADER, _region_lines(tfds_baseline, scenario(eta=0.0), n))
    return files, []


_SYMMETRIC_HEADER = ("eta", "R0_bps_hz", "p0_dbm")
_SYMMETRIC_ROW = row_format(_SYMMETRIC_HEADER)


def _symmetric_lines(cfg: ExperimentConfig) -> Iterator[str]:
    from .encounter import symmetric_rate

    n = cfg.eta_grid_size
    etas = [2.0 * i / (n - 1) for i in range(n)]
    for dbm in cfg.p0_dbm_list:
        for eta in etas:
            sc = cfg.encounter_scenario(eta=eta, p0_w=dbm_to_watts(dbm))
            yield _SYMMETRIC_ROW.format(eta, symmetric_rate(sc), dbm)


def _run_symmetric(cfg: ExperimentConfig):
    return {"symmetric.csv": (_SYMMETRIC_HEADER, _symmetric_lines(cfg))}, []


def _run_traverse(cfg: ExperimentConfig):
    from .codebook import TRAVERSE_HEADER, build_phase_mapper, simulate_traverse, traverse_text

    array_cfg = cfg.array_config()
    mapper = build_phase_mapper(array_cfg, cfg.beam_count)  # checks the count before the trajectory
    lo, hi = coverage_interval(array_cfg)
    margin = (hi - lo) * 1e-6
    u_start = rail_coordinate(lo + margin, cfg.d0_m)
    u_end = rail_coordinate(hi - margin, cfg.d0_m)
    trajectory = []
    t = 0.0
    u = u_start
    while u > u_end:
        trajectory.append((t, math.atan2(cfg.d0_m, u)))
        t += cfg.traverse_dt_s
        u = u_start - cfg.v0_mps * t
    log = simulate_traverse(trajectory, mapper, array_cfg)
    return {"traverse.csv": (TRAVERSE_HEADER, traverse_text(log))}, []


def _run_export_codebook(cfg: ExperimentConfig):
    from .codebook import PHASE_TABLE_HEADER, build_phase_mapper, phase_table_text

    mapper = build_phase_mapper(cfg.array_config(), cfg.beam_count)
    return {"codebook.csv": (PHASE_TABLE_HEADER, phase_table_text(mapper))}, []


EXPERIMENTS: dict[str, Callable] = {
    "tradeoff": _run_tradeoff,
    "search-n": _run_search_n,
    "rate-region": _run_rate_region,
    "symmetric": _run_symmetric,
    "traverse": _run_traverse,
    "export-codebook": _run_export_codebook,
}


def run_experiment(cfg: ExperimentConfig, experiment: str, out: str | Path) -> RunManifest:
    """Run one named experiment into the directory ``out``, returning the manifest written there."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    if not str(out):
        raise ValueError("out must name a directory")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    files, notes = EXPERIMENTS[experiment](cfg)
    counts = {name: write_csv(out / name, header, text) for name, (header, text) in files.items()}
    manifest = RunManifest(
        experiment=experiment,
        version=__version__,
        generated_at=datetime.now(timezone.utc).isoformat(),
        config=asdict(cfg),
        files=counts,
        notes=tuple(notes),
    )
    manifest.write(out / f"{experiment.replace('-', '_')}_manifest.json")
    return manifest
